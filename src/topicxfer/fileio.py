"""Shared on-disk formats: matrix files, key=value files (metadata, configs)
and bundles of both.  Every file the package writes goes through write_lines,
and only this module removes or renames files.

Matrix format: first line ``rows cols``, then ``rows`` lines of ``cols``
space-separated decimals printed with 17 significant digits.
"""

import contextlib
import itertools
import os
from dataclasses import fields

import numpy as np

from .errors import ConfigError, CorpusError


def format_float(x):
    """Render a float with 17 significant digits (exact float64 round-trip)."""
    return f"{float(x):.17g}"


def write_lines(path, lines):
    """Write each string of lines and a ``\n`` after it, UTF-8.

    The lines go to a temporary sibling that replaces path once all are
    written, so path holds its old bytes or all the new ones; if lines (or the
    write) raises, the temporary file is removed.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(map("{}\n".format, lines))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_matrix(path, mat):
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    if mat.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D array, got shape {mat.shape}")
    rows, cols = mat.shape
    # one C-level format per row gives format_float's text; row by row, so the
    # text of the whole matrix is never held at once
    row_fmt = " ".join(["%.17g"] * cols)
    write_lines(path, itertools.chain([f"{rows} {cols}"],
                                      (row_fmt % tuple(row.tolist()) for row in mat)))


def read_matrix(path, shape=None):
    """Read a matrix file; a vector is stored as one row, so its shape is (1, n).

    With shape given, a matrix of any other shape is a ConfigError naming the file.
    Any other malformed file is a CorpusError naming it.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            rows, cols = map(int, fh.readline().split())
            if rows < 0 or cols < 0:
                raise ValueError
        except ValueError:
            raise CorpusError(f"{path}: malformed matrix header") from None
        if rows and cols:
            # one C-level parse of the declared rows, read line by line; it
            # gives float()'s value for every decimal the writer prints
            try:
                mat = np.loadtxt(itertools.islice(fh, rows), dtype=np.float64,
                                 comments=None, ndmin=2)
            except ValueError as exc:
                # numpy's message ends in a hint about usecols, which does not apply
                raise CorpusError(f"{path}: {str(exc).partition(';')[0]}") from None
            if mat.shape != (rows, cols):
                raise CorpusError(f"{path}: {mat.size} values in {mat.shape[0]} rows, "
                                  f"expected {rows} rows of {cols}")
        else:
            mat = np.empty((rows, cols), dtype=np.float64)
        if any(line.strip() for line in fh):
            raise CorpusError(f"{path}: data after the {rows} declared rows")
    if not np.isfinite(mat).all():
        raise CorpusError(f"{path}: matrix contains non-finite values")
    if shape is not None and mat.shape != shape:
        raise ConfigError(f"{path}: shape {mat.shape}, expected {shape}")
    return mat


def write_kv(path, items):
    """Write ``key=value`` lines in the given order."""
    write_lines(path, (f"{key}={value}" for key, value in items))


def read_kv(path, error=CorpusError):
    """Read ``key = value`` lines, skipping blanks and ``#`` comments.

    A line without ``=``, or a key given twice, raises ``error`` naming the
    path and line number.
    """
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise error(f"{path}: line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise error(f"{path}: line {lineno}: duplicate key {key!r}")
            out[key] = value
    return out


def parse_entry(path, key, raw, cast):
    """cast(raw) for the entry ``key`` of the ``key = value`` file ``path``.

    A value cast rejects raises a one-line ConfigError naming the file and key.
    """
    try:
        return cast(raw)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: {key}: {exc}") from None


def write_bundle(out_dir, meta, vocabulary, matrices):
    """Write vocab.txt, NAME.mat per name -> matrix and last meta.txt: the (key,
    value) items of meta, then ``matrices`` naming the matrices in write order.

    The old meta.txt and every .mat not written now are removed first, so a
    save that stops partway leaves no meta.txt and BundleReader refuses it."""
    os.makedirs(out_dir, exist_ok=True)
    meta_path = os.path.join(out_dir, "meta.txt")
    with contextlib.suppress(FileNotFoundError):
        os.remove(meta_path)
    for member in os.listdir(out_dir):
        if member.endswith(".mat") and member[:-4] not in matrices:
            os.remove(os.path.join(out_dir, member))
    vocabulary.save(os.path.join(out_dir, "vocab.txt"))
    for name, mat in matrices.items():
        write_matrix(os.path.join(out_dir, f"{name}.mat"), mat)
    write_kv(meta_path, [*meta, ("matrices", " ".join(matrices))])


class BundleReader:
    """A write_bundle directory: its meta.txt entries, members and vocabulary."""

    def __init__(self, bundle_dir):
        from .corpus import Vocabulary  # corpus imports this module

        self.dir = bundle_dir
        self.meta_path = os.path.join(bundle_dir, "meta.txt")
        self.meta = read_kv(self.meta_path)
        # the matrix names of meta.txt's matrices entry, in write order
        self.members = self.entry("matrices", str.split)
        self.vocabulary = Vocabulary.load(os.path.join(bundle_dir, "vocab.txt"))

    def entry(self, key, cast, default=None):
        """cast(value) of meta.txt's key, else default (None: the key is required);
        errors name the file and key."""
        if key in self.meta:
            return parse_entry(self.meta_path, key, self.meta[key], cast)
        if default is None:
            raise ConfigError(f"{self.meta_path}: missing key {key!r}")
        return default

    def matrix(self, name, shape=None):
        """NAME.mat, a listed member; a shape other than a given one is a
        ConfigError naming the file."""
        if name not in self.members:
            raise ConfigError(f"{self.meta_path}: matrices does not list {name!r}")
        return read_matrix(os.path.join(self.dir, f"{name}.mat"), shape)


def parse_bool(value):
    """The boolean of a ``key = value`` entry: 1/true/yes/on or 0/false/no/off."""
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


def parse_floats(value):
    """The float list of a ``key = value`` entry: whitespace-separated numbers."""
    return [float(v) for v in value.split()]


_PARSERS = {"bool": parse_bool, "int": int, "float": float, "str": str,
            "list[float]": parse_floats}


def settings(cls, keys):
    """(field name, config key, value parser, default) of each field of dataclass cls.

    keys maps the fields whose config key differs from the field name.  The
    parser follows the field's annotation as written (the defining modules
    use postponed annotations), ``T | None`` as T; it is None for any other
    annotation.  default is dataclasses.MISSING for a field without one.
    """
    return [(f.name, keys.get(f.name, f.name), _PARSERS.get(f.type.removesuffix(" | None")),
             f.default)
            for f in fields(cls)]
