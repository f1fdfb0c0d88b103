"""Shared on-disk formats: matrix files and key=value files (metadata, configs).

Matrix format: first line ``rows cols``, then ``rows`` lines of ``cols``
space-separated decimals printed with 17 significant digits.
"""

from dataclasses import fields

import numpy as np

from .errors import ConfigError, CorpusError


def format_float(x):
    """Render a float with 17 significant digits (exact float64 round-trip)."""
    return f"{float(x):.17g}"


def write_matrix(path, mat):
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    if mat.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D array, got shape {mat.shape}")
    rows, cols = mat.shape
    # one C-level format per row gives format_float's text; row by row, so the
    # text of the whole matrix is never held at once
    row_fmt = " ".join(["%.17g"] * cols) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{rows} {cols}\n")
        for r in range(rows):
            fh.write(row_fmt % tuple(mat[r].tolist()))


def read_matrix(path, shape=None):
    """Read a matrix file; a vector is stored as one row, so its shape is (1, n).

    With shape given, a matrix of any other shape is a ConfigError naming the file.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            rows, cols = map(int, fh.readline().split())
            mat = np.empty((rows, cols), dtype=np.float64)
        except ValueError:
            raise CorpusError(f"{path}: malformed matrix header") from None
        for r in range(rows):
            parts = fh.readline().split()
            if len(parts) != cols:
                raise CorpusError(f"{path}: row {r} has {len(parts)} values, expected {cols}")
            try:
                mat[r] = [float(p) for p in parts]
            except ValueError:
                raise CorpusError(f"{path}: row {r} has a non-numeric value") from None
        if any(line.strip() for line in fh):
            raise CorpusError(f"{path}: data after the {rows} declared rows")
    if not np.isfinite(mat).all():
        raise CorpusError(f"{path}: matrix contains non-finite values")
    if shape is not None and mat.shape != shape:
        raise ConfigError(f"{path}: shape {mat.shape}, expected {shape}")
    return mat


def write_kv(path, items):
    """Write ``key=value`` lines in the given order."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in items:
            fh.write(f"{key}={value}\n")


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
