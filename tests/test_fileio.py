import ast
import glob
import os
import re

import numpy as np
import pytest

from topicxfer.errors import ConfigError, CorpusError
from topicxfer.fileio import format_float, read_kv, read_matrix, write_lines, write_matrix

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 1e16, 1 / 3,
               -1e300, 1.0, -2.5, 123456789.0]


def _reference_text(mat):
    """The matrix file as format_float writes it, value by value."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    lines = [f"{mat.shape[0]} {mat.shape[1]}"]
    lines += [" ".join(format_float(v) for v in row) for row in mat]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mat", [
    np.array(EDGE_VALUES).reshape(3, 4),
    np.array(EDGE_VALUES),
    np.array(EDGE_VALUES).reshape(-1, 1),
    np.zeros((0, 3)),
    np.zeros((2, 0)),
], ids=["matrix", "vector", "one-column", "no-rows", "no-columns"])
def test_write_matrix_is_byte_equal_to_format_float(tmp_path, mat):
    path = tmp_path / "m.mat"
    write_matrix(path, mat)
    assert path.read_text(encoding="utf-8") == _reference_text(mat)
    if mat.size:
        loaded = read_matrix(path)
        assert np.array_equal(loaded.ravel(), mat.ravel())
        assert np.array_equal(np.signbit(loaded.ravel()), np.signbit(mat.ravel()))


def test_write_matrix_random_rows_are_byte_equal(tmp_path, rng):
    mat = rng.normal(size=(7, 9)) * 10.0 ** rng.integers(-300, 300, size=(7, 9))
    path = tmp_path / "m.mat"
    write_matrix(path, mat)
    assert path.read_text(encoding="utf-8") == _reference_text(mat)


def test_read_matrix_rejects_data_after_declared_rows(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("2 3\n1 2 3\n4 5 6\n7 8 9\n")
    with pytest.raises(CorpusError, match=re.escape(f"{path}: data after the 2 declared rows")):
        read_matrix(path)


def test_read_matrix_allows_trailing_blank_lines(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("2 3\n1 2 3\n4 5 6\n\n  \n")
    assert np.array_equal(read_matrix(path), [[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("text, message", [
    ("x 3\n1 2 3\n", "malformed matrix header"),
    ("2.5 3\n1 2 3\n", "malformed matrix header"),
    ("-1 3\n", "malformed matrix header"),
    ("2 -3\n", "malformed matrix header"),
    ("2\n1 2 3\n", "malformed matrix header"),
    ("", "malformed matrix header"),
    ("2 3\n1 2 3\n", "3 values in 1 rows, expected 2 rows of 3"),
    ("2 3\n1 2 3\n\n4 5 6\n", "3 values in 1 rows, expected 2 rows of 3"),
    ("2 3\n\n\n", "0 values in 0 rows, expected 2 rows of 3"),
    ("1 3\n  \n", "0 values in 0 rows, expected 1 rows of 3"),
    ("2 3\n1 2 3\n4 5\n", "the number of columns changed from 3 to 2"),
    ("2 3\n1 2 3\n4 5 6 7\n", "the number of columns changed from 3 to 4"),
    ("1 3\n1 2 3 4\n", "4 values in 1 rows, expected 1 rows of 3"),
    ("1 3\n1 x 3\n", "could not convert string 'x' to float64"),
    ("1 3\n1 2 #3\n", "could not convert string '#3' to float64"),
    ("1 3\n1_0 2 3\n", "could not convert string '1_0' to float64"),
    ("1 3\n1 nan 3\n", "matrix contains non-finite values"),
    ("1 3\n1 -inf 3\n", "matrix contains non-finite values"),
    ("1 3\n1 1e400 3\n", "matrix contains non-finite values"),
    ("0 3\n1 2 3\n", "data after the 0 declared rows"),
], ids=["word-header", "float-header", "negative-rows", "negative-cols", "one-number-header",
        "empty-file", "missing-row", "blank-between-rows", "blank-rows", "blank-row",
        "short-row", "long-row", "long-rows", "non-numeric", "comment", "underscore", "nan", "inf",
        "overflow", "data-after-no-rows"])
def test_read_matrix_rejects_malformed_files(tmp_path, text, message):
    # the suite turns warnings into errors, so a case numpy warns on fails here
    path = tmp_path / "m.mat"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        read_matrix(path)
    assert str(err.value).startswith(f"{path}: {message}")
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("data, want", [
    (b"2 3\r\n1 2 3\r\n4 5 6\r\n\r\n", [[1, 2, 3], [4, 5, 6]]),
    (b"1 3\n  +1\t-2  .5e1 \n", [[1, -2, 5]]),
    (b"3 1\n1\n2\n3\n", [[1], [2], [3]]),
    (b"0 3\n", np.zeros((0, 3))),
    (b"0 3\n\n", np.zeros((0, 3))),
], ids=["crlf", "spacing", "one-column", "no-rows", "no-rows-blank-line"])
def test_read_matrix_accepts(tmp_path, data, want):
    path = tmp_path / "m.mat"
    path.write_bytes(data)
    got = read_matrix(path)
    assert got.dtype == np.float64 and got.shape == np.shape(want)
    assert np.array_equal(got, want)


def test_read_matrix_gives_float_of_every_written_token(tmp_path, rng):
    # every finite bit pattern is equally likely, so the decimal exponents span
    # -324..308; then random subnormals and the extremes
    bits = rng.integers(0, 2**64 - 1, size=12_000, dtype=np.uint64, endpoint=True)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:10_000]
    subnormals = rng.integers(1, 2**52, size=400, dtype=np.uint64).view(np.float64)
    max64 = np.finfo(np.float64).max
    extremes = [0.0, -0.0, max64, -max64, 5e-324, -5e-324, 2.2250738585072014e-308]
    mat = np.concatenate([values, subnormals, -subnormals, extremes, [1.0] * 93])
    mat = mat.reshape(-1, 100)
    path = tmp_path / "m.mat"
    write_matrix(path, mat)
    tokens = path.read_text(encoding="utf-8").split()[2:]
    want = np.array([float(token) for token in tokens]).reshape(mat.shape)
    got = read_matrix(path)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(got.view(np.int64), mat.view(np.int64))


@pytest.mark.parametrize("error", [CorpusError, ConfigError])
def test_read_kv_rejects_repeated_key(tmp_path, error):
    path = tmp_path / "c.cfg"
    path.write_text("epochs = 5\n# comment\nlr = 0.1\n epochs=7\n")
    with pytest.raises(error, match=re.escape(f"{path}: line 4: duplicate key 'epochs'")):
        read_kv(path, error=error)


def test_write_lines_that_raises_keeps_the_old_file(tmp_path):
    path = tmp_path / "f.txt"
    write_lines(path, ["old", "bytes"])

    def lines():
        yield "new"
        yield "x" * 100_000
        raise RuntimeError("stopped")

    with pytest.raises(RuntimeError, match="stopped"):
        write_lines(path, lines())
    assert path.read_bytes() == b"old\nbytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]
    write_lines(path, iter(["new"]))
    assert path.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]


SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "topicxfer")
_MODE_CHARS = set("rwaxbt+")
_NUMPY_WRITERS = {"save", "savez", "savez_compressed", "savetxt"}
# the functions of each module that remove or rename files
_FILE_MOVERS = {"os": {"remove", "unlink", "replace", "rename"}, "shutil": {"rmtree", "move"}}


def _numpy_names(tree):
    """The names numpy is bound to in tree: np, numpy and every ``import numpy as``."""
    return {"np", "numpy"} | {alias.asname or alias.name for node in ast.walk(tree)
                              if isinstance(node, ast.Import)
                              for alias in node.names if alias.name == "numpy"}


def _writer_sites(tree):
    """The nodes of tree that may write a file: each call _writes flags, and each
    ``from numpy import`` of a numpy writer, whose calls go by a bare name."""
    numpy_names = _numpy_names(tree)
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _writes(node, numpy_names)
            or isinstance(node, ast.ImportFrom) and node.module == "numpy"
            and any(alias.name in _NUMPY_WRITERS for alias in node.names)]


def _writes(call, numpy_names):
    """Whether the call may open a file for writing: an open() with a writing
    mode literal, or with a mode argument that is not a literal (os.open's
    flags too), a write_text/write_bytes/tofile call, or an np.save-like call
    through any of numpy_names."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes", "tofile"):
        return True
    if name in _NUMPY_WRITERS and isinstance(func, ast.Attribute):
        return isinstance(func.value, ast.Name) and func.value.id in numpy_names
    if name != "open":
        return False
    mode_args = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    if any(not isinstance(arg, ast.Constant) for arg in mode_args):
        return True
    # Path.open takes the mode first
    literals = [arg.value for arg in call.args[:2] + mode_args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
    return any(set(mode) <= _MODE_CHARS and set(mode) & set("wax+") for mode in literals)


def _mover_sites(tree):
    """The nodes of tree that may remove or rename a file: a call of a _FILE_MOVERS
    function through its module (or an ``import ... as`` alias of it), and each
    ``from os/shutil import`` of one."""
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name in _FILE_MOVERS}
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name in _FILE_MOVERS.get(node.module, ()) for alias in node.names):
                sites.append(node)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)):
            module = modules.get(node.func.value.id, node.func.value.id)
            if node.func.attr in _FILE_MOVERS.get(module, ()):
                sites.append(node)
    return sites


def _package_trees():
    """(file name, parsed module) of each module of the package."""
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), ast.parse(fh.read())


def test_write_lines_is_the_only_file_writer():
    # every artifact is written in one place, so its encoding, line ends and
    # write discipline are one decision
    sites = []
    for name, tree in _package_trees():
        allowed = set()
        if name == "fileio.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "write_lines":
                    allowed = {id(n) for n in ast.walk(node)}
        sites += [(name, node.lineno, id(node) in allowed) for node in _writer_sites(tree)]
    assert [allowed for _, _, allowed in sites] == [True], sites


def test_only_fileio_removes_or_renames_files():
    # which files a save replaces or removes is decided in one module
    sites = [(name, node.lineno) for name, tree in _package_trees()
             for node in _mover_sites(tree)]
    assert sites and {name for name, _ in sites} == {"fileio.py"}, sites


@pytest.mark.parametrize("source, writes", [
    ("np.save(p, a)", True), ("numpy.savez(p, a=a)", True), ("np.savez_compressed(p, a=a)", True),
    ("np.savetxt(p, a)", True), ("a.tofile(p)", True), ("p.write_bytes(b)", True),
    ("open(p, 'w')", True), ("open(p, mode)", True), ("open(p)", False),
    ("report.save(p)", False), ("np.load(p)", False),
    ("from numpy import save\nsave(p, a)", True), ("from numpy import savez as z", True),
    ("from numpy import savez_compressed, load", True), ("from numpy import savetxt", True),
    ("from numpy import load\nload(p)", False), ("import numpy as xp\nxp.save(p, a)", True),
    ("import os, numpy as xp\nxp.savetxt(p, a)", True), ("import numpy as xp\nxp.load(p)", False),
    ("xp.save(p, a)", False)])
def test_writer_finder_sees_numpy_writers(source, writes):
    assert bool(_writer_sites(ast.parse(source))) is writes


@pytest.mark.parametrize("source, moves", [
    ("os.remove(p)", True), ("os.unlink(p)", True), ("os.replace(a, b)", True),
    ("os.rename(a, b)", True), ("shutil.rmtree(d)", True), ("shutil.move(a, b)", True),
    ("import os as o\no.replace(a, b)", True), ("import shutil as sh\nsh.rmtree(d)", True),
    ("from os import remove", True), ("from shutil import rmtree as r\nr(d)", True),
    ("from os import listdir, rename", True),
    ("text.replace(a, b)", False), ("path.replace(a, b)", False), ("os.listdir(d)", False),
    ("os.makedirs(d)", False), ("os.path.exists(p)", False), ("shutil.copy(a, b)", False),
    ("from os import listdir", False), ("from os.path import join", False),
    ("import os as o\nos_.remove(p)", False)])
def test_mover_finder_sees_removes_and_renames(source, moves):
    assert bool(_mover_sites(ast.parse(source))) is moves
