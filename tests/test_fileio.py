import ast
import glob
import os
import re

import numpy as np
import pytest

from topicxfer.errors import ConfigError, CorpusError
from topicxfer.fileio import format_float, read_kv, read_matrix, write_matrix

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


@pytest.mark.parametrize("error", [CorpusError, ConfigError])
def test_read_kv_rejects_repeated_key(tmp_path, error):
    path = tmp_path / "c.cfg"
    path.write_text("epochs = 5\n# comment\nlr = 0.1\n epochs=7\n")
    with pytest.raises(error, match=re.escape(f"{path}: line 4: duplicate key 'epochs'")):
        read_kv(path, error=error)


SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "topicxfer")
_MODE_CHARS = set("rwaxbt+")
_NUMPY_WRITERS = {"save", "savez", "savez_compressed", "savetxt"}


def _writes(call):
    """Whether the call may open a file for writing: an open() with a writing
    mode literal, or with a mode argument that is not a literal (os.open's
    flags too), a write_text/write_bytes/tofile call, or an np.save-like call."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes", "tofile"):
        return True
    if name in _NUMPY_WRITERS and isinstance(func, ast.Attribute):
        return isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
    if name != "open":
        return False
    mode_args = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    if any(not isinstance(arg, ast.Constant) for arg in mode_args):
        return True
    # Path.open takes the mode first
    literals = [arg.value for arg in call.args[:2] + mode_args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
    return any(set(mode) <= _MODE_CHARS and set(mode) & set("wax+") for mode in literals)


def test_write_lines_is_the_only_file_writer():
    # every artifact is written in one place, so its encoding, line ends and
    # write discipline are one decision
    sites = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        allowed = set()
        if os.path.basename(path) == "fileio.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "write_lines":
                    allowed = {id(n) for n in ast.walk(node)}
        sites += [(os.path.basename(path), node.lineno, id(node) in allowed)
                  for node in ast.walk(tree) if isinstance(node, ast.Call) and _writes(node)]
    assert [allowed for _, _, allowed in sites] == [True], sites


@pytest.mark.parametrize("source, writes", [
    ("np.save(p, a)", True), ("numpy.savez(p, a=a)", True), ("np.savez_compressed(p, a=a)", True),
    ("np.savetxt(p, a)", True), ("a.tofile(p)", True), ("p.write_bytes(b)", True),
    ("open(p, 'w')", True), ("open(p, mode)", True), ("open(p)", False),
    ("report.save(p)", False), ("np.load(p)", False)])
def test_writer_finder_sees_numpy_writers(source, writes):
    assert _writes(ast.parse(source).body[0].value) is writes
