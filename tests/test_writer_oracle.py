"""Every artifact writer gives the bytes of the earlier per-module writers.

The oracle below is a frozen copy of those writers, each with its own
``open(..., "w")``; the package now writes every file through
``fileio.write_lines`` and both bundle kinds through ``fileio.write_bundle``.
Each test writes random inputs both ways and compares the files byte for byte.
"""

import os

import numpy as np
import pytest

from topicxfer import harness
from topicxfer.cli import main
from topicxfer.corpus import Corpus, Document, Vocabulary, write_corpus_file
from topicxfer.evaluate import EvalReport, all_topics
from topicxfer.fileio import write_matrix
from topicxfer.model import EpochStats, ModelParams, save_model
from topicxfer.transfer import KnowledgeBase, save_kb

# --------------------------------------------------------------- frozen oracle


def _format_float(x):
    return f"{float(x):.17g}"


def _oracle_write_matrix(path, mat):
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    rows, cols = mat.shape
    row_fmt = " ".join(["%.17g"] * cols) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{rows} {cols}\n")
        for r in range(rows):
            fh.write(row_fmt % tuple(mat[r].tolist()))


def _oracle_write_kv(path, items):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in items:
            fh.write(f"{key}={value}\n")


def _oracle_save_vocab(tokens, path):
    with open(path, "w", encoding="utf-8") as fh:
        for tok in tokens:
            fh.write(tok + "\n")


def _oracle_save_model(params, tokens, out_dir, seed=0, lvt_matrix=None):
    os.makedirs(out_dir, exist_ok=True)
    _oracle_write_kv(os.path.join(out_dir, "meta.txt"), [
        ("activation", params.activation),
        ("seed", seed),
        ("trained_epochs", params.trained_epochs),
        ("matrices", " ".join(["W", "U", "b", "c", *(f"A.{sid}" for sid in params.alignments)]
                              + ["lvt"] * (lvt_matrix is not None))),
    ])
    _oracle_save_vocab(tokens, os.path.join(out_dir, "vocab.txt"))
    for name in ("W", "U", "b", "c"):
        _oracle_write_matrix(os.path.join(out_dir, f"{name}.mat"), getattr(params, name))
    for source_id, A in params.alignments.items():
        _oracle_write_matrix(os.path.join(out_dir, f"A.{source_id}.mat"), A)
    if lvt_matrix is not None:
        _oracle_write_matrix(os.path.join(out_dir, "lvt.mat"), lvt_matrix)


def _oracle_save_kb(kb, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    _oracle_write_kv(os.path.join(out_dir, "meta.txt"), [
        ("source_id", kb.source_id),
        ("matrices", "E" if kb.topics is None else "E Z"),
    ])
    _oracle_save_vocab(kb.vocabulary.tokens, os.path.join(out_dir, "vocab.txt"))
    _oracle_write_matrix(os.path.join(out_dir, "E.mat"), kb.embeddings)
    if kb.topics is not None:
        _oracle_write_matrix(os.path.join(out_dir, "Z.mat"), kb.topics)


def _oracle_write_corpus_file(corpus, path):
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            text = " ".join(corpus.decode(doc))
            if corpus.labeled:
                fh.write(f"{corpus.label_of(doc)}\t{text}\n")
            else:
                fh.write(text + "\n")


def _oracle_save_report(report, path):
    lines = [f"ppl={_format_float(report.ppl)}", f"coh={_format_float(report.coh)}",
             f"fingerprint={report.fingerprint}"]
    for frac, prec in report.ir:
        lines.append(f"ir {_format_float(frac)} {_format_float(prec)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _oracle_write_train_log(path, stats):
    with open(path, "w", encoding="utf-8") as fh:
        for s in stats:
            parts = [f"epoch {s.epoch}", f"loss {_format_float(s.train_loss)}"]
            if s.validation_ppl is not None:
                parts.append(f"val_ppl {_format_float(s.validation_ppl)}")
            for sid in sorted(s.gvt_residuals):
                parts.append(f"residual.{sid} {_format_float(s.gvt_residuals[sid])}")
            fh.write(" ".join(parts) + "\n")


def _oracle_write_selection(path, table, best_index):
    with open(path, "w", encoding="utf-8") as fh:
        for i, (lam, gamma, ppl) in enumerate(table):
            fh.write(f"candidate {i} lam {_format_float(lam)} "
                     f"gamma {_format_float(gamma)} val_ppl {_format_float(ppl)}\n")
        fh.write(f"selected {best_index}\n")


def _oracle_write_audit(path, audit):
    with open(path, "w", encoding="utf-8") as fh:
        for role, name, count in audit:
            fh.write(f"{role} {name} {count}\n")


def _oracle_write_topics(params, vocabulary, n, path):
    lines = []
    for j, words in enumerate(all_topics(params, vocabulary, n)):
        lines.append(f"topic {j}: {' '.join(words)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

# ------------------------------------------------------------------ inputs


LETTERS = list("abcxyz09") + ["é", "ß", "中", "Ω", "ǅ", "٣"]


def _tokens(rng, k):
    tokens = []
    while len(tokens) < k:
        tok = "".join(rng.choice(LETTERS, size=int(rng.integers(1, 7))))
        if tok not in tokens:
            tokens.append(tok)
    return tokens


def _values(rng, shape):
    """Normal draws over wide magnitudes, with signed zeros and subnormals mixed in."""
    mat = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    flat = mat.reshape(-1)
    if flat.size:
        picks = rng.integers(0, flat.size, size=min(4, flat.size))
        flat[picks] = rng.choice([0.0, -0.0, 5e-324, -1e-310], size=picks.size)
    return mat


def _params(rng, h, k, n_alignments):
    return ModelParams(_values(rng, (h, k)), _values(rng, (k, h)), _values(rng, k),
                       _values(rng, h), activation=str(rng.choice(["sigmoid", "tanh"])),
                       alignments={f"s{i}": _values(rng, (h, h)) for i in range(n_alignments)},
                       trained_epochs=int(rng.integers(0, 60)))


def _assert_same_files(got, want):
    got_names = sorted(os.listdir(got))
    assert got_names == sorted(os.listdir(want))
    for name in got_names:
        with open(os.path.join(got, name), "rb") as g, open(os.path.join(want, name), "rb") as w:
            assert g.read() == w.read(), name


def _assert_same_bytes(got, want):
    with open(got, "rb") as g, open(want, "rb") as w:
        assert g.read() == w.read()

# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("with_lvt", [False, True], ids=["no-lvt", "lvt"])
@pytest.mark.parametrize("n_alignments", [0, 2])
def test_model_bundle_matches_oracle(tmp_path, rng, with_lvt, n_alignments):
    for trial in range(4):
        h, k = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        tokens = _tokens(rng, k)
        params = _params(rng, h, k, n_alignments)
        lvt = _values(rng, (h, k)) if with_lvt else None
        seed = int(rng.integers(0, 1000))
        save_model(params, Vocabulary(tokens), tmp_path / f"got{trial}", seed=seed,
                   lvt_matrix=lvt)
        _oracle_save_model(params, tokens, tmp_path / f"want{trial}", seed=seed,
                           lvt_matrix=lvt)
        _assert_same_files(tmp_path / f"got{trial}", tmp_path / f"want{trial}")


@pytest.mark.parametrize("with_z", [False, True], ids=["no-Z", "Z"])
def test_kb_bundle_matches_oracle(tmp_path, rng, with_z):
    for trial in range(4):
        k = int(rng.integers(1, 9))
        kb = KnowledgeBase(f"src{trial}", Vocabulary(_tokens(rng, k)),
                           _values(rng, (int(rng.integers(1, 6)), k)),
                           _values(rng, (int(rng.integers(1, 6)), k)) if with_z else None)
        save_kb(kb, tmp_path / f"got{trial}")
        _oracle_save_kb(kb, tmp_path / f"want{trial}")
        _assert_same_files(tmp_path / f"got{trial}", tmp_path / f"want{trial}")


def test_matrix_and_vocabulary_match_oracle(tmp_path, rng):
    for shape in [(0, 3), (2, 0), (1, 1), (5,), (7, 9), (200, 3)]:
        mat = _values(rng, shape)
        write_matrix(tmp_path / "got.mat", mat)
        _oracle_write_matrix(tmp_path / "want.mat", mat)
        _assert_same_bytes(tmp_path / "got.mat", tmp_path / "want.mat")
    tokens = _tokens(rng, 40)
    Vocabulary(tokens).save(tmp_path / "got.txt")
    _oracle_save_vocab(tokens, tmp_path / "want.txt")
    _assert_same_bytes(tmp_path / "got.txt", tmp_path / "want.txt")


@pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
def test_corpus_file_matches_oracle(tmp_path, rng, labeled):
    vocabulary = Vocabulary(_tokens(rng, 12))
    names = ["news", "sport", "ciência"] if labeled else None
    docs = [Document(rng.integers(0, 12, size=int(rng.integers(1, 9))),
                     int(rng.integers(0, 3)) if labeled else None) for _ in range(25)]
    corpus = Corpus(vocabulary, docs, label_names=names)
    write_corpus_file(corpus, tmp_path / "got.txt")
    _oracle_write_corpus_file(corpus, tmp_path / "want.txt")
    _assert_same_bytes(tmp_path / "got.txt", tmp_path / "want.txt")


def test_report_matches_oracle(tmp_path, rng):
    for n_fractions in (0, 1, 8):
        fractions = np.sort(rng.uniform(0.0005, 1.0, size=n_fractions))
        report = EvalReport(float(_values(rng, ())), float(_values(rng, ())),
                            [(float(f), float(rng.uniform())) for f in fractions],
                            fingerprint="%016x" % int(rng.integers(0, 2 ** 62)))
        report.save(tmp_path / "got.txt")
        _oracle_save_report(report, tmp_path / "want.txt")
        _assert_same_bytes(tmp_path / "got.txt", tmp_path / "want.txt")


@pytest.mark.parametrize("validation", [False, True], ids=["no-val", "val"])
@pytest.mark.parametrize("n_residuals", [0, 2])
def test_train_log_matches_oracle(tmp_path, rng, validation, n_residuals):
    stats = [EpochStats(e, float(_values(rng, ())),
                        float(rng.uniform(1, 5000)) if validation else None,
                        {f"s{i}": float(_values(rng, ())) for i in reversed(range(n_residuals))})
             for e in range(int(rng.integers(1, 12)))]
    harness._write_train_log(tmp_path / "got.txt", stats)
    _oracle_write_train_log(tmp_path / "want.txt", stats)
    _assert_same_bytes(tmp_path / "got.txt", tmp_path / "want.txt")


def test_selection_and_ingestion_match_oracle(tmp_path, rng):
    table = [(float(lam), float(g), float(rng.uniform(1, 5000)))
             for lam in (0.1, 0.5, 1.0) for g in _values(rng, 3)]
    best = int(rng.integers(0, len(table)))
    harness._write_selection(tmp_path / "got.txt", table, best)
    _oracle_write_selection(tmp_path / "want.txt", table, best)
    _assert_same_bytes(tmp_path / "got.txt", tmp_path / "want.txt")
    audit = [(str(rng.choice(["train", "kb", "eval"])), f"source:{tok}",
              int(rng.integers(0, 10 ** 6))) for tok in _tokens(rng, 6)]
    harness._write_audit(tmp_path / "got.txt", audit)
    _oracle_write_audit(tmp_path / "want.txt", audit)
    _assert_same_bytes(tmp_path / "got.txt", tmp_path / "want.txt")


def test_topics_file_matches_oracle(tmp_path, rng, capsys):
    h, k = 4, 9
    vocabulary = Vocabulary(_tokens(rng, k))
    params = ModelParams(rng.normal(size=(h, k)), rng.normal(size=(k, h)), np.zeros(k),
                         np.zeros(h))
    save_model(params, vocabulary, tmp_path / "model")
    assert main(["topics", "--model", str(tmp_path / "model"), "--n", "3",
                 "--out", str(tmp_path / "got")]) == 0
    _oracle_write_topics(params, vocabulary, 3, tmp_path / "want.txt")
    _assert_same_bytes(tmp_path / "got" / "topics.txt", tmp_path / "want.txt")
    assert capsys.readouterr().out == (tmp_path / "want.txt").read_text(encoding="utf-8")
