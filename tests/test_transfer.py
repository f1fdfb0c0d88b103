import re

import numpy as np
import pytest

from conftest import looped_project_kb, make_vocab
from topicxfer.corpus import Vocabulary
from topicxfer.errors import ConfigError, CorpusError
from topicxfer.fileio import write_matrix
from topicxfer.model import ensure_alignments, init_params
from topicxfer.transfer import (KnowledgeBase, SourceWeight, TransferSpec,
                                build_kb, gvt_gradients, gvt_penalty, load_kb,
                                load_embeddings_text, make_transfer_context,
                                project_kb, save_kb)


def random_kb(rng, sid, h, tokens):
    vocab = Vocabulary(tokens)
    k = len(tokens)
    return KnowledgeBase(sid, vocab, rng.normal(size=(h, k)), rng.normal(size=(h, k)))


# ----------------------------------------------------------------- build_kb

def test_build_kb_exports_w_twice(rng):
    vocab = make_vocab(3)
    params = init_params(2, 3, seed=0, init_scale=0.2)
    kb = build_kb(params, vocab, "src")
    np.testing.assert_array_equal(kb.embeddings, params.W)
    np.testing.assert_array_equal(kb.topics, params.W)
    assert kb.embeddings.shape == (2, 3)
    assert kb.topics.shape == (2, 3)


def test_build_kb_shape_mismatch():
    params = init_params(2, 3, seed=0)
    with pytest.raises(ConfigError):
        build_kb(params, make_vocab(4), "src")


def test_kb_bundle_roundtrip_is_bit_exact(tmp_path, rng):
    kb = random_kb(rng, "src", 4, [f"t{i}" for i in range(6)])
    save_kb(kb, tmp_path / "kb")
    again = load_kb(tmp_path / "kb")
    assert again.source_id == "src"
    assert again.vocabulary == kb.vocabulary
    np.testing.assert_array_equal(again.embeddings, kb.embeddings)
    np.testing.assert_array_equal(again.topics, kb.topics)


@pytest.mark.parametrize("key, culprit", [
    ("source_id", "meta.txt: missing key 'source_id'"), ("vocab", "E.mat"),
    ("Z-columns", "Z.mat: shape (4, 5), expected (any, 6)"),
    ("unlisted-E", "meta.txt: matrices does not list 'E'"),
    ("listed-file-missing", "Z.mat"),
    ("no-matrices", "meta.txt: missing key 'matrices'"),
])
def test_load_kb_rejects_meta_shape_mismatch(tmp_path, rng, key, culprit):
    kb = random_kb(rng, "src", 4, [f"t{i}" for i in range(6)])
    save_kb(kb, tmp_path / "kb")
    meta = tmp_path / "kb" / "meta.txt"
    if key == "source_id":
        meta.write_text(meta.read_text().replace("source_id=src\n", ""))
    elif key == "vocab":
        # one token shorter than E.mat has columns
        (tmp_path / "kb" / "vocab.txt").write_text("".join(f"t{i}\n" for i in range(5)))
    elif key == "unlisted-E":
        meta.write_text(meta.read_text().replace("matrices=E Z", "matrices=Z"))
    elif key == "listed-file-missing":
        (tmp_path / "kb" / culprit).unlink()
    elif key == "no-matrices":
        meta.write_text(meta.read_text().replace("matrices=E Z\n", ""))
    elif key == "Z-columns":
        write_matrix(tmp_path / "kb" / "Z.mat", rng.normal(size=(4, 5)))
    error = FileNotFoundError if key == "listed-file-missing" else ConfigError
    with pytest.raises(error, match=re.escape(culprit)):
        load_kb(tmp_path / "kb")


def test_embeddings_text_non_numeric_value_names_file_and_line(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("beta 0.5 1\nalpha 0.25 x\n")
    with pytest.raises(CorpusError, match=re.escape(
            f"{path}: line 2: could not convert string to float: 'x'")):
        load_embeddings_text(path, "ext")


@pytest.mark.parametrize("text, message", [
    ("beta 0.5 1\nalpha 0.25 nan\n", "line 2: non-finite value"),
    ("beta 0.5 1\nalpha -inf 1\n", "line 2: non-finite value"),
    ("alpha 0.5 1\nbeta 1 2\nalpha 0.25 3\n", "duplicate vocabulary tokens: ['alpha']"),
], ids=["nan", "inf", "repeated-token"])
def test_embeddings_text_error_names_file(tmp_path, text, message):
    path = tmp_path / "vecs.txt"
    path.write_text(text)
    with pytest.raises(CorpusError, match=re.escape(f"{path}: {message}")):
        load_embeddings_text(path, "ext")


@pytest.mark.parametrize("source_id", ["a/b", "a b", "", "a\tb", "../x", "a=b"])
def test_transfer_spec_rejects_source_id_that_is_not_one_file_name_token(source_id):
    with pytest.raises(ConfigError, match=re.escape(f"source id {source_id!r} must be")):
        TransferSpec([SourceWeight(source_id, lam=1.0)], lvt_enabled=True)


def test_transfer_spec_accepts_plain_source_ids():
    ids = ["s1", "news-2019", "wiki_en", "v1.2", "A"]
    spec = TransferSpec([SourceWeight(sid, lam=1.0) for sid in ids], lvt_enabled=True)
    assert list(spec.lvt_weights) == ids


def test_embedding_only_kb_roundtrip(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("alpha 0.25 -1.5\nbeta 2 0.125\n")
    kb = load_embeddings_text(path, "ext")
    assert kb.topics is None
    np.testing.assert_array_equal(kb.embeddings, np.array([[0.25, 2.0], [-1.5, 0.125]]))
    save_kb(kb, tmp_path / "kb")
    again = load_kb(tmp_path / "kb")
    assert again.topics is None
    np.testing.assert_array_equal(again.embeddings, kb.embeddings)


# ----------------------------------------------------------------- projection

def test_project_identical_vocab_is_identity(rng):
    kb = random_kb(rng, "s", 3, ["a", "b", "c"])
    proj = project_kb(kb, kb.vocabulary)
    np.testing.assert_array_equal(proj.embeddings, kb.embeddings)
    np.testing.assert_array_equal(proj.topics, kb.topics)
    assert proj.coverage == 1.0


def test_project_disjoint_vocab_is_zero(rng):
    kb = random_kb(rng, "s", 3, ["a", "b"])
    proj = project_kb(kb, Vocabulary(["x", "y", "z"]))
    assert np.all(proj.embeddings == 0.0)
    assert np.all(proj.topics == 0.0)
    assert proj.coverage == 0.0


def test_project_half_overlap_matches_lookup_oracle(rng):
    kb = random_kb(rng, "s", 2, ["a", "b", "c", "d"])
    target = Vocabulary(["c", "x", "a", "y"])
    proj = project_kb(kb, target)
    assert proj.coverage == 0.5
    for w, tok in enumerate(target):
        if tok in kb.vocabulary:
            np.testing.assert_array_equal(
                proj.embeddings[:, w], kb.embeddings[:, kb.vocabulary.index(tok)])
            np.testing.assert_array_equal(
                proj.topics[:, w], kb.topics[:, kb.vocabulary.index(tok)])
        else:
            assert np.all(proj.embeddings[:, w] == 0.0)
            assert np.all(proj.topics[:, w] == 0.0)


@pytest.mark.parametrize("covered_share", [0.0, 0.75, 1.0])
@pytest.mark.parametrize("with_topics", [True, False], ids=["E-and-Z", "E-only"])
def test_project_is_bit_equal_to_the_loop(rng, covered_share, with_topics):
    source = [f"w{i}" for i in range(40)]
    kb = random_kb(rng, "s", 3, source)
    kb.embeddings[:, ::7] = -0.0
    if not with_topics:
        kb = KnowledgeBase("s", kb.vocabulary, kb.embeddings)
    n_in = int(covered_share * 24)
    tokens = [*rng.permutation(source)[:n_in], *(f"x{i}" for i in range(24 - n_in))]
    target = Vocabulary(rng.permutation(tokens).tolist())
    got, want = project_kb(kb, target), looped_project_kb(kb, target)
    assert got.coverage == want.coverage == n_in / 24
    for name in ("embeddings", "topics", "covered"):
        g, w = getattr(got, name), getattr(want, name)
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


# ----------------------------------------------------------------- lvt

def test_lvt_zero_for_uncovered_word(rng):
    kb = random_kb(rng, "s", 2, ["a", "b"])
    target = Vocabulary(["a", "zzz"])
    spec = TransferSpec([SourceWeight("s", lam=1.0)], lvt_enabled=True)
    ctx = make_transfer_context([kb], target, spec, 2)
    assert np.all(ctx.lvt_matrix[:, 1] == 0.0)


def test_lvt_identity_weight_returns_column():
    vocab = Vocabulary(["a", "b"])
    emb = np.array([[0.2, 0.5], [-0.1, 0.3]])
    kb = KnowledgeBase("s", vocab, emb.copy(), emb.copy())
    spec = TransferSpec([SourceWeight("s", lam=1.0)], lvt_enabled=True)
    ctx = make_transfer_context([kb], vocab, spec, 2)
    np.testing.assert_array_equal(ctx.lvt_matrix[:, 0], np.array([0.2, -0.1]))


def test_lvt_two_source_weighted_sum(rng):
    vocab = Vocabulary(["a", "b", "c"])
    kb1 = random_kb(rng, "s1", 2, ["a", "b", "c"])
    kb2 = random_kb(rng, "s2", 2, ["a", "b", "c"])
    spec = TransferSpec([SourceWeight("s1", lam=0.5), SourceWeight("s2", lam=1.0)],
                        lvt_enabled=True)
    ctx = make_transfer_context([kb1, kb2], vocab, spec, 2)
    for w in range(3):
        want = 0.5 * kb1.embeddings[:, w] + 1.0 * kb2.embeddings[:, w]
        assert np.abs(ctx.lvt_matrix[:, w] - want).max() <= 1e-15


def test_lvt_linear_in_lambda(rng):
    vocab = Vocabulary(["a", "b", "c"])
    kb = random_kb(rng, "s", 3, ["a", "b", "c"])
    base = make_transfer_context(
        [kb], vocab, TransferSpec([SourceWeight("s", lam=0.25)], lvt_enabled=True), 3)
    scaled = make_transfer_context(
        [kb], vocab, TransferSpec([SourceWeight("s", lam=0.75)], lvt_enabled=True), 3)
    np.testing.assert_array_equal(3.0 * base.lvt_matrix, scaled.lvt_matrix)


# ----------------------------------------------------------------- gvt

def gvt_ctx(rng, h, k, gamma=1.0, tokens=None, target_tokens=None, mask=False):
    tokens = tokens or [f"w{i}" for i in range(k)]
    kb = random_kb(rng, "s", h, tokens)
    target = Vocabulary(target_tokens) if target_tokens else kb.vocabulary
    spec = TransferSpec([SourceWeight("s", gamma=gamma)], gvt_enabled=True,
                        gvt_mask_oov=mask)
    return kb, make_transfer_context([kb], target, spec, h)


def test_gvt_penalty_zero_residual(rng):
    kb, ctx = gvt_ctx(rng, 2, 4)
    assert gvt_penalty(kb.topics, ctx) == 0.0


def test_gvt_penalty_zero_gamma(rng):
    vocab = Vocabulary(["a", "b"])
    kb = random_kb(rng, "s", 2, ["a", "b"])
    spec = TransferSpec([SourceWeight("s", lam=1.0, gamma=0.0),
                         SourceWeight("s2", gamma=0.5)],
                        lvt_enabled=True, gvt_enabled=True)
    kb2 = KnowledgeBase("s2", vocab, np.zeros((2, 2)), np.zeros((2, 2)))
    ctx = make_transfer_context([kb, kb2], vocab, spec, 2)
    assert gvt_penalty(np.zeros((2, 2)), ctx) == 0.0


def test_gvt_penalty_elementwise_oracle():
    # H=2, K=3, A=I, Z'=0, gamma=1, W = [[1,0,0],[0,1,0]] -> penalty 2
    vocab = Vocabulary(["a", "b", "c"])
    kb = KnowledgeBase("s", vocab, np.zeros((2, 3)), np.zeros((2, 3)))
    spec = TransferSpec([SourceWeight("s", gamma=1.0)], gvt_enabled=True)
    ctx = make_transfer_context([kb], vocab, spec, 2)
    W = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert gvt_penalty(W, ctx) == 2.0


def test_gvt_penalty_equals_frobenius_identity(rng):
    kb, ctx = gvt_ctx(rng, 3, 5, gamma=0.7)
    W = rng.normal(size=(3, 5))
    A = rng.normal(size=(3, 3))
    got = gvt_penalty(W, ctx, alignments={"s": A})
    want = 0.7 * np.linalg.norm(A @ W - ctx.projected["s"].topics, ord="fro") ** 2
    assert got == pytest.approx(want, rel=1e-12)


def test_gvt_penalty_invariant_under_column_permutation(rng):
    kb, ctx = gvt_ctx(rng, 3, 6, gamma=1.3)
    W = rng.normal(size=(3, 6))
    base = gvt_penalty(W, ctx)
    perm = rng.permutation(6)
    tokens = [kb.vocabulary.token(i) for i in perm]
    kb_perm = KnowledgeBase("s", Vocabulary(tokens), kb.embeddings[:, perm],
                            kb.topics[:, perm])
    spec = TransferSpec([SourceWeight("s", gamma=1.3)], gvt_enabled=True)
    ctx_perm = make_transfer_context([kb_perm], kb_perm.vocabulary, spec, 3)
    assert gvt_penalty(W[:, perm], ctx_perm) == pytest.approx(base, rel=1e-12)


def test_gvt_gradients_zero_residual(rng):
    kb, ctx = gvt_ctx(rng, 2, 4)
    _, dW, dA = gvt_gradients(kb.topics, ctx)
    assert np.all(dW == 0.0)
    assert np.all(dA["s"] == 0.0)


def test_gvt_gradients_match_finite_differences(rng):
    kb, ctx = gvt_ctx(rng, 3, 4, gamma=0.6)
    W = rng.normal(size=(3, 4))
    A = rng.normal(size=(3, 3))
    _, dW, dA = gvt_gradients(W, ctx, alignments={"s": A})
    eps = 1e-6
    for arr, grad in ((W, dW), (A, dA["s"])):
        for idx in np.ndindex(arr.shape):
            old = arr[idx]
            arr[idx] = old + eps
            up = gvt_penalty(W, ctx, alignments={"s": A})
            arr[idx] = old - eps
            down = gvt_penalty(W, ctx, alignments={"s": A})
            arr[idx] = old
            fd = (up - down) / (2 * eps)
            assert abs(grad[idx] - fd) <= 1e-6 * max(1.0, abs(fd))


def _reference_gvt_gradients(W, ctx, alignments, mask):
    """d/dW and d/dA of the penalty as written first: zeros plus each source's term."""
    dW = np.zeros_like(W)
    dA = {}
    for sid, gamma in ctx.gvt_weights.items():
        A, pkb = alignments.get(sid, np.eye(W.shape[0])), ctx.projected[sid]
        R = A @ W - pkb.topics
        if mask:
            R[:, ~pkb.covered] = 0.0
        dW += 2.0 * gamma * (A.T @ R)
        dA[sid] = 2.0 * gamma * (R @ W.T)
    return dW, dA


def _same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("mask, n_sources", [(False, 2), (True, 2), (False, 1), (True, 1)],
                         ids=["False", "True", "False-one-source", "True-one-source"])
def test_gvt_gradients_penalty_is_bit_equal_to_gvt_penalty(rng, mask, n_sources):
    target = Vocabulary(["a", "b", "c", "d", "e"])
    kbs = [random_kb(rng, "s0", 3, ["a", "b", "e"]), random_kb(rng, "s1", 3, ["b", "c", "d"])]
    spec = TransferSpec([SourceWeight("s0", gamma=0.7), SourceWeight("s1", gamma=0.2)][:n_sources],
                        gvt_enabled=True, gvt_mask_oov=mask)
    ctx = make_transfer_context(kbs[:n_sources], target, spec, 3)
    W = rng.normal(size=(3, 5))
    alignments = {f"s{i}": rng.normal(size=(3, 3)) for i in range(n_sources)}
    penalty, dW, dA = gvt_gradients(W, ctx, alignments=alignments)
    assert penalty == gvt_penalty(W, ctx, alignments=alignments)
    assert sorted(dA) == sorted(alignments)
    # the gradients, signed zeros included, match the zeros-start reference
    want_dW, want_dA = _reference_gvt_gradients(W, ctx, alignments, mask)
    assert _same_bits(dW, want_dW)
    for sid in dA:
        assert _same_bits(dA[sid], want_dA[sid])


def test_gvt_gradients_sum_turns_negative_zero_positive():
    # 2 * 0.1 * -5e-324 underflows to -0.0; a sum started from zeros gives +0.0
    vocab = Vocabulary(["a", "b", "c"])
    kb = KnowledgeBase("s", vocab, np.zeros((3, 3)), np.zeros((3, 3)))
    spec = TransferSpec([SourceWeight("s", gamma=0.1)], gvt_enabled=True)
    ctx = make_transfer_context([kb], vocab, spec, 3)
    W = np.zeros((3, 3))
    W[0, 1] = -5e-324
    _, dW, _ = gvt_gradients(W, ctx)
    assert _same_bits(dW, _reference_gvt_gradients(W, ctx, {}, False)[0])
    assert not np.signbit(dW).any()


def test_gvt_gradients_leave_inputs_alone_and_return_fresh_arrays(rng):
    # train() scales the returned gradients in place
    target = Vocabulary(["a", "b", "c", "d"])
    kbs = [random_kb(rng, "s0", 3, ["a", "b"]), random_kb(rng, "s1", 3, ["b", "c", "d"])]
    spec = TransferSpec([SourceWeight("s0", gamma=0.4), SourceWeight("s1", gamma=0.3)],
                        gvt_enabled=True, gvt_mask_oov=True)
    ctx = make_transfer_context(kbs, target, spec, 3)
    W = rng.normal(size=(3, 4))
    alignments = {"s0": rng.normal(size=(3, 3)), "s1": rng.normal(size=(3, 3))}
    inputs = [W, *alignments.values(), *(pkb.topics for pkb in ctx.projected.values())]
    before = [arr.copy() for arr in inputs]
    _, dW, dA = gvt_gradients(W, ctx, alignments=alignments)
    for arr, old in zip(inputs, before):
        assert np.array_equal(arr, old)
    grads = [dW, *dA.values()]
    for i, grad in enumerate(grads):
        assert not any(np.shares_memory(grad, arr) for arr in inputs + grads[:i])


def test_gvt_mask_oov_excludes_uncovered_columns(rng):
    kb = random_kb(rng, "s", 2, ["a", "b"])
    target = Vocabulary(["a", "b", "zzz"])
    spec_on = TransferSpec([SourceWeight("s", gamma=1.0)], gvt_enabled=True,
                           gvt_mask_oov=True)
    spec_off = TransferSpec([SourceWeight("s", gamma=1.0)], gvt_enabled=True)
    ctx_on = make_transfer_context([kb], target, spec_on, 2)
    ctx_off = make_transfer_context([kb], target, spec_off, 2)
    W = rng.normal(size=(2, 3))
    covered_only = gvt_penalty(W, ctx_on)
    full = gvt_penalty(W, ctx_off)
    # unmasked formula additionally pulls the uncovered column toward zero
    extra = float((W[:, 2] ** 2).sum())
    assert full == pytest.approx(covered_only + extra, rel=1e-12)


# ----------------------------------------------------------------- context construction

def test_context_unknown_source_names_the_id(rng):
    kb = random_kb(rng, "known", 2, ["a"])
    spec = TransferSpec([SourceWeight("mystery", lam=1.0)], lvt_enabled=True)
    with pytest.raises(ConfigError, match="mystery"):
        make_transfer_context([kb], kb.vocabulary, spec, 2)


def test_context_duplicate_kb_ids(rng):
    kb1 = random_kb(rng, "s", 2, ["a"])
    kb2 = random_kb(rng, "s", 2, ["a"])
    spec = TransferSpec([SourceWeight("s", lam=1.0)], lvt_enabled=True)
    with pytest.raises(ConfigError, match="duplicate"):
        make_transfer_context([kb1, kb2], kb1.vocabulary, spec, 2)


def test_context_lvt_dimension_contract(rng):
    kb = random_kb(rng, "s", 3, ["a", "b"])
    spec = TransferSpec([SourceWeight("s", lam=1.0)], lvt_enabled=True)
    with pytest.raises(ConfigError, match="dimension"):
        make_transfer_context([kb], kb.vocabulary, spec, 2)


def test_context_gvt_dimension_contract(rng):
    kb = random_kb(rng, "s", 3, ["a", "b"])
    spec = TransferSpec([SourceWeight("s", gamma=1.0)], gvt_enabled=True)
    with pytest.raises(ConfigError, match="topic count"):
        make_transfer_context([kb], kb.vocabulary, spec, 2)


def test_embedding_only_kb_rejects_gvt(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 0.5 0.5\nb 1 0\n")
    kb = load_embeddings_text(path, "ext")
    spec = TransferSpec([SourceWeight("ext", gamma=0.1)], gvt_enabled=True)
    with pytest.raises(ConfigError, match="local-view"):
        make_transfer_context([kb], kb.vocabulary, spec, 2)


def test_context_coverage_matches_projections(rng):
    target = Vocabulary(["a", "b", "c", "d"])
    kbs = [random_kb(rng, "s1", 2, ["a", "b", "c", "d"]),
           random_kb(rng, "s2", 2, ["a", "x"]),
           random_kb(rng, "s3", 2, ["p", "q"])]
    spec = TransferSpec([SourceWeight("s1", 0.5, 0.1), SourceWeight("s2", 0.5, 0.1),
                         SourceWeight("s3", 0.5, 0.1)],
                        lvt_enabled=True, gvt_enabled=True)
    ctx = make_transfer_context(kbs, target, spec, 2)
    for kb in kbs:
        assert ctx.coverage[kb.source_id] == project_kb(kb, target).coverage
    assert ctx.coverage == {"s1": 1.0, "s2": 0.25, "s3": 0.0}


def test_transfer_spec_validates_enabled_views():
    with pytest.raises(ConfigError):
        TransferSpec([SourceWeight("s", lam=0.0)], lvt_enabled=True)
    with pytest.raises(ConfigError):
        TransferSpec([SourceWeight("s", gamma=0.0)], gvt_enabled=True)


@pytest.mark.parametrize("lam, gamma", [(float("nan"), 0.0), (0.5, float("nan")),
                                        (float("inf"), 0.0), (-1.0, 0.5)])
def test_transfer_spec_rejects_nan_infinite_and_negative_weights(lam, gamma):
    with pytest.raises(ConfigError, match="source 's': lambda and gamma must be finite and >= 0"):
        TransferSpec([SourceWeight("s", lam, gamma)], lvt_enabled=True, gvt_enabled=True)


def test_initial_alignments_are_identity(rng):
    kb, ctx = gvt_ctx(rng, 3, 4)
    params = init_params(3, 4, seed=0)
    ensure_alignments(params, ctx)
    np.testing.assert_array_equal(params.alignments["s"], np.eye(3))
    # an alignment the parameters already hold is left untouched
    trained = rng.normal(size=(3, 3))
    saved = trained.copy()
    params.alignments["s"] = trained
    ensure_alignments(params, ctx)
    assert params.alignments["s"] is trained
    np.testing.assert_array_equal(trained, saved)
