import re

import numpy as np
import pytest

from conftest import make_vocab, random_doc, strided_document_vector
from topicxfer import fileio, kernels
from topicxfer.corpus import Corpus, Document, Vocabulary
from topicxfer.errors import ConfigError, CorpusError
from topicxfer.evaluate import model_vector_fn, perplexity
from topicxfer.fileio import write_matrix
from topicxfer.model import (ModelParams, TrainConfig, document_vector,
                             ensure_alignments, forward, gradients, init_params,
                             load_model, loss, save_model, train, word_rows)
from topicxfer.transfer import (KnowledgeBase, SourceWeight, TransferContext,
                                TransferSpec, gvt_gradients, gvt_penalty, load_kb,
                                make_transfer_context, save_kb)


def zero_params(h, k, activation="sigmoid"):
    return ModelParams(np.zeros((h, k)), np.zeros((k, h)), np.zeros(k),
                       np.zeros(h), activation=activation)


def make_ctx(rng, h, k, modes=("lvt", "gvt"), n_sources=1, lam=0.7, gamma=0.3):
    vocab = make_vocab(k)
    kbs, weights = [], []
    for s in range(n_sources):
        sid = f"s{s}"
        kbs.append(KnowledgeBase(sid, vocab, rng.normal(size=(h, k)),
                                 rng.normal(size=(h, k))))
        weights.append(SourceWeight(sid, lam if "lvt" in modes else 0.0,
                                    gamma if "gvt" in modes else 0.0))
    spec = TransferSpec(weights, lvt_enabled="lvt" in modes, gvt_enabled="gvt" in modes)
    return make_transfer_context(kbs, vocab, spec, h)


# ----------------------------------------------------------------- init

def test_init_zero_scale_gives_zero_params():
    p = init_params(3, 4, seed=0, init_scale=0.0)
    for arr in (p.W, p.U, p.b, p.c):
        assert np.all(arr == 0.0)


def test_init_same_seed_is_bitwise_identical():
    a = init_params(4, 7, seed=123, init_scale=0.2)
    b = init_params(4, 7, seed=123, init_scale=0.2)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.U, b.U)


def test_init_distribution_statistics():
    # statistical check against the seeded generator
    draws = np.concatenate([init_params(2, 3, seed=s, init_scale=0.1).W.ravel()
                            for s in range(1, 1701)])
    assert draws.size >= 10_000
    assert np.abs(draws).max() <= 0.1
    assert abs(draws.mean()) < 0.05


def test_init_rejects_bad_dims():
    with pytest.raises(ConfigError):
        init_params(0, 5, seed=0)


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (4, 3), (3,)],
                         ids=["square", "wide", "tall", "vector"])
def test_model_params_rejects_alignment_that_is_not_h_by_h(shape):
    # such a model would save, and its bundle would then fail to load
    h, k = 3, 4
    with pytest.raises(ConfigError, match=re.escape(
            f"alignment 's': shape {shape}, expected (3, 3) for W of shape (3, 4)")) as err:
        ModelParams(np.zeros((h, k)), np.zeros((k, h)), np.zeros(k), np.zeros(h),
                    alignments={"s": np.ones(shape)})
    assert len(str(err.value).splitlines()) == 1


def test_save_model_refuses_an_alignment_added_after_construction(tmp_path):
    # alignments is a plain dict, so a wrong shape can enter after ModelParams checked it
    bundle = tmp_path / "m"
    params = init_params(3, 4, seed=0)
    save_model(params, make_vocab(4), bundle)
    before = {p.name: p.read_bytes() for p in bundle.iterdir()}
    params.alignments["s"] = np.eye(2)
    with pytest.raises(ConfigError, match=re.escape(
            "alignment 's': shape (2, 2), expected (3, 3) for W of shape (3, 4)")):
        save_model(params, make_vocab(4), bundle)
    assert {p.name: p.read_bytes() for p in bundle.iterdir()} == before
    loaded, _, _, _ = load_model(bundle)
    assert np.array_equal(loaded.W, params.W) and loaded.alignments == {}


# ----------------------------------------------------------------- forward / loss

def test_single_word_uniform_logprob():
    p = zero_params(3, 2)
    p.W[:] = np.random.default_rng(0).normal(size=(3, 2))
    p.c[:] = 0.4
    log_probs = forward(Document(np.array([0])), p)
    assert log_probs[0] == pytest.approx(np.log(0.5), abs=1e-15)


def test_uniform_model_total_logprob(rng):
    k, d = 4, 6
    p = zero_params(2, k)
    doc = random_doc(rng, k, d)
    assert forward(doc, p).sum() == pytest.approx(-d * np.log(k), abs=1e-12)


def test_uniform_loss_value(rng):
    p = zero_params(5, 4)
    doc = random_doc(rng, 4, 3)
    assert loss(doc, p) == pytest.approx(3 * np.log(4), abs=1e-12)


def test_loss_zero_penalty_when_w_equals_topics(rng):
    h, k = 2, 5
    ctx = make_ctx(rng, h, k, modes=("gvt",), gamma=3.0)
    z = ctx.projected["s0"].topics
    p = ModelParams(z.copy(), np.zeros((k, h)), np.zeros(k), np.zeros(h))
    ensure_alignments(p, ctx)
    doc = random_doc(rng, k, 4)
    assert loss(doc, p, ctx) == pytest.approx(-forward(doc, p, ctx).sum(), abs=1e-15)


def test_loss_adds_hand_summed_penalty(rng):
    h, k = 2, 3
    ctx = make_ctx(rng, h, k, modes=("gvt",), gamma=0.8)
    p = init_params(h, k, seed=5, init_scale=0.4)
    ensure_alignments(p, ctx)
    p.alignments["s0"] = rng.normal(size=(h, h))
    doc = random_doc(rng, k, 4)
    z = ctx.projected["s0"].topics
    penalty = 0.0
    for j in range(h):
        row = p.alignments["s0"][j] @ p.W - z[j]
        penalty += 0.8 * float(row @ row)
    assert loss(doc, p, ctx) == pytest.approx(-forward(doc, p, ctx).sum() + penalty,
                                              abs=1e-12)


def test_forward_trace_shape_and_signs(rng):
    p = init_params(4, 7, seed=2, init_scale=0.5)
    doc = random_doc(rng, 7, 9)
    log_probs = forward(doc, p)
    assert isinstance(log_probs, np.ndarray)
    assert log_probs.shape == (9,)
    assert (log_probs <= 0).all()


def test_forward_rejects_out_of_range_indices():
    p = zero_params(2, 3)
    with pytest.raises(CorpusError):
        forward(Document(np.array([5])), p)


@pytest.mark.parametrize("words, message", [
    ([1.7, 2.2], "must be integers, got dtype float64"),
    (np.array([True, False]), "must be integers, got dtype bool"),
    (np.array([[1, 2]]), r"must be one-dimensional, got shape \(1, 2\)"),
    ([], "cannot run the model on an empty document"),
])
@pytest.mark.parametrize("fn", [forward, loss, gradients, document_vector])
def test_model_rejects_non_integer_or_non_vector_words(words, message, fn):
    # floats and bools were truncated to indices; a 2-D array failed deep in
    # a kernel with a broadcast error
    with pytest.raises(CorpusError, match=message):
        fn(words, zero_params(2, 4))


# ----------------------------------------------------------------- gradients

def test_softmax_minus_onehot_at_zero_params():
    k = 5
    p = zero_params(3, k)
    g = gradients(Document(np.array([2])), p)
    expect = np.full(k, 1.0 / k)
    expect[2] -= 1.0
    np.testing.assert_allclose(g.b, expect, atol=1e-15)


def test_zero_gamma_zeroes_alignment_gradients(rng):
    # a zero-gamma source takes no part in the penalty: no alignment, no gradient
    vocab = make_vocab(5)
    kbs = [KnowledgeBase(sid, vocab, rng.normal(size=(3, 5)), rng.normal(size=(3, 5)))
           for sid in ("s0", "s1")]
    spec = TransferSpec([SourceWeight("s0", 0.7, 0.4), SourceWeight("s1", 0.7, 0.0)],
                        lvt_enabled=True, gvt_enabled=True)
    ctx = make_transfer_context(kbs, vocab, spec, 3)
    p = init_params(3, 5, seed=1)
    ensure_alignments(p, ctx)
    assert set(p.alignments) == {"s0"}
    g = gradients(random_doc(rng, 5, 4), p, ctx)
    assert set(g.alignments) == {"s0"}
    assert np.any(g.alignments["s0"] != 0.0)


def test_zero_gamma_source_with_other_topic_count_trains(rng):
    # gamma = 0 keeps s1 out of the global view, so its topic count need not be H
    h, k = 3, 6
    vocab = make_vocab(k)
    kbs = [KnowledgeBase("s0", vocab, rng.normal(size=(h, k)), rng.normal(size=(h, k))),
           KnowledgeBase("s1", vocab, rng.normal(size=(h, k)), rng.normal(size=(5, k)))]
    spec = TransferSpec([SourceWeight("s0", gamma=0.3), SourceWeight("s1", gamma=0.0)],
                        gvt_enabled=True)
    ctx = make_transfer_context(kbs, vocab, spec, h)
    corpus = Corpus(vocab, [random_doc(rng, k, 5) for _ in range(4)])
    validation = Corpus(vocab, [random_doc(rng, k, 5) for _ in range(2)])
    params, stats = train(corpus, TrainConfig(epochs=2, n_topics=h, learning_rate=0.05),
                          ctx, validation)
    assert ctx.gvt_source_ids() == ["s0"]
    assert set(params.alignments) == {"s0"}
    assert all(set(s.gvt_residuals) == {"s0"} for s in stats)


def _fd_check(doc, params, ctx, eps=1e-5, rtol=1e-4, atol=1e-7):
    g = gradients(doc, params, ctx)
    pairs = [(params.W, g.W), (params.U, g.U), (params.b, g.b), (params.c, g.c)]
    for sid, ga in g.alignments.items():
        pairs.append((params.alignments[sid], ga))
    for arr, analytic in pairs:
        for idx in np.ndindex(arr.shape):
            old = arr[idx]
            arr[idx] = old + eps
            up = loss(doc, params, ctx)
            arr[idx] = old - eps
            down = loss(doc, params, ctx)
            arr[idx] = old
            fd = (up - down) / (2 * eps)
            a = analytic[idx]
            assert abs(a - fd) <= max(atol, rtol * max(abs(a), abs(fd))), \
                f"gradient mismatch at {idx}: analytic {a}, fd {fd}"


@pytest.mark.parametrize("mode", ["none", "lvt", "gvt", "mvt"])
def test_gradients_match_finite_differences(rng, mode):
    h, k, d = 3, 6, 5
    params = init_params(h, k, seed=9, init_scale=0.4)
    ctx = None
    if mode != "none":
        modes = {"lvt": ("lvt",), "gvt": ("gvt",), "mvt": ("lvt", "gvt")}[mode]
        ctx = make_ctx(rng, h, k, modes=modes)
        ensure_alignments(params, ctx)
        for a in params.alignments.values():
            a += rng.normal(scale=0.2, size=a.shape)
    _fd_check(random_doc(rng, k, d), params, ctx)


# ----------------------------------------------------------------- document vectors

def test_document_vector_constant_at_zero_params():
    p = zero_params(3, 4)
    vec = document_vector(Document(np.array([1, 2])), p)
    np.testing.assert_array_equal(vec, np.full(3, 0.5))


def test_document_vector_single_word_definition(rng):
    h, k = 3, 5
    p = init_params(h, k, seed=3, init_scale=0.5)
    ctx = make_ctx(rng, h, k, modes=("lvt",), lam=0.9)
    vec = document_vector(Document(np.array([2])), p, ctx)
    pre = p.c + p.W[:, 2] + 0.9 * ctx.projected["s0"].embeddings[:, 2]
    np.testing.assert_allclose(vec, 1.0 / (1.0 + np.exp(-pre)), atol=1e-15)


def test_document_vector_permutation_invariant(rng):
    p = init_params(4, 8, seed=4, init_scale=0.7)
    words = rng.integers(0, 8, size=12).astype(np.int64)
    base = document_vector(Document(words), p)
    for _ in range(5):
        perm = rng.permutation(words.size)
        np.testing.assert_array_equal(base, document_vector(Document(words[perm]), p))


def _int64(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
@pytest.mark.parametrize("with_lvt", [False, True], ids=["plain", "lvt"])
def test_document_vector_matches_the_strided_gather_bits(rng, activation, with_lvt):
    shapes = [(1, 1), (1, 9), (7, 1)] + [tuple(rng.integers(1, 501, size=2)) for _ in range(12)]
    for h, k in shapes:
        params = init_params(h, k, seed=int(rng.integers(1 << 30)), init_scale=0.5,
                             activation=activation)
        lvt = rng.normal(scale=0.5, size=(h, k)) if with_lvt else None
        ctx = TransferContext(lvt) if with_lvt else None
        rows = word_rows(params, ctx)
        assert rows.shape == (k, h) and rows.flags.c_contiguous
        vector_fn = model_vector_fn(params, ctx)
        d = int(rng.integers(1, 501))
        # a narrow index range forces repeated words
        docs = [rng.integers(0, k, size=d), rng.integers(0, max(1, k // 20), size=d),
                rng.integers(0, k, size=1)]
        for words in docs:
            doc = Document(words.astype(np.int64))
            want = _int64(strided_document_vector(doc, params, lvt))
            np.testing.assert_array_equal(_int64(document_vector(doc, params, ctx)), want)
            np.testing.assert_array_equal(
                _int64(document_vector(doc, params, ctx, rows=rows)), want)
            np.testing.assert_array_equal(_int64(vector_fn(doc)), want)


@pytest.mark.parametrize("mask", [False, True], ids=["unmasked", "masked"])
def test_saved_lvt_context_gives_the_mvt_context_bits(rng, mask):
    # a bundle keeps only the lvt matrix; inference reads nothing else of the context
    h, k = 4, 9
    vocab = make_vocab(k)
    kb = KnowledgeBase("s0", Vocabulary([f"w{i}" for i in range(0, 2 * k, 2)]),
                       rng.normal(size=(h, k)), rng.normal(size=(h, k)))
    spec = TransferSpec([SourceWeight("s0", lam=0.6, gamma=0.2)], lvt_enabled=True,
                        gvt_enabled=True, gvt_mask_oov=mask)
    ctx = make_transfer_context([kb], vocab, spec, h)
    assert not ctx.projected["s0"].covered.all()
    saved = TransferContext(ctx.lvt_matrix.copy())
    params = init_params(h, k, seed=5, init_scale=0.5)
    ensure_alignments(params, ctx)
    corpus = Corpus(vocab, [random_doc(rng, k, d) for d in (1, 6, 13)])
    assert _int64(perplexity(params, corpus, saved)) == _int64(perplexity(params, corpus, ctx))
    for doc in corpus:
        np.testing.assert_array_equal(_int64(document_vector(doc, params, saved)),
                                      _int64(document_vector(doc, params, ctx)))


# ----------------------------------------------------------------- training

def _tiny_corpus(rng, k=6, n=8, dmax=7):
    vocab = make_vocab(k)
    docs = [random_doc(rng, k, int(rng.integers(1, dmax))) for _ in range(n)]
    return Corpus(vocab, docs)


def test_train_rejects_zero_epochs():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)


def test_zero_learning_rate_is_identity(rng):
    corpus = _tiny_corpus(rng)
    cfg = TrainConfig(learning_rate=0.0, epochs=1, seed=7, n_topics=3)
    params, _ = train(corpus, cfg)
    fresh = init_params(3, 6, seed=7)
    assert np.array_equal(params.W, fresh.W)
    assert np.array_equal(params.U, fresh.U)
    assert np.array_equal(params.b, fresh.b)
    assert np.array_equal(params.c, fresh.c)


def test_training_reduces_loss(rng):
    corpus = _tiny_corpus(rng, k=10, n=20)
    cfg = TrainConfig(learning_rate=0.05, epochs=30, seed=1, n_topics=3)
    _, stats = train(corpus, cfg)
    assert stats[-1].train_loss < stats[0].train_loss


def test_training_is_deterministic(rng):
    corpus = _tiny_corpus(rng)
    cfg = TrainConfig(learning_rate=0.02, epochs=5, seed=42, n_topics=2)
    a, _ = train(corpus, cfg)
    b, _ = train(corpus, cfg)
    for x, y in ((a.W, b.W), (a.U, b.U), (a.b, b.b), (a.c, b.c)):
        assert np.array_equal(x, y)


def test_early_stopping_returns_best_epoch(rng):
    corpus = _tiny_corpus(rng, k=8, n=12)
    validation = _tiny_corpus(rng, k=8, n=6)
    cfg = TrainConfig(learning_rate=0.3, epochs=40, seed=3, n_topics=3,
                      validation_patience=3)
    params, stats = train(corpus, cfg, validation=validation)
    best = min(s.validation_ppl for s in stats)
    from topicxfer.evaluate import perplexity
    assert perplexity(params, validation) == pytest.approx(best, rel=1e-12)


def _reference_train(corpus, cfg, ctx):
    """Plain-SGD train() with LVT+GVT as it was before the step was vectorized.

    One W column update per word in position order, and the penalty from its
    own gvt_penalty call next to gvt_gradients.
    """
    rng = np.random.default_rng(cfg.seed)
    h, k = cfg.n_topics, len(corpus.vocabulary)
    W = rng.uniform(-cfg.init_scale, cfg.init_scale, size=(h, k))
    U = rng.uniform(-cfg.init_scale, cfg.init_scale, size=(k, h))
    b, c = np.zeros(k), np.zeros(h)
    alignments = {sid: np.eye(h) for sid in ctx.gvt_source_ids()}
    act = kernels.ACT_TANH if cfg.activation == "tanh" else kernels.ACT_SIGMOID
    lr = cfg.learning_rate
    losses = []
    for _ in range(cfg.epochs):
        total = 0.0
        for di in rng.permutation(len(corpus)):
            words = corpus.documents[di].words
            words = np.ascontiguousarray(words[rng.permutation(words.size)], dtype=np.int64)
            logps, dw_cols, dU, db, dc = kernels.doc_grads(
                words, W, U, b, c, ctx.lvt_matrix, True, act)
            doc_loss = -logps.sum()
            doc_loss += gvt_penalty(W, ctx, alignments=alignments)
            _, gW, gA = gvt_gradients(W, ctx, alignments=alignments)
            total += doc_loss
            for q in range(words.size):
                W[:, words[q]] -= lr * dw_cols[q]
            U -= lr * dU
            b -= lr * db
            c -= lr * dc
            W -= lr * gW
            for sid, dA in gA.items():
                alignments[sid] -= lr * dA
        losses.append(total / len(corpus))
    return W, U, b, c, alignments, losses


@pytest.mark.parametrize("mask_oov", [False, True])
def test_train_step_is_bit_identical_to_reference(rng, mask_oov):
    k, h = 6, 3
    vocab = make_vocab(k)
    # ten-word documents over six words: every document repeats words
    docs = [Document(rng.integers(0, k, size=10)) for _ in range(7)]
    corpus = Corpus(vocab, docs)
    kbs = [KnowledgeBase(sid, Vocabulary(tokens), rng.normal(size=(h, len(tokens))),
                         rng.normal(size=(h, len(tokens))))
           for sid, tokens in (("s0", ["w0", "w1", "w2", "w5"]), ("s1", ["w1", "w3", "w4"]))]
    spec = TransferSpec([SourceWeight("s0", 0.4, 0.2), SourceWeight("s1", 0.3, 0.1)],
                        lvt_enabled=True, gvt_enabled=True, gvt_mask_oov=mask_oov)
    ctx = make_transfer_context(kbs, vocab, spec, h)
    cfg = TrainConfig(learning_rate=0.05, epochs=3, seed=11, n_topics=h, init_scale=0.3)
    params, stats = train(corpus, cfg, ctx)
    W, U, b, c, alignments, losses = _reference_train(corpus, cfg, ctx)
    for got, want in ((params.W, W), (params.U, U), (params.b, b), (params.c, c)):
        assert np.array_equal(got, want)
    assert params.alignments.keys() == alignments.keys()
    for sid in alignments:
        assert np.array_equal(params.alignments[sid], alignments[sid])
    assert [s.train_loss for s in stats] == losses


def test_train_loss_is_bit_equal_to_loss(rng):
    # train()'s per-document loss and loss() share one log-softmax form and
    # one penalty reduction, so with nothing learned they are the same number
    k, h = 6, 3
    corpus = Corpus(make_vocab(k), [Document(rng.integers(0, k, size=9))])
    ctx = make_ctx(rng, h, k)
    cfg = TrainConfig(learning_rate=0.0, epochs=1, seed=4, n_topics=h, init_scale=2.0,
                      shuffle_words=False, shuffle_docs=False)
    _, stats = train(corpus, cfg, ctx)
    params = init_params(h, k, seed=4, init_scale=2.0)
    ensure_alignments(params, ctx)
    assert stats[0].train_loss == loss(corpus.documents[0], params, ctx)


# ----------------------------------------------------------------- persistence

def test_model_bundle_roundtrip(tmp_path, rng):
    vocab = make_vocab(5)
    params = init_params(3, 5, seed=8, init_scale=0.3)
    params.alignments["src"] = rng.normal(size=(3, 3))
    params.trained_epochs = 17
    assert params.copy().trained_epochs == 17
    save_model(params, vocab, tmp_path / "bundle", seed=8)
    loaded, vocab2, meta, lvt = load_model(tmp_path / "bundle")
    assert vocab2 == vocab
    assert lvt is None
    assert meta["activation"] == "sigmoid"
    assert loaded.trained_epochs == 17
    np.testing.assert_array_equal(loaded.W, params.W)
    np.testing.assert_array_equal(loaded.U, params.U)
    np.testing.assert_array_equal(loaded.b, params.b)
    np.testing.assert_array_equal(loaded.c, params.c)
    np.testing.assert_array_equal(loaded.alignments["src"], params.alignments["src"])


def test_resave_removes_stale_alignment_and_lvt_files(tmp_path, rng):
    vocab = make_vocab(5)
    bundle = tmp_path / "bundle"
    gvt = init_params(3, 5, seed=8)
    gvt.alignments["s1"] = rng.normal(size=(3, 3))
    save_model(gvt, vocab, bundle, lvt_matrix=rng.normal(size=(3, 5)))
    save_model(init_params(3, 5, seed=9), vocab, bundle)
    loaded, _, _, lvt = load_model(bundle)
    assert loaded.alignments == {}
    assert lvt is None
    assert sorted(p.name for p in bundle.iterdir()) == [
        "U.mat", "W.mat", "b.mat", "c.mat", "meta.txt", "vocab.txt"]
    # a KB's one optional member is Z.mat: an embedding-only re-save removes it
    kb_dir = tmp_path / "kb"
    save_kb(KnowledgeBase("s1", vocab, rng.normal(size=(2, 5)), rng.normal(size=(3, 5))),
            kb_dir)
    save_kb(KnowledgeBase("s1", vocab, rng.normal(size=(2, 5))), kb_dir)
    assert load_kb(kb_dir).topics is None
    assert sorted(p.name for p in kb_dir.iterdir()) == ["E.mat", "meta.txt", "vocab.txt"]


def _replace_meta(bundle, old, new):
    meta = bundle / "meta.txt"
    text = meta.read_text()
    assert old in text
    meta.write_text(text.replace(old, new))


@pytest.mark.parametrize("case, culprit", [
    ("lvt", "lvt.mat"), ("alignment", "A.s1.mat"),
    ("U", "U.mat"), ("b", "b.mat"), ("c", "c.mat"),
    ("meta-trained_epochs", "meta.txt: trained_epochs"),
    ("meta-activation", "meta.txt: activation"),
    ("unlisted-b", "meta.txt: matrices does not list 'b'"),
    ("listed-file-missing", "A.s1.mat"),
    ("no-matrices", "meta.txt: missing key 'matrices'"),
    ("W-header", "W.mat"), ("empty-vocab", "vocab.txt"),
])
def test_load_model_rejects_shape_mismatch(tmp_path, rng, case, culprit):
    bundle = tmp_path / "bundle"
    params = init_params(3, 6, seed=8)
    params.alignments["s1"] = rng.normal(size=(3, 3))
    save_model(params, make_vocab(6), bundle, lvt_matrix=rng.normal(size=(3, 6)))
    if case == "meta-trained_epochs":
        _replace_meta(bundle, "trained_epochs=0", "trained_epochs=x")
    elif case == "unlisted-b":
        _replace_meta(bundle, "matrices=W U b c", "matrices=W U c")
    elif case == "listed-file-missing":
        (bundle / culprit).unlink()
    elif case == "no-matrices":
        _replace_meta(bundle, "matrices=W U b c A.s1 lvt\n", "")
    elif case == "meta-activation":
        _replace_meta(bundle, "activation=sigmoid", "activation=relu")
    elif case == "W-header":
        W = bundle / "W.mat"
        W.write_text("a b\n" + W.read_text().split("\n", 1)[1])
    elif case == "empty-vocab":
        (bundle / "vocab.txt").write_text("")
    else:
        shape = {"lvt": (2, 4), "alignment": (3, 2), "U": (6, 2), "b": (1, 5),
                 "c": (1, 4)}[case]
        write_matrix(bundle / culprit, rng.normal(size=shape))
    error = {"W-header": CorpusError, "empty-vocab": CorpusError,
             "listed-file-missing": FileNotFoundError}.get(case, ConfigError)
    with pytest.raises(error, match=re.escape(culprit)):
        load_model(bundle)


@pytest.mark.parametrize("resave", [False, True], ids=["fresh", "over-complete-bundle"])
def test_save_that_stops_partway_leaves_no_loadable_bundle(tmp_path, rng, monkeypatch,
                                                           resave):
    bundle = tmp_path / "bundle"
    vocab = make_vocab(6)
    if resave:
        old = init_params(3, 6, seed=8)
        old.alignments["s1"] = rng.normal(size=(3, 3))
        save_model(old, vocab, bundle, lvt_matrix=rng.normal(size=(3, 6)))
        load_model(bundle)
    write_matrix = fileio.write_matrix
    written = []

    def fail_on_third_call(path, mat):
        written.append(path)
        if len(written) == 3:
            raise OSError("no space left")
        write_matrix(path, mat)

    monkeypatch.setattr(fileio, "write_matrix", fail_on_third_call)
    new = init_params(3, 6, seed=9)
    new.alignments["s2"] = rng.normal(size=(3, 3))
    with pytest.raises(OSError, match="no space left"):
        save_model(new, vocab, bundle)
    monkeypatch.undo()
    # neither the old model nor a mix of old and new matrices loads
    with pytest.raises(FileNotFoundError, match=re.escape(str(bundle / "meta.txt"))):
        load_model(bundle)


def test_meta_lists_members_in_write_order(tmp_path, rng):
    params = init_params(3, 6, seed=8)
    params.alignments["s2"] = rng.normal(size=(3, 3))
    params.alignments["s1"] = rng.normal(size=(3, 3))
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "X.mat").write_text("1 1\n0\n")
    (bundle / "notes.txt").write_text("kept\n")
    save_model(params, make_vocab(6), bundle, lvt_matrix=rng.normal(size=(3, 6)))
    assert (bundle / "meta.txt").read_text().splitlines()[-1] == "matrices=W U b c A.s2 A.s1 lvt"
    assert sorted(p.name for p in bundle.iterdir()) == [
        "A.s1.mat", "A.s2.mat", "U.mat", "W.mat", "b.mat", "c.mat", "lvt.mat", "meta.txt",
        "notes.txt", "vocab.txt"]
    loaded, _, _, lvt = load_model(bundle)
    assert list(loaded.alignments) == ["s2", "s1"] and lvt is not None


def test_load_model_rejects_repeated_meta_key(tmp_path):
    bundle = tmp_path / "bundle"
    save_model(init_params(3, 6, seed=8), make_vocab(6), bundle)
    meta = bundle / "meta.txt"
    meta.write_text(meta.read_text() + "activation=tanh\n")
    with pytest.raises(CorpusError, match=re.escape(f"{meta}: line ")
                       + r"\d+: duplicate key 'activation'"):
        load_model(bundle)


@pytest.mark.parametrize("key", ["activation", "trained_epochs"])
def test_load_model_requires_every_meta_key(tmp_path, key):
    bundle = tmp_path / "bundle"
    save_model(init_params(3, 6, seed=8), make_vocab(6), bundle)
    meta = bundle / "meta.txt"
    meta.write_text("".join(line for line in meta.read_text().splitlines(keepends=True)
                            if not line.startswith(f"{key}=")))
    with pytest.raises(ConfigError, match=re.escape(f"{meta}: missing key {key!r}")):
        load_model(bundle)


def test_bundle_with_older_shape_entries_loads_bit_equal(tmp_path, rng):
    # bundles written before the matrix headers became the one record of a
    # shape also hold H and K (a KB: E_dim and H_s); loading ignores them
    params = init_params(3, 6, seed=8, init_scale=0.3)
    params.alignments["s1"] = rng.normal(size=(3, 3))
    params.trained_epochs = 4
    lvt_matrix = rng.normal(size=(3, 6))
    bundle = tmp_path / "bundle"
    save_model(params, make_vocab(6), bundle, seed=5, lvt_matrix=lvt_matrix)
    meta = bundle / "meta.txt"
    meta.write_text("H=3\nK=6\n" + meta.read_text())
    loaded, vocab, entries, lvt = load_model(bundle)
    assert vocab == make_vocab(6)
    assert (entries["H"], entries["seed"], loaded.trained_epochs) == ("3", "5", 4)
    for name in ("W", "U", "b", "c"):
        assert getattr(loaded, name).tobytes() == getattr(params, name).tobytes()
    assert loaded.alignments["s1"].tobytes() == params.alignments["s1"].tobytes()
    assert lvt.tobytes() == lvt_matrix.tobytes()
    kb = KnowledgeBase("s1", make_vocab(6), rng.normal(size=(2, 6)), rng.normal(size=(3, 6)))
    save_kb(kb, tmp_path / "kb")
    meta = tmp_path / "kb" / "meta.txt"
    meta.write_text(meta.read_text().replace("source_id=s1\n", "source_id=s1\nE_dim=2\nH_s=3\n"))
    again = load_kb(tmp_path / "kb")
    assert again.embeddings.tobytes() == kb.embeddings.tobytes()
    assert again.topics.tobytes() == kb.topics.tobytes()


def test_loss_is_nonnegative(rng):
    ctx = make_ctx(rng, 3, 5, modes=("gvt",), gamma=0.7)
    p = init_params(3, 5, seed=12, init_scale=0.8)
    ensure_alignments(p, ctx)
    for _ in range(10):
        doc = random_doc(rng, 5, int(rng.integers(1, 8)))
        assert loss(doc, p, ctx) >= 0.0
        assert loss(doc, p) >= 0.0


# ----------------------------------------------------------------- context fit

def _misfit(built, model):
    return re.escape(f"transfer context built for W of shape {built} "
                     f"does not fit the model's W of shape {model}")


@pytest.mark.parametrize("shape", [(4, 6), (3, 7)], ids=["topics", "vocabulary"])
@pytest.mark.parametrize("modes", [("lvt",), ("gvt",)], ids=["lvt", "gvt"])
@pytest.mark.parametrize("call", ["train", "forward", "loss", "gradients", "document_vector"])
def test_context_for_other_model_shape_is_config_error(rng, call, modes, shape):
    ctx = make_ctx(rng, 3, 6, modes=modes)
    h, k = shape
    doc = random_doc(rng, 6, 5)
    with pytest.raises(ConfigError, match=_misfit((3, 6), shape)):
        if call == "train":
            train(Corpus(make_vocab(k), [doc]), TrainConfig(epochs=1, n_topics=h), ctx)
        else:
            params = init_params(h, k, seed=0)
            ensure_alignments(params, ctx)
            {"forward": forward, "loss": loss, "gradients": gradients,
             "document_vector": document_vector}[call](doc, params, ctx)


def test_perplexity_with_inference_context_of_other_shape_is_config_error(rng):
    params = init_params(4, 6, seed=0)
    corpus = Corpus(make_vocab(6), [random_doc(rng, 6, 5)])
    with pytest.raises(ConfigError, match=_misfit((3, 6), (4, 6))):
        perplexity(params, corpus, TransferContext(rng.normal(size=(3, 6))))
