import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import make_vocab, random_doc, strided_document_vector
from topicxfer.corpus import Corpus, Document, Vocabulary
from topicxfer.errors import ConfigError, CorpusError
from topicxfer.evaluate import (EvalReport, coherence, model_vector_fn,
                                nearest_neighbors, perplexity,
                                retrieval_precision, top_words)
from topicxfer.model import ModelParams, document_vector, init_params
from topicxfer.transfer import TransferContext


def zero_params(h, k):
    return ModelParams(np.zeros((h, k)), np.zeros((k, h)), np.zeros(k), np.zeros(h))


def corpus_of(rng, k, lengths, labels=None, names=None):
    docs = []
    for i, d in enumerate(lengths):
        docs.append(Document(rng.integers(0, k, size=d).astype(np.int64),
                             None if labels is None else labels[i]))
    return Corpus(make_vocab(k), docs, label_names=names)


# ----------------------------------------------------------------- perplexity

def test_uniform_model_ppl_is_vocab_size_exactly(rng):
    k = 12
    corpus = corpus_of(rng, k, [1, 2, 3, 4, 5, 6, 7])
    assert perplexity(zero_params(3, k), corpus) == float(k)


def test_ppl_formula_inversion():
    # one document scored at exactly -|v| ln 8 inverts to ppl 8
    params = zero_params(2, 8)
    corpus = corpus_of(np.random.default_rng(0), 8, [5])
    assert perplexity(params, corpus) == pytest.approx(8.0, rel=1e-12)


def test_ppl_matches_naive_forward_oracle(rng):
    h, k = 3, 7
    params = init_params(h, k, seed=21, init_scale=0.6)
    corpus = corpus_of(rng, k, [3, 5, 2])

    def naive_logp(doc):
        total = 0.0
        for i in range(len(doc)):
            pre = params.c.copy()
            for q in range(i):
                pre += params.W[:, doc.words[q]]
            hid = 1.0 / (1.0 + np.exp(-pre))
            logits = params.b + params.U @ hid
            m = logits.max()
            total += logits[doc.words[i]] - m - math.log(np.exp(logits - m).sum())
        return total

    mean = np.mean([naive_logp(d) / len(d) for d in corpus])
    assert perplexity(params, corpus) == pytest.approx(math.exp(-mean), rel=1e-10)


def test_ppl_at_least_one(rng):
    params = init_params(2, 5, seed=3, init_scale=1.5)
    corpus = corpus_of(rng, 5, [4, 6, 2, 8])
    assert perplexity(params, corpus) >= 1.0


# ----------------------------------------------------------------- top words

def test_top_words_direct_sort():
    params = zero_params(1, 3)
    params.W[0] = [0.9, 0.1, 0.5]
    vocab = Vocabulary(["a", "b", "c"])
    assert top_words(params, vocab, 0, 2) == ["a", "c"]


def test_top_words_tie_break_by_word_index():
    params = zero_params(1, 4)
    params.W[0] = [0.5, 0.5, 0.5, 0.5]
    vocab = Vocabulary(["d", "c", "b", "a"])
    assert top_words(params, vocab, 0, 3) == ["d", "c", "b"]


def test_top_words_matches_full_sort_oracle(rng):
    h, k = 4, 50
    params = init_params(h, k, seed=10, init_scale=1.0)
    vocab = make_vocab(k)
    for j in range(h):
        got = top_words(params, vocab, j, k)
        want = [vocab.token(i) for i in
                sorted(range(k), key=lambda i: (-params.W[j, i], i))]
        assert got == want


def test_top_words_scale_invariant(rng):
    params = init_params(3, 20, seed=4, init_scale=0.5)
    vocab = make_vocab(20)
    before = [top_words(params, vocab, j, 8) for j in range(3)]
    params.W *= 37.5
    after = [top_words(params, vocab, j, 8) for j in range(3)]
    assert before == after


# ----------------------------------------------------------------- nearest neighbors

def test_nn_identical_columns_are_top():
    params = zero_params(2, 3)
    params.W[:, 0] = [1.0, 2.0]
    params.W[:, 1] = [2.0, 4.0]   # same direction as column 0
    params.W[:, 2] = [5.0, -1.0]
    vocab = Vocabulary(["a", "b", "c"])
    assert nearest_neighbors(params, vocab, "a", 1) == ["b"]
    assert nearest_neighbors(params, vocab, "b", 1) == ["a"]


def test_nn_orthogonal_gives_vocab_order():
    params = zero_params(3, 4)
    params.W[:, 0] = [1.0, 0.0, 0.0]
    params.W[:, 1] = [0.0, 1.0, 0.0]
    params.W[:, 2] = [0.0, 0.0, 1.0]
    params.W[:, 3] = [0.0, 1.0, 0.0]
    vocab = Vocabulary(["q", "a", "b", "c"])
    # all similarities to q are 0, so order = vocabulary order
    assert nearest_neighbors(params, vocab, "q", 3) == ["a", "b", "c"]


def test_nn_matches_brute_force_cosine_oracle(rng):
    k = 30
    params = init_params(5, k, seed=14, init_scale=1.0)
    vocab = make_vocab(k)

    def oracle(w, n):
        sims = []
        for x in range(k):
            if x == w:
                continue
            nw = np.linalg.norm(params.W[:, w])
            nx = np.linalg.norm(params.W[:, x])
            s = -1.0 if nw == 0 or nx == 0 else float(params.W[:, w] @ params.W[:, x] / (nw * nx))
            sims.append((x, s))
        sims.sort(key=lambda t: (-t[1], t[0]))
        return [vocab.token(x) for x, _ in sims[:n]]

    for w in range(k):
        assert nearest_neighbors(params, vocab, vocab.token(w), 5) == oracle(w, 5)


def test_nn_zero_norm_column_is_least_similar(rng):
    params = zero_params(2, 3)
    params.W[:, 0] = [1.0, 0.0]
    params.W[:, 1] = [0.0, 0.0]
    params.W[:, 2] = [1.0, 1.0]
    vocab = Vocabulary(["a", "b", "c"])
    assert nearest_neighbors(params, vocab, "a", 2) == ["c", "b"]


def test_nn_oov_query_is_error():
    params = zero_params(2, 2)
    with pytest.raises(CorpusError):
        nearest_neighbors(params, Vocabulary(["a", "b"]), "zzz", 1)


def test_nn_scale_invariant(rng):
    params = init_params(3, 15, seed=6, init_scale=0.5)
    vocab = make_vocab(15)
    before = nearest_neighbors(params, vocab, "w3", 6)
    params.W *= 12.0
    assert nearest_neighbors(params, vocab, "w3", 6) == before


# ----------------------------------------------------------------- coherence

def _brute_force_coherence(topics, reference, window, top_n):
    """Independent oracle: enumerate windows, count containment, apply NPMI."""
    windows = []
    for doc in reference:
        toks = [reference.vocabulary.token(i) for i in doc.words]
        width = min(window, len(toks))
        for s in range(len(toks) - width + 1):
            windows.append(set(toks[s:s + width]))
    total = len(windows)

    def npmi(w1, w2):
        joint = sum(1 for win in windows if w1 in win and w2 in win)
        if joint == 0:
            return -1.0
        p12 = joint / total
        if p12 >= 1.0:
            return 1.0
        p1 = sum(1 for win in windows if w1 in win) / total
        p2 = sum(1 for win in windows if w2 in win) / total
        return math.log(p12 / (p1 * p2)) / (-math.log(p12))

    scores = []
    for topic in topics:
        words = topic[:top_n]
        pair_scores = [npmi(a, b) for a, b in itertools.combinations(words, 2)]
        scores.append(sum(pair_scores) / len(pair_scores))
    return sum(scores) / len(scores)


def test_coherence_perfect_association():
    # both words in every window, but windows exist without them is impossible
    # here; instead make p(joint)=p(single)=p<1 by adding a window without them
    vocab = Vocabulary(["a", "b", "x", "y"])
    docs = [Document(np.array([0, 1])), Document(np.array([2, 3]))]
    reference = Corpus(vocab, docs)
    got = coherence([["a", "b"]], reference, window=2, top_n=2)
    assert got == 1.0


def test_coherence_never_cooccurring_pair():
    vocab = Vocabulary(["a", "b", "x"])
    docs = [Document(np.array([0, 2])), Document(np.array([1, 2]))]
    reference = Corpus(vocab, docs)
    assert coherence([["a", "b"]], reference, window=2, top_n=2) == -1.0


def test_coherence_repeated_word_pair_scores_minus_one():
    # windows {a, b} and {x}: NPMI(a, b) = log(0.5 / 0.25) / -log(0.5) = 1, and the
    # pair of a with itself scores -1, though a word always co-occurs with itself
    vocab = Vocabulary(["a", "b", "x"])
    reference = Corpus(vocab, [Document(np.array([0, 1])), Document(np.array([2, 2]))])
    assert coherence([["a", "b"]], reference, window=2, top_n=2) == 1.0
    got = coherence([["a", "a", "b"]], reference, window=2, top_n=3)
    # pairs (a, a), (a, b), (a, b)
    assert got == (-1.0 + 1.0 + 1.0) / 3


def test_coherence_memory_grows_with_scored_pairs_not_tracked_words(rng):
    # 1500 tracked words but only 150 * 45 scored pairs: a tracked x tracked
    # int64 count matrix alone would take 18 MB
    k = 1500
    vocab = make_vocab(k)
    reference = Corpus(vocab, [Document(rng.integers(0, k, size=20).astype(np.int64))
                               for _ in range(5)])
    words = [f"w{i}" for i in rng.permutation(k)]
    topics = [words[10 * t:10 * t + 10] for t in range(150)]
    tracemalloc.start()
    try:
        coherence(topics, reference, window=10, top_n=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_coherence_matches_window_enumeration_oracle(rng):
    k = 10
    vocab = make_vocab(k)
    docs = [Document(rng.integers(0, k, size=int(rng.integers(2, 12))).astype(np.int64))
            for _ in range(5)]
    reference = Corpus(vocab, docs)
    topic = [["w0", "w1", "w2"]]
    got = coherence(topic, reference, window=3, top_n=3)
    want = _brute_force_coherence(topic, reference, window=3, top_n=3)
    assert got == pytest.approx(want, abs=1e-12)


def test_coherence_oov_topic_word_scores_minus_one(rng):
    vocab = Vocabulary(["a", "b"])
    reference = Corpus(vocab, [Document(np.array([0, 1, 0, 1]))])
    full = coherence([["a", "b"]], reference, window=2, top_n=2)
    with_oov = coherence([["a", "b", "zzz"]], reference, window=2, top_n=3)
    # pairs: (a,b) keeps its score; (a,zzz) and (b,zzz) contribute -1 each
    assert with_oov == pytest.approx((full - 2.0) / 3.0, abs=1e-12)


def test_coherence_invariant_to_topic_and_word_order(rng):
    k = 8
    vocab = make_vocab(k)
    docs = [Document(rng.integers(0, k, size=9).astype(np.int64)) for _ in range(4)]
    reference = Corpus(vocab, docs)
    topics = [["w0", "w1", "w2"], ["w3", "w4", "w5"]]
    base = coherence(topics, reference, window=4, top_n=3)
    shuffled = [["w5", "w3", "w4"], ["w2", "w0", "w1"]]
    assert coherence(shuffled, reference, window=4, top_n=3) == pytest.approx(base, abs=1e-15)


def test_coherence_rejects_small_top_n(rng):
    vocab = make_vocab(3)
    reference = Corpus(vocab, [Document(np.array([0, 1]))])
    with pytest.raises(ConfigError):
        coherence([["w0", "w1"]], reference, top_n=1)


def test_coherence_rejects_empty_inputs():
    reference = Corpus(make_vocab(3), [Document(np.array([0, 1]))])
    with pytest.raises(ConfigError, match="^coherence needs at least one topic$"):
        coherence([], reference)
    with pytest.raises(CorpusError, match="^coherence needs a non-empty reference corpus$"):
        coherence([["w0", "w1"]], Corpus(make_vocab(3), []))


# ----------------------------------------------------------------- retrieval

def vectors_fixture(train_vecs, train_labels, query_vecs, query_labels):
    """Build two labeled corpora whose document vectors are the given rows."""
    names = sorted(set(train_labels) | set(query_labels))
    k = 2  # dummy vocabulary; vectors come from the lookup below
    lookup = {}

    def corpus(vecs, labels, split):
        docs = []
        for i, lab in enumerate(labels):
            doc = Document(np.array([i % k]), names.index(lab))
            docs.append(doc)
            lookup[id(doc)] = np.asarray(vecs[i], dtype=float)
        return Corpus(make_vocab(k), docs, label_names=names, split=split)

    train = corpus(train_vecs, train_labels, "train")
    queries = corpus(query_vecs, query_labels, "test")
    return train, queries, lambda doc: lookup[id(doc)]


def test_retrieval_single_label_gives_perfect_precision(rng):
    train, queries, fn = vectors_fixture(
        rng.normal(size=(6, 3)), ["x"] * 6, rng.normal(size=(2, 3)), ["x"] * 2)
    got = retrieval_precision(train, queries, fn, fractions=[0.2, 0.5, 1.0])
    assert [p for _, p in got] == [1.0, 1.0, 1.0]


def test_retrieval_forced_ranking():
    # 4 training docs [A, A, B, B]; query A whose top-2 are one A and one B
    train_vecs = [[1.0, 0.0], [0.0, 1.0], [0.9, 0.1], [0.0, -1.0]]
    query_vecs = [[1.0, 0.05]]
    train, queries, fn = vectors_fixture(train_vecs, ["A", "A", "B", "B"],
                                         query_vecs, ["A"])
    got = retrieval_precision(train, queries, fn, fractions=[0.5])
    assert got == [(0.5, 0.5)]


def test_retrieval_matches_brute_force_oracle(rng):
    train_vecs = rng.normal(size=(10, 4))
    query_vecs = rng.normal(size=(5, 4))
    train_labels = [["p", "q", "r"][int(i)] for i in rng.integers(0, 3, size=10)]
    query_labels = [["p", "q", "r"][int(i)] for i in rng.integers(0, 3, size=5)]
    train, queries, fn = vectors_fixture(train_vecs, train_labels,
                                         query_vecs, query_labels)
    fractions = [0.1, 0.3, 0.7, 1.0]
    got = retrieval_precision(train, queries, fn, fractions)

    def cosine(u, v):
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        return -1.0 if nu == 0 or nv == 0 else float(u @ v / (nu * nv))

    for fi, f in enumerate(fractions):
        m = math.ceil(f * 10)
        per_query = []
        for qi in range(5):
            ranked = sorted(range(10),
                            key=lambda t: (-cosine(query_vecs[qi], train_vecs[t]), t))
            top = ranked[:m]
            per_query.append(sum(train_labels[t] == query_labels[qi] for t in top) / m)
        assert got[fi][1] == pytest.approx(float(np.mean(per_query)), abs=1e-12)


def test_retrieval_matches_labels_by_name_across_corpora(rng):
    # pool and queries number their labels differently, and the query label
    # "z" does not occur in the pool at all
    train_labels = ["b", "a", "c", "a", "b", "c", "a", "b"]
    query_labels = ["a", "z", "c", "b"]
    train_vecs = rng.normal(size=(8, 3))
    query_vecs = rng.normal(size=(4, 3))
    train_names, query_names = ["c", "a", "b"], ["z", "b", "a", "c"]
    lookup = {}

    def corpus(vecs, labels, names, split):
        docs = [Document(np.array([0]), names.index(lab)) for lab in labels]
        lookup.update({id(doc): vec for doc, vec in zip(docs, vecs)})
        return Corpus(make_vocab(1), docs, label_names=names, split=split)

    train = corpus(train_vecs, train_labels, train_names, "train")
    queries = corpus(query_vecs, query_labels, query_names, "test")
    fractions = [0.25, 0.5, 1.0]
    got = retrieval_precision(train, queries, lambda doc: lookup[id(doc)], fractions)

    sims = (query_vecs / np.linalg.norm(query_vecs, axis=1)[:, None]) @ (
        train_vecs / np.linalg.norm(train_vecs, axis=1)[:, None]).T
    for fi, f in enumerate(fractions):
        m = math.ceil(f * 8)
        per_query = []
        for qi in range(4):
            top = sorted(range(8), key=lambda t: (-sims[qi, t], t))[:m]
            per_query.append(sum(train_labels[t] == query_labels[qi] for t in top) / m)
        assert got[fi] == (f, pytest.approx(float(np.mean(per_query)), abs=1e-12))


def test_retrieval_fraction_one_equals_label_frequency(rng):
    labels = ["a", "a", "b", "c", "b", "a"]
    train, queries, fn = vectors_fixture(
        rng.normal(size=(6, 3)), labels, rng.normal(size=(4, 3)),
        ["a", "b", "c", "a"])
    got = retrieval_precision(train, queries, fn, fractions=[1.0])
    freq = {lab: labels.count(lab) / len(labels) for lab in set(labels)}
    expect = float(np.mean([freq["a"], freq["b"], freq["c"], freq["a"]]))
    assert got[0][1] == expect


def test_retrieval_requires_labels(rng):
    vocab = make_vocab(2)
    train = Corpus(vocab, [Document(np.array([0]))])
    queries = Corpus(vocab, [Document(np.array([1]))])
    with pytest.raises(CorpusError):
        retrieval_precision(train, queries, lambda d: np.ones(2), [0.5])


@pytest.mark.parametrize("empty, name", [("train", "pool"), ("queries", "query corpus")])
def test_retrieval_rejects_an_empty_corpus(empty, name):
    train, queries, fn = vectors_fixture([[1.0, 0.0]], ["x"], [[0.0, 1.0]], ["x"])
    corpora = {"train": train, "queries": queries}
    corpora[empty] = Corpus(make_vocab(2), [], label_names=["x"])
    with pytest.raises(CorpusError, match=f"^retrieval evaluation needs a non-empty {name}$"):
        retrieval_precision(corpora["train"], corpora["queries"], fn, [0.5])


def test_model_vector_fn_uses_document_vector(rng):
    params = init_params(3, 5, seed=2, init_scale=0.4)
    doc = random_doc(rng, 5, 4)
    fn = model_vector_fn(params)
    np.testing.assert_array_equal(fn(doc), document_vector(doc, params))


@pytest.mark.parametrize("with_lvt", [False, True], ids=["plain", "lvt"])
def test_retrieval_over_model_vectors_matches_brute_force(rng, with_lvt):
    # criterion 3's brute-force ranking, over the strided-gather reference vectors
    h, k = 4, 9
    params = init_params(h, k, seed=7, init_scale=0.8, activation="tanh")
    lvt = rng.normal(size=(h, k)) if with_lvt else None
    names = ["p", "q", "r"]
    pool = corpus_of(rng, k, rng.integers(1, 12, size=12), rng.integers(0, 3, size=12), names)
    queries = corpus_of(rng, k, rng.integers(1, 12, size=5), rng.integers(0, 3, size=5), names)
    fractions = [0.1, 0.25, 0.5, 1.0]
    got = retrieval_precision(pool, queries, model_vector_fn(
        params, TransferContext(lvt) if with_lvt else None), fractions)

    def vec(doc):
        return strided_document_vector(doc, params, lvt)

    assert got == retrieval_precision(pool, queries, vec, fractions)

    def cosine(u, v):
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        return -1.0 if nu == 0 or nv == 0 else float(u @ v / (nu * nv))

    for (_, precision), f in zip(got, fractions):
        m = math.ceil(f * len(pool))
        per_query = []
        for query in queries:
            ranked = sorted(range(len(pool)),
                            key=lambda t: (-cosine(vec(query), vec(pool.documents[t])), t))
            per_query.append(sum(pool.documents[t].label == query.label
                                 for t in ranked[:m]) / m)
        assert abs(precision - float(np.mean(per_query))) <= 1e-10


# ----------------------------------------------------------------- report io

def test_eval_report_roundtrip(tmp_path):
    report = EvalReport(646.25, 0.667, [(0.02, 0.29), (0.05, 0.25)], "abc123")
    path = tmp_path / "report.txt"
    report.save(path)
    again = EvalReport.load(path)
    assert again.ppl == report.ppl
    assert again.coh == report.coh
    assert again.ir == report.ir
    assert again.fingerprint == "abc123"


@pytest.mark.parametrize("text, where", [
    ("ppl=x\ncoh=0.5\n", "line 1: could not convert string to float: 'x'"),
    ("ppl=2.0\ncoh=0.5\nir 0.1\n", "line 3: unexpected line 'ir 0.1'"),
    ("ppl=2.0\ncoh=0.5\nwords=9\n", "line 3: unexpected line 'words=9'"),
    ("ppl=2.0\ncoh=0.5\nppl=3.0\n", "line 3: repeated key 'ppl'"),
    ("coh=0.5\nfingerprint=abc\n", "missing ppl"),
    ("fingerprint=abc\n", "missing ppl and coh"),
    ("ppl=2.0\ncoh=0.5\nir 0.5 0.1\nir 0.2 0.1\n", "retrieval fractions must be"),
], ids=["bad-float", "short-ir", "unknown-key", "repeated-key", "missing-ppl",
        "missing-both", "unordered-ir"])
def test_eval_report_load_names_file_and_line(tmp_path, text, where):
    path = tmp_path / "report.txt"
    path.write_text(text)
    with pytest.raises(CorpusError, match=re.escape(f"{path}: {where}")):
        EvalReport.load(path)


def test_eval_report_validates_fractions():
    with pytest.raises(ValueError):
        EvalReport(1.0, 0.0, [(0.5, 0.1), (0.2, 0.1)])
    with pytest.raises(ValueError):
        EvalReport(1.0, 0.0, [(0.5, 1.5)])
