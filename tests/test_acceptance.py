"""Acceptance suite: one test per release criterion, one printed line each.

The directional experiments (criteria 4, 5, 8) run fully seeded experiments
through the harness; the same config and seed give the same outcome.
"""

import itertools
import math
import os

import numpy as np

from conftest import make_vocab, random_doc
from topicxfer import kernels
from topicxfer.corpus import Corpus, Document, write_corpus_file
from topicxfer.evaluate import (coherence, nearest_neighbors, perplexity,
                                retrieval_precision, top_words)
from topicxfer.harness import ExperimentConfig, SourceConfig, run_experiment
from topicxfer.model import (ModelParams, TrainConfig, ensure_alignments,
                             gradients, init_params, loss, train)
from topicxfer.synthetic import SyntheticSpec, generate_synthetic
from topicxfer.transfer import (KnowledgeBase, SourceWeight, TransferSpec,
                                build_kb, make_transfer_context)


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] criterion {number} {name}: PASS{suffix}")


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness for every transfer mode
# ---------------------------------------------------------------------------

def _random_ctx(rng, mode, h, k):
    if mode == "none":
        return None
    n_sources = int(rng.integers(1, 3))
    kbs, weights = [], []
    vocab = make_vocab(k)
    for s in range(n_sources):
        sid = f"s{s}"
        kbs.append(KnowledgeBase(sid, vocab, rng.normal(scale=0.5, size=(h, k)),
                                 rng.normal(scale=0.5, size=(h, k))))
        lam = float(rng.uniform(0.2, 1.2)) if mode in ("lvt", "mvt") else 0.0
        gamma = float(rng.uniform(0.05, 0.5)) if mode in ("gvt", "mvt") else 0.0
        weights.append(SourceWeight(sid, lam, gamma))
    spec = TransferSpec(weights, lvt_enabled=mode in ("lvt", "mvt"),
                        gvt_enabled=mode in ("gvt", "mvt"))
    return make_transfer_context(kbs, vocab, spec, h)


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(101)
    eps, rtol, atol = 1e-5, 1e-4, 1e-7
    checked = 0
    for mode in ("none", "lvt", "gvt", "mvt"):
        for _ in range(20):
            h = int(rng.integers(1, 6))
            k = int(rng.integers(2, 11))
            d = int(rng.integers(1, 9))
            params = init_params(h, k, seed=int(rng.integers(1 << 30)), init_scale=0.4)
            ctx = _random_ctx(rng, mode, h, k)
            ensure_alignments(params, ctx)
            for a in params.alignments.values():
                a += rng.normal(scale=0.2, size=a.shape)
            doc = random_doc(rng, k, d)
            grads = gradients(doc, params, ctx)
            arrays = [(params.W, grads.W), (params.U, grads.U),
                      (params.b, grads.b), (params.c, grads.c)]
            for sid, ga in grads.alignments.items():
                arrays.append((params.alignments[sid], ga))
            for arr, analytic in arrays:
                for idx in np.ndindex(arr.shape):
                    old = arr[idx]
                    arr[idx] = old + eps
                    up = loss(doc, params, ctx)
                    arr[idx] = old - eps
                    down = loss(doc, params, ctx)
                    arr[idx] = old
                    fd = (up - down) / (2 * eps)
                    a = analytic[idx]
                    assert abs(a - fd) <= max(atol, rtol * max(abs(a), abs(fd))), (
                        f"mode {mode}: gradient mismatch at {idx}: {a} vs fd {fd}")
                    checked += 1
    report(1, "gradient correctness", f"{checked} coordinates across 4 modes")


# ---------------------------------------------------------------------------
# criterion 2: incremental forward equals naive recomputation
# ---------------------------------------------------------------------------

def test_criterion_2_forward_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(100):
        h = int(rng.integers(1, 8))
        k = int(rng.integers(2, 15))
        d = int(rng.integers(1, 12))
        act = int(rng.integers(0, 2))
        W = rng.normal(scale=0.7, size=(h, k))
        U = rng.normal(scale=0.7, size=(k, h))
        b = rng.normal(scale=0.3, size=k)
        c = rng.normal(scale=0.3, size=h)
        doc = rng.integers(0, k, size=d).astype(np.int64)
        logps, _, _ = kernels.doc_forward(doc, W, U, b, c, kernels.EMPTY_LVT,
                                          False, act)
        for i in range(d):
            pre = c.copy()
            for q in range(i):
                pre = pre + W[:, doc[q]]
            hid = np.tanh(pre) if act == kernels.ACT_TANH else 1.0 / (1.0 + np.exp(-pre))
            logits = b + U @ hid
            m = logits.max()
            naive = logits[doc[i]] - m - math.log(np.exp(logits - m).sum())
            worst = max(worst, abs(logps[i] - naive))
    assert worst <= 1e-12
    report(2, "forward equivalence", f"max deviation {worst:.3e} over 100 instances")


# ---------------------------------------------------------------------------
# criterion 3: metric oracles
# ---------------------------------------------------------------------------

def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(303)

    # perplexity vs naive per-step recomputation
    h, k = 3, 7
    params = init_params(h, k, seed=33, init_scale=0.6)
    docs = [random_doc(rng, k, int(rng.integers(2, 7))) for _ in range(4)]
    corpus = Corpus(make_vocab(k), docs)

    def naive_logp(doc):
        total = 0.0
        for i in range(len(doc)):
            pre = params.c.copy()
            for q in range(i):
                pre = pre + params.W[:, doc.words[q]]
            hid = 1.0 / (1.0 + np.exp(-pre))
            logits = params.b + params.U @ hid
            m = logits.max()
            total += logits[doc.words[i]] - m - math.log(np.exp(logits - m).sum())
        return total

    want = math.exp(-float(np.mean([naive_logp(d) / len(d) for d in corpus])))
    got = perplexity(params, corpus)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    # uniform model: ppl equals the vocabulary size exactly
    k12 = 12
    uniform = ModelParams(rng.normal(size=(2, k12)), np.zeros((k12, 2)),
                          np.zeros(k12), np.zeros(2))
    ucorpus = Corpus(make_vocab(k12),
                     [random_doc(rng, k12, d) for d in (1, 2, 3, 4, 5, 6, 7)])
    assert perplexity(uniform, ucorpus) == float(k12)

    # top_words vs exhaustive sort
    tw_params = init_params(4, 50, seed=14, init_scale=1.0)
    vocab50 = make_vocab(50)
    for j in range(4):
        got_words = top_words(tw_params, vocab50, j, 50)
        want_words = [vocab50.token(i) for i in
                      sorted(range(50), key=lambda i: (-tw_params.W[j, i], i))]
        assert got_words == want_words

    # nearest neighbors vs exhaustive cosine
    nn_params = init_params(5, 30, seed=9, init_scale=1.0)
    vocab30 = make_vocab(30)
    for w in range(30):
        sims = []
        for x in range(30):
            if x == w:
                continue
            nw = np.linalg.norm(nn_params.W[:, w])
            nx = np.linalg.norm(nn_params.W[:, x])
            s = -1.0 if nw == 0 or nx == 0 else \
                float(nn_params.W[:, w] @ nn_params.W[:, x] / (nw * nx))
            sims.append((x, s))
        sims.sort(key=lambda t: (-t[1], t[0]))
        assert nearest_neighbors(nn_params, vocab30, vocab30.token(w), 5) == \
            [vocab30.token(x) for x, _ in sims[:5]]

    # coherence vs exhaustive window enumeration
    vocab10 = make_vocab(10)
    ref_docs = [Document(rng.integers(0, 10, size=int(rng.integers(2, 12))).astype(np.int64))
                for _ in range(5)]
    reference = Corpus(vocab10, ref_docs)
    topics = [["w0", "w1", "w2"], ["w3", "w4", "w5"]]
    windows = []
    for doc in reference:
        toks = [vocab10.token(i) for i in doc.words]
        width = min(3, len(toks))
        for s in range(len(toks) - width + 1):
            windows.append(set(toks[s:s + width]))

    def npmi(a, b):
        joint = sum(1 for win in windows if a in win and b in win)
        if joint == 0:
            return -1.0
        p12 = joint / len(windows)
        if p12 >= 1.0:
            return 1.0
        p1 = sum(1 for win in windows if a in win) / len(windows)
        p2 = sum(1 for win in windows if b in win) / len(windows)
        return math.log(p12 / (p1 * p2)) / (-math.log(p12))

    want_coh = float(np.mean([
        np.mean([npmi(a, b) for a, b in itertools.combinations(t, 2)])
        for t in topics]))
    got_coh = coherence(topics, reference, window=3, top_n=3)
    assert abs(got_coh - want_coh) <= 1e-10

    # retrieval vs brute-force ranking, plus exact label frequency at 1.0
    train_vecs = rng.normal(size=(10, 4))
    query_vecs = rng.normal(size=(5, 4))
    labels = ["p", "q", "r"]
    train_labels = [labels[int(i)] for i in rng.integers(0, 3, size=10)]
    query_labels = [labels[int(i)] for i in rng.integers(0, 3, size=5)]
    names = sorted(set(train_labels) | set(query_labels))
    lookup = {}

    def mk(vecs, labs, split):
        ds = []
        for i, lab in enumerate(labs):
            doc = Document(np.array([0]), names.index(lab))
            ds.append(doc)
            lookup[id(doc)] = vecs[i]
        return Corpus(make_vocab(2), ds, label_names=names, split=split)

    pool = mk(train_vecs, train_labels, "train")
    queries = mk(query_vecs, query_labels, "test")
    fractions = [0.1, 0.3, 1.0]
    got_ir = retrieval_precision(pool, queries, lambda d: lookup[id(d)], fractions)

    def cosine(u, v):
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        return -1.0 if nu == 0 or nv == 0 else float(u @ v / (nu * nv))

    for fi, f in enumerate(fractions):
        m = math.ceil(f * 10)
        per_query = []
        for qi in range(5):
            ranked = sorted(range(10),
                            key=lambda t: (-cosine(query_vecs[qi], train_vecs[t]), t))
            per_query.append(sum(train_labels[t] == query_labels[qi]
                                 for t in ranked[:m]) / m)
        assert abs(got_ir[fi][1] - float(np.mean(per_query))) <= 1e-10
    freq = {lab: train_labels.count(lab) / 10 for lab in names}
    exact = float(np.mean([freq[lab] for lab in query_labels]))
    assert got_ir[-1][1] == exact

    report(3, "metric oracles", "ppl, coherence, retrieval, top words, neighbors")


# ---------------------------------------------------------------------------
# criterion 4: alignment imitation under a dominant penalty
# ---------------------------------------------------------------------------

def test_criterion_4_gvt_imitation():
    # deterministic epoch map (no shuffling); the residual collapses within
    # the first epoch and sits at the gradient-noise floor afterwards, so
    # non-increase is asserted with a floor-jitter allowance of 0.1% of the
    # initial residual
    spec = SyntheticSpec(n_topics=3, vocab_size=100, source_docs=200,
                         target_train_docs=20, target_validation_docs=5,
                         target_test_docs=5, source_len=(40, 80),
                         target_len=(2, 3), mixture_concentration=0.3,
                         word_concentration=1.0, seed=0)
    source, (target, _, _) = generate_synthetic(spec)
    src_params, _ = train(source, TrainConfig(learning_rate=0.02, epochs=5,
                                              seed=1, n_topics=3))
    kb = build_kb(src_params, source.vocabulary, "s1")
    ctx = make_transfer_context(
        [kb], target.vocabulary,
        TransferSpec([SourceWeight("s1", gamma=10.0)], gvt_enabled=True), 3)
    assert ctx.coverage["s1"] == 1.0
    cfg = TrainConfig(learning_rate=0.01, epochs=200, seed=2, n_topics=3,
                      shuffle_words=False, shuffle_docs=False)
    _, stats = train(target, cfg, ctx)
    residuals = [s.gvt_residuals["s1"] for s in stats]
    assert len(residuals) == 200
    w0 = init_params(3, 100, seed=2).W
    initial = float(np.linalg.norm(w0 - ctx.projected["s1"].topics))
    final_ratio = residuals[-1] / initial
    assert final_ratio < 0.10
    jitter = 1e-3 * initial
    for i in range(len(residuals) - 5):
        assert residuals[i + 5] <= residuals[i] + jitter, (
            f"5-epoch window increase at epoch {i}: "
            f"{residuals[i]:.6f} -> {residuals[i + 5]:.6f}")
    report(4, "alignment imitation",
           f"residual at {final_ratio:.2%} of initial after 200 epochs")


# ---------------------------------------------------------------------------
# criteria 5-8: harness experiments on the synthetic family
# ---------------------------------------------------------------------------

def _family(tmp_path, seed, **spec_kwargs):
    spec = SyntheticSpec(seed=seed, **spec_kwargs)
    source, (tr, va, te) = generate_synthetic(spec)
    paths = {}
    for name, corpus in (("source", source), ("train", tr),
                         ("validation", va), ("test", te)):
        path = tmp_path / f"{name}_{seed}.txt"
        write_corpus_file(corpus, path)
        paths[name] = str(path)
    return paths


def _experiment(mode, paths, out_dir, tc, **overrides):
    kwargs = dict(
        target_train=paths["train"], target_validation=paths["validation"],
        target_test=paths["test"], labeled=True, train=tc,
        eval_fractions=[0.02], coherence_top_n=5,
        sources=([SourceConfig("s1", corpus_path=paths["source"])]
                 if mode != "baseline" else []))
    kwargs.update(overrides)
    return run_experiment(ExperimentConfig(mode=mode, out_dir=str(out_dir), **kwargs))


def test_criterion_5_transfer_benefit(tmp_path):
    tc = TrainConfig(learning_rate=0.01, epochs=20, seed=100, n_topics=3)
    gvt_wins = mvt_wins = 0
    for seed in range(5):
        paths = _family(tmp_path, seed)
        shared = dict(coherence_reference=paths["source"],
                      lambda_grid=[0.5], gamma_grid=[0.5])
        base = _experiment("baseline", paths, tmp_path / f"b{seed}", tc, **shared)
        gvt = _experiment("gvt", paths, tmp_path / f"g{seed}", tc, **shared)
        mvt = _experiment("mvt", paths, tmp_path / f"m{seed}", tc, **shared)
        gvt_wins += (gvt.ppl <= base.ppl and gvt.coh >= base.coh)
        mvt_wins += (mvt.coh >= gvt.coh)
    assert gvt_wins >= 4, f"global transfer beat the baseline in only {gvt_wins}/5 seeds"
    assert mvt_wins >= 3, f"multi-view matched global transfer in only {mvt_wins}/5 seeds"
    report(5, "transfer benefit", f"gvt {gvt_wins}/5, mvt-vs-gvt {mvt_wins}/5")


def test_criterion_6_baseline_equivalence(tmp_path):
    tc = TrainConfig(learning_rate=0.05, epochs=4, seed=7, n_topics=3)
    paths = _family(tmp_path, 3)
    _experiment("baseline", paths, tmp_path / "base", tc)
    _experiment("mvt", paths, tmp_path / "mvt", tc,
                lambda_grid=[0.0], gamma_grid=[0.0])
    base_bytes = (tmp_path / "base" / "report.txt").read_bytes()
    mvt_bytes = (tmp_path / "mvt" / "report.txt").read_bytes()
    assert base_bytes == mvt_bytes
    report(6, "baseline equivalence", "zero-weight mvt report byte-identical")


def test_criterion_7_reproducibility(tmp_path):
    tc = TrainConfig(learning_rate=0.05, epochs=4, seed=11, n_topics=3)
    paths = _family(tmp_path, 2)
    _experiment("gvt", paths, tmp_path / "runA", tc, gamma_grid=[0.05])
    _experiment("gvt", paths, tmp_path / "runB", tc, gamma_grid=[0.05])
    compared = 0
    for root, _, files in os.walk(tmp_path / "runA"):
        for name in files:
            a = os.path.join(root, name)
            b = a.replace(str(tmp_path / "runA"), str(tmp_path / "runB"))
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read(), f"artifact differs: {name}"
            compared += 1
    assert compared >= 8
    report(7, "reproducibility", f"{compared} artifacts byte-identical across reruns")


def test_criterion_8_zero_shot_vs_data_augment(tmp_path):
    tc = TrainConfig(learning_rate=0.02, epochs=15, seed=100, n_topics=3)
    wins = 0
    for seed in range(5):
        paths = _family(tmp_path, seed, target_train_docs=200)
        zero = _experiment("zero-shot", paths, tmp_path / f"z{seed}", tc)
        augment = _experiment("data-augment", paths, tmp_path / f"a{seed}", tc)
        wins += augment.ppl <= zero.ppl
    assert wins >= 4, f"data augmentation beat zero-shot in only {wins}/5 seeds"
    report(8, "zero-shot vs data-augment", f"{wins}/5 seeds")
