"""Reference computations that check the program's outputs.

These read the documented file formats with the benchmark's own parsers and
recompute perplexity, NPMI coherence and retrieval precision from their
definitions (README "Evaluation"), without calling the package.  They are
written for clarity, not speed, and run once per benchmark run, outside the
timed part.
"""

import math
import os

import numpy as np

PPL_RTOL = 1e-9   # float64 summation order may differ; a real defect is far larger
COH_ATOL = 1e-9


def read_matrix(path):
    with open(path, encoding="utf-8") as fh:
        rows, cols = (int(x) for x in fh.readline().split())
        mat = np.array([[float(v) for v in line.split()] for line in fh])
    return mat.reshape(rows, cols)


def read_bundle(bundle_dir):
    """(W, U, b, c, lvt or None, tokens) of a model bundle."""
    def mat(name):
        return read_matrix(os.path.join(bundle_dir, name))

    lvt_path = os.path.join(bundle_dir, "lvt.mat")
    lvt = read_matrix(lvt_path) if os.path.exists(lvt_path) else None
    with open(os.path.join(bundle_dir, "vocab.txt"), encoding="utf-8") as fh:
        tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
    return mat("W.mat"), mat("U.mat"), mat("b.mat")[0], mat("c.mat")[0], lvt, tokens


def read_corpus(path):
    """(labels, token lists) of a labeled corpus file."""
    labels, docs = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            label, text = line.rstrip("\n").split("\t", 1)
            labels.append(label)
            docs.append(text.split())
    return labels, docs


def encode(labels, docs, tokens):
    """(labels, index arrays) over a vocabulary, dropping unknown tokens and
    the documents left empty, as ingestion does."""
    index = {t: i for i, t in enumerate(tokens)}
    kept_labels, kept = [], []
    for label, doc in zip(labels, docs):
        ids = [index[t] for t in doc if t in index]
        if ids:
            kept_labels.append(label)
            kept.append(np.array(ids, dtype=np.int64))
    return kept_labels, kept


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def perplexity(W, U, b, c, lvt, docs):
    """exp(-mean over docs of mean log p(v_i | v_<i)), sigmoid hidden units."""
    cols = W if lvt is None else W + lvt
    per_doc = []
    for words in docs:
        pre = np.empty((len(words), len(c)))
        running = c.copy()
        for i, v in enumerate(words):
            pre[i] = running
            running = running + cols[:, v]
        logits = _sigmoid(pre) @ U.T + b
        top = logits.max(axis=1, keepdims=True)
        log_z = top[:, 0] + np.log(np.exp(logits - top).sum(axis=1))
        per_doc.append((logits[np.arange(len(words)), words] - log_z).mean())
    return math.exp(-sum(per_doc) / len(per_doc))


def top_words(W, tokens, n):
    """Each topic row's n heaviest words, ties by word index."""
    return [[tokens[i] for i in np.lexsort((np.arange(W.shape[1]), -row))[:n]]
            for row in W]


def coherence(topics, reference_docs, window):
    """Mean pairwise NPMI over stride-1 sliding windows of the reference docs."""
    tracked = {w for topic in topics for w in topic}
    singles, joints, n_windows = {}, {}, 0
    for doc in reference_docs:
        width = min(window, len(doc))
        for start in range(len(doc) - width + 1):
            present = sorted(tracked.intersection(doc[start:start + width]))
            n_windows += 1
            for x, w1 in enumerate(present):
                singles[w1] = singles.get(w1, 0) + 1
                for w2 in present[x + 1:]:
                    joints[w1, w2] = joints.get((w1, w2), 0) + 1

    def npmi(w1, w2):
        joint = joints.get((min(w1, w2), max(w1, w2)), 0)
        if joint == 0:
            return -1.0
        p12 = joint / n_windows
        if p12 >= 1.0:
            return 1.0
        p1, p2 = singles[w1] / n_windows, singles[w2] / n_windows
        return math.log(p12 / (p1 * p2)) / -math.log(p12)

    scores = []
    for topic in topics:
        pairs = [npmi(topic[x], topic[y])
                 for x in range(len(topic)) for y in range(x + 1, len(topic))]
        scores.append(sum(pairs) / len(pairs))
    return sum(scores) / len(scores)


def retrieval_precision(W, c, lvt, pool, pool_labels, queries, query_labels, fractions):
    """Label-match precision of cosine retrieval at each fraction of the pool."""
    cols = W if lvt is None else W + lvt

    def vectors(docs):
        vecs = np.stack([_sigmoid(c + cols[:, np.sort(d)].sum(axis=1)) for d in docs])
        return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)

    sims = vectors(queries) @ vectors(pool).T
    pool_labels = np.array(pool_labels)
    counts = [math.ceil(f * len(pool)) for f in fractions]
    hits = np.zeros(len(fractions))
    for qi, label in enumerate(query_labels):
        order = np.lexsort((np.arange(len(pool)), -sims[qi]))
        matches = pool_labels[order] == label
        for fi, count in enumerate(counts):
            hits[fi] += np.count_nonzero(matches[:count]) / count
    return list(hits / len(queries))


def compare_ir(got, expected, fractions, n_pool, n_queries):
    """Problems where retrieval precision disagrees by more than two rank swaps.

    Near-tied similarities may order differently when a change alters float
    bits; one swap at the cut-off moves the mean by 1 / (count * n_queries).
    """
    problems = []
    got = dict(got)
    for f, want in zip(fractions, expected):
        tol = 2.0 / (math.ceil(f * n_pool) * n_queries) + 1e-12
        if abs(got[f] - want) > tol:
            problems.append(f"ir at {f}: program {got[f]!r}, reference {want!r}")
    return problems


def check_close(what, got, want, rtol=0.0, atol=0.0):
    if not abs(got - want) <= atol + rtol * abs(want):
        return [f"{what}: program {got!r}, reference {want!r}"]
    return []
