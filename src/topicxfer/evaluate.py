"""Model quality metrics: held-out perplexity, sliding-window topic coherence,
retrieval precision at recall fractions, and topic / nearest-neighbor inspection.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConfigError, CorpusError
from .fileio import format_float, write_lines
from .model import document_vector, forward, helper_thread, word_rows

log = logging.getLogger(__name__)

DEFAULT_FRACTIONS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2)
DEFAULT_WINDOW = 110
DEFAULT_TOP_N = 10


@dataclass
class EvalReport:
    """One configuration's scores: perplexity, coherence, precision per fraction."""

    ppl: float
    coh: float
    ir: list[tuple[float, float]] = field(default_factory=list)
    fingerprint: str = ""

    def __post_init__(self):
        fractions = [f for f, _ in self.ir]
        if any(f2 <= f1 for f1, f2 in zip(fractions, fractions[1:])):
            raise ValueError("retrieval fractions must be strictly increasing")
        if any(not 0.0 <= p <= 1.0 for _, p in self.ir):
            raise ValueError("retrieval precision must lie in [0, 1]")

    def to_text(self):
        lines = [
            f"ppl={format_float(self.ppl)}",
            f"coh={format_float(self.coh)}",
            f"fingerprint={self.fingerprint}",
        ]
        for frac, prec in self.ir:
            lines.append(f"ir {format_float(frac)} {format_float(prec)}")
        return "\n".join(lines) + "\n"

    def save(self, path):
        write_lines(path, self.to_text().splitlines())

    @classmethod
    def load(cls, path):
        """Read a report that save wrote; a malformed, unknown or repeated line,
        or a missing ppl or coh, is a CorpusError naming the file."""
        values = {}
        ir = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                key, sep, value = line.partition("=")
                try:
                    if parts[0] == "ir" and len(parts) == 3:
                        ir.append((float(parts[1]), float(parts[2])))
                    elif not sep or key not in ("ppl", "coh", "fingerprint"):
                        raise ValueError(f"unexpected line {line!r}")
                    elif key in values:
                        raise ValueError(f"repeated key {key!r}")
                    else:
                        values[key] = value if key == "fingerprint" else float(value)
                except ValueError as exc:
                    raise CorpusError(f"{path}: line {lineno}: {exc}") from None
        missing = [key for key in ("ppl", "coh") if key not in values]
        if missing:
            raise CorpusError(f"{path}: missing {' and '.join(missing)}")
        try:
            return cls(values["ppl"], values["coh"], ir, values.get("fingerprint", ""))
        except ValueError as exc:
            raise CorpusError(f"{path}: {exc}") from None


def check_window(window):
    if window < 2:
        raise ConfigError("window must be >= 2")


def check_top_n(top_n, vocab_size=None):
    """top_n's rule; with vocab_size given, each topic must also have top_n words."""
    if top_n < 2:
        raise ConfigError("top_n must be >= 2")
    if vocab_size is not None and top_n > vocab_size:
        raise ConfigError(f"top_n must be <= the vocabulary size {vocab_size}")


def check_fractions(fractions):
    """The sorted distinct retrieval fractions, which must lie in (0, 1]."""
    fractions = sorted(set(fractions))
    if not fractions or not all(0 < f <= 1 for f in fractions):
        raise ConfigError("fractions must lie in (0, 1]")
    return fractions


def perplexity(params, corpus, ctx=None):
    """Average held-out perplexity per word: exp(-mean_t log p(v_t) / |v_t|).

    With model.helper_thread's helper, it scores the second half of the
    documents while this thread scores the first; each document's score is
    the same either way, and an error is the one sequential order raises.
    """
    if len(corpus) == 0:
        raise CorpusError("cannot evaluate perplexity on an empty corpus")
    docs = corpus.documents
    n = len(docs)
    per_doc = np.empty(n)

    def score(lo, hi):
        for t in range(lo, hi):
            per_doc[t] = forward(docs[t], params, ctx).sum() / len(docs[t])

    with helper_thread(*params.W.shape) as helper:
        half = n if helper is None else (n + 1) // 2
        second = helper.submit(score, half, n) if half < n else None
        score(0, half)
    if second is not None:
        second.result()
    return float(np.exp(-per_doc.mean()))


def top_words(params, vocabulary, topic_index, n):
    """The n heaviest words of one topic row, descending weight, ties by word index."""
    if not 0 <= topic_index < params.n_topics:
        raise ConfigError(f"topic index {topic_index} out of range")
    if not 1 <= n <= params.vocab_size:
        raise ConfigError(f"n must be in [1, {params.vocab_size}]")
    row = params.W[topic_index]
    order = np.lexsort((np.arange(row.size), -row))
    return [vocabulary.token(i) for i in order[:n]]


def all_topics(params, vocabulary, n):
    """Top-n word lists for every topic."""
    return [top_words(params, vocabulary, j, n) for j in range(params.n_topics)]


def nearest_neighbors(params, vocabulary, word, n):
    """The n words whose W columns are most cosine-similar to the query word's column."""
    if word not in vocabulary:
        raise CorpusError(f"word not in vocabulary: {word!r}")
    k = params.vocab_size
    if not 1 <= n <= k - 1:
        raise ConfigError(f"n must be in [1, {k - 1}]")
    w = vocabulary.index(word)
    cols = params.W
    norms = np.linalg.norm(cols, axis=0)
    sims = np.full(k, -1.0)
    if norms[w] > 0:
        valid = norms > 0
        sims[valid] = (cols[:, valid].T @ cols[:, w]) / (norms[valid] * norms[w])
    order = np.lexsort((np.arange(k), -sims))
    order = order[order != w]
    return [vocabulary.token(i) for i in order[:n]]


def coherence(topics, reference, window=DEFAULT_WINDOW, top_n=DEFAULT_TOP_N):
    """Mean pairwise NPMI of each topic's top words over sliding reference windows.

    Word and pair probabilities are window-containment counts divided by the
    total window count; windows run at stride 1 within each reference document
    (a document shorter than the window is a single window).  A pair scores -1
    when its joint count is zero, when either word is absent from the
    reference vocabulary, and when a topic repeats a word (the pair of a word
    with itself).  Only the distinct pairs of distinct reference words that
    some topic scores are counted.
    """
    check_top_n(top_n)
    check_window(window)
    if len(topics) == 0:
        raise ConfigError("coherence needs at least one topic")
    if len(reference) == 0:
        raise CorpusError("coherence needs a non-empty reference corpus")
    clipped = []
    for topic in topics:
        words = list(topic[:top_n])
        if len(words) < 2:
            raise ConfigError("every topic must supply at least 2 words")
        clipped.append(words)

    vocab = reference.vocabulary
    tracked = sorted({w for topic in clipped for w in topic if w in vocab})
    missing = sorted({w for topic in clipped for w in topic if w not in vocab})
    if missing:
        log.info("coherence: %d topic words absent from the reference vocabulary: %s",
                 len(missing), ", ".join(missing[:10]))
    tracked_id = {w: i for i, w in enumerate(tracked)}

    def pair_key(w1, w2):
        """The (i1, i2) tracked ids, i1 < i2, whose joint count scores the pair;
        None for a pair that scores -1 uncounted."""
        i1, i2 = tracked_id.get(w1), tracked_id.get(w2)
        if i1 is None or i2 is None or i1 == i2:
            return None
        return (i1, i2) if i1 < i2 else (i2, i1)

    topic_keys = [[pair_key(w1, w2) for w1, w2 in itertools.combinations(words, 2)]
                  for words in clipped]
    scored = sorted({key for keys in topic_keys for key in keys if key is not None})
    slot = {key: k for k, key in enumerate(scored)}
    p1 = np.array([i1 for i1, _ in scored], dtype=np.int64)
    p2 = np.array([i2 for _, i2 in scored], dtype=np.int64)
    m = len(tracked)
    singles = np.zeros(m, dtype=np.int64)
    joints = np.zeros(len(scored), dtype=np.int64)
    total_windows = 0
    if m > 0:
        vocab_to_tracked = np.full(len(vocab), -1, dtype=np.int64)
        for w, i in tracked_id.items():
            vocab_to_tracked[vocab.index(w)] = i
        for doc in reference:
            mapped = vocab_to_tracked[doc.words]
            s, j, nw = kernels.window_counts(mapped, m, p1, p2, window)
            singles += s
            joints += j
            total_windows += nw

    def pair_npmi(key):
        if key is None:
            return -1.0
        joint = joints[slot[key]]
        if joint == 0:
            return -1.0
        p12 = joint / total_windows
        if p12 >= 1.0:
            return 1.0
        pr1 = singles[key[0]] / total_windows
        pr2 = singles[key[1]] / total_windows
        return math.log(p12 / (pr1 * pr2)) / (-math.log(p12))

    topic_scores = []
    for keys in topic_keys:
        pair_scores = [pair_npmi(key) for key in keys]
        topic_scores.append(sum(pair_scores) / len(pair_scores))
    return sum(topic_scores) / len(topic_scores)


def retrieval_precision(train, queries, vector_fn, fractions=DEFAULT_FRACTIONS):
    """Label-match precision of cosine retrieval from the training set.

    Every query ranks all training documents by descending cosine similarity
    of their vectors (ties by ascending training index; zero-norm vectors get
    similarity -1).  At fraction f the top ceil(f * |train|) are retrieved and
    scored by the share carrying the query's label; the mean over queries is
    reported per fraction.
    """
    for corpus, name in ((train, "pool"), (queries, "query corpus")):
        if len(corpus) == 0:
            raise CorpusError(f"retrieval evaluation needs a non-empty {name}")
    if not train.labeled or not queries.labeled:
        raise CorpusError("retrieval evaluation needs labeled corpora")
    fractions = check_fractions(fractions)
    train_vecs = np.stack([vector_fn(doc) for doc in train.documents])
    query_vecs = np.stack([vector_fn(doc) for doc in queries.documents])
    # each corpus numbers its own labels, so match through the label strings;
    # a query label the pool lacks gets -1, which no pool document carries
    label_ids = {}
    train_labels = np.array([label_ids.setdefault(train.label_of(doc), len(label_ids))
                             for doc in train.documents])
    query_labels = np.array([label_ids.get(queries.label_of(doc), -1)
                             for doc in queries.documents])

    t_norm = np.linalg.norm(train_vecs, axis=1)
    q_norm = np.linalg.norm(query_vecs, axis=1)
    sims = np.full((len(queries), len(train)), -1.0)
    tv = np.where(t_norm[:, None] > 0, train_vecs / np.maximum(t_norm, 1e-300)[:, None], 0.0)
    qv = np.where(q_norm[:, None] > 0, query_vecs / np.maximum(q_norm, 1e-300)[:, None], 0.0)
    good = (q_norm > 0)[:, None] & (t_norm > 0)[None, :]
    sims[good] = (qv @ tv.T)[good]

    n_train = len(train)
    counts = [math.ceil(f * n_train) for f in fractions]
    sums = np.zeros(len(fractions))
    idx = np.arange(n_train)
    for qi in range(len(queries)):
        order = np.lexsort((idx, -sims[qi]))
        hit_prefix = np.cumsum(train_labels[order] == query_labels[qi])
        for fi, cnt in enumerate(counts):
            sums[fi] += hit_prefix[cnt - 1] / cnt
    return [(f, float(sums[fi] / len(queries))) for fi, f in enumerate(fractions)]


def model_vector_fn(params, ctx=None):
    """Document-vector provider over a fixed parameter set; the rows it sums
    are prepared once, here."""
    rows = word_rows(params, ctx)
    return lambda doc: document_vector(doc, params, rows=rows)
