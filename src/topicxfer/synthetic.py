"""Seeded synthetic corpora from a ground-truth mixture model.

Topic-word distributions and per-document topic mixtures are drawn from
symmetric Dirichlets.  The target shares a configurable fraction of the
source's topics and is generated in a sparse regime (few, short documents).
Documents are labeled by their dominant mixture topic so retrieval evaluation
works out of the box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Document, Vocabulary
from .errors import ConfigError


@dataclass
class SyntheticSpec:
    n_topics: int = 3
    vocab_size: int = 100
    source_docs: int = 500
    target_train_docs: int = 40
    target_validation_docs: int = 20
    target_test_docs: int = 40
    source_len: tuple[int, int] = (40, 80)
    target_len: tuple[int, int] = (8, 15)
    mixture_concentration: float = 0.3
    word_concentration: float = 0.05
    overlap: float = 1.0
    seed: int = 0

    def __post_init__(self):
        counts = (self.n_topics, self.vocab_size, self.source_docs,
                  self.target_train_docs, self.target_validation_docs,
                  self.target_test_docs)
        if any(c < 1 for c in counts):
            raise ConfigError("all synthetic counts must be >= 1")
        for lo, hi in (self.source_len, self.target_len):
            if lo < 1 or hi < lo:
                raise ConfigError("document length ranges must satisfy 1 <= lo <= hi")
        if not 0.0 <= self.overlap <= 1.0:
            raise ConfigError("overlap must lie in [0, 1]")
        if not (self.mixture_concentration > 0 and self.word_concentration > 0):
            raise ConfigError("concentrations must be positive")


def _draw_topics(rng, n_topics, vocab_size, concentration):
    return rng.dirichlet(np.full(vocab_size, concentration), size=n_topics)


def _generate_corpus(rng, topics, n_docs, length_range, mixture_concentration,
                     vocabulary, split):
    n_topics = topics.shape[0]
    lo, hi = length_range
    docs = []
    labels = [f"topic{j}" for j in range(n_topics)]
    for _ in range(n_docs):
        length = int(rng.integers(lo, hi + 1))
        theta = rng.dirichlet(np.full(n_topics, mixture_concentration))
        assignments = rng.choice(n_topics, size=length, p=theta)
        words = np.empty(length, dtype=np.int64)
        for t in range(length):
            words[t] = rng.choice(topics.shape[1], p=topics[assignments[t]])
        docs.append(Document(words, label=int(np.argmax(theta))))
    return Corpus(vocabulary, docs, label_names=labels, split=split)


def generate_synthetic(spec):
    """Generate (source corpus, (target train, target validation, target test)).

    Returns corpora over a shared vocabulary of spec.vocab_size synthetic
    tokens; also attaches the ground-truth topic matrices as
    ``corpus.ground_truth`` for diagnostics.
    """
    rng = np.random.default_rng(spec.seed)
    vocabulary = Vocabulary([f"w{i:04d}" for i in range(spec.vocab_size)])
    source_topics = _draw_topics(rng, spec.n_topics, spec.vocab_size,
                                 spec.word_concentration)
    n_shared = int(round(spec.overlap * spec.n_topics))
    fresh = spec.n_topics - n_shared
    if fresh > 0:
        extra = _draw_topics(rng, fresh, spec.vocab_size, spec.word_concentration)
        target_topics = np.vstack([source_topics[:n_shared], extra])
    else:
        target_topics = source_topics.copy()

    source = _generate_corpus(rng, source_topics, spec.source_docs, spec.source_len,
                              spec.mixture_concentration, vocabulary, "train")
    train = _generate_corpus(rng, target_topics, spec.target_train_docs,
                             spec.target_len, spec.mixture_concentration,
                             vocabulary, "train")
    validation = _generate_corpus(rng, target_topics, spec.target_validation_docs,
                                  spec.target_len, spec.mixture_concentration,
                                  vocabulary, "validation")
    test = _generate_corpus(rng, target_topics, spec.target_test_docs,
                            spec.target_len, spec.mixture_concentration,
                            vocabulary, "test")
    source.ground_truth = source_topics
    for corpus in (train, validation, test):
        corpus.ground_truth = target_topics
    return source, (train, validation, test)
