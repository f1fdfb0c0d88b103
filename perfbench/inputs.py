"""Seeded inputs for the paper-scale workloads.

A topic mixture: ``n_topics`` word distributions drawn from a sparse symmetric
Dirichlet over ``vocab_size`` words.  Each document draws a topic mixture
theta, then all of its words in one ``rng.choice`` from ``theta @ topics``,
so generating thousands of documents takes well under a second and stays out
of the set-up time.  A document's label is its dominant topic.  The
vocabulary is the fixed list ``TOKENS``, so K does not depend on which words
a small sample happens to contain.  The same seed gives the same files, byte
for byte.
"""

import numpy as np

N_TOPICS = 200
VOCAB_SIZE = 2000
DOC_LEN = (60, 100)
WORD_CONCENTRATION = 0.05
MIXTURE_CONCENTRATION = 0.1

TOKENS = [f"w{i:04d}" for i in range(VOCAB_SIZE)]


def draw_topics(rng):
    return rng.dirichlet(np.full(VOCAB_SIZE, WORD_CONCENTRATION), size=N_TOPICS)


def sample_docs(rng, topics, n_docs):
    """(labels, word-index arrays) for n_docs documents."""
    thetas = rng.dirichlet(np.full(N_TOPICS, MIXTURE_CONCENTRATION), size=n_docs)
    # every length in the range equally often, so the token count, and with it
    # the cost of a run, does not depend on the seed
    lengths = rng.permutation(np.resize(np.arange(DOC_LEN[0], DOC_LEN[1] + 1), n_docs))
    labels, docs = [], []
    for theta, length in zip(thetas, lengths):
        p = theta @ topics
        docs.append(rng.choice(VOCAB_SIZE, size=length, p=p / p.sum()))
        labels.append(f"t{int(np.argmax(theta)):03d}")
    return labels, docs


def write_vocabulary(path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(TOKENS) + "\n")


def write_corpus(path, labels, docs):
    """Labeled corpus file: ``label<TAB>token token ...`` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, words in zip(labels, docs):
            fh.write(label + "\t" + " ".join(TOKENS[w] for w in words) + "\n")


def topic_weights(topics):
    """An H x K topic-word matrix that ranks each topic's words like ``topics``:
    row-standardised log-probabilities, scaled to the size of trained weights."""
    logp = np.log(topics + 1e-4)
    z = (logp - logp.mean(axis=1, keepdims=True)) / logp.std(axis=1, keepdims=True)
    return 0.05 * z
