import numpy as np
import pytest

from topicxfer import kernels
from topicxfer.corpus import Document, Vocabulary


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_vocab(k):
    return Vocabulary([f"w{i}" for i in range(k)])


def random_doc(rng, k, d):
    return Document(rng.integers(0, k, size=d).astype(np.int64))


def strided_document_vector(doc, params, lvt=None):
    """model.document_vector as a strided gather of W's columns (frozen
    reference): W[:, sorted] is F-contiguous, so its axis-1 sum adds whole
    columns in sorted-index order."""
    ordered = np.sort(doc.words)
    cols = params.W[:, ordered]
    if lvt is not None:
        cols = cols + lvt[:, ordered]
    act = kernels.ACT_TANH if params.activation == "tanh" else kernels.ACT_SIGMOID
    return kernels._activate(params.c + cols.sum(axis=1), act)
