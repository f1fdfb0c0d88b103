import numpy as np
import pytest

from topicxfer import kernels
from topicxfer.cli import build_parser
from topicxfer.corpus import Document, Vocabulary
from topicxfer.transfer import ProjectedKB


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_vocab(k):
    return Vocabulary([f"w{i}" for i in range(k)])


def command_flags():
    """{subcommand: the set of its option strings} of the CLI parser, without -h/--help."""
    (commands,) = [action for action in build_parser()._actions if action.dest == "command"]
    return {name: {flag for action in p._actions for flag in action.option_strings}
            - {"-h", "--help"} for name, p in commands.choices.items()}


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


def looped_project_kb(kb, target_vocab):
    """transfer.project_kb as a per-word loop of column copies into zeros
    (frozen reference)."""
    k_t = len(target_vocab)
    emb = np.zeros((kb.embedding_dim, k_t))
    top = None if kb.topics is None else np.zeros((kb.topics.shape[0], k_t))
    covered = np.zeros(k_t, dtype=bool)
    for w, token in enumerate(target_vocab):
        if token in kb.vocabulary:
            src = kb.vocabulary.index(token)
            emb[:, w] = kb.embeddings[:, src]
            if top is not None:
                top[:, w] = kb.topics[:, src]
            covered[w] = True
    return ProjectedKB(kb.source_id, emb, top, covered, covered.sum() / k_t)
