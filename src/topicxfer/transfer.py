"""Knowledge bases and the transfer mechanisms.

A knowledge base exports a trained source model's topic-word matrix twice:
columns as word embeddings E (one per source word) and rows as topic vectors
Z.  Local-view transfer adds lambda-weighted projected E columns to the
model's pre-activation at every autoregressive step; global-view transfer
adds gamma * ||A^k W - Z^k||_F^2 per source to the loss, with a learned H x H
alignment A^k.  Both views together is multi-view transfer; more than one
source is multi-source transfer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .corpus import Vocabulary
from .errors import ConfigError, CorpusError
from .fileio import BundleReader, write_bundle
from .fileio import read_matrix, write_matrix  # noqa: F401 (perfbench/tracer.py patches them)


@dataclass
class KnowledgeBase:
    """One source's exported representations: embeddings E (E_dim x K_s), topics Z (H_s x K_s)."""

    source_id: str
    vocabulary: Vocabulary
    embeddings: np.ndarray
    topics: np.ndarray | None = None

    def __post_init__(self):
        k = len(self.vocabulary)
        if self.embeddings.ndim != 2 or self.embeddings.shape[1] != k:
            raise ConfigError(
                f"KB {self.source_id!r}: embeddings must have one column per word "
                f"(got {self.embeddings.shape}, vocabulary {k})")
        if self.topics is not None and (self.topics.ndim != 2 or self.topics.shape[1] != k):
            raise ConfigError(
                f"KB {self.source_id!r}: topics must have one column per word "
                f"(got {self.topics.shape}, vocabulary {k})")
        arrays = [self.embeddings] + ([self.topics] if self.topics is not None else [])
        for arr in arrays:
            if not np.isfinite(arr).all():
                raise ConfigError(f"KB {self.source_id!r}: non-finite entries")

    @property
    def embedding_dim(self):
        return self.embeddings.shape[0]

    @property
    def n_topics(self):
        return None if self.topics is None else self.topics.shape[0]


@dataclass
class ProjectedKB:
    """A knowledge base re-indexed against a target vocabulary.

    Columns of target words absent from the source are exactly zero; covered
    marks the matched words.
    """

    source_id: str
    embeddings: np.ndarray            # E_dim x K_t
    topics: np.ndarray | None         # H_s x K_t
    covered: np.ndarray               # bool (K_t,)
    coverage: float


@dataclass
class SourceWeight:
    source_id: str
    lam: float = 0.0
    gamma: float = 0.0


def check_weights(weights, what="transfer weights"):
    """Every transfer weight (a lambda or a gamma) must be finite and >= 0."""
    if not all(math.isfinite(w) and w >= 0 for w in weights):
        raise ConfigError(f"{what} must be finite and >= 0")


_SOURCE_ID = re.compile(r"[A-Za-z0-9_.-]+")


def check_source_id(source_id):
    """source_id if it is one plain file-name token, else a ConfigError: a source id
    names the A.<id>.mat of its alignment and is one word of meta.txt's matrices."""
    if not _SOURCE_ID.fullmatch(source_id):
        raise ConfigError(f"source id {source_id!r} must be one or more letters, digits, "
                          "'_', '-' or '.'")
    return source_id


@dataclass
class TransferSpec:
    """Per-source transfer weights plus which views are active.

    lvt_weights and gvt_weights map each source taking part in a view (the
    view is enabled and the source's weight for it positive) to that weight.
    """

    sources: list[SourceWeight]
    lvt_enabled: bool = False
    gvt_enabled: bool = False
    gvt_mask_oov: bool = False

    def __post_init__(self):
        ids = [s.source_id for s in self.sources]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate source ids in transfer spec")
        for s in self.sources:
            check_source_id(s.source_id)
            check_weights((s.lam, s.gamma), f"source {s.source_id!r}: lambda and gamma")
        if self.lvt_enabled and not self.lvt_weights:
            raise ConfigError("local-view transfer enabled but every lambda is zero")
        if self.gvt_enabled and not self.gvt_weights:
            raise ConfigError("global-view transfer enabled but every gamma is zero")

    def _positive(self, weight):
        """{source_id: weight} of the sources whose weight ("lam" or "gamma") is positive."""
        return {s.source_id: getattr(s, weight) for s in self.sources if getattr(s, weight) > 0}

    @property
    def lvt_weights(self):
        return self._positive("lam") if self.lvt_enabled else {}

    @property
    def gvt_weights(self):
        return self._positive("gamma") if self.gvt_enabled else {}


class TransferContext:
    """What the model reads of the transfer views.

    lvt_matrix is the lambda-weighted sum of projected embeddings, or None; gvt
    maps each alignment-penalty source to (gamma, Z', oov), where oov marks the
    target words it lacks under gvt_mask_oov (else None); shape is the (H, K)
    of the W it fits.  TransferContext(lvt) is a saved model's inference
    context.  model.ensure_alignments gives the model an identity A per source.
    """

    def __init__(self, lvt_matrix, shape=None, lvt_weights=None, gvt=None, projected=None):
        self.lvt_matrix = lvt_matrix
        self.shape = lvt_matrix.shape if shape is None else shape
        self.lvt_weights = lvt_weights or {}    # for the report fingerprint
        self.gvt = gvt or {}
        self.gvt_weights = {sid: gamma for sid, (gamma, _, _) in self.gvt.items()}
        self.projected = projected or {}        # dict source_id -> ProjectedKB

    @property
    def coverage(self):
        return {sid: pkb.coverage for sid, pkb in self.projected.items()}

    def gvt_source_ids(self):
        """Sources that take part in the alignment penalty (perfbench/tracer.py counts by them)."""
        return list(self.gvt_weights)


InferenceContext = TransferContext  # perfbench/workloads.py builds contexts by this name


def build_kb(params, vocabulary, source_id):
    """Export a trained model as a knowledge base: E and Z are both copies of W."""
    if params.vocab_size != len(vocabulary):
        raise ConfigError(
            f"model vocabulary size {params.vocab_size} does not match "
            f"the given vocabulary ({len(vocabulary)})")
    return KnowledgeBase(source_id, vocabulary, params.W.copy(), params.W.copy())


def project_kb(kb, target_vocab):
    """Re-index a knowledge base against a target vocabulary (zero columns for misses)."""
    # the source column of each target word, -1 for a word the source lacks
    pos = np.array([kb.vocabulary.index(t) if t in kb.vocabulary else -1 for t in target_vocab],
                   dtype=np.intp)
    covered = pos >= 0
    take = np.where(covered, pos, 0)

    def gather(mat):
        out = mat.take(take, axis=1)
        out[:, ~covered] = 0.0
        return out

    top = None if kb.topics is None else gather(kb.topics)
    return ProjectedKB(kb.source_id, gather(kb.embeddings), top, covered,
                       covered.sum() / len(pos))


def make_transfer_context(kbs, target_vocab, spec, n_topics):
    """Project every referenced KB and validate the dimension contract.

    Local view requires each weighted source's embedding dimension to equal the
    model's topic count; global view requires each weighted source's topic
    count to equal it (so alignments are square).
    """
    by_id = {}
    for kb in kbs:
        if kb.source_id in by_id:
            raise ConfigError(f"duplicate knowledge base id {kb.source_id!r}")
        by_id[kb.source_id] = kb
    projected = {}
    for sw in spec.sources:
        if sw.source_id not in by_id:
            raise ConfigError(f"transfer spec references unknown source {sw.source_id!r}")
        kb = by_id[sw.source_id]
        if sw.source_id in spec.lvt_weights and kb.embedding_dim != n_topics:
            raise ConfigError(
                f"source {sw.source_id!r}: embedding dimension {kb.embedding_dim} "
                f"must equal the model's topic count {n_topics} for local-view transfer")
        if sw.source_id in spec.gvt_weights:
            if kb.topics is None:
                raise ConfigError(
                    f"source {sw.source_id!r} has no topic matrix; "
                    "embedding-only sources support local-view transfer only")
            if kb.n_topics != n_topics:
                raise ConfigError(
                    f"source {sw.source_id!r}: topic count {kb.n_topics} must equal "
                    f"the model's topic count {n_topics} for global-view transfer")
        projected[sw.source_id] = project_kb(kb, target_vocab)
    shape = (n_topics, len(target_vocab))
    lvt = None
    if spec.lvt_weights:
        lvt = np.zeros(shape)
        for source_id, lam in spec.lvt_weights.items():
            lvt += lam * projected[source_id].embeddings
    gvt = {sid: (gamma, projected[sid].topics,
                 ~projected[sid].covered if spec.gvt_mask_oov else None)
           for sid, gamma in spec.gvt_weights.items()}
    return TransferContext(lvt, shape, spec.lvt_weights, gvt, projected)


def _residuals(W, ctx, alignments):
    """(source_id, gamma, A W - Z', A) per penalty source; A = I when alignments lacks it."""
    alignments = alignments or {}
    for source_id, (gamma, Z, oov) in ctx.gvt.items():
        A = alignments[source_id] if source_id in alignments else np.eye(ctx.shape[0])
        R = A @ W
        R -= Z
        if oov is not None:
            R[:, oov] = 0.0
        yield source_id, gamma, R, A


def gvt_penalty(W, ctx, alignments=None):
    """sum_k gamma^k ||A^k W - Z'^k||_F^2 over the projected topic matrices."""
    if not ctx.gvt_weights:
        raise ConfigError("global-view transfer is not enabled in this context")
    total = 0.0
    for _, gamma, R, _ in _residuals(W, ctx, alignments):
        total += gamma * float(np.vdot(R, R))
    return total


def gvt_gradients(W, ctx, alignments=None):
    """gvt_penalty and its gradients from one residual per source.

    Returns (penalty, d/dW, {source_id: d/dA^k}); the penalty is bit-equal to
    gvt_penalty(W, ctx, alignments).  Every returned gradient is a fresh array,
    so a caller may scale it in place.
    """
    if not ctx.gvt_weights:
        raise ConfigError("global-view transfer is not enabled in this context")
    dW = None
    dA = {}
    total = 0.0
    for source_id, gamma, R, A in _residuals(W, ctx, alignments):
        total += gamma * float(np.vdot(R, R))
        scale = 2.0 * gamma
        term = A.T @ R
        term *= scale
        if dW is None:
            dW = term
            # the sum starts from zeros, which turns a -0.0 term into +0.0
            dW += 0.0
        else:
            dW += term
        grad = R @ W.T
        grad *= scale
        dA[source_id] = grad
    return total, dW, dA


def gvt_residual_norms(W, ctx, alignments=None):
    """Frobenius norm of A^k W - Z'^k per source (for the training log)."""
    return {sid: float(np.linalg.norm(R)) for sid, _, R, _ in _residuals(W, ctx, alignments)}


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_kb(kb, out_dir):
    matrices = {"E": kb.embeddings}
    if kb.topics is not None:
        matrices["Z"] = kb.topics
    write_bundle(out_dir, [("source_id", kb.source_id)], kb.vocabulary, matrices)


def load_kb(bundle_dir, source_id=None):
    """Load a knowledge base under source_id (None: the id it was saved with);
    E.mat, and Z.mat if meta.txt lists it, must have one column per vocab.txt word."""
    bundle = BundleReader(bundle_dir)
    saved_id = bundle.entry("source_id", str)
    k = len(bundle.vocabulary)
    E = bundle.matrix("E", (None, k))
    Z = bundle.matrix("Z", (None, k)) if "Z" in bundle.members else None
    return KnowledgeBase(saved_id if source_id is None else source_id, bundle.vocabulary, E, Z)


def load_embeddings_text(path, source_id):
    """Import external word vectors (one line per word: token v1 v2 ... vE).

    Produces an embedding-only knowledge base, usable for local-view transfer.
    """
    tokens = []
    rows = []
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 2:
                raise CorpusError(f"{path}: line {lineno}: expected 'token v1 v2 ...'")
            tok, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise CorpusError(
                    f"{path}: line {lineno}: expected {dim} values, got {len(values)}")
            tokens.append(tok)
            try:
                rows.append([float(v) for v in values])
            except ValueError as exc:
                raise CorpusError(f"{path}: line {lineno}: {exc}") from None
            if not all(map(math.isfinite, rows[-1])):
                raise CorpusError(f"{path}: line {lineno}: non-finite value")
    if not tokens:
        raise CorpusError(f"{path}: no embeddings found")
    try:
        vocab = Vocabulary(tokens)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None
    return KnowledgeBase(source_id, vocab, np.array(rows).T)
