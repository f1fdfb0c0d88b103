"""The autoregressive topic model: parameters, forward pass, loss, gradients, training.

A document v = (v_1 .. v_D) is modeled as prod_i p(v_i | v_<i).  The hidden
state at step i is h_i = g(c + sum_{q<i} W[:, v_q]) and each conditional is a
K-way softmax of b + U h_i.  The running pre-activation makes one pass linear
in D instead of quadratic.  Transfer hooks: a context can add per-word source
embedding columns to the pre-activation (local view) and a squared alignment
penalty on W toward source topic rows (global view).
"""

from __future__ import annotations

import contextlib
import math
import os
from concurrent import futures
from dataclasses import dataclass, field

import numpy as np

from . import kernels, transfer
from .corpus import word_indices
from .errors import ConfigError, CorpusError, NumericalError
from .fileio import BundleReader, write_bundle
from .fileio import read_matrix, write_matrix  # noqa: F401 (perfbench/tracer.py patches them)

ACTIVATIONS = ("sigmoid", "tanh")


def _act_code(activation):
    if activation == "sigmoid":
        return kernels.ACT_SIGMOID
    if activation == "tanh":
        return kernels.ACT_TANH
    raise ConfigError(f"unknown activation {activation!r}, expected one of {ACTIVATIONS}")


@dataclass
class TrainConfig:
    """Hyperparameters for SGD training."""

    learning_rate: float = 0.001
    epochs: int = 50
    seed: int = 0
    n_topics: int = 200
    activation: str = "sigmoid"
    shuffle_words: bool = True
    shuffle_docs: bool = True
    init_scale: float = 0.01
    validation_patience: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError("learning_rate must be finite and >= 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.n_topics < 1:
            raise ConfigError("n_topics must be >= 1")
        if not (math.isfinite(self.init_scale) and self.init_scale >= 0):
            raise ConfigError("init_scale must be finite and >= 0")
        if self.validation_patience < 1:
            raise ConfigError("validation_patience must be >= 1")
        _act_code(self.activation)


# the TrainConfig fields whose config key (CLI --config and experiment
# files) and CLI flag differ from the field name
TRAIN_KEYS = {"n_topics": "topics", "validation_patience": "patience"}


@dataclass
class ModelParams:
    """Model parameter set: W (H x K), U (K x H), b (K,), c (H,), alignments A^k.

    trained_epochs is the number of epochs the producing train() ran.
    """

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray
    c: np.ndarray
    activation: str = "sigmoid"
    alignments: dict[str, np.ndarray] = field(default_factory=dict)
    trained_epochs: int = 0

    def __post_init__(self):
        h, k = self.W.shape
        if self.U.shape != (k, h) or self.b.shape != (k,) or self.c.shape != (h,):
            raise ConfigError(
                f"inconsistent parameter shapes: W {self.W.shape}, U {self.U.shape}, "
                f"b {self.b.shape}, c {self.c.shape}"
            )
        self.check_alignments()
        for arr in (self.W, self.U, self.b, self.c, *self.alignments.values()):
            if not np.isfinite(arr).all():
                raise NumericalError("non-finite model parameter")
        _act_code(self.activation)

    def check_alignments(self):
        """Each alignment must be H x H; alignments is a dict that callers may
        fill after the params are built, so save_model checks it again."""
        h = self.n_topics
        for source_id, A in self.alignments.items():
            if A.shape != (h, h):
                raise ConfigError(f"alignment {source_id!r}: shape {A.shape}, "
                                  f"expected {(h, h)} for W of shape {self.W.shape}")

    @property
    def n_topics(self):
        return self.W.shape[0]

    @property
    def vocab_size(self):
        return self.W.shape[1]

    def copy(self):
        return ModelParams(
            self.W.copy(), self.U.copy(), self.b.copy(), self.c.copy(),
            activation=self.activation,
            alignments={k: v.copy() for k, v in self.alignments.items()},
            trained_epochs=self.trained_epochs,
        )


@dataclass
class Gradients:
    W: np.ndarray
    U: np.ndarray
    b: np.ndarray
    c: np.ndarray
    alignments: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    validation_ppl: float | None = None
    gvt_residuals: dict[str, float] = field(default_factory=dict)


def _init_from_rng(rng, n_topics, vocab_size, init_scale, activation):
    W = rng.uniform(-init_scale, init_scale, size=(n_topics, vocab_size))
    U = rng.uniform(-init_scale, init_scale, size=(vocab_size, n_topics))
    return ModelParams(W, U, np.zeros(vocab_size), np.zeros(n_topics),
                       activation=activation)


def init_params(n_topics, vocab_size, seed, init_scale=0.01, activation="sigmoid"):
    """Seeded uniform [-init_scale, init_scale] weights, zero biases."""
    if n_topics < 1 or vocab_size < 1:
        raise ConfigError("n_topics and vocab_size must be >= 1")
    rng = np.random.default_rng(seed)
    return _init_from_rng(rng, n_topics, vocab_size, init_scale, activation)


def _transfer_args(params, ctx):
    """The kernels' (lvt, use_lvt) and whether global-view transfer is on; ConfigError
    when ctx was built for another topic count or vocabulary than params."""
    if ctx is None:
        return kernels.EMPTY_LVT, False, False
    lvt, gvt_on = ctx.lvt_matrix, bool(ctx.gvt_weights)
    if (lvt is not None or gvt_on) and ctx.shape != params.W.shape:
        raise ConfigError(f"transfer context built for W of shape {ctx.shape} "
                          f"does not fit the model's W of shape {params.W.shape}")
    return (kernels.EMPTY_LVT, False, gvt_on) if lvt is None else (lvt, True, gvt_on)


def _checked_words(words, params):
    words = word_indices(words, "cannot run the model on an empty document")
    if words.min() < 0 or words.max() >= params.vocab_size:
        raise CorpusError("word index out of range for this model")
    return words


def _kernel_args(words, params, ctx):
    words = _checked_words(words, params)
    lvt, use_lvt, _ = _transfer_args(params, ctx)
    return words, lvt, use_lvt, _act_code(params.activation)


def forward(doc, params, ctx=None):
    """The (D,) log-probabilities log p(v_i | v_<i) of one document; they sum to log p(v)."""
    words, lvt, use_lvt, act = _kernel_args(_doc_words(doc), params, ctx)
    logps, _, _ = kernels.doc_forward(
        words, params.W, params.U, params.b, params.c, lvt, use_lvt, act)
    if not np.isfinite(logps).all():
        pos = int(np.flatnonzero(~np.isfinite(logps))[0])
        raise NumericalError(f"non-finite log-probability at position {pos}")
    return logps


def _doc_words(doc):
    return doc.words if hasattr(doc, "words") else doc


def loss(doc, params, ctx=None):
    """Negative log-likelihood, plus the alignment penalty when global transfer is on."""
    value = -float(forward(doc, params, ctx).sum())
    if ctx is not None and ctx.gvt_weights:
        value += transfer.gvt_penalty(params.W, ctx, alignments=params.alignments)
    return value


# the H * K from which two GEMM-bound pieces of work, one on the helper
# thread, finish sooner than one thread running both (measured at one BLAS
# thread; CHANGES.md has the table)
HELPER_MIN_SIZE = 25_000


def use_helper(n_topics, vocab_size):
    """Whether an H x K model's training step and perplexity run two pieces of
    BLAS work at once, one on a helper thread: only when BLAS is known to run
    one thread, this process may use at least 2 CPUs, and H * K is at least
    HELPER_MIN_SIZE.  Each GEMM keeps its operands and its one BLAS thread,
    so the bits are those of the sequential path."""
    if n_topics * vocab_size < HELPER_MIN_SIZE or kernels.blas_threads() != 1:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) >= 2


@contextlib.contextmanager
def helper_thread(n_topics, vocab_size):
    """A one-thread executor for the block when use_helper says so, else None.

    Leaving the block waits for the work submitted to it, also when the block
    raises, and ends the thread.
    """
    if not use_helper(n_topics, vocab_size):
        yield None
        return
    with futures.ThreadPoolExecutor(1, thread_name_prefix="topicxfer-helper") as helper:
        yield helper


def _doc_step(params, ctx, words, lvt, use_lvt, act, helper=None):
    """Loss and gradients of one document: the step train() and gradients() share.

    Returns (loss, dw_cols, dU, db, dc, gvt).  dw_cols[q] is the gradient of
    the W column of words[q]; gvt is (dW, {source_id: dA}) of the alignment
    penalty, which loss includes, or None without global transfer.  With a
    helper executor (from helper_thread), the penalty's gradients run on it
    while doc_grads runs here; an error is raised in sequential order,
    doc_grads' first.
    """
    def gvt_args():
        # this thread allocates the arrays gvt_gradients fills, on either
        # thread, so both paths share one call form; fresh arrays per call
        # give the same bits, and neither way measured faster or leaner
        # (CHANGES.md)
        return params.W, ctx, params.alignments, transfer.gvt_buffers(params.W, ctx)

    gvt_on = ctx is not None and ctx.gvt_weights
    pending = None
    if gvt_on and helper is not None:
        pending = helper.submit(transfer.gvt_gradients, *gvt_args())
    logps, dw_cols, dU, db, dc = kernels.doc_grads(
        words, params.W, params.U, params.b, params.c, lvt, use_lvt, act)
    doc_loss = -np.add.reduce(logps)
    gvt = None
    if gvt_on:
        if pending is None:
            penalty, dW, dA = transfer.gvt_gradients(*gvt_args())
        else:
            penalty, dW, dA = pending.result()
        doc_loss += penalty
        gvt = (dW, dA)
    return doc_loss, dw_cols, dU, db, dc, gvt


def gradients(doc, params, ctx=None):
    """Exact gradients of loss() with respect to W, U, b, c and each alignment A^k."""
    words, lvt, use_lvt, act = _kernel_args(_doc_words(doc), params, ctx)
    doc_loss, dw_cols, dU, db, dc, gvt = _doc_step(params, ctx, words, lvt, use_lvt, act)
    if not np.isfinite(doc_loss):
        raise NumericalError("non-finite loss")
    dW = np.zeros_like(params.W)
    np.add.at(dW.T, words, dw_cols)
    grads = Gradients(dW, dU, db, dc)
    if gvt is not None:
        grads.W += gvt[0]
        grads.alignments = gvt[1]
    return grads


def word_rows(params, ctx=None):
    """The (K, H) rows document_vector sums: one contiguous copy of W^T, or of
    (W + the context's LVT matrix)^T; ConfigError when ctx does not fit params."""
    lvt, use_lvt, _ = _transfer_args(params, ctx)
    return np.ascontiguousarray((params.W + lvt if use_lvt else params.W).T)


def document_vector(doc, params, ctx=None, rows=None):
    """Hidden state after the whole document: g(c + sum of word columns + transfer terms).

    rows is word_rows(params, ctx), built here when not given; a caller that
    embeds many documents builds it once.  The sum is sequential over
    positions in sorted-index order, so the result is exactly
    permutation-invariant: an axis-0 sum of the gathered rows of the
    contiguous W^T keeps that order, and a C-ordered gather of W's columns
    such as W.take(o, axis=1) would not.
    """
    words = _checked_words(_doc_words(doc), params)
    if rows is None:
        rows = word_rows(params, ctx)
    pre = np.add.reduce(rows.take(np.sort(words), axis=0), axis=0)
    return kernels._activate(params.c + pre, _act_code(params.activation))


def ensure_alignments(params, ctx):
    """Give params an identity alignment for every global-transfer source it lacks."""
    if ctx is not None:
        for source_id in ctx.gvt_weights:
            params.alignments.setdefault(source_id, np.eye(params.n_topics))


def train(corpus, config, ctx=None, validation=None):
    """Per-document SGD over the corpus.

    Returns (params, stats) where stats is the per-epoch metrics log.  With a
    validation corpus, returns the parameters of the best validation-perplexity
    epoch and stops early after validation_patience non-improving epochs.
    """
    if len(corpus) == 0:
        raise CorpusError("cannot train on an empty corpus")
    rng = np.random.default_rng(config.seed)
    params = _init_from_rng(rng, config.n_topics, len(corpus.vocabulary),
                            config.init_scale, config.activation)
    lvt, lvt_on, gvt_on = _transfer_args(params, ctx)
    ensure_alignments(params, ctx)

    act = _act_code(config.activation)
    lr = config.learning_rate
    from .evaluate import perplexity  # evaluate imports this module

    stats = []
    best_params = None
    best_ppl = np.inf
    best_epoch = -1
    for epoch in range(config.epochs):
        order = rng.permutation(len(corpus)) if config.shuffle_docs else np.arange(len(corpus))
        total_loss = 0.0
        # the alignment-penalty gradients run beside doc_grads on a helper
        # thread; without them nothing is submitted, so no thread starts
        with helper_thread(*params.W.shape) as helper:
            for di in order:
                words = corpus.documents[di].words
                if config.shuffle_words:
                    # the draws and the result of words[rng.permutation(words.size)]
                    words = words.copy()
                    rng.shuffle(words)
                doc_loss, dw_cols, dU, db, dc, gvt = _doc_step(
                    params, ctx, words, lvt, lvt_on, act, helper)
                if not math.isfinite(doc_loss):
                    raise NumericalError(
                        f"training diverged: non-finite loss at epoch {epoch}, document {di}")
                total_loss += doc_loss

                # unbuffered, in position order: a repeated word's updates land
                # one after another, as a per-word loop would apply them
                # the gradients are fresh arrays, so they are scaled in place
                dw_cols *= lr
                np.subtract.at(params.W.T, words, dw_cols)
                dU *= lr
                params.U -= dU
                db *= lr
                params.b -= db
                dc *= lr
                params.c -= dc
                if gvt is not None:
                    dW, dA = gvt
                    dW *= lr
                    params.W -= dW
                    for sid, grad in dA.items():
                        grad *= lr
                        params.alignments[sid] -= grad

        entry = EpochStats(epoch, total_loss / len(corpus))
        stats.append(entry)
        if gvt_on:
            entry.gvt_residuals = transfer.gvt_residual_norms(params.W, ctx, params.alignments)
        if validation is not None:
            entry.validation_ppl = perplexity(params, validation, ctx)
            if entry.validation_ppl < best_ppl:
                best_ppl = entry.validation_ppl
                best_params = params.copy()
                best_epoch = epoch
            elif epoch - best_epoch >= config.validation_patience:
                break

    final = best_params if best_params is not None else params
    final.trained_epochs = len(stats)
    return final, stats


# ---------------------------------------------------------------------------
# model bundle persistence
# ---------------------------------------------------------------------------

def save_model(params, vocabulary, out_dir, seed=0, lvt_matrix=None):
    """Persist a model bundle: meta.txt, vocab.txt, W/U/b/c matrices, alignments
    and the lvt matrix if given (fileio.write_bundle)."""
    params.check_alignments()  # before write_bundle removes the old bundle's meta.txt
    meta = [("activation", params.activation), ("seed", seed),
            ("trained_epochs", params.trained_epochs)]
    matrices = {"W": params.W, "U": params.U, "b": params.b, "c": params.c}
    matrices.update((f"A.{source_id}", A) for source_id, A in params.alignments.items())
    if lvt_matrix is not None:
        matrices["lvt"] = lvt_matrix
    write_bundle(out_dir, meta, vocabulary, matrices)


def load_model(bundle_dir):
    """Load a model bundle.  Returns (params, vocabulary, meta, lvt_matrix or None).

    W.mat gives H and K; U.mat, b.mat, c.mat and each A.*.mat and lvt.mat that
    meta.txt lists must agree with W's shape.
    """
    bundle = BundleReader(bundle_dir)
    W = bundle.matrix("W")
    h, k = W.shape
    U = bundle.matrix("U", (k, h))
    b = bundle.matrix("b", (1, k))[0]
    c = bundle.matrix("c", (1, h))[0]
    alignments = {name[2:]: bundle.matrix(name, (h, h))
                  for name in bundle.members if name.startswith("A.")}
    activation = bundle.entry("activation", str)
    bundle.entry("activation", _act_code)  # an unknown name is an error naming meta.txt
    params = ModelParams(W, U, b, c, activation=activation, alignments=alignments,
                         trained_epochs=bundle.entry("trained_epochs", int))
    lvt = bundle.matrix("lvt", W.shape) if "lvt" in bundle.members else None
    if len(bundle.vocabulary) != params.vocab_size:
        raise ConfigError(f"{bundle_dir}: vocabulary size does not match W")
    return params, bundle.vocabulary, bundle.meta, lvt
