"""The helper thread: training steps and perplexity with it give the
sequential path's bits and errors, and model.use_helper decides when it runs."""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from conftest import make_vocab, random_doc
from topicxfer import evaluate, kernels, model, transfer
from topicxfer.corpus import Corpus
from topicxfer.errors import NumericalError
from topicxfer.evaluate import perplexity
from topicxfer.model import TrainConfig, init_params, train
from topicxfer.transfer import KnowledgeBase, SourceWeight, TransferSpec, make_transfer_context

H, K = 4, 9


def _gate(monkeypatch, on):
    monkeypatch.setattr(model, "use_helper", lambda n_topics, vocab_size: on)


def _int64(*arrays):
    return [np.ascontiguousarray(a).view(np.int64) for a in arrays]


def _assert_same_bits(a, b):
    assert len(a) == len(b)
    for x, y in zip(_int64(*a), _int64(*b)):
        assert np.array_equal(x, y)


def _corpus(rng, n, dmax=8):
    return Corpus(make_vocab(K), [random_doc(rng, K, int(rng.integers(1, dmax)))
                                  for _ in range(n)])


def _ctx(rng, modes, n_sources=1, mask_oov=False):
    vocab = make_vocab(K)
    # the sources lack some target words, so gvt_mask_oov has columns to zero
    kbs = [KnowledgeBase(f"s{i}", make_vocab(K - 2), rng.normal(size=(H, K - 2)),
                         rng.normal(size=(H, K - 2))) for i in range(n_sources)]
    weights = [SourceWeight(f"s{i}", 0.5 if "lvt" in modes else 0.0,
                            0.2 + 0.1 * i if "gvt" in modes else 0.0)
               for i in range(n_sources)]
    spec = TransferSpec(weights, lvt_enabled="lvt" in modes, gvt_enabled="gvt" in modes,
                        gvt_mask_oov=mask_oov)
    return make_transfer_context(kbs, vocab, spec, H)


def _threads_calling(monkeypatch, module, name):
    """Wrap module.name so that each call records its thread's name."""
    seen = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(threading.current_thread().name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


def _trained(corpus, ctx, validation):
    params, stats = train(corpus, TrainConfig(n_topics=H, epochs=3, learning_rate=0.05,
                                              seed=7), ctx, validation)
    losses = np.array([s.train_loss for s in stats])
    ppls = np.array([s.validation_ppl for s in stats if s.validation_ppl is not None])
    return [params.W, params.U, params.b, params.c, *params.alignments.values(), losses, ppls]


@pytest.mark.parametrize("modes, n_sources, mask_oov", [
    (("gvt",), 1, False), (("lvt", "gvt"), 1, False), (("lvt", "gvt"), 2, False),
    (("lvt", "gvt"), 2, True)], ids=["gvt", "mvt", "mvt-two-sources", "mvt-two-sources-masked"])
def test_train_with_the_helper_gives_the_sequential_bits(rng, monkeypatch, modes, n_sources,
                                                         mask_oov):
    ctx = _ctx(rng, modes, n_sources, mask_oov)
    corpus, validation = _corpus(rng, 10), _corpus(rng, 5)
    _gate(monkeypatch, False)
    sequential = _trained(corpus, ctx, validation)
    _gate(monkeypatch, True)
    threads = _threads_calling(monkeypatch, transfer, "gvt_gradients")
    overlapped = _trained(corpus, ctx, validation)
    assert threads and all(t.startswith("topicxfer-helper") for t in threads)
    _assert_same_bits(sequential, overlapped)


@pytest.mark.parametrize("n_docs", [1, 2, 7])
def test_perplexity_with_the_helper_gives_the_sequential_bits(rng, monkeypatch, n_docs):
    params = init_params(H, K, seed=5, init_scale=0.5)
    corpus = _corpus(rng, n_docs)
    ctx = _ctx(rng, ("lvt",))
    _gate(monkeypatch, False)
    sequential = [perplexity(params, corpus), perplexity(params, corpus, ctx)]
    _gate(monkeypatch, True)
    threads = _threads_calling(monkeypatch, evaluate, "forward")
    overlapped = [perplexity(params, corpus), perplexity(params, corpus, ctx)]
    assert len(threads) == 2 * n_docs
    # the caller scores the first half, rounded up, and the helper the rest
    assert threads.count("MainThread") == 2 * ((n_docs + 1) // 2)
    _assert_same_bits(np.array(sequential), np.array(overlapped))


# ------------------------------------------------------------------ the gate

def _machine(monkeypatch, blas_threads, cpus):
    monkeypatch.setattr(kernels, "blas_threads", lambda: blas_threads)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.mark.parametrize("blas_threads, cpus, on", [
    (1, 2, True), (1, 4, True), (1, 1, False), (2, 2, False), (2, 4, False), (4, 64, False),
    (None, 2, False), (None, 64, False)])
def test_the_helper_needs_one_blas_thread_and_two_cpus(monkeypatch, blas_threads, cpus, on):
    _machine(monkeypatch, blas_threads, cpus)
    assert model.use_helper(200, 2000) is on
    with model.helper_thread(200, 2000) as helper:
        assert (helper is not None) is on


def test_the_helper_needs_a_model_of_helper_min_size(monkeypatch):
    _machine(monkeypatch, 1, 2)
    assert model.HELPER_MIN_SIZE == 25_000
    assert not model.use_helper(1, model.HELPER_MIN_SIZE - 1)
    assert not model.use_helper(3, 100)
    assert model.use_helper(1, model.HELPER_MIN_SIZE)
    assert model.use_helper(50, 500)


def _helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("topicxfer-helper")]


def test_the_helper_thread_ends_with_the_call(rng, monkeypatch):
    _gate(monkeypatch, True)
    seen = _threads_calling(monkeypatch, transfer, "gvt_gradients")
    _trained(_corpus(rng, 4), _ctx(rng, ("gvt",)), _corpus(rng, 3))
    assert seen and not _helper_threads()
    perplexity(init_params(H, K, seed=5), _corpus(rng, 4))
    assert not _helper_threads()


def test_blas_threads_reads_the_setting_of_the_bundled_openblas():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    code = "from topicxfer import kernels; print(kernels.blas_threads())"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout.strip()
    # None where numpy does not ship its own OpenBLAS
    assert out in ("1", "None")


# ------------------------------------------------------------------ errors

class _Failure(Exception):
    pass


def _fail(message, done=None):
    def raise_it(*args, **kwargs):
        if done is not None:
            time.sleep(0.2)  # long enough to be still running if nobody waited
            done.set()
        raise _Failure(message)
    return raise_it


@pytest.mark.parametrize("on", [False, True], ids=["sequential", "helper"])
@pytest.mark.parametrize("failing", ["doc_grads", "gvt_gradients", "both"])
def test_a_training_step_raises_the_sequential_error(rng, monkeypatch, on, failing):
    ctx = _ctx(rng, ("gvt",))
    corpus = _corpus(rng, 3)
    helper_done = threading.Event()
    if failing in ("doc_grads", "both"):
        monkeypatch.setattr(kernels, "doc_grads", _fail("doc_grads"))
    if failing in ("gvt_gradients", "both"):
        monkeypatch.setattr(transfer, "gvt_gradients", _fail("gvt_gradients", helper_done))
    else:
        original = transfer.gvt_gradients

        def gvt_then_done(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                time.sleep(0.2)
                helper_done.set()
        monkeypatch.setattr(transfer, "gvt_gradients", gvt_then_done)
    _gate(monkeypatch, on)
    expected = "gvt_gradients" if failing == "gvt_gradients" else "doc_grads"
    with pytest.raises(_Failure, match=expected):
        train(corpus, TrainConfig(n_topics=H, epochs=1), ctx)
    # the helper's work ended before the error left the step
    assert helper_done.is_set() is (on or failing == "gvt_gradients")


@pytest.mark.parametrize("on", [False, True], ids=["sequential", "helper"])
@pytest.mark.parametrize("bad", [(1,), (5,), (1, 5)], ids=["first-half", "second-half", "both"])
def test_perplexity_raises_the_sequential_error(rng, monkeypatch, on, bad):
    params = init_params(H, K, seed=5)
    corpus = _corpus(rng, 6)
    bad_docs = {id(corpus.documents[i]): i for i in bad}
    original = evaluate.forward

    def forward(doc, *args):
        if id(doc) in bad_docs:
            raise NumericalError(f"document {bad_docs[id(doc)]}")
        return original(doc, *args)

    monkeypatch.setattr(evaluate, "forward", forward)
    _gate(monkeypatch, on)
    with pytest.raises(NumericalError, match=f"document {bad[0]}"):
        perplexity(params, corpus)
