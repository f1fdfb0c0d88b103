"""The helper thread: training steps and perplexity with it give the
sequential path's bits and errors, and model.use_helper decides when it runs.
The subprocess tests run at one BLAS thread and at shapes large enough for
OpenBLAS to take the kernels of paper-scale runs."""

import json
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


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _at_one_blas_thread(code, *args):
    """The standard output of code run in a fresh interpreter at one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def test_blas_threads_reads_the_setting_of_the_bundled_openblas():
    out = _at_one_blas_thread("from topicxfer import kernels; print(kernels.blas_threads())")
    # None where numpy does not ship its own OpenBLAS
    assert out.strip() in ("1", "None")


# builds, from a fixed seed, a vocabulary of K words, corpus(n, lengths) and
# context(n_sources, lvt)
_SETUP = """
import numpy as np
from topicxfer.corpus import Corpus, Document, Vocabulary
from topicxfer.transfer import KnowledgeBase, SourceWeight, TransferSpec, make_transfer_context

rng = np.random.default_rng(11)
vocab = Vocabulary([f"w{i}" for i in range(K)])

def corpus(n, lengths=(3, 15)):
    return Corpus(vocab, [Document(rng.integers(0, K, size=int(rng.integers(*lengths))))
                          for _ in range(n)])

def context(n_sources, lvt):
    kbs = [KnowledgeBase(f"s{i}", vocab, rng.normal(size=(H, K)), rng.normal(size=(H, K)))
           for i in range(n_sources)]
    weights = [SourceWeight(f"s{i}", 0.5 if lvt else 0.0, 0.1 + 0.05 * i)
               for i in range(n_sources)]
    spec = TransferSpec(weights, lvt_enabled=lvt, gvt_enabled=True)
    return make_transfer_context(kbs, vocab, spec, H)
"""


_REAL_GATE = """
import hashlib, json, threading
from topicxfer import evaluate, model, transfer
from topicxfer.evaluate import perplexity
from topicxfer.model import TrainConfig, init_params, train

H, K = 50, 500
""" + _SETUP + """
assert model.use_helper(H, K), "the gate is off at one BLAS thread"
train_docs, validation, test = corpus(8), corpus(4), corpus(7)
contexts = {"gvt-one-source": context(1, False), "mvt-two-sources": context(2, True)}
threads = set()

def spied(module, name):
    original = getattr(module, name)
    def spy(*args, **kwargs):
        threads.add(threading.current_thread().name.split("_")[0])
        return original(*args, **kwargs)
    setattr(module, name, spy)

spied(transfer, "gvt_gradients")
spied(evaluate, "forward")

def digests():
    arrays = {}
    for name, ctx in contexts.items():
        params, stats = train(train_docs, TrainConfig(n_topics=H, epochs=2, learning_rate=0.05,
                                                      seed=7), ctx, validation)
        arrays[name] = [params.W, params.U, params.b, params.c, *params.alignments.values(),
                        np.array([s.train_loss for s in stats]),
                        np.array([s.validation_ppl for s in stats])]
    params = init_params(H, K, seed=5, init_scale=0.5)
    arrays["perplexity"] = [np.array([perplexity(params, test),
                                      perplexity(params, test, contexts["mvt-two-sources"])])]
    return {name: [hashlib.sha256(a.tobytes()).hexdigest() for a in group]
            for name, group in arrays.items()}

gate = digests()
gate_threads = sorted(threads)
threads.clear()
model.use_helper = lambda n_topics, vocab_size: False
off = digests()
print(json.dumps({"gate": gate, "gate_threads": gate_threads,
                  "off": off, "off_threads": sorted(threads)}))
"""


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif((_usable_cpus() or 1) < 2, reason="the helper needs 2 usable CPUs")
def test_the_real_gate_gives_the_sequential_bits_at_one_blas_thread():
    # H * K = 25 000 turns the helper on, and at these shapes OpenBLAS takes
    # other kernel paths than at the H=4, K=9 cases above
    runs = json.loads(_at_one_blas_thread(_REAL_GATE))
    assert runs["gate_threads"] == ["MainThread", "topicxfer-helper"]
    assert runs["off_threads"] == ["MainThread"]
    assert runs["gate"] == runs["off"]


_BUNDLE = """
import sys
from topicxfer.model import TrainConfig, save_model, train

H, K = 32, 400
""" + _SETUP + """
ctx = context(1, True)
params, _ = train(corpus(12, (60, 100)), TrainConfig(n_topics=H, epochs=2, learning_rate=0.05,
                                                     seed=3), ctx, corpus(4))
save_model(params, vocab, sys.argv[1], seed=3, lvt_matrix=ctx.lvt_matrix)
"""


def test_reruns_at_a_thread_sensitive_shape_write_identical_bundles(tmp_path):
    # with documents of 60-100 words at H=32, K=400, this bundle's W, U, b, c
    # and alignment differ between one and two BLAS threads; at one fixed
    # count, two processes must agree byte for byte
    bundles = [tmp_path / "first", tmp_path / "second"]
    for bundle in bundles:
        _at_one_blas_thread(_BUNDLE, str(bundle))
    names = sorted(os.listdir(bundles[0]))
    assert "lvt.mat" in names and names == sorted(os.listdir(bundles[1]))
    for name in names:
        assert (bundles[0] / name).read_bytes() == (bundles[1] / name).read_bytes(), name


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
