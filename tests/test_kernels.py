"""Brute-force oracles for the hot kernels."""

import tracemalloc

import numpy as np
import pytest

from topicxfer import kernels


def _random_instance(rng, h, k, d, lvt=False):
    W = rng.normal(scale=0.6, size=(h, k))
    U = rng.normal(scale=0.6, size=(k, h))
    b = rng.normal(scale=0.3, size=k)
    c = rng.normal(scale=0.3, size=h)
    doc = rng.integers(0, k, size=d).astype(np.int64)
    mat = rng.normal(scale=0.4, size=(h, k)) if lvt else kernels.EMPTY_LVT
    return doc, W, U, b, c, mat


def _naive_logprobs(doc, W, U, b, c, lvt, use_lvt, act):
    """Oracle: recompute each hidden state from scratch (no running pre-activation)."""
    out = np.empty(doc.size)
    for i in range(doc.size):
        pre = c.copy()
        for q in range(i):
            pre = pre + W[:, doc[q]]
            if use_lvt:
                pre = pre + lvt[:, doc[q]]
        h = np.tanh(pre) if act == kernels.ACT_TANH else 1.0 / (1.0 + np.exp(-pre))
        logits = b + U @ h
        m = logits.max()
        out[i] = logits[doc[i]] - m - np.log(np.exp(logits - m).sum())
    return out


@pytest.mark.parametrize("act", [kernels.ACT_SIGMOID, kernels.ACT_TANH])
@pytest.mark.parametrize("use_lvt", [False, True])
def test_forward_matches_naive_recomputation(rng, act, use_lvt):
    for trial in range(20):
        h, k, d = rng.integers(1, 6), rng.integers(2, 9), rng.integers(1, 10)
        doc, W, U, b, c, lvt = _random_instance(rng, h, k, d, lvt=use_lvt)
        logps, hidden, final = kernels.doc_forward(doc, W, U, b, c, lvt, use_lvt, act)
        oracle = _naive_logprobs(doc, W, U, b, c, lvt, use_lvt, act)
        assert np.abs(logps - oracle).max() <= 1e-12
        assert hidden.shape == (d, h)
        assert (logps <= 0).all()


def test_conditionals_normalize(rng):
    # p(v_i | v_<i) does not depend on v_i, so putting every word of a small
    # vocabulary at position i enumerates the whole conditional at i
    h, k, d = 3, 5, 4
    doc, W, U, b, c, _ = _random_instance(rng, h, k, d)
    for i in range(d):
        total = 0.0
        for v in range(k):
            probe = doc.copy()
            probe[i] = v
            logps, _, _ = kernels.doc_forward(probe, W, U, b, c, kernels.EMPTY_LVT,
                                              False, kernels.ACT_SIGMOID)
            total += np.exp(logps[i])
        assert abs(total - 1.0) <= 1e-12


def test_uniform_model_logprobs():
    doc = np.array([0], dtype=np.int64)
    W = np.random.default_rng(0).normal(size=(4, 2))
    c = np.random.default_rng(1).normal(size=4)
    logps, _, _ = kernels.doc_forward(doc, W, np.zeros((2, 4)), np.zeros(2), c,
                                      kernels.EMPTY_LVT, False, kernels.ACT_SIGMOID)
    assert logps[0] == pytest.approx(np.log(0.5), abs=1e-15)


def test_last_word_gets_no_column_gradient(rng):
    doc, W, U, b, c, _ = _random_instance(rng, 3, 6, 5)
    _, dw_cols, _, _, _ = kernels.doc_grads(doc, W, U, b, c, kernels.EMPTY_LVT,
                                            False, kernels.ACT_SIGMOID)
    assert np.all(dw_cols[-1] == 0.0)


@pytest.mark.parametrize("act", [kernels.ACT_SIGMOID, kernels.ACT_TANH])
@pytest.mark.parametrize("use_lvt", [False, True])
def test_in_place_log_softmax_keeps_inputs_and_bits(rng, act, use_lvt):
    # the log-softmax works in place on the kernels' own logits block only,
    # gives the bits of the allocating form it replaced, and is one form for
    # both kernels
    doc, W, U, b, c, lvt = _random_instance(rng, 4, 7, 9, lvt=use_lvt)
    inputs = (W, U, b, c, lvt)
    before = [arr.copy() for arr in inputs]
    fwd, hidden, _ = kernels.doc_forward(doc, W, U, b, c, lvt, use_lvt, act)
    grad, _, _, db, _ = kernels.doc_grads(doc, W, U, b, c, lvt, use_lvt, act)
    for arr, saved in zip(inputs, before):
        assert np.array_equal(arr, saved)

    logits = b[:, None] + U @ hidden.T
    m = logits.max(axis=0)
    ex = np.exp(logits - m)
    z = ex.sum(axis=0)
    picked = logits[doc, np.arange(doc.size)]
    dlogits = ex / z
    dlogits[doc, np.arange(doc.size)] -= 1.0
    assert np.array_equal(fwd, picked - (m + np.log(z)))
    assert np.array_equal(db, dlogits.sum(axis=1))
    assert np.array_equal(fwd, grad)


# The kernels as they stood before their numpy dispatches were cut, kept
# verbatim as a bit-level oracle: every output of the current kernels must
# equal theirs exactly, signed zeros included.

def _frozen_activation(pre, act):
    if act == kernels.ACT_TANH:
        return np.tanh(pre)
    return 1.0 / (1.0 + np.exp(-pre))


def _frozen_pre_activations(doc, W, c, lvt, use_lvt):
    """Per-position pre-activations (H, D) plus the final one (H,)."""
    cols = W[:, doc]
    if use_lvt:
        cols = cols + lvt[:, doc]
    D = doc.shape[0]
    pre = np.empty((c.shape[0], D))
    pre[:, 0] = c
    if D > 1:
        pre[:, 1:] = c[:, None] + np.cumsum(cols[:, :-1], axis=1)
    return pre, pre[:, -1] + cols[:, -1]


def _frozen_shifted_exp(doc, U, b, hid):
    logits = U @ hid
    logits += b[:, None]
    picked = logits[doc, np.arange(doc.shape[0])]
    m = logits.max(axis=0)
    logits -= m
    np.exp(logits, out=logits)
    z = logits.sum(axis=0)
    return picked - (m + np.log(z)), logits, z


def _frozen_doc_forward(doc, W, U, b, c, lvt, use_lvt, act):
    pre, final = _frozen_pre_activations(doc, W, c, lvt, use_lvt)
    hid = _frozen_activation(pre, act)
    logps, _, _ = _frozen_shifted_exp(doc, U, b, hid)
    return logps, hid.T, final


def _frozen_doc_grads(doc, W, U, b, c, lvt, use_lvt, act):
    D = doc.shape[0]
    pre, _ = _frozen_pre_activations(doc, W, c, lvt, use_lvt)
    hid = _frozen_activation(pre, act)
    logps, dlogits, z = _frozen_shifted_exp(doc, U, b, hid)
    dlogits /= z
    dlogits[doc, np.arange(D)] -= 1.0
    db = dlogits.sum(axis=1)
    dU = dlogits @ hid.T
    dh = U.T @ dlogits
    if act == kernels.ACT_TANH:
        da = dh * (1.0 - hid * hid)
    else:
        da = dh * hid * (1.0 - hid)
    suffix = np.cumsum(da[:, ::-1], axis=1)[:, ::-1]
    dw_cols = np.zeros((D, da.shape[0]))
    if D > 1:
        dw_cols[:-1] = suffix[:, 1:].T
    dc = suffix[:, 0]
    return logps, dw_cols, dU, db, dc


def _same_bits(got, want):
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _oracle_sweep(rng):
    """Random instances: D = 1 and 2 and longer, repeated words, and two
    signed-zero makers (zero U; sigmoid units saturated to exactly 0)."""
    for trial in range(160):
        h, k = int(rng.integers(1, 9)), int(rng.integers(2, 121))
        d = int(rng.integers(1, 3)) if trial % 3 == 0 else int(rng.integers(3, 60))
        doc, W, U, b, c, lvt = _random_instance(rng, h, k, d, lvt=trial % 2 == 1)
        if trial % 4 == 1:
            # repeated words: draw from at most three distinct ones
            doc = rng.choice(doc[:3], size=d).astype(np.int64)
        if trial % 10 == 2:
            U[:] = 0.0
        if trial % 10 == 5:
            c[:] = -800.0
        yield doc, W, U, b, c, lvt, trial % 2 == 1


@pytest.mark.parametrize("act", [kernels.ACT_SIGMOID, kernels.ACT_TANH])
def test_kernels_are_bit_equal_to_frozen_oracle(rng, act):
    for doc, W, U, b, c, lvt, use_lvt in _oracle_sweep(rng):
        args = (doc, W, U, b, c, lvt, use_lvt, act)
        before = [arr.copy() for arr in args[:6]]
        with np.errstate(over="ignore"):
            got = kernels.doc_forward(*args) + kernels.doc_grads(*args)
            want = _frozen_doc_forward(*args) + _frozen_doc_grads(*args)
        names = ("logps", "hidden", "final", "logps", "dw_cols", "dU", "db", "dc")
        for name, g, w in zip(names, got, want):
            assert _same_bits(g, w), (name, doc.size, W.shape, use_lvt)
        for arr, saved in zip(args[:6], before):
            assert _same_bits(arr, saved)


def test_frozen_oracle_sweep_makes_signed_zeros(rng):
    """The sweep reaches a -0.0 gradient, so the signbit checks can fail."""
    negative_zeros = 0
    for doc, W, U, b, c, lvt, use_lvt in _oracle_sweep(rng):
        with np.errstate(over="ignore"):
            out = _frozen_doc_grads(doc, W, U, b, c, lvt, use_lvt, kernels.ACT_SIGMOID)
        negative_zeros += sum(int(np.count_nonzero((g == 0) & np.signbit(g))) for g in out)
    assert negative_zeros > 0


def _brute_force_windows(doc, n_tracked, window):
    """Oracle: enumerate every window explicitly (an empty document has none)."""
    d = len(doc)
    width = min(window, d)
    starts = range(d - width + 1) if d else range(0)
    singles = np.zeros(n_tracked, dtype=np.int64)
    joints = np.zeros((n_tracked, n_tracked), dtype=np.int64)
    for s in starts:
        seen = sorted({m for m in doc[s:s + width] if m >= 0})
        for x, ix in enumerate(seen):
            singles[ix] += 1
            for iy in seen[x + 1:]:
                joints[ix, iy] += 1
                joints[iy, ix] += 1
    return singles, joints, len(starts)


@pytest.mark.parametrize("window", [2, 3, 7, 40])
def test_window_counts_match_enumeration(rng, window):
    """Singles, the joints of the requested pairs only, and the window count."""
    n_tracked = 5
    all_p1, all_p2 = (p.astype(np.int64) for p in np.triu_indices(n_tracked, k=1))
    docs = [rng.integers(-1, n_tracked, size=int(rng.integers(1, 30))) for _ in range(10)]
    # an empty document, and a long one with many windows (D >> window)
    docs += [np.zeros(0), rng.integers(-1, n_tracked, size=600)]
    for doc in docs:
        doc = doc.astype(np.int64)
        want_singles, want_joints, want_windows = _brute_force_windows(doc, n_tracked, window)
        # every pair; a subset in either orientation; no pair at all
        pick = np.sort(rng.choice(all_p1.size, size=4, replace=False))
        for p1, p2 in ((all_p1, all_p2), (all_p2[pick], all_p1[pick]), (all_p1[:0], all_p2[:0])):
            singles, joints, n_windows = kernels.window_counts(doc, n_tracked, p1, p2, window)
            assert singles.dtype == np.int64 and joints.dtype == np.int64
            assert np.array_equal(singles, want_singles)
            assert np.array_equal(joints, want_joints[p1, p2])
            assert n_windows == want_windows


@pytest.mark.parametrize("block_bytes", [kernels._BLOCK_BYTES, 64])
def test_window_counts_with_absent_words_match_enumeration(rng, monkeypatch, block_bytes):
    """Most tracked words do not occur; tiny blocks split rows and pairs into many blocks."""
    monkeypatch.setattr(kernels, "_BLOCK_BYTES", block_bytes)
    n_tracked = 30
    p1, p2 = (p.astype(np.int64) for p in np.triu_indices(n_tracked, k=1))
    present = rng.choice(n_tracked, size=6, replace=False)
    for size, window in ((1, 5), (12, 5), (200, 9), (200, 400)):
        doc = np.where(rng.random(size) < 0.2, -1, rng.choice(present, size=size))
        doc = doc.astype(np.int64)
        want_singles, want_joints, want_windows = _brute_force_windows(doc, n_tracked, window)
        singles, joints, n_windows = kernels.window_counts(doc, n_tracked, p1, p2, window)
        assert np.array_equal(singles, want_singles)
        assert np.array_equal(joints, want_joints[p1, p2])
        assert n_windows == want_windows


def test_window_counts_memory_on_a_long_document(rng):
    """A 5000-token document, ~1250 tracked words, ~9000 pairs: the per-document
    temporaries grow with the words present, not with an n_tracked x D table
    (185 MiB when every tracked word had a row of hit counts)."""
    n_tracked, size, window = 1253, 5000, 110
    doc = rng.integers(0, n_tracked, size=size).astype(np.int64)
    doc[rng.random(size) < 0.3] = -1
    i, j = np.triu_indices(n_tracked, k=1)
    pick = np.sort(rng.choice(i.size, size=8968, replace=False))
    p1, p2 = i[pick].astype(np.int64), j[pick].astype(np.int64)
    tracemalloc.start()
    try:
        singles, joints, n_windows = kernels.window_counts(doc, n_tracked, p1, p2, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert n_windows == size - window + 1
    # spot-check some pairs and words against a direct window scan
    starts = np.arange(n_windows)[:, None] + np.arange(window)
    for k in rng.choice(p1.size, size=20, replace=False):
        has1 = (doc[starts] == p1[k]).any(axis=1)
        has2 = (doc[starts] == p2[k]).any(axis=1)
        assert joints[k] == np.count_nonzero(has1 & has2)
        assert singles[p1[k]] == np.count_nonzero(has1)


@pytest.mark.parametrize("window", [1, 4, 110])
def test_window_counts_single_window_matches_enumeration(rng, window):
    """Documents no longer than the window: D = window, D = 1, repeated words
    and untracked tokens, all tokens untracked, and pairs with an absent word."""
    n_tracked = 8
    p1, p2 = (p.astype(np.int64) for p in np.triu_indices(n_tracked, k=1))
    docs = [rng.integers(-1, n_tracked, size=window), [3], [-1], [-1] * window,
            [2, 2, -1, 2, 5, -1, 5, 2][:window]]
    absent_pairs = 0
    for doc in docs:
        doc = np.asarray(doc, dtype=np.int64)
        want_singles, want_joints, want_windows = _brute_force_windows(doc, n_tracked, window)
        singles, joints, n_windows = kernels.window_counts(doc, n_tracked, p1, p2, window)
        assert n_windows == want_windows == 1
        assert singles.dtype == np.int64 and joints.dtype == np.int64
        assert np.array_equal(singles, want_singles)
        assert np.array_equal(joints, want_joints[p1, p2])
        # a pair with a word the document lacks counts no window
        absent = singles[p1] * singles[p2] == 0
        assert not joints[absent].any()
        absent_pairs += int(absent.sum())
    assert absent_pairs > 0
