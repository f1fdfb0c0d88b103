"""Hot per-document kernels behind the model and the coherence counter.

All kernels are vectorized numpy: a cumulative sum gives every position's
pre-activation at once and one GEMM gives every position's logits.  The
activation works in place on the (H, D) pre-activation buffer and the
softmax in place on the (K, D) logits block; no kernel writes to its inputs.
Both kernels take their log-probabilities from one log-softmax, so
doc_forward and doc_grads give bit-equal logps for the same inputs.  On short
documents a call costs numpy dispatches, not arithmetic, so the kernels make
as few calls as they can.

What fixes the bits
-------------------
Elementwise operations give the same bits in any buffer or layout, in place
or not, as long as each keeps its operands: a + b and b + a are the same
bits, but (a + b) + c and a + (b + c) need not be.  Beyond that, the output
bits depend on these operations, and only these, being kept as they are:

- the sequential np.add.accumulate scans: the pre-activation prefix sums,
  left to right over positions, and the dw_cols suffix sums, right to left;
- the sequential axis-0 reduction z, the column sums of the (K, D) block,
  added one row after another;
- the pairwise sums over a contiguous axis: db, the row sums of the (K, D)
  block, and the caller's sum of logps (numpy's pairwise blocking depends on
  the length);
- the three BLAS GEMMs U @ hid, dlogits @ hid.T and U.T @ dlogits, with
  these operand layouts (their bits also depend on the BLAS thread count,
  but not on which thread calls them: at a fixed count, a GEMM run on a
  helper thread gives the bits it gives on the main thread);
- model.document_vector's sum over positions: sequential, in sorted-index
  order.  Summing the gathered rows of a contiguous W^T over axis 0 keeps
  it; a C-ordered gather of W's columns such as W.take(o, axis=1) breaks it.

The column maximum m is order-free.  So an elementwise pass or the maximum
may be moved into another buffer or layout freely.  A reordered sum changes
the bits, and a GEMM operand in another layout can change them.

Kernel contracts
----------------
doc_forward(doc, W, U, b, c, lvt, use_lvt, act)
    doc : int64 (D,) word indices; W : (H, K); U : (K, H); b : (K,); c : (H,)
    lvt : (H, K) combined transfer-embedding matrix (ignored when use_lvt=0;
          pass an empty (0, 0) array)
    act : ACT_SIGMOID or ACT_TANH
    returns (logps (D,), hidden (D, H) as a transposed view,
             final_pre_activation (H,))

doc_grads(...) same inputs, returns
    (logps (D,), dw_cols (D, H), dU (K, H), db (K,), dc (H,))
    where dw_cols[q] is the loss gradient w.r.t. the W column of word doc[q]
    (zero for the last position: its column feeds no later step).

window_counts(doc, n_tracked, p1, p2, window)
    doc : int64 (D,) of tracked-word ids in [0, n_tracked), -1 for untracked
          tokens.
    p1, p2 : int64 (P,) tracked-id pairs to count jointly (the caller scores
          only these; p1[k] != p2[k]).
    Counts sliding windows of the given width at stride 1 (a document shorter
    than the window is one window; an empty one has none).  Returns
    (singles (n_tracked,), joints (P,), n_windows), all int64 counts of
    windows: singles[i] contain word i, joints[k] contain both p1[k] and
    p2[k].  Memory grows with the tracked words the document contains, not
    with n_tracked.
"""

import ctypes
import functools
import glob
import os

import numpy as np

ACT_SIGMOID = 0
ACT_TANH = 1

# the one kernel implementation; benchmark records name it
BACKEND = "numpy"

EMPTY_LVT = np.zeros((0, 0))

# size cap of window_counts' per-block temporaries
_BLOCK_BYTES = 1 << 20


@functools.cache
def _blas_thread_getter():
    """The thread-count getter of the OpenBLAS bundled with numpy, or None."""
    libdir = os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter
    return None


def blas_threads():
    """The number of threads the BLAS numpy calls runs a GEMM on, or None when
    it cannot be read (numpy not linked against its bundled OpenBLAS)."""
    getter = _blas_thread_getter()
    return None if getter is None else getter()


def _activate(pre, act):
    """The activation of pre, in place; returns pre."""
    if act == ACT_TANH:
        return np.tanh(pre, out=pre)
    # 1 / (1 + exp(-pre)), one IEEE operation at a time
    np.negative(pre, out=pre)
    np.exp(pre, out=pre)
    pre += 1.0
    return np.divide(1.0, pre, out=pre)


def _pre_activations(doc, W, c, lvt, use_lvt):
    """Per-position pre-activations (H, D) and the gathered word columns (H, D)."""
    cols = W.take(doc, axis=1)
    if use_lvt:
        cols += lvt.take(doc, axis=1)
    pre = np.empty_like(cols)
    pre[:, 0] = c
    np.add.accumulate(cols[:, :-1], axis=1, out=pre[:, 1:])
    pre[:, 1:] += c[:, None]
    return pre, cols


def _shifted_exp(flat_idx, U, b, hid):
    """Picked log-probabilities (D,), exp(logits - m) (K, D) and its column sums z (D,).

    flat_idx[q] = doc[q] * D + q is the flat position of word q's logit.  m is
    the column maximum of the logits.  The exponentials overwrite the logits
    block in place; the picked logits are gathered before that.  The one
    log-softmax form, picked - (m + log z), serves both kernels.
    """
    logits = U @ hid
    logits += b[:, None]
    picked = logits.take(flat_idx)
    m = np.maximum.reduce(logits, axis=0)
    logits -= m
    np.exp(logits, out=logits)
    z = np.add.reduce(logits, axis=0)
    lz = np.log(z)
    lz += m
    picked -= lz
    return picked, logits, z


def _flat_index(doc):
    D = doc.shape[0]
    return doc * D + np.arange(D)


def doc_forward(doc, W, U, b, c, lvt, use_lvt, act):
    hid, cols = _pre_activations(doc, W, c, lvt, use_lvt)
    final = hid[:, -1] + cols[:, -1]
    _activate(hid, act)
    logps, _, _ = _shifted_exp(_flat_index(doc), U, b, hid)
    return logps, hid.T, final


def doc_grads(doc, W, U, b, c, lvt, use_lvt, act):
    D = doc.shape[0]
    hid, _ = _pre_activations(doc, W, c, lvt, use_lvt)
    _activate(hid, act)
    flat_idx = _flat_index(doc)
    logps, dlogits, z = _shifted_exp(flat_idx, U, b, hid)
    dlogits /= z
    dlogits.reshape(-1)[flat_idx] -= 1.0
    db = np.add.reduce(dlogits, axis=1)
    dU = dlogits @ hid.T
    # dh becomes da, the gradient at the pre-activations, in place
    dh = U.T @ dlogits
    if act == ACT_TANH:
        slope = hid * hid
        np.subtract(1.0, slope, out=slope)
    else:
        dh *= hid
        slope = np.subtract(1.0, hid)
    dh *= slope
    # dw_cols[q] is the suffix sum of da over positions q+1 .. D-1, summed
    # from the end; the last row is zero
    dw_cols = np.empty((D, dh.shape[0]))
    dw_cols[-1] = 0.0
    np.add.accumulate(dh.T[:0:-1], axis=0, out=dw_cols[-2::-1])
    # a one-word document copies da: adding it to a +0.0 start would turn a
    # -0.0 into +0.0
    dc = dw_cols[0] + dh[:, 0] if D > 1 else dh[:, 0].copy()
    return logps, dw_cols, dU, db, dc


def window_counts(doc, n_tracked, p1, p2, window):
    D = doc.shape[0]
    if 0 < D <= window:
        # one window: a word is present when it occurs at all
        present = np.zeros(n_tracked, dtype=bool)
        present[doc[doc >= 0]] = True
        joints = present[p1]
        joints &= present[p2]
        return present.astype(np.int64), joints.astype(np.int64), 1
    singles = np.zeros(n_tracked, dtype=np.int64)
    joints = np.zeros(p1.shape[0], dtype=np.int64)
    if D == 0:
        return singles, joints, 0
    n_windows = D - window + 1
    # only the tracked words that occur get a row: row_of maps a tracked id to
    # its row (-1 when absent), rows[j] is the row of the token at pos[j]
    pos = np.flatnonzero(doc >= 0)
    row_of = np.full(n_tracked, -1, dtype=np.int64)
    row_of[doc[pos]] = 0
    ids = np.flatnonzero(row_of == 0)
    row_of[ids] = np.arange(ids.size)
    rows = row_of[doc[pos]]
    # present[r, s]: word ids[r] occurs in window s, from hit-count prefix
    # sums over blocks of rows, so no temporary exceeds _BLOCK_BYTES; a
    # position holds one token, so each hit is set once
    present = np.empty((ids.size, n_windows), dtype=bool)
    step = max(1, _BLOCK_BYTES // (8 * (D + 1)))
    for lo in range(0, ids.size, step):
        hi = min(lo + step, ids.size)
        block = (rows >= lo) & (rows < hi)
        prefix = np.zeros((hi - lo, D + 1), dtype=np.int64)
        prefix[rows[block] - lo, pos[block] + 1] = 1
        np.cumsum(prefix, axis=1, out=prefix)
        np.greater(prefix[:, window:window + n_windows], prefix[:, :n_windows],
                   out=present[lo:hi])
    singles[ids] = present.sum(axis=1)
    # a pair with an absent word has no joint window
    r1, r2 = row_of[p1], row_of[p2]
    counted = np.flatnonzero((r1 >= 0) & (r2 >= 0))
    step = max(1, _BLOCK_BYTES // n_windows)
    for lo in range(0, counted.size, step):
        k = counted[lo:lo + step]
        both = present[r1[k]]
        both &= present[r2[k]]
        joints[k] = both.sum(axis=1)
    return singles, joints, n_windows
