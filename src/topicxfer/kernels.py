"""Hot per-document kernels behind the model and the coherence counter.

All kernels are vectorized numpy: a cumulative sum gives every position's
pre-activation at once and one GEMM gives every position's logits.  The
softmax then works in place on that (K, D) logits block; no kernel writes to
its inputs.  Both kernels take their log-probabilities from one log-softmax,
so doc_forward and doc_grads give bit-equal logps for the same inputs.

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

import numpy as np

ACT_SIGMOID = 0
ACT_TANH = 1

# the one kernel implementation; benchmark records name it
BACKEND = "numpy"

EMPTY_LVT = np.zeros((0, 0))

# size cap of window_counts' per-block temporaries
_BLOCK_BYTES = 1 << 20


def _activation(pre, act):
    if act == ACT_TANH:
        return np.tanh(pre)
    return 1.0 / (1.0 + np.exp(-pre))


def _pre_activations(doc, W, c, lvt, use_lvt):
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


def _shifted_exp(doc, U, b, hid):
    """Picked log-probabilities (D,), exp(logits - m) (K, D) and its column sums z (D,).

    m is the column maximum of the logits.  The exponentials overwrite the
    logits block in place; the picked logits are gathered before that.  The
    one log-softmax form, picked - (m + log z), serves both kernels.
    """
    logits = U @ hid
    logits += b[:, None]
    picked = logits[doc, np.arange(doc.shape[0])]
    m = logits.max(axis=0)
    logits -= m
    np.exp(logits, out=logits)
    z = logits.sum(axis=0)
    return picked - (m + np.log(z)), logits, z


def doc_forward(doc, W, U, b, c, lvt, use_lvt, act):
    pre, final = _pre_activations(doc, W, c, lvt, use_lvt)
    hid = _activation(pre, act)
    logps, _, _ = _shifted_exp(doc, U, b, hid)
    return logps, hid.T, final


def doc_grads(doc, W, U, b, c, lvt, use_lvt, act):
    D = doc.shape[0]
    pre, _ = _pre_activations(doc, W, c, lvt, use_lvt)
    hid = _activation(pre, act)
    logps, dlogits, z = _shifted_exp(doc, U, b, hid)
    dlogits /= z
    dlogits[doc, np.arange(D)] -= 1.0
    db = dlogits.sum(axis=1)
    dU = dlogits @ hid.T
    dh = U.T @ dlogits
    if act == ACT_TANH:
        da = dh * (1.0 - hid * hid)
    else:
        da = dh * hid * (1.0 - hid)
    suffix = np.cumsum(da[:, ::-1], axis=1)[:, ::-1]
    dw_cols = np.zeros((D, da.shape[0]))
    if D > 1:
        dw_cols[:-1] = suffix[:, 1:].T
    dc = suffix[:, 0]
    return logps, dw_cols, dU, db, dc


def window_counts(doc, n_tracked, p1, p2, window):
    D = doc.shape[0]
    singles = np.zeros(n_tracked, dtype=np.int64)
    joints = np.zeros(p1.shape[0], dtype=np.int64)
    if D == 0:
        return singles, joints, 0
    width = min(window, D)
    n_windows = D - width + 1
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
        np.greater(prefix[:, width:width + n_windows], prefix[:, :n_windows],
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
