"""Sequence-level layers: the recurrent scan with its backpropagation
through time, and the per-timestep dense output head.

One scan runs every direction of a layer, for either cell kind. The cell's
tensors carry a leading direction axis K: w_x (K, D, G·H), w_h (K, H, G·H)
and b (K, G·H), with K = 1 for a unidirectional layer and K = 2 for a
bidirectional one. Direction 0 reads the sequence forward and direction 1
backward, so each time step is one batched matmul of the (K, B, H) states
against the recurrent weights plus one set of elementwise ops. A training
scan (one that keeps a cache) of a K = 2 batch above `_STACK_MAX_BATCH`
runs the two directions as two one-direction scans of the same kernel:
at that size the per-step ops are bandwidth-bound, so stacking saves
little, while a stacked cache must be copied back to time order for the
gradient GEMMs.

The scan's buffers are step-major, (T, K, B, H), and in *scan order*:
step i of direction 1 is time T-1-i. Its inputs go in time-reversed and
its outputs come back time-aligned. Gate activations are gate-major,
(T, G, K, B, H), so every per-step operand is one contiguous block. A scan
without a cache keeps one step of them and a ring of two (K, B, H) states,
and each step copies its new states into the time-aligned (B, T, K, H)
output: direction 0 at time i, direction 1 at time T-1-i. An eval scan
thus holds its output, one time chunk of the input projection and a few
(K, B, H) rows; only the output grows with T. The cache keeps scan order;
the weight- and input-gradient GEMMs take each direction's rows in time
order, as (K, T·B, .) copies with the gates side by side, so every sum
over the T·B rows runs in the same order as a scan of that direction
alone would.

The scan follows Appleyard, Kočiský and Blunsom (arXiv:1604.01946): the
input projection is one GEMM over many timesteps before the steps that use
it, and the backward pass saves the pre-activation gradients of every step
so the weight and input gradients are GEMMs over all timesteps after the
loop. The projection runs in time chunks of bounded size, so its buffer
does not grow with the sequence, K or G.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .cells import CellParams, step

_CHUNK_BYTES = 1 << 17  # input projection per chunk of timesteps
_STACK_MAX_BATCH = 32  # largest training batch whose directions scan stacked


def _in_time_order(a: np.ndarray, direction: int) -> np.ndarray:
    """A direction's (T, ...) scan-ordered slice in time order, or back (a view)."""
    return a[::-1] if direction else a


def _time_rows(a: np.ndarray, directions: range) -> np.ndarray:
    """Scan-ordered (T, K, B, ...) → (K, T·B, W): each direction's rows in
    time order, the trailing axes flattened into W (a view where the
    layout allows). `directions` are the stack's entries' directions."""
    timesteps, k, batch = a.shape[:3]
    if directions == range(1):  # forward only: scan order is time order
        return a.swapaxes(0, 1).reshape(k, timesteps * batch, -1)
    rows = np.empty((k, *a.shape[:1], *a.shape[2:]))
    for j, d in enumerate(directions):
        rows[j] = _in_time_order(a[:, j], d)
    return rows.reshape(k, timesteps * batch, -1)


def _scan_inputs(x: np.ndarray, directions: range, mask: np.ndarray | None,
                 start: int, stop: int) -> np.ndarray:
    """Scan steps [start, stop) of each direction's masked input, (K, n, B, D),
    from the time-major (T, B, D) sequence `x`."""
    timesteps = len(x)
    xm = np.empty((len(directions), stop - start, *x.shape[1:]))
    for j, d in enumerate(directions):
        xm[j] = _in_time_order(x[timesteps - stop:timesteps - start] if d else x[start:stop], d)
    if mask is not None:
        xm *= mask[:, None]
    return xm


def unroll(
    seq: np.ndarray,
    cell: CellParams,
    input_mask: np.ndarray | None = None,
    recurrent_mask: np.ndarray | None = None,
    want_cache: bool = False,
) -> tuple[np.ndarray, list[dict] | None]:
    """Run one recurrent layer over a (B, T, D) sequence from a zero state.

    `cell` holds the layer's K directions stacked (see the module doc).
    Masks, when given, are (K, B, D) / (K, B, H) and are reapplied
    unchanged at every step. Returns `(h_seq, cache)`: h_seq is (B, T, K·H),
    the directions' states side by side and aligned with time, so entry t
    of the backward half is the state after consuming x[T-1..t]. The cache
    is None unless `want_cache` is set; then it holds one dict per scan run
    (the whole stack, or each direction of a split batch) of scan-ordered
    arrays: the masked inputs `xm` (K, T, B, D), the states `hs`
    (T+1, K, B, H) where hs[i] is the state step i starts from, the masked
    states `hm` (T, K, B, H) each step used, and the gates `acts`
    (T, G, K, B, H), with K counting that scan's directions.
    """
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 3 or seq.shape[-1] != cell.input_size:
        raise ShapeError(
            f"layer input must be (B, T, {cell.input_size}), got {seq.shape}")
    k = len(cell.w_x)
    if cell.w_x.ndim != 3 or k not in (1, 2):
        raise ShapeError(f"cell tensors need a direction axis of 1 or 2, got w_x {cell.w_x.shape}")
    if not (want_cache and k == 2 and len(seq) > _STACK_MAX_BATCH):
        h_seq, cache = _scan(seq, cell, input_mask, recurrent_mask, want_cache, range(k))
        return h_seq, [cache] if want_cache else None
    runs = [_scan(seq, cell[d:d + 1], None if input_mask is None else input_mask[d:d + 1],
                  None if recurrent_mask is None else recurrent_mask[d:d + 1],
                  True, range(d, d + 1)) for d in range(k)]
    return np.concatenate([h for h, _ in runs], axis=-1), [cache for _, cache in runs]


def unroll_backward(
    d_hseq: np.ndarray, cell: CellParams, cache: list[dict]
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """BPTT through one unrolled layer.

    `d_hseq` is the loss gradient w.r.t. the layer's (B, T, K·H) output and
    `cache` the one `unroll` returned. Returns the gradient w.r.t. the
    layer's raw (B, T, D) input, summed over the directions in order, plus
    a parameter-gradient dict keyed like the cell's tensors, each stacked
    (K, ...) like them.
    """
    if len(cache) == 1:
        return _scan_backward(d_hseq, cell, cache[0])
    h = cell.hidden_size
    (d_x0, g0), (d_x1, g1) = [
        _scan_backward(d_hseq[..., d * h:(d + 1) * h], cell[d:d + 1], run)
        for d, run in enumerate(cache)]
    return d_x0 + d_x1, {name: np.concatenate([g0[name], g1[name]]) for name in g0}


def _scan(seq: np.ndarray, cell: CellParams, input_mask: np.ndarray | None,
          recurrent_mask: np.ndarray | None, want_cache: bool,
          directions: range) -> tuple[np.ndarray, dict | None]:
    """`unroll` as one scan of the stacked `directions`; the cache is one dict."""
    k, h, gates = len(cell.w_x), cell.hidden_size, cell.gates
    batch, timesteps, features = seq.shape
    x = seq.transpose(1, 0, 2)
    rows = timesteps if want_cache else 1  # steps kept: all for the cache, else one
    chunk = max(1, _CHUNK_BYTES // (k * batch * gates * h * 8))
    xm = _scan_inputs(x, directions, input_mask, 0, timesteps) if want_cache else None
    # All T+1 states for the cache; else a ring of two, step i reading row
    # i % 2 and writing the other.
    hs = np.zeros((rows + 1, k, batch, h))
    acts = np.empty((rows, gates, k, batch, h))
    hm = hs[:-1] if recurrent_mask is None else np.empty((rows, k, batch, h))
    h_seq = np.empty((batch, timesteps, k, h))

    for i in range(timesteps):
        if i % chunk == 0:
            stop = min(i + chunk, timesteps)
            xc = xm[:, i:stop] if want_cache else _scan_inputs(x, directions, input_mask, i, stop)
            xw = np.matmul(xc.reshape(k, -1, features), cell.w_x)
            xw += cell.b[:, None]
            # (K, n·B, G·H) → gate-major steps (n, G, K, B, H)
            xw = np.ascontiguousarray(xw.reshape(k, -1, batch, gates, h).transpose(1, 3, 0, 2, 4))
        row = i % rows
        h_prev, h_next = hs[i % len(hs)], hs[(i + 1) % len(hs)]
        hm_i = (h_prev if recurrent_mask is None
                else np.multiply(h_prev, recurrent_mask, out=hm[row]))
        step(xw[i % chunk], h_prev, hm_i, cell, acts[row], h_next)
        if not want_cache:  # the ring reuses this row two steps on
            for j, d in enumerate(directions):
                h_seq[:, timesteps - 1 - i if d else i, j] = h_next[j]

    cache = None
    if want_cache:
        for j, d in enumerate(directions):
            h_seq[:, :, j] = _in_time_order(hs[1:, j], d).transpose(1, 0, 2)
        cache = {"xm": xm, "hs": hs, "hm": hm, "acts": acts, "input_mask": input_mask,
                 "recurrent_mask": recurrent_mask, "directions": directions}
    return h_seq.reshape(batch, timesteps, k * h), cache


def _scan_backward(d_hseq: np.ndarray, cell: CellParams,
                   cache: dict) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """`unroll_backward` through one scan's cache."""
    xm, hs, hm, acts = cache["xm"], cache["hs"], cache["hm"], cache["acts"]
    recurrent_mask = cache["recurrent_mask"]
    timesteps, gates, k, batch, h = acts.shape
    directions = cache["directions"]
    g = gates - 1  # the sigmoid gates z, r
    w_h_gates = cell.w_h[..., :g * h].transpose(0, 2, 1)
    w_h_cand = cell.w_h[..., g * h:].transpose(0, 2, 1)
    d_out = d_hseq.reshape(batch, timesteps, k, h)
    d_h = np.empty((timesteps, k, batch, h))  # scan order
    for j, d in enumerate(directions):
        d_h[:, j] = _in_time_order(d_out[:, :, j].transpose(1, 0, 2), d)
    d_pre = np.empty_like(acts)  # pre-activation gradients, gate-major
    carry = 0.0  # gradient flowing into h at the next (reversed) scan step

    for i in range(timesteps - 1, -1, -1):
        dh = d_h[i] + carry
        cand, dp = acts[i, g], d_pre[i]
        if g:
            z, r = acts[i, 0], acts[i, 1]
            keep = 1.0 - z
            dz, d_cand, d_direct = dh * (cand - hs[i]), dh * z, dh * keep
        else:
            d_cand, d_direct = dh, 0.0
        np.multiply(d_cand, 1.0 - cand ** 2, out=dp[g])
        d_hm = np.matmul(dp[g], w_h_cand)
        if g:
            np.multiply(d_hm * hm[i] * r, 1.0 - r, out=dp[1])
            np.multiply(dz * z, keep, out=dp[0])
            d_gates = dp[:g].transpose(1, 2, 0, 3).reshape(k, batch, g * h)  # side by side
            d_hm = d_hm * r + np.matmul(d_gates, w_h_gates)
        carry = d_direct + (d_hm if recurrent_mask is None else d_hm * recurrent_mask)

    flat = _time_rows(d_pre.transpose(0, 2, 3, 1, 4), directions)  # (K, T·B, G·H) as in w_x
    hm_rows = _time_rows(hm, directions)
    # the candidate's recurrent input: the state, or the reset-gated state
    cand_state = hm_rows if not g else _time_rows(acts[:, 1] * hm, directions)
    d_w_h = np.empty_like(cell.w_h)
    d_w_h[..., :g * h] = np.matmul(hm_rows.transpose(0, 2, 1), flat[..., :g * h])
    d_w_h[..., g * h:] = np.matmul(cand_state.transpose(0, 2, 1), flat[..., g * h:])
    xm_rows = _time_rows(xm.transpose(1, 0, 2, 3), directions)
    grads = {"w_x": np.matmul(xm_rows.transpose(0, 2, 1), flat), "w_h": d_w_h,
             "b": flat.sum(axis=1)}
    d_x = np.matmul(flat, cell.w_x.transpose(0, 2, 1)).reshape(k, timesteps, batch, -1)
    if cache["input_mask"] is not None:
        d_x *= cache["input_mask"][:, None]
    return d_x.sum(axis=0).transpose(1, 0, 2), grads


def dense_per_timestep(hidden_seq: np.ndarray, w_out: np.ndarray,
                       b_out: np.ndarray) -> np.ndarray:
    """tanh(h_t @ w_out + b_out) applied at every timestep."""
    hidden_seq = np.asarray(hidden_seq)
    if hidden_seq.shape[-1] != w_out.shape[0]:
        raise ShapeError(
            f"dense layer expects {w_out.shape[0]} inputs, got {hidden_seq.shape[-1]}")
    return np.tanh(hidden_seq @ w_out + b_out)


def dense_backward(d_out: np.ndarray, hidden_seq: np.ndarray, out: np.ndarray,
                   w_out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the dense head: returns (d_hidden, d_w, d_b)."""
    da = d_out * (1.0 - out ** 2)
    flat_h = hidden_seq.reshape(-1, hidden_seq.shape[-1])
    flat_da = da.reshape(-1, da.shape[-1])
    d_w = flat_h.T @ flat_da
    d_b = flat_da.sum(axis=0)
    return da @ w_out.T, d_w, d_b
