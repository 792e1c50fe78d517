"""Sequence-level layers: the recurrent scan (either cell kind, either
direction) with its backpropagation through time, and the per-timestep
dense output head.

The scan follows Appleyard, Kočiský and Blunsom (arXiv:1604.01946): the
input projection for all timesteps is one GEMM before the time loop, and
the backward pass saves the pre-activation gradients of every step so the
weight and input gradients are GEMMs over all timesteps after the loop.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .cells import CellParams, step


def _scan_order(timesteps: int, direction: str) -> list[int]:
    if direction == "forward":
        return list(range(timesteps))
    if direction == "backward":
        return list(range(timesteps - 1, -1, -1))
    raise ShapeError(f"direction must be 'forward' or 'backward', got {direction!r}")


def unroll(
    seq: np.ndarray,
    cell: CellParams,
    direction: str = "forward",
    input_mask: np.ndarray | None = None,
    recurrent_mask: np.ndarray | None = None,
    gru_convention: str = "z_gates_candidate",
    want_cache: bool = False,
) -> tuple[np.ndarray, dict | None]:
    """Run one recurrent layer over a (B, T, D) sequence from a zero state.

    The output (B, T, H) is aligned with time for both directions: entry t
    of a backward pass is the state after consuming x[T-1..t]. Masks, when
    given, are (B, D) / (B, H) and are reapplied unchanged at every step.
    Returns `(h_seq, cache)`. The cache is None unless `want_cache` is set;
    then it holds time-major (T, B, .) arrays indexed by timestep: the
    masked inputs `xm`, the states `h_prev` and masked states `hm` each
    step started from, and the post-activation gates `acts`.
    """
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 3 or seq.shape[-1] != cell.input_size:
        raise ShapeError(
            f"layer input must be (B, T, {cell.input_size}), got {seq.shape}")
    batch, timesteps, features = seq.shape
    order = _scan_order(timesteps, direction)

    xm = np.array(seq.transpose(1, 0, 2), order="C")  # time-major copy
    if input_mask is not None:
        xm *= input_mask
    xw = (xm.reshape(-1, features) @ cell.w_x).reshape(timesteps, batch, cell.w_x.shape[1])
    xw += cell.b
    h = np.zeros((batch, cell.hidden_size))
    h_seq = np.empty((timesteps, batch, cell.hidden_size))
    cache = None
    if want_cache:
        cache = {"xm": xm, "h_prev": np.empty_like(h_seq), "hm": np.empty_like(h_seq),
                 "acts": np.empty_like(xw), "order": order, "input_mask": input_mask,
                 "recurrent_mask": recurrent_mask, "gru_convention": gru_convention}

    for t in order:
        hm = h if recurrent_mask is None else h * recurrent_mask
        h_prev = h
        h, acts = step(xw[t], h_prev, hm, cell, gru_convention)
        h_seq[t] = h
        if cache is not None:
            cache["h_prev"][t], cache["hm"][t], cache["acts"][t] = h_prev, hm, acts
    return h_seq.transpose(1, 0, 2), cache


def unroll_backward(
    d_hseq: np.ndarray, cell: CellParams, cache: dict
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """BPTT through one unrolled layer.

    `d_hseq` is the loss gradient w.r.t. the layer's (B, T, H) output and
    `cache` the one `unroll` returned. Returns the gradient w.r.t. the
    layer's raw input sequence plus a parameter-gradient dict keyed like
    the cell's tensors.
    """
    xm, h_prev, hm, acts = cache["xm"], cache["h_prev"], cache["hm"], cache["acts"]
    recurrent_mask = cache["recurrent_mask"]
    h = cell.hidden_size
    s = (cell.gates - 1) * h  # width of the sigmoid gates z, r
    w_h_gates, w_h_cand = cell.w_h[:, :s], cell.w_h[:, s:]
    d_h = d_hseq.transpose(1, 0, 2)
    d_pre = np.empty_like(acts)  # pre-activation gradients, (T, B, G·H)
    carry = 0.0  # gradient flowing into h at the next (reversed) scan step

    for t in reversed(cache["order"]):
        dh = d_h[t] + carry
        cand = acts[t, :, s:]
        if s:
            z, r = acts[t, :, :h], acts[t, :, h:s]
            if cache["gru_convention"] == "z_gates_candidate":
                dz, d_cand, d_direct = dh * (cand - h_prev[t]), dh * z, dh * (1.0 - z)
            else:
                dz, d_cand, d_direct = dh * (h_prev[t] - cand), dh * (1.0 - z), dh * z
        else:
            d_cand, d_direct = dh, 0.0
        d_pre[t, :, s:] = d_cand * (1.0 - cand ** 2)
        d_hm = d_pre[t, :, s:] @ w_h_cand.T
        if s:
            d_pre[t, :, h:s] = d_hm * hm[t] * r * (1.0 - r)
            d_pre[t, :, :h] = dz * z * (1.0 - z)
            d_hm = d_hm * r + d_pre[t, :, :s] @ w_h_gates.T
        carry = d_direct + (d_hm if recurrent_mask is None else d_hm * recurrent_mask)

    flat = d_pre.reshape(-1, d_pre.shape[-1])
    cand_state = hm if not s else acts[..., h:s] * hm  # the candidate's recurrent input
    d_w_h = np.empty_like(cell.w_h)
    d_w_h[:, :s] = hm.reshape(-1, h).T @ flat[:, :s]
    d_w_h[:, s:] = cand_state.reshape(-1, h).T @ flat[:, s:]
    grads = {"w_x": xm.reshape(-1, xm.shape[-1]).T @ flat, "w_h": d_w_h,
             "b": flat.sum(axis=0)}
    d_x = (flat @ cell.w_x.T).reshape(xm.shape)
    if cache["input_mask"] is not None:
        d_x *= cache["input_mask"]
    return d_x.transpose(1, 0, 2), grads


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
