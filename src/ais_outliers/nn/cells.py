"""Recurrent cells: fused SimpleRNN/GRU parameters and the one step body.

Weights are fused and input-major: a cell with G gates of H units stores
w_x (D, G·H), w_h (H, G·H) and b (G·H,), so pre-activations are
x @ w_x + h @ w_h + b. G is 1 for SimpleRNN and 3 for GRU, whose column
blocks are the update gate z, the reset gate r and the candidate h~, in
that order. The tensors of a layer's directions may be stacked along a
leading direction axis K: w_x (K, D, G·H), w_h (K, H, G·H), b (K, G·H).
Everything runs in float64; batched inputs are (B, D), or (K, B, D) for
stacked tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Iterator

import numpy as np

from ..errors import ShapeError


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as 0.5*(1 + tanh(x/2)), which cannot overflow.

    Written into `out` when given (which may be `x` itself).
    """
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


@dataclass(frozen=True)
class CellParams:
    """Fused tensors of a recurrent cell with `gates` blocks of H columns."""

    w_x: np.ndarray  # ([K,] D, G·H)
    w_h: np.ndarray  # ([K,] H, G·H)
    b: np.ndarray    # ([K,] G·H)

    gates: ClassVar[int] = 1

    def __post_init__(self):
        lead, h = self.w_h.shape[:-2], self.w_h.shape[-2] if self.w_h.ndim >= 2 else -1
        width = self.gates * h
        if (self.w_h.shape != (*lead, h, width) or self.w_x.ndim != self.w_h.ndim
                or self.w_x.shape[:-2] != lead or self.w_x.shape[-1] != width
                or self.b.shape != (*lead, width)):
            raise ShapeError(
                f"inconsistent {type(self).__name__} shapes for {self.gates} gate(s): "
                f"w_x {self.w_x.shape}, w_h {self.w_h.shape}, b {self.b.shape}")

    @property
    def input_size(self) -> int:
        return self.w_x.shape[-2]

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[-2]

    def tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        for f in fields(self):
            yield f.name, getattr(self, f.name)

    def __getitem__(self, directions) -> "CellParams":
        """Stacked tensors indexed on the direction axis, as a cell of views."""
        return type(self)(*(arr[directions] for _, arr in self.tensors()))


class SimpleRnnCellParams(CellParams):
    """h_t = tanh(x @ w_x + h_prev @ w_h + b)."""

    gates = 1


class GruCellParams(CellParams):
    """Gates: update z, reset r, candidate h~, fused in that column order.

    With W_xz the z block of w_x, and so on:

    z = sigmoid(x W_xz + h W_hz + b_z)
    r = sigmoid(x W_xr + h W_hr + b_r)
    h~ = tanh(x W_xh + (r * h) W_hh + b_h)
    h_t = (1 - z) * h + z * h~

    The other common form, h_t = z * h + (1 - z) * h~, is this cell with the
    update gate's weights and bias negated: sigmoid(-a) = 1 - sigmoid(a).
    """

    gates = 3


def _gate_major(a: np.ndarray, gates: int, h: int) -> np.ndarray:
    """A (.., gates·H) array as a gate-major (gates, .., H) view."""
    a = a.reshape(*a.shape[:-1], gates, h)
    return a.transpose(a.ndim - 2, *range(a.ndim - 2), a.ndim - 1)


def step(xw: np.ndarray, h_prev: np.ndarray, hm: np.ndarray, cell: CellParams,
         acts: np.ndarray, h_out: np.ndarray) -> None:
    """One recurrent step from the projected input `xw = x @ w_x + b`.

    `xw` and `acts` are gate-major, (G, .., H): one block per gate, so each
    gate is a contiguous array. `hm` is the state on the weighted paths
    (h_prev under the recurrent dropout mask); the direct carry of the GRU
    blend uses the unmasked `h_prev`. Writes the post-activation gates into
    `acts` (z, r, h~ for GRU; h~, which is h, for SimpleRNN) and the new
    state into `h_out` (.., H). With stacked cell tensors the states carry
    the same leading direction axis, and each product is one batched
    matmul. This is the loop body of `layers.unroll`.
    """
    h = cell.hidden_size
    g = cell.gates - 1  # the sigmoid gates z, r
    if g:
        pre = np.matmul(hm, cell.w_h[..., :g * h])  # (.., g·H), gates side by side
        gates = np.add(_gate_major(pre, g, h), xw[:g], out=acts[:g])
        sigmoid(gates, out=gates)
        z, r = gates
        hm = r * hm  # the reset gate scales the candidate's state
    cand = np.matmul(hm, cell.w_h[..., g * h:], out=acts[g])
    cand += xw[g]
    np.tanh(cand, out=cand)
    if not g:
        h_out[...] = cand
        return
    np.multiply(z, cand, out=h_out)  # h = z * h~ + (1 - z) * h_prev
    rest = 1.0 - z
    rest *= h_prev
    h_out += rest
