"""Recurrent cells: fused SimpleRNN/GRU parameters and the one step body.

Weights are fused and input-major: a cell with G gates of H units stores
w_x (D, G·H), w_h (H, G·H) and b (G·H,), so pre-activations are
x @ w_x + h @ w_h + b. G is 1 for SimpleRNN and 3 for GRU, whose column
blocks are the update gate z, the reset gate r and the candidate h~, in
that order. Everything runs in float64; batched inputs are (B, D).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Iterator

import numpy as np

from ..errors import ShapeError

GRU_CONVENTIONS = ("z_gates_candidate", "z_gates_state")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5*(1 + tanh(x/2)), which cannot overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


@dataclass(frozen=True)
class CellParams:
    """Fused tensors of a recurrent cell with `gates` blocks of H columns."""

    w_x: np.ndarray  # (D, G·H)
    w_h: np.ndarray  # (H, G·H)
    b: np.ndarray    # (G·H,)

    gates: ClassVar[int] = 1

    def __post_init__(self):
        h = self.w_h.shape[0]
        width = self.gates * h
        if (self.w_x.ndim != 2 or self.w_x.shape[1] != width
                or self.w_h.shape != (h, width) or self.b.shape != (width,)):
            raise ShapeError(
                f"inconsistent {type(self).__name__} shapes for {self.gates} gate(s): "
                f"w_x {self.w_x.shape}, w_h {self.w_h.shape}, b {self.b.shape}")

    @property
    def input_size(self) -> int:
        return self.w_x.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[0]

    def tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        for f in fields(self):
            yield f.name, getattr(self, f.name)


class SimpleRnnCellParams(CellParams):
    """h_t = tanh(x @ w_x + h_prev @ w_h + b)."""

    gates = 1


def _gate_view(tensor: str, gate: int) -> property:
    def view(self):
        h = self.hidden_size
        return getattr(self, tensor)[..., gate * h:(gate + 1) * h]
    return property(view, doc=f"Column block {gate} of `{tensor}` (a view).")


class GruCellParams(CellParams):
    """Gates: update z, reset r, candidate h~, fused in that column order.

    The per-gate tensors (`w_xz`, `w_hz`, `b_z`, ... `b_h`) are views into
    the fused ones.
    """

    gates = 3
    w_xz, w_hz, b_z = (_gate_view(t, 0) for t in ("w_x", "w_h", "b"))
    w_xr, w_hr, b_r = (_gate_view(t, 1) for t in ("w_x", "w_h", "b"))
    w_xh, w_hh, b_h = (_gate_view(t, 2) for t in ("w_x", "w_h", "b"))


def step(xw: np.ndarray, h_prev: np.ndarray, hm: np.ndarray, cell: CellParams,
         convention: str = "z_gates_candidate") -> tuple[np.ndarray, np.ndarray]:
    """One recurrent step from the projected input `xw = x @ w_x + b` (.., G·H).

    `hm` is the state on the weighted paths (h_prev under the recurrent
    dropout mask); the direct carry of the GRU blend uses the unmasked
    `h_prev`. Returns (h, acts), where acts holds the post-activation
    gates: z, r, h~ for GRU and h~ (which is h) for SimpleRNN. This is the
    loop body of `layers.unroll`.
    """
    h = cell.hidden_size
    s = (cell.gates - 1) * h  # width of the sigmoid gates z, r
    acts = np.empty_like(xw)
    if s:
        acts[..., :s] = sigmoid(xw[..., :s] + hm @ cell.w_h[:, :s])
        hm = acts[..., h:s] * hm  # the reset gate scales the candidate's state
    acts[..., s:] = np.tanh(xw[..., s:] + hm @ cell.w_h[:, s:])
    if not s:
        return acts, acts
    z, cand = acts[..., :h], acts[..., s:]
    if convention == "z_gates_candidate":
        return (1.0 - z) * h_prev + z * cand, acts
    return z * h_prev + (1.0 - z) * cand, acts


def _single_step(x, h_prev, p: CellParams, convention: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    if x.shape[-1] != p.input_size:
        raise ShapeError(f"input has {x.shape[-1]} features, cell expects {p.input_size}")
    if h_prev.shape[-1] != p.hidden_size:
        raise ShapeError(f"state has {h_prev.shape[-1]} units, cell expects {p.hidden_size}")
    if x.shape[:-1] != h_prev.shape[:-1]:
        raise ShapeError(f"batch mismatch between input {x.shape} and state {h_prev.shape}")
    if convention not in GRU_CONVENTIONS:
        raise ShapeError(f"unknown GRU convention {convention!r}")
    return step(x @ p.w_x + p.b, h_prev, h_prev, p, convention)[0]


def simple_rnn_step(x: np.ndarray, h_prev: np.ndarray, p: SimpleRnnCellParams) -> np.ndarray:
    """One SimpleRNN step: tanh(x @ w_x + h_prev @ w_h + b)."""
    return _single_step(x, h_prev, p, "z_gates_candidate")


def gru_step(
    x: np.ndarray,
    h_prev: np.ndarray,
    p: GruCellParams,
    convention: str = "z_gates_candidate",
) -> np.ndarray:
    """One GRU step.

    z = sigmoid(x W_xz + h W_hz + b_z)
    r = sigmoid(x W_xr + h W_hr + b_r)
    h~ = tanh(x W_xh + (r * h) W_hh + b_h)
    h_t = (1 - z) * h + z * h~          ("z_gates_candidate", the default)
    h_t = z * h + (1 - z) * h~          ("z_gates_state")
    """
    return _single_step(x, h_prev, p, convention)
