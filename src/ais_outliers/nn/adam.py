"""Adam optimizer with bias correction.

m_t = b1*m + (1-b1)*g         v_t = b2*v + (1-b2)*g^2
m^ = m_t/(1-b1^t)             v^ = v_t/(1-b2^t)
p -= alpha * m^ / (sqrt(v^) + eps)

With epsilon outside the square root, the first step reduces to
-alpha * g / (|g| + eps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..errors import ShapeError

DEFAULT_ALPHA = 1e-3
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment vectors shaped like the parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    alpha: float = DEFAULT_ALPHA
    beta1: ClassVar[float] = BETA1  # constants, not fields: no caller sets them
    beta2: ClassVar[float] = BETA2
    eps: ClassVar[float] = EPS

    @classmethod
    def for_params(cls, params: np.ndarray, alpha: float = DEFAULT_ALPHA) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), alpha=alpha)


def adam_update(params: np.ndarray, grads: np.ndarray,
                state: AdamState) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam step over the whole parameter vector, updated
    in place; the (params, state) pair is returned for chaining."""
    if not params.shape == grads.shape == state.m.shape:
        raise ShapeError(f"gradient shape {grads.shape} and moment shape "
                         f"{state.m.shape} must equal parameter shape {params.shape}")
    state.step += 1
    m, v = state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * grads
    v *= BETA2
    v += (1.0 - BETA2) * grads * grads
    m_hat = m / (1.0 - BETA1 ** state.step)
    v_hat = v / (1.0 - BETA2 ** state.step)
    params -= state.alpha * m_hat / (np.sqrt(v_hat) + EPS)
    return params, state
