"""Adam parameter updates over a ParamStore."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamState:
    """First/second moment estimates and the step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0

    @classmethod
    def initial(cls, params) -> "AdamState":
        m = {name: np.zeros_like(t.data) for name, t in params.named_tensors().items()}
        v = {name: np.zeros_like(t.data) for name, t in params.named_tensors().items()}
        return cls(m=m, v=v, t=0)


def adam_step(params, state: AdamState, learning_rate: float,
              beta1: float, beta2: float, epsilon: float) -> None:
    """One Adam update in place.

    t += 1; m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g^2;
    theta <- theta - lr * mhat / (sqrt(vhat) + eps) with bias-corrected
    mhat = m/(1-b1^t), vhat = v/(1-b2^t). Every parameter must carry a
    gradient from the preceding backward pass.
    """
    tensors = params.named_tensors()
    for name, t in tensors.items():
        if t.grad is None:
            raise ValueError(f"missing gradient for parameter {name!r}")
    state.t += 1
    step = state.t
    c1 = 1.0 - beta1 ** step
    c2 = 1.0 - beta2 ** step
    for name, t in tensors.items():
        g = t.grad
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        t.data -= learning_rate * (m / c1) / (np.sqrt(v / c2) + epsilon)
