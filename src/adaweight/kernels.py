"""Multivariate Epanechnikov kernel with exact normalization.

K(u) = c_q * (1 - |u|^2)_+ on R^q, where c_q = (q + 2) / (2 V_q) and V_q is
the volume of the unit ball.  The kernel integrates to one, is symmetric and
is supported on the closed unit ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def ball_volume(q: int) -> float:
    """Volume of the unit ball in R^q.

    Uses the parity-split closed form with integer factorials, which is
    exact in floating point for q = 1 (volume 2).
    """
    if q < 1:
        raise ValueError("dimension must be a positive integer")
    half, rem = divmod(q, 2)
    if rem == 0:
        return math.pi**half / math.factorial(half)
    return 2.0**q * math.pi**half * math.factorial(half) / math.factorial(q)


def epanechnikov_constant(q: int) -> float:
    """Normalizing constant c_q making c_q*(1-|u|^2)_+ integrate to one."""
    return (q + 2) / (2.0 * ball_volume(q))


@dataclass(frozen=True)
class EpanechnikovKernel:
    """Epanechnikov kernel on R^dim."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be a positive integer")

    @property
    def norm_const(self) -> float:
        return epanechnikov_constant(self.dim)

    def __call__(self, u):
        """Evaluate K at one point (shape ``(dim,)``) or a batch ``(m, dim)``."""
        arr = np.asarray(u, dtype=float)
        if arr.ndim == 0 and self.dim == 1:
            arr = arr.reshape(1)
        if arr.shape[-1] != self.dim:
            raise ValueError(
                f"point dimension {arr.shape[-1]} does not match kernel dimension {self.dim}"
            )
        sq = np.sum(arr**2, axis=-1)
        out = self.norm_const * np.clip(1.0 - sq, 0.0, None)
        if out.ndim == 0:
            return float(out)
        return out

    def profile(self, sq_norm, out=None):
        """Evaluate K from precomputed squared norms |u|^2.

        With ``out`` (which may be ``sq_norm`` itself) the values are written
        there and no temporary is allocated.
        """
        one_minus = np.subtract(1.0, sq_norm, out=out)
        return np.multiply(self.norm_const, np.clip(one_minus, 0.0, None, out=out), out=out)
