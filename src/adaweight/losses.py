"""Loss functions for weighted regression.

Every admissible loss rho is convex, nonnegative, vanishes at zero and has
rho'(0) = 0, which keeps the optimal weight function equal to a plain ratio
of curvature over squared score.  Three families are provided:

* ``square``:  rho(t) = t^2
* ``huber``:   rho(t) = t^2/2 for t <= c, c*(t - c/2) beyond the cutoff c
* ``power``:   rho(t) = t^p with exponent p > 1

Besides rho and its derivatives, each loss exposes the two residual
transforms used throughout the weight machinery:

* ``g1(e) = rho'(|e|)^2``   (squared score)
* ``g2(e) = rho''(|e|)``    (curvature)

Both are even functions of the signed residual ``e``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

FAMILIES = ("square", "huber", "power")


def _eval(fn, t):
    """Apply ``fn`` to an array view of ``t``, returning a float for scalars."""
    arr = np.asarray(t, dtype=float)
    out = fn(arr)
    if arr.ndim == 0:
        return float(out)
    return out


def _eval_nonnegative(fn, t, name: str):
    """:func:`_eval` on ``t >= 0``; a negative entry raises ValueError."""
    if np.any(np.asarray(t, dtype=float) < 0):
        raise ValueError(f"{name} is defined on nonnegative arguments only")
    return _eval(fn, t)


@dataclass(frozen=True)
class LossFunction:
    """A parametrized loss family.

    Use the constructors :meth:`square`, :meth:`huber` and :meth:`power`
    rather than instantiating directly.
    """

    family: str
    cutoff: float | None = None
    exponent: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DataError(f"unknown loss family {self.family!r}")
        if self.family == "huber":
            if self.cutoff is None or not 0 < self.cutoff < np.inf:
                raise DataError("huber cutoff must be a positive real")
        if self.family == "power":
            if self.exponent is None or not self.exponent > 1:
                raise DataError("power exponent must be > 1")
            if self.exponent == np.inf:
                raise DataError("power exponent must be finite")

    @classmethod
    def square(cls) -> "LossFunction":
        return cls("square")

    @classmethod
    def huber(cls, cutoff: float) -> "LossFunction":
        return cls("huber", cutoff=float(cutoff))

    @classmethod
    def power(cls, exponent: float) -> "LossFunction":
        return cls("power", exponent=float(exponent))

    def rho(self, t):
        """Evaluate rho(t) for t >= 0."""
        return _eval_nonnegative(self._rho, t, "rho")

    def rho_prime(self, t):
        """First derivative rho'(t) for t >= 0."""
        return _eval_nonnegative(self._rho_prime, t, "rho'")

    def rho_second(self, t):
        """Second derivative rho''(t) for t >= 0.

        For the Huber family the boundary point t == c is assigned the
        inside value 1 (left-continuous convention), so tests are
        deterministic on the measure-zero boundary.
        """
        return _eval_nonnegative(self._rho_second, t, "rho''")

    def g1(self, e):
        """Squared score rho'(|e|)^2 of a signed residual."""
        return _eval(lambda a: self._rho_prime(np.abs(a)) ** 2, e)

    def g2(self, e):
        """Curvature rho''(|e|) of a signed residual."""
        return _eval(lambda a: self._rho_second(np.abs(a)), e)

    # family formulas: unchecked kernels on a nonnegative array.  The
    # M-solver calls them on |e| directly, skipping the sign check and the
    # scalar handling of the public methods above.

    def _rho(self, t):
        if self.family == "square":
            return t**2
        if self.family == "huber":
            c = self.cutoff
            return np.where(t <= c, 0.5 * t**2, c * (t - 0.5 * c))
        return t**self.exponent

    def _rho_prime(self, t):
        if self.family == "square":
            return 2.0 * t
        if self.family == "huber":
            return np.minimum(t, self.cutoff)
        p = self.exponent
        return p * t ** (p - 1.0)

    def _rho_second(self, t):
        if self.family == "square":
            return np.full_like(t, 2.0)
        if self.family == "huber":
            return (t <= self.cutoff).astype(float)
        p = self.exponent
        # t == 0 with 1 < p < 2 gives an infinite curvature; report it as is
        with np.errstate(divide="ignore"):
            return p * (p - 1.0) * t ** (p - 2.0)

    def __str__(self) -> str:
        """The spec ``cli.parse_loss`` reads back to this loss."""
        if self.family == "square":
            return "square"
        value = self.cutoff if self.family == "huber" else self.exponent
        text = f"{value:g}"  # the short form, where it parses back to value
        return f"{self.family}:{text if float(text) == value else repr(value)}"
