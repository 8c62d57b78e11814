"""Exception types shared across the package.

Two branches matter to callers: :class:`DataError` covers malformed inputs
(bad files, bad flag values, impossible configurations) while
:class:`NumericalError` covers failures of the estimation itself (singular
designs, vanished curvature, ...).  The CLI maps the former to exit code 2
and the latter to exit code 3.
"""

from __future__ import annotations


class DataError(ValueError):
    """Input data or configuration is invalid."""


class NumericalError(RuntimeError):
    """Base class for numerical failures during estimation."""

    category = "numerical"


class DegenerateDesignError(NumericalError):
    """Weighted moment matrix is singular or nearly singular."""

    category = "degenerate-design"


class DegenerateCurvatureError(NumericalError):
    """Curvature matrix has no mass (e.g. all residuals beyond a Huber cutoff)."""

    category = "degenerate-curvature"


class IndexDegenerateError(NumericalError):
    """First-step slope vector is zero, so no index direction exists."""

    category = "index-degenerate"


class WeightFamilyError(NumericalError):
    """A weight map produced a non-finite or non-positive value."""

    category = "weight-family"


class BandwidthGridError(NumericalError):
    """No cross-validation candidate had enough evaluable leave-one-out terms."""

    category = "bandwidth-grid"


class StudyError(NumericalError):
    """Too many replications of a simulation study failed."""

    category = "study"
