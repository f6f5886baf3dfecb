"""Finite empirical measures: sorted supports with uniform weights.

These carry finite-volume eigenvalue lists and their products; the CDF is
the right-continuous step function with mass 1/n at every support point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    support: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.sort(np.asarray(self.support, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("support must be a nonempty 1-d array")
        object.__setattr__(self, "support", arr)

    def __repr__(self):  # pragma: no cover
        return f"EmpiricalMeasure(n={self.size}, range=[{self.support[0]}, {self.support[-1]}])"

    @property
    def size(self) -> int:
        return int(self.support.size)

    def cdf(self, energy):
        """Fraction of mass in (-inf, energy]; accepts scalars or arrays."""
        e = np.asarray(energy, dtype=float)
        out = np.searchsorted(self.support, e, side="right") / self.size
        return float(out) if np.isscalar(energy) or e.ndim == 0 else out


def ks_distance(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> float:
    """Exact sup-norm distance between two empirical CDFs."""
    pts = np.union1d(m1.support, m2.support)
    # both CDFs are constant between consecutive points of the union, so their
    # left limits at a point are their values at the point before it (0 at the
    # first): the sup over the right values is the sup over both sides
    return float(np.max(np.abs(m1.cdf(pts) - m2.cdf(pts))))
