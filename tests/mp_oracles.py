"""Marchenko-Pastur law and rescaling fixed-point residual: the analytic
oracles the spiked-model tests check the package against."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spikepca.errors import DomainError, SpikePcaError
from spikepca.spiked import _check_gamma, _debias_many


class NumericalError(SpikePcaError):
    """An iterative numerical routine failed to reach its tolerance."""


def mp_edges(gamma: float) -> tuple[float, float]:
    """Support edges ((1-sqrt(gamma))^2, (1+sqrt(gamma))^2) of the noise spectrum."""
    _check_gamma(gamma)
    s = math.sqrt(gamma)
    return ((1 - s) ** 2, (1 + s) ** 2)


def trace_gap(x: float, ratios: np.ndarray, p: int, gamma: float) -> float:
    """Fixed-point residual of the rescaling: implied total minus candidate x.

    Zero exactly at the normalizer tau the iteration converges to;
    concave in x, with a unique root on [p, inf) whenever trace_gap(p)
    is positive.
    """
    b = (1 + math.sqrt(gamma)) ** 2
    d = x * np.asarray(ratios, dtype=np.float64)
    mask = d > b
    k = int(mask.sum())
    return float(_debias_many(d[mask], gamma).sum() + p - k - x)


@dataclass(frozen=True)
class MpLaw:
    """Marchenko-Pastur law with aspect-ratio parameter gamma > 0.

    The continuous part lives on [a, b]; for gamma > 1 a point mass of
    1 - 1/gamma sits at zero.
    """

    gamma: float
    a: float
    b: float
    point_mass_at_zero: float

    @classmethod
    def from_gamma(cls, gamma: float) -> "MpLaw":
        if gamma <= 0:
            raise DomainError(f"gamma must be positive, got {gamma}")
        a, b = mp_edges(gamma)
        return cls(gamma=gamma, a=a, b=b, point_mass_at_zero=max(0.0, 1 - 1 / gamma))

    def density(self, x) -> np.ndarray:
        """Density of the continuous part (0 outside [a, b])."""
        x = np.asarray(x, dtype=np.float64)
        inside = (x > self.a) & (x < self.b) & (x > 0)
        out = np.zeros_like(x)
        xi = x[inside]
        out[inside] = np.sqrt((self.b - xi) * (xi - self.a)) / (
            2 * np.pi * self.gamma * xi
        )
        return out


def mp_integral(f, gamma: float, tol: float = 1e-9) -> float:
    """Integral of f against the Marchenko-Pastur law (f(0) must be 0).

    The point mass at zero (present for gamma > 1) contributes nothing
    because f vanishes there. The endpoint square-root singularities of
    the density are removed with the substitution
    x = a + (b - a) sin^2(theta) before adaptive quadrature.
    """
    from scipy import integrate

    if gamma <= 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    law = MpLaw.from_gamma(gamma)
    a, b = law.a, law.b
    span = b - a
    coeff = span**2 / (4 * np.pi * gamma)

    def transformed(theta):
        x = a + span * math.sin(theta) ** 2
        if x <= 0.0:
            return 0.0
        return coeff * f(x) * math.sin(2 * theta) ** 2 / x

    value, abserr, info, *rest = integrate.quad(
        transformed, 0.0, math.pi / 2, epsabs=tol, epsrel=1e-12,
        limit=200, full_output=True,
    )
    if rest:
        raise NumericalError(f"quadrature did not converge: {rest[0]}")
    if abserr > max(100 * tol, 1e-7):
        raise NumericalError(
            f"quadrature error estimate {abserr:g} exceeds tolerance"
        )
    return float(value)
