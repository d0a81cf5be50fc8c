"""Smooth compactly supported weights and their Mellin data.

One concrete weight is enough for reproducible experiments: the standard
bump on (1, 2),

    w(x) = exp(-1 / ((x-1)(2-x)))  for 1 < x < 2,   0 elsewhere,

which is C-infinity with all derivatives vanishing at the endpoints.  Its
Mellin transform w~(s) = int_0^inf w(x) x^{s-1} dx is computed by adaptive
quadrature; the total mass int w (the Fourier transform at 0) is computed by
an independent fixed Gauss-Legendre rule so that the identity
int w = w~(1) is a genuine two-route check.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["WeightFunction", "bump_weight"]


def _bump(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 1.0) & (x < 2.0)
    xi = x[inside]
    out[inside] = np.exp(-1.0 / ((xi - 1.0) * (2.0 - xi)))
    return out


class WeightFunction:
    """The bump-on-(1,2) test weight with cached Mellin data."""

    kinds = ("bump_12",)

    def __init__(self, kind: str = "bump_12"):
        if kind not in self.kinds:
            raise ValueError(f"unknown weight kind {kind!r}")
        self.kind = kind
        self.support = (1.0, 2.0)

    def __call__(self, x):
        if np.isscalar(x):
            return float(_bump(np.array([x]))[0])
        return _bump(x)

    def mellin(self, s: complex) -> complex:
        """w~(s) = int_1^2 w(x) x^{s-1} dx by adaptive quadrature."""
        from scipy.integrate import quad

        s = complex(s)

        def re_part(x):
            return float((_bump(np.array([x]))[0] * x ** (s - 1)).real)

        def im_part(x):
            return float((_bump(np.array([x]))[0] * x ** (s - 1)).imag)

        re, _ = quad(re_part, 1.0, 2.0, epsabs=1e-14, epsrel=1e-13, limit=400)
        if s.imag == 0:
            return complex(re, 0.0)
        im, _ = quad(im_part, 1.0, 2.0, epsabs=1e-14, epsrel=1e-13, limit=400)
        return complex(re, im)

    @property
    def mellin_at_1(self) -> float:
        return _mellin_at_1(self.kind)

    def fourier_at_zero(self) -> float:
        """int w, by a fixed 384-node Gauss-Legendre rule (independent of
        the adaptive route used for the Mellin transform)."""
        return _fourier_at_zero(self.kind)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeightFunction) and self.kind == other.kind

    def __hash__(self) -> int:
        return hash(("WeightFunction", self.kind))

    def __repr__(self) -> str:
        return f"WeightFunction({self.kind!r})"


@lru_cache(maxsize=4)
def _mellin_at_1(kind: str) -> float:
    return WeightFunction(kind).mellin(1.0).real


@lru_cache(maxsize=4)
def _fourier_at_zero(kind: str) -> float:
    nodes, wts = np.polynomial.legendre.leggauss(384)
    x = 1.5 + 0.5 * nodes
    return float(0.5 * math.fsum(wts * _bump(x)))


def bump_weight() -> WeightFunction:
    return WeightFunction("bump_12")
