"""Quartic and quadratic residue symbols over Z[i].

For a Gaussian prime pi of odd norm the quartic residue symbol is defined by
the Euler criterion

    (a/pi)_4 = a^((N(pi)-1)/4) mod pi  in {1, i, -1, -i},   (a/pi)_4 = 0 if pi | a,

extended multiplicatively to any odd-norm modulus, with (./n)_4 = 1 for units
n.  The quadratic symbol is its square.

Two evaluation paths are provided:

* `quartic_symbol` -- factor the modulus and apply the Euler criterion prime
  by prime.  This is the oracle: slow, but it only relies on modular powering.
* `quartic_symbol_fast` -- a Jacobi-style descent that never factors anything.
  It alternates nearest-rounding reduction with the quartic reciprocity law
  for primary m, n,

      (m/n)_4 = (n/m)_4 * (-1)^{((N(m)-1)/4) ((N(n)-1)/4)},

  stripping units and powers of (1+i) via the supplement laws

      (i/n)_4 = i^{(1-a)/2},    ((1+i)/n)_4 = i^{(a-b-1-b^2)/4}

  for primary n = a+bi.  Each round halves the norm, so the cost is
  O(log^2 N) word operations.
"""

from __future__ import annotations

from .gaussint import (
    GaussInt,
    ONE,
    divides,
    factor,
    is_primary,
    mod_nearest,
    norm,
)

__all__ = [
    "QuarticValue",
    "quartic_symbol",
    "quartic_symbol_fast",
    "quadratic_symbol",
    "supplement_i",
    "supplement_one_plus_i",
]

_UNIT_GAUSS = (GaussInt(1, 0), GaussInt(0, 1), GaussInt(-1, 0), GaussInt(0, -1))
_STR = {None: "0", 0: "1", 1: "i", 2: "-1", 3: "-i"}
_PARSE = {"0": None, "1": 0, "i": 1, "-1": 2, "-i": 3}


class QuarticValue:
    """An element of {0, 1, i, -1, -i}: the value group of the quartic symbol.

    Units are stored as the exponent k of i^k; zero absorbs multiplication.
    """

    __slots__ = ("k",)

    def __init__(self, k: int | None):
        self.k = None if k is None else k % 4

    @classmethod
    def zero(cls) -> "QuarticValue":
        return cls(None)

    @classmethod
    def unit(cls, k: int) -> "QuarticValue":
        return cls(k)

    @classmethod
    def one(cls) -> "QuarticValue":
        return cls(0)

    @classmethod
    def parse(cls, text: str) -> "QuarticValue":
        try:
            return cls(_PARSE[text.strip()])
        except KeyError:
            raise ValueError(f"not a quartic value: {text!r}") from None

    @property
    def is_zero(self) -> bool:
        return self.k is None

    @property
    def exponent(self) -> int:
        if self.k is None:
            raise ValueError("zero has no exponent")
        return self.k

    def __mul__(self, other: "QuarticValue") -> "QuarticValue":
        if self.k is None or other.k is None:
            return QuarticValue(None)
        return QuarticValue(self.k + other.k)

    def __pow__(self, e: int) -> "QuarticValue":
        if self.k is None:
            if e == 0:
                return QuarticValue(0)
            return QuarticValue(None)
        return QuarticValue(self.k * e)

    def conj(self) -> "QuarticValue":
        if self.k is None:
            return QuarticValue(None)
        return QuarticValue(-self.k)

    def to_complex(self) -> complex:
        if self.k is None:
            return 0j
        return (1 + 0j, 1j, -1 + 0j, -1j)[self.k]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuarticValue) and self.k == other.k

    def __hash__(self) -> int:
        return hash(("QuarticValue", self.k))

    def __str__(self) -> str:
        return _STR[self.k]

    def __repr__(self) -> str:
        return f"QuarticValue({self})"


# ----------------------------------------------------------------------
# Euler-criterion path (the oracle)
# ----------------------------------------------------------------------


def _powmod(a: GaussInt, e: int, n: GaussInt) -> GaussInt:
    result = mod_nearest(ONE, n)
    base = mod_nearest(a, n)
    while e:
        if e & 1:
            result = mod_nearest(result * base, n)
        base = mod_nearest(base * base, n)
        e >>= 1
    return result


def _euler_exponent(a: GaussInt, pi: GaussInt) -> int:
    """Exponent k with (a/pi)_4 = i^k at a Gaussian prime pi, or -1 if pi | a."""
    if divides(pi, a):
        return -1
    r = _powmod(a, (norm(pi) - 1) // 4, pi)
    for k in range(4):
        if divides(pi, r - _UNIT_GAUSS[k]):
            return k
    raise ArithmeticError(f"{pi} is not prime (Euler criterion matched no unit)")


def quartic_symbol(a: GaussInt, n: GaussInt) -> QuarticValue:
    """(a/n)_4 by factoring n and applying the Euler criterion at each prime."""
    if norm(n) % 2 == 0:
        raise ValueError(f"even-norm modulus {n}")
    if n.is_unit():
        return QuarticValue.one()
    acc = 0
    for pi, e in factor(n).factors:
        k = _euler_exponent(a, pi)
        if k < 0:
            return QuarticValue.zero()
        acc = (acc + e * k) % 4
    return QuarticValue.unit(acc)


def quadratic_symbol(a: GaussInt, n: GaussInt) -> QuarticValue:
    """(a/n) = (a/n)_4^2, with values in {0, 1, -1}."""
    return quartic_symbol(a, n) ** 2


# ----------------------------------------------------------------------
# reciprocity descent (no factorization)
# ----------------------------------------------------------------------


def _is_primary_pair(ar: int, ai: int) -> bool:
    ra, rb = ar & 3, ai & 3
    return (ra == 1 and rb == 0) or (ra == 3 and rb == 2)


def quartic_exponent_fast(ar: int, ai: int, nr: int, ni: int) -> int:
    """Exponent of (a/n)_4 for primary n, as an int in {-1, 0, 1, 2, 3}.

    -1 encodes the value 0.  Operates on raw integer pairs; the pointwise
    route and the oracle of the per-prime tables (character rows, sieves).
    """
    acc = 0
    while True:
        if nr == 1 and ni == 0:
            return acc & 3
        nn = nr * nr + ni * ni
        # reduce a mod n to the nearest representative: N(a) <= N(n)/2
        tr = ar * nr + ai * ni
        ti = ai * nr - ar * ni
        qr = (2 * tr + nn) // (2 * nn)
        qi = (2 * ti + nn) // (2 * nn)
        ar -= qr * nr - qi * ni
        ai -= qr * ni + qi * nr
        if ar == 0 and ai == 0:
            return -1
        # peel (1+i)^t: a/(1+i) = (a+b)/2 + ((b-a)/2) i
        t = 0
        while not (ar + ai) & 1:
            ar, ai = (ar + ai) >> 1, (ai - ar) >> 1
            t += 1
        s_one_plus_i = ((nr - ni - 1 - ni * ni) >> 2) & 3
        s_i = ((1 - nr) >> 1) & 3
        acc = (acc + t * s_one_plus_i) & 3
        # rotate a to its primary associate m = i^j * a
        j = 0
        while not _is_primary_pair(ar, ai):
            ar, ai = -ai, ar
            j += 1
        acc = (acc - j * s_i) & 3
        if ar == 1 and ai == 0:
            return acc & 3
        mm = ar * ar + ai * ai
        acc = (acc + 2 * (((nn - 1) >> 2) & 1) * (((mm - 1) >> 2) & 1)) & 3
        ar, ai, nr, ni = nr, ni, ar, ai


def quartic_symbol_fast(a: GaussInt, n: GaussInt) -> QuarticValue:
    """(a/n)_4 by reciprocity descent; n must be primary."""
    if norm(n) % 2 == 0:
        raise ValueError(f"even-norm modulus {n}")
    if not is_primary(n):
        raise ValueError(f"modulus {n} is not primary")
    k = quartic_exponent_fast(a.a, a.b, n.a, n.b)
    return QuarticValue.zero() if k < 0 else QuarticValue.unit(k)


# ----------------------------------------------------------------------
# supplement laws
# ----------------------------------------------------------------------


def _require_primary(n: GaussInt) -> None:
    if not is_primary(n):
        raise ValueError(f"{n} is not primary")


def supplement_i(n: GaussInt) -> QuarticValue:
    """(i/n)_4 = i^{(1-a)/2} for primary n = a+bi."""
    _require_primary(n)
    return QuarticValue.unit((1 - n.a) >> 1)


def supplement_one_plus_i(n: GaussInt) -> QuarticValue:
    """((1+i)/n)_4 = i^{(a-b-1-b^2)/4} for primary n = a+bi."""
    _require_primary(n)
    return QuarticValue.unit((n.a - n.b - 1 - n.b * n.b) >> 2)
