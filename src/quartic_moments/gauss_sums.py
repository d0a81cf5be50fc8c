"""Quartic Gauss sums over Z[i] and the Dirichlet Gauss sum tau(chi).

The basic object is

    g(k, n) = sum_{x mod n} (x/n)_4 e~(kx/n),   e~(z) = e(Im z),

with g(n) = g(1, n).  Key classical facts exercised throughout the tests:

    |g(n)|^2 = N(n) for squarefree odd-norm n, and g(n) = 0 otherwise;
    g(rs, n) = conj((s/n)_4) g(r, n)                      for (s, n) = 1;
    g(r, n1 n2) = (n2/n1)_4 (n1/n2)_4 g(r, n1) g(r, n2)   for (n1, n2) = 1.

For a conductor generator n (primary, squarefree, no rational prime factor)
the rational Gauss sum of chi_n collapses to a closed form: expanding
(nbar/n)_4 through reciprocity, the supplement laws and the vanishing of
rational-entry symbols gives

    tau(chi_n) = conj(((-2i)^3/n)_4) g(n)          if (-1/n)_4 = +1,
    tau(chi_n) = i^{-1} conj(((-2i)^3/n)_4) g(n)   if (-1/n)_4 = -1.

`tau_closed_form` implements exactly that; `dirichlet_gauss_sum` is the
defining-sum oracle it is tested against.

The L-value path uses neither: `tau_crt` multiplies one cached Dirichlet
Gauss sum per split p | q by CRT, with no Z[i] factorization, and is pinned
to both.

Direct sums evaluate the symbol over a whole residue system through cached
per-prime exponent tables, which the tests pin against the Euler criterion
point by point.  A split prime's table is `characters.split_prime_table`,
built vectorized from baby-step/giant-step powers of a primitive root; the
L-value path's character rows (`characters.signature_exponents`) and
`tau_crt` read the same tables, so each split prime's table is built once
and shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characters import (
    _I_POW,
    QuarticCharacter,
    _primary_points_arrays,
    character_exponents,
    prime_signature,
    prime_table,
    split_prime_table,
)
from .gaussint import (
    GaussFactorization,
    GaussInt,
    ONE,
    factor,
    gcd,
    hnf_box,
    is_primary,
    norm,
)
from .sieves import squarefree_mask
from .symbols import quartic_exponent_fast, supplement_i

__all__ = [
    "additive_char",
    "gauss_sum",
    "gauss_sum_twisted",
    "gauss_sum_factored",
    "dirichlet_gauss_sum",
    "tau_closed_form",
    "tau_crt",
    "h_series",
    "SeriesValue",
    "gauss_average",
    "GaussAverageReport",
    "primary_points",
    "primary_count_bound_constant",
    "clear_gauss_caches",
]

_TWO_PI = 2.0 * math.pi

_GAUSS_SUM_PRIME_CACHE: dict[tuple[int, int], complex] = {}
_TAU_PRIME_CACHE: dict[int, complex] = {}


def clear_gauss_caches() -> None:
    _GAUSS_SUM_PRIME_CACHE.clear()
    _TAU_PRIME_CACHE.clear()
    _inert_table.cache_clear()


def additive_char(num: GaussInt, den: GaussInt) -> complex:
    """e~(num/den) = e(Im(num/den)), from the exact rational
    Im(num * conj(den)) / N(den)."""
    nn = norm(den)
    if nn == 0:
        raise ZeroDivisionError("zero denominator")
    t = num * den.conj()
    return complex(np.exp(2j * math.pi * ((t.b % nn) / nn)))


# ----------------------------------------------------------------------
# per-prime multiplicative character tables (split primes: prime_table)
# ----------------------------------------------------------------------


def _fq2_mul(x, y, p):
    return ((x[0] * y[0] - x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)


def _fq2_pow(x, e, p):
    r = (1, 0)
    while e:
        if e & 1:
            r = _fq2_mul(r, x, p)
        x = _fq2_mul(x, x, p)
        e >>= 1
    return r


@lru_cache(maxsize=None)
def _inert_table(p: int) -> np.ndarray:
    """Exponent table over F_{p^2} = Z[i]/(p) for an inert prime p = 3 mod 4.

    Index is x + p*y for the residue x + yi; entry 0 is masked by callers.
    """
    q2 = p * p
    fac = {}
    m = q2 - 1
    d = 2
    while d * d <= m:
        while m % d == 0:
            fac[d] = 1
            m //= d
        d += 1
    if m > 1:
        fac[m] = 1
    gen = None
    for b in range(1, p):
        for a in range(p):
            cand = (a, b)
            if all(_fq2_pow(cand, (q2 - 1) // ell, p) != (1, 0) for ell in fac):
                gen = cand
                break
        if gen:
            break
    if gen is None:
        raise ArithmeticError(f"no generator of F_{p}^2 found")
    t = _fq2_pow(gen, (q2 - 1) // 4, p)
    if t == (0, 1):
        e0 = 1
    elif t == (0, p - 1):
        e0 = 3
    else:
        raise ArithmeticError("fourth root of unity in F_q2 is not +-i")
    table = np.zeros(q2, dtype=np.int8)
    x = (1, 0)
    for k in range(q2 - 1):
        table[x[0] + p * x[1]] = (e0 * k) & 3
        x = _fq2_mul(x, gen, p)
    return table


def _symbol_exponent_arrays(n: GaussInt, X: np.ndarray, Y: np.ndarray):
    """(exps, zero) for (x/n)_4 over residue coordinate arrays X + iY."""
    exps = np.zeros(X.shape, dtype=np.int64)
    zero = np.zeros(X.shape, dtype=bool)
    for pi, e in factor(n).factors:
        npi = norm(pi)
        if npi % 2 == 0:
            raise ValueError(f"even-norm modulus {n}")
        if pi.b == 0:  # inert
            p = -pi.a
            idx = (X % p) + p * (Y % p)
            table = _inert_table(p)
            zero |= idx == 0
            exps += e * table[idx]
        else:
            p, s, table = prime_table(pi)
            t = (X + s * Y) % p
            zero |= t == 0
            exps += e * table[t]
    return (exps & 3), zero


def _residue_box(n: GaussInt):
    d, _, g = hnf_box(n)
    X = np.tile(np.arange(d, dtype=np.int64), g)
    Y = np.repeat(np.arange(g, dtype=np.int64), d)
    return X, Y


def gauss_sum_twisted(k: GaussInt, n: GaussInt) -> complex:
    """g(k, n) = sum_{x mod n} (x/n)_4 e~(kx/n) by direct summation."""
    nn = norm(n)
    if nn % 2 == 0:
        raise ValueError(f"even-norm modulus {n}")
    if nn == 1:
        return 1 + 0j
    X, Y = _residue_box(n)
    exps, zero = _symbol_exponent_arrays(n, X, Y)
    kc = k * n.conj()
    im = X * kc.b + Y * kc.a
    phase = np.exp((2j * math.pi / nn) * (im % nn))
    vals = np.where(zero, 0, _I_POW[exps])
    return complex(np.sum(vals * phase))


def gauss_sum(n: GaussInt) -> complex:
    """g(n) = g(1, n)."""
    return gauss_sum_twisted(ONE, n)


def _gauss_sum_prime(pi: GaussInt) -> complex:
    key = (pi.a, pi.b)
    val = _GAUSS_SUM_PRIME_CACHE.get(key)
    if val is None:
        val = gauss_sum(pi)
        _GAUSS_SUM_PRIME_CACHE[key] = val
    return val


def gauss_sum_factored(n: GaussInt) -> complex:
    """g(n) assembled from prime Gauss sums via twisted multiplicativity.

    Much faster than the defining sum for repeated use; the test suite pins
    it against `gauss_sum`.
    """
    if norm(n) % 2 == 0:
        raise ValueError(f"even-norm modulus {n}")
    return _gauss_sum_from_factorization(factor(n))


def _gauss_sum_from_factorization(fact: GaussFactorization) -> complex:
    """g(n) by twisted multiplicativity, from the factorization of n."""
    if not fact.is_squarefree():
        return 0j
    primes = [pi for pi, _ in fact.factors]
    acc = 0  # exponent of i
    val = 1 + 0j
    m = GaussInt(1, 0)
    for pi in primes:
        val *= _gauss_sum_prime(pi)
        m = m * pi
    for i in range(len(primes)):
        for j in range(i + 1, len(primes)):
            a, b = primes[i], primes[j]
            acc += quartic_exponent_fast(a.a, a.b, b.a, b.b)
            acc += quartic_exponent_fast(b.a, b.b, a.a, a.b)
    u = fact.unit
    if u != ONE:
        ju = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}[(u.a, u.b)]
        acc += ju * supplement_i(m).exponent
    return complex(_I_POW[acc & 3]) * val


# ----------------------------------------------------------------------
# Dirichlet Gauss sums
# ----------------------------------------------------------------------


def dirichlet_gauss_sum(chi: QuarticCharacter) -> complex:
    """tau(chi) = sum_{x=1}^{q} chi(x) e(x/q) by direct summation."""
    q = chi.q
    e = character_exponents(chi, q)[1:]
    x = np.arange(1, q + 1)
    phase = np.exp((2j * math.pi / q) * x)
    return complex(np.sum(_I_POW[e] * phase))


def tau_closed_form(n: GaussInt) -> complex:
    """tau(chi_n) from g(n), with no summation over x.

    Writing e(x/q) = e~(cx/n) for the rational c = -b^{-1} mod q (legitimate
    because gcd(b, q) = gcd(b, a^2) = 1 for a generator n = a+bi) turns the
    defining sum for tau into a twisted Gauss sum, so

        tau(chi_n) = (-b/n)_4 g(n).

    Since b = ia mod n and 2 = -i(1+i)^2, this is the reciprocity-and-
    supplement branch form

        conj(((-2i)^3/n)_4) g(n) * ((1+i)/n)_4^2        chi_n even,
        i^{-1} conj(((-2i)^3/n)_4) g(n) * ((1+i)/n)_4^2  chi_n odd,

    i.e. the familiar (nbar/n)_4 g(n) expansion carries an extra quadratic
    supplement sign; without it the identity fails for exactly the
    generators with (nbar/n)_4 imaginary (q = 5, n = -1-2i already shows
    it).  The equality with the defining sum `dirichlet_gauss_sum` is part
    of the acceptance gate.
    """
    fact = factor(n)
    if (
        norm(n) % 2 == 0
        or not is_primary(n)
        or not fact.is_squarefree()
        or fact.has_rational_prime_divisor()
    ):
        raise ValueError(f"{n} does not generate a quartic conductor")
    k8 = quartic_exponent_fast(0, 8, n.a, n.b)  # (-2i)^3 = 8i
    if k8 < 0:
        raise ArithmeticError("(8i/n)_4 vanished on a valid generator")
    s1pi = (n.a - n.b - 1 - n.b * n.b) >> 2  # ((1+i)/n)_4 exponent
    exp = -k8 + 2 * s1pi
    if ((norm(n) - 1) // 4) % 2 == 1:  # (-1/n)_4 = -1: odd character
        exp -= 1
    return complex(_I_POW[exp & 3]) * _gauss_sum_from_factorization(fact)


def _tau_prime(p: int) -> complex:
    """tau_p = sum_{x=1}^{p-1} chi_p(x) e(x/p), chi_p(x) = i^{T_p[x]} for the
    table T_p of `split_prime_table(p)`.  Cached per p.

    Pairing x with p - x, chi_p(-x) = chi_p(-1) chi_p(x) with
    chi_p(-1) = (-1)^{(p-1)/4} (see `tau_crt`) folds the sum onto half the
    residues: tau_p = 2 sum_{x <= (p-1)/2} chi_p(x) cos(2 pi x/p) for
    p = 1 mod 8, and 2i times the same sum with sin for p = 5 mod 8.  One
    bincount of the cos (or sin) values by T_p[x] gives the four real
    periods eta_k, and tau_p is their combination sum_k i^k eta_k.
    """
    val = _TAU_PRIME_CACHE.get(p)
    if val is None:
        _, table = split_prime_table(p)
        h = (p - 1) // 2
        angle = np.arange(1, h + 1) * (_TWO_PI / p)
        even = p % 8 == 1
        eta = np.bincount(table[1 : h + 1], weights=np.cos(angle) if even else np.sin(angle),
                          minlength=4)
        half = complex(eta[0] - eta[2], eta[1] - eta[3])
        val = _TAU_PRIME_CACHE[p] = 2 * half if even else 2j * half
    return val


def tau_crt(chi: QuarticCharacter, signature=None) -> complex:
    """tau(chi) = sum_{x mod q} chi(x) e(x/q) from one cached Gauss sum per
    prime p | q: with chi = prod_p chi_p, chi_p(x) = i^{+-T_p[x]} (the
    signs of `prime_signature`),

        tau(chi) = i^{sum_p +-T_p[(q/p) mod p]} * prod_p tau_p^{+-},
        tau_p^+ = tau_p,   tau_p^- = (-1)^{(p-1)/4} conj(tau_p).

    Two identities give this.  (CRT) For coprime q1, q2 and chi_j mod q_j,
    tau(chi_1 chi_2) = chi_1(q2) chi_2(q1) tau(chi_1) tau(chi_2): writing
    x = x1 q2 + x2 q1 runs x over Z/q as (x1, x2) runs over Z/q1 x Z/q2,
    e(x/q) = e(x1/q1) e(x2/q2), chi_1(x) = chi_1(x1 q2) and
    chi_2(x) = chi_2(x2 q1), so the sum splits into
    sum_x1 chi_1(x1 q2) e(x1/q1) = chi_1(q2) tau(chi_1) times its twin.
    Induction over the primes gives tau(chi) = prod_p chi_p(q/p) tau(chi_p),
    and chi_p(q/p) = i^{+-T_p[(q/p) mod p]}.  (Conjugate) For any chi mod q,
    conj(tau(chi)) = sum_x conj(chi)(x) e(-x/q) = conj(chi)(-1) tau(conj(chi))
    after x -> -x, and chi(-1) = +-1, so tau(conj(chi)) = chi(-1) conj(tau(chi)).
    The table's character has T_p[-1] = (p-1)/2 mod 4 (since -1 = g^{(p-1)/2}),
    so chi_p(-1) = (-1)^{(p-1)/4}, and tau_p^- = tau(conj(chi_p)).

    `signature` is chi's `prime_signature`, computed when not given (the
    L-value kernel passes the rows of its per-conductor sign matrix).
    Raises ValueError unless q is odd, squarefree and split, and n lies over
    one prime above each p | q.
    """
    q = chi.q
    acc = 0
    val = 1 + 0j
    primes = 1
    for p, table, sign in prime_signature(chi) if signature is None else signature:
        t = _tau_prime(p)
        if sign < 0:
            t = t.conjugate() if p % 8 == 1 else -t.conjugate()
        acc += sign * int(table[(q // p) % p])
        val *= t
        primes *= p
    if primes != q:
        raise ValueError(f"{q} is not a squarefree conductor")
    return complex(_I_POW[acc & 3]) * val


# ----------------------------------------------------------------------
# primary lattice enumeration and averaged sums
# ----------------------------------------------------------------------


def primary_points(limit: int) -> list[tuple[int, int, int]]:
    """All primary n with N(n) <= limit as (norm, a, b), sorted ascending."""
    qs, As, Bs = _primary_points_arrays(limit)
    return [(int(q), int(a), int(b)) for q, a, b in zip(qs, As, Bs)]


def primary_count_bound_constant() -> float:
    """c with #{primary n : N(n) <= t} <= c*t for all t >= 100 (pi/8 plus
    slack; verified numerically in the tests).  Tail bounds built on it
    require cutoffs of at least 10^3."""
    return 0.5


@dataclass(frozen=True)
class SeriesValue:
    value: complex
    tail_bound: float
    cutoff: int
    terms: int


def _chi16_exponents(label) -> tuple[int, int]:
    if label in ("trivial", None, (0, 0)):
        return (0, 0)
    ei, e1pi = label
    return int(ei) % 4, int(e1pi) % 4


def h_series(r: GaussInt, s: complex, chi16="trivial", cutoff: int = 10_000) -> SeriesValue:
    """Truncation of sum_{(n,r)=1, n primary} chi(n) g(r,n) N(n)^{-s}.

    chi is a Hecke character mod 16 of trivial infinite type, labelled by
    exponents (e_i, e_{1+i}) on the generators n -> (i/n)_4, n -> ((1+i)/n)_4.
    Only the region of absolute convergence Re(s) >= 2 is supported; the tail
    bound uses |g(r, n)| <= sqrt(N(n)) on the coprime squarefree support.
    """
    s = complex(s)
    if s.real < 2:
        raise ValueError("h_series is only evaluated for Re(s) >= 2")
    if cutoff < 1000:
        raise ValueError("cutoff must be at least 10^3")
    ei, e1pi = _chi16_exponents(chi16)
    re_parts: list[float] = []
    im_parts: list[float] = []
    terms = 0
    qs, As, Bs = _primary_points_arrays(cutoff)
    for q, a, b in zip(qs, As, Bs):
        q, a, b = int(q), int(a), int(b)
        n = GaussInt(a, b)
        if q > 1 and not gcd(n, r).is_unit():
            continue
        chi_exp = (ei * (((1 - a) >> 1) & 3) + e1pi * (((a - b - 1 - b * b) >> 2) & 3)) & 3
        g = gauss_sum_twisted(r, n)
        term = complex(_I_POW[chi_exp]) * g * q ** (-s)
        re_parts.append(term.real)
        im_parts.append(term.imag)
        terms += 1
    sigma = s.real
    c = primary_count_bound_constant()
    tail = c * (sigma - 0.5) / (sigma - 1.5) * cutoff ** (1.5 - sigma)
    return SeriesValue(
        value=complex(math.fsum(re_parts), math.fsum(im_parts)),
        tail_bound=tail,
        cutoff=cutoff,
        terms=terms,
    )


@dataclass(frozen=True)
class GaussAverageReport:
    value: complex
    terms: int
    scale: float
    restricted: bool


def gauss_average(l: GaussInt, X: float, w, restrict: bool = False) -> GaussAverageReport:
    """H(l, X) = sum_{n primary} conj(chi_n(l)) g(n) N(n)^{-1/2} w(N(n)/X).

    With `restrict`, only squarefree n free of rational prime divisors are
    kept (equivalently: squarefree norm), giving the restricted average H'.
    """
    if X <= 0:
        raise ValueError("X must be positive")
    lo, hi = w.support
    re_parts: list[float] = []
    im_parts: list[float] = []
    terms = 0
    limit = int(math.ceil(hi * X)) + 1
    qs, As, Bs = _primary_points_arrays(limit)
    sf = squarefree_mask(int(qs[-1]) if len(qs) else 1)
    for q, a, b in zip(qs, As, Bs):
        q, a, b = int(q), int(a), int(b)
        wx = float(w(q / X))
        if wx == 0.0:
            continue
        if restrict and not sf[q]:
            continue
        k = quartic_exponent_fast(l.a, l.b, a, b)
        if k < 0:
            continue
        g = gauss_sum_factored(GaussInt(a, b))
        term = complex(_I_POW[(-k) & 3]) * g * (wx / math.sqrt(q))
        re_parts.append(term.real)
        im_parts.append(term.imag)
        terms += 1
    return GaussAverageReport(
        value=complex(math.fsum(re_parts), math.fsum(im_parts)),
        terms=terms,
        scale=X,
        restricted=restrict,
    )
