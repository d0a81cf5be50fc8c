"""Primitive quartic Dirichlet characters with primitive square.

The characters mod odd q of order 4 that are primitive and whose square is
still primitive are exactly the maps

    chi_n : m -> (m/n)_4

for primary squarefree n in Z[i] without rational prime divisors and
N(n) = q.  Such n exist iff q > 1 is odd, squarefree, and every prime factor
of q splits (p = 1 mod 4); there are then 2^omega(q) of them, one for each
choice of a prime above each p | q.  `verify_correspondence` re-derives the
Dirichlet side by brute force (CRT on cyclic prime-power components) and
certifies, per q, an exact value-table bijection against the enumerated
family.

The Hecke characters psi_m : n -> (m/n)_4 on primary n (modulus 16m, trivial
infinite type) live here too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .gaussint import GaussInt, factor, norm, prime_above
from .sieves import (
    factorize_small,
    invmod,
    primitive_root,
    primitive_root_prime_power,
    valid_conductor_mask,
)
from .symbols import QuarticValue, quartic_exponent_fast

__all__ = [
    "QuarticCharacter",
    "HeckeCharacter",
    "enumerate_generators",
    "enumerate_range",
    "characters_upto",
    "char_eval",
    "character_exponents",
    "exponents_to_complex",
    "split_prime_table",
    "prime_table",
    "prime_signature",
    "conductor_signature",
    "signature_exponents",
    "verify_correspondence",
    "CorrespondenceReport",
    "hecke_eval",
    "clear_character_caches",
]

# i^k at index k = 0..3 and 0 at index 4, so an exponent array with -1
# marking a zero value indexes it directly: -1 reads the trailing 0.
_I_POW = np.array([1, 1j, -1, -1j, 0], dtype=np.complex128)
_QUARTER = np.arange(4, dtype=np.int8)


class QuarticCharacter:
    """chi_n(m) = (m/n)_4 on rational integers, of conductor q = N(n)."""

    __slots__ = ("q", "n")

    def __init__(self, n: GaussInt, q: int | None = None):
        self.n = n
        self.q = norm(n) if q is None else q

    @classmethod
    def from_generator(cls, n: GaussInt) -> "QuarticCharacter":
        """Validated constructor: n must be primary, squarefree, norm odd,
        with no rational prime divisor."""
        fact = factor(n)
        from .gaussint import is_primary

        if norm(n) % 2 == 0 or norm(n) == 1:
            raise ValueError(f"{n} has invalid norm for a conductor")
        if not is_primary(n):
            raise ValueError(f"{n} is not primary")
        if not fact.is_squarefree() or fact.has_rational_prime_divisor():
            raise ValueError(f"{n} is not squarefree free of rational primes")
        return cls(n)

    def parity(self) -> int:
        """chi(-1) = (-1)^((q-1)/4)."""
        return 1 if ((self.q - 1) // 4) % 2 == 0 else -1

    def conjugate(self) -> "QuarticCharacter":
        return QuarticCharacter(self.n.conj(), self.q)

    def prime_exponent(self, p: int) -> int:
        """Exponent of chi(p) at a rational prime p (or -1 when p | q),
        read from the split-prime tables."""
        return int(_exponents_at(self, np.array([p]))[0])

    def __call__(self, m: int) -> QuarticValue:
        k = quartic_exponent_fast(m % self.q, 0, self.n.a, self.n.b)
        return QuarticValue.zero() if k < 0 else QuarticValue.unit(k)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QuarticCharacter)
            and self.q == other.q
            and self.n == other.n
        )

    def __hash__(self) -> int:
        return hash((self.q, self.n.a, self.n.b))

    def __repr__(self) -> str:
        return f"QuarticCharacter(q={self.q}, n={self.n})"


def char_eval(chi: QuarticCharacter, m: int) -> QuarticValue:
    """chi(m), reducing m mod q first; multiplicative and q-periodic."""
    return chi(m)


@lru_cache(maxsize=None)
def split_prime_table(p: int) -> tuple[int, np.ndarray]:
    """(s, T) for a split prime p = 1 mod 4.

    pi = (p, i - s) is the prime above p in which i = s, with s = g^{(p-1)/4}
    for the primitive root g, and T is the int8 array over F_p with
    (x/pi)_4 = i^T[x] (T[0] = 0; callers mask x = 0).  Since (g/pi)_4 = s = i,
    T[g^k] = k mod 4.  Over the conjugate prime (i = p - s) the exponent is
    -T[x].  The powers g^k come from baby-step/giant-step products:
    O(sqrt p) Python steps plus one scatter of the int8 pattern 0, 1, 2, 3
    repeated (p - 1)/4 times.
    """
    if p % 4 != 1:
        raise ValueError(f"{p} is not a split prime")
    g = primitive_root(p)
    r = math.isqrt(p - 2) + 1  # r^2 >= p - 1
    g_r = pow(g, r, p)
    baby, giant = [1], [1]
    for _ in range(r - 1):
        baby.append(baby[-1] * g % p)
        giant.append(giant[-1] * g_r % p)
    powers = (np.array(giant)[:, None] * np.array(baby) % p).ravel()[: p - 1]  # g^0 .. g^(p-2)
    table = np.zeros(p, dtype=np.int8)
    table[powers] = np.tile(_QUARTER, (p - 1) // 4)
    return pow(g, (p - 1) // 4, p), table


def prime_table(pi: GaussInt) -> tuple[int, int, np.ndarray]:
    """(p, s, T) for a split Gaussian prime pi of norm p: s is the image of i
    in Z[i]/(pi) = F_p and (x/pi)_4 = i^T[x] for x in F_p (T[0] unused)."""
    p = norm(pi)
    s0, table = split_prime_table(p)
    s = pi.b * invmod(pi.a % p, p) % p
    return p, s, table if s == s0 else (-table) & 3


def conductor_signature(q: int, ns) -> tuple[list[tuple[int, np.ndarray]], list[list[int]]]:
    """The prime signatures of the characters chi_n, n in `ns`, of one
    conductor q at once: the tables (p, T_p) of `split_prime_table` for the
    primes p | q, ascending, and one sign row per n, so that
    chi_n = prod_p chi_p^{sign_p} with chi_p(x) = i^{T_p[x mod p]}.

    The sign is +1 when n lies in the prime (p, i - s) of `split_prime_table`,
    i.e. when a + b s = 0 mod p for n = a + bi, and -1 when n lies in its
    conjugate; for a generator exactly one of the two holds, and ValueError
    is raised when neither does.  q is factored once for the whole batch.
    """
    tables: list[tuple[int, np.ndarray]] = []
    signs: list[list[int]] = [[] for _ in ns]
    for p in factorize_small(q):
        s, table = split_prime_table(p)
        for n, row in zip(ns, signs):
            r = (n.a + n.b * s) % p
            if r and (n.a - n.b * s) % p:
                raise ValueError(f"{n} lies over no prime above {p}")
            row.append(-1 if r else 1)
        tables.append((p, table))
    return tables, signs


def prime_signature(chi: QuarticCharacter) -> list[tuple[int, np.ndarray, int]]:
    """(p, T_p, sign) for each p | q, ascending: chi = prod_p chi_p with
    chi_p(x) = i^{sign * T_p[x]}; `conductor_signature` for one character."""
    tables, (signs,) = conductor_signature(chi.q, [chi.n])
    return [(p, table, sign) for (p, table), sign in zip(tables, signs)]


def signature_exponents(tables: list[tuple[int, np.ndarray]], signs, m: np.ndarray) -> np.ndarray:
    """int8 exponent matrix of the characters with sign rows `signs` over an
    integer array m: E[c, k] = sum_p signs[c][p] T_p[m_k mod p] mod 4, and -1
    where some p | m_k.

    One `m mod p` gather per prime serves every row; the rows are combined by
    the (exact, integer) product of the sign matrix with the gathered tables.
    """
    rows = np.empty((len(tables), len(m)), dtype=np.int8)
    zero = np.zeros(len(m), dtype=bool)
    for k, (p, table) in enumerate(tables):
        r = m % p
        rows[k] = table[r]
        zero |= r == 0
    e = np.asarray(signs, dtype=np.int8) @ rows
    e &= 3  # int8 wraparound is harmless: 256 = 0 mod 4
    e[:, zero] = -1
    return e


def _exponents_at(chi: QuarticCharacter, m: np.ndarray) -> np.ndarray:
    """chi(m) exponents over an integer array m, with -1 marking 0."""
    tables, signs = conductor_signature(chi.q, [chi.n])
    return signature_exponents(tables, signs, m)[0]


def character_exponents(chi: QuarticCharacter, limit: int) -> np.ndarray:
    """int8 array e of length limit+1: chi(m) = i^e[m], with -1 marking 0.

    A gather from the split-prime tables of the primes dividing q (see
    `split_prime_table`); no reciprocity descent.  `QuarticCharacter.__call__`
    keeps the descent as the independent pointwise route.
    """
    return _exponents_at(chi, np.arange(limit + 1))


def exponents_to_complex(e: np.ndarray) -> np.ndarray:
    """Map an exponent array (with -1 for zero) to complex character values."""
    return _I_POW[e]


def clear_character_caches() -> None:
    split_prime_table.cache_clear()
    _generators_by_conductor.cache_clear()
    _lattice_generators.cache_clear()
    _primary_points_arrays.cache_clear()


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------


@lru_cache(maxsize=256)
def _generators_by_conductor(q: int) -> tuple[GaussInt, ...]:
    if not valid_conductor_mask(q)[q]:
        return ()
    primes = sorted(factorize_small(q))
    pairs = []
    for p in primes:
        pi = prime_above(p)
        from .gaussint import primary_associate

        pairs.append((pi, primary_associate(pi.conj())))
    gens = []
    for choice in itertools.product(*pairs):
        n = GaussInt(1, 0)
        for pi in choice:
            n = n * pi
        gens.append(n)
    gens.sort(key=lambda g: (g.a, g.b))
    return tuple(gens)


def enumerate_generators(q: int) -> list[GaussInt]:
    """All primary squarefree n of norm q without rational prime divisors,
    sorted by (a, b).  Empty unless q > 1 is odd squarefree with every prime
    factor = 1 mod 4."""
    if q % 2 == 0:
        raise ValueError(f"conductor {q} is even")
    if q < 1:
        raise ValueError(f"conductor {q} is not positive")
    return list(_generators_by_conductor(q))


@lru_cache(maxsize=8)
def _primary_points_arrays(limit: int):
    """Every primary n with 1 <= N(n) <= limit as arrays (norm, a, b),
    sorted by (norm, a, b)."""
    r = math.isqrt(limit)
    a = np.arange(-r - 1, r + 2)
    A, B = np.meshgrid(a, a, indexing="ij")
    ra, rb = A & 3, B & 3
    primary = ((ra == 1) & (rb == 0)) | ((ra == 3) & (rb == 2))
    N = A * A + B * B
    keep = primary & (N <= limit) & (N >= 1)
    qs, As, Bs = N[keep], A[keep], B[keep]
    order = np.lexsort((Bs, As, qs))
    return qs[order], As[order], Bs[order]


@lru_cache(maxsize=16)
def _lattice_generators(Q: int) -> tuple[tuple[int, int, int], ...]:
    """Primary lattice points with valid conductor norm <= Q, as (q, a, b),
    sorted by (q, a, b).  Sieve-then-filter, no per-q search."""
    qs, As, Bs = _primary_points_arrays(Q)
    valid = valid_conductor_mask(Q)[qs]
    return tuple(zip(qs[valid].tolist(), As[valid].tolist(), Bs[valid].tolist()))


def enumerate_range(Q: int) -> Iterator[QuarticCharacter]:
    """All characters of odd conductor q <= Q, grouped by q ascending and
    (a, b) ascending within a conductor."""
    if Q < 3:
        raise ValueError("Q must be at least 3")
    for q, a, b in _lattice_generators(Q):
        yield QuarticCharacter(GaussInt(a, b), q)


def characters_upto(Q: int) -> list[QuarticCharacter]:
    return list(enumerate_range(Q))


# ----------------------------------------------------------------------
# brute-force Dirichlet-side correspondence
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CorrespondenceReport:
    q: int
    enumerated: int
    brute_force: int
    bijection: bool

    @property
    def ok(self) -> bool:
        return self.enumerated == self.brute_force and self.bijection


def _component_survivors(p: int, e: int) -> tuple[int, list[int]]:
    """Indices k of characters chi_k on the cyclic group (Z/p^e)* such that
    chi_k and chi_k^2 are primitive mod p^e and ord(chi_k) | 4.

    chi_k(g) = e(k/phi) on a fixed primitive root g.  Returns (phi, ks).
    """
    phi = p ** (e - 1) * (p - 1)
    ks = []
    for k in range(phi):
        if (4 * k) % phi != 0:
            continue  # order does not divide 4
        k2 = (2 * k) % phi
        if e == 1:
            if k == 0 or k2 == 0:
                continue
        else:
            if k % p == 0 or k2 % p == 0:
                continue
        ks.append(k)
    return phi, ks


def verify_correspondence(q: int, bound: int = 2000) -> CorrespondenceReport:
    """Count primitive order-4 characters mod q with primitive square by CRT
    brute force and certify a value-table bijection with the (m/n)_4 family.
    """
    if q % 2 == 0:
        raise ValueError(f"conductor {q} is even")
    if q > bound:
        raise ValueError(f"{q} exceeds the brute-force bound {bound}")
    fac = sorted(factorize_small(q).items())
    comp = [_component_survivors(p, e) for p, e in fac]

    # CRT-lifted generators: g_i = root mod p_i^{e_i}, = 1 mod the rest
    lifts = []
    for (p, e), _ in zip(fac, comp):
        pe = p**e
        rest = q // pe
        g = primitive_root_prime_power(p, e)
        lift = (g * rest * invmod(rest, pe) + 1 * pe * invmod(pe, rest)) % q if rest > 1 else g % q
        lifts.append(lift)

    # Dirichlet side: signatures (i-exponent at each lifted generator)
    brute: list[tuple[int, ...]] = []
    for ks in itertools.product(*[ks for _, ks in comp]):
        orders = [phi // math.gcd(k, phi) if k else 1 for (phi, _), k in zip(comp, ks)]
        if not orders or math.lcm(*orders) != 4:
            continue
        sig = tuple((4 * k // phi) % 4 for (phi, _), k in zip(comp, ks))
        brute.append(sig)

    # symbol side
    gens = enumerate_generators(q)
    sigs = []
    for n in gens:
        sig = tuple(quartic_exponent_fast(g, 0, n.a, n.b) for g in lifts)
        sigs.append(sig)

    bijection = sorted(brute) == sorted(sigs) and len(set(sigs)) == len(sigs)
    return CorrespondenceReport(
        q=q, enumerated=len(gens), brute_force=len(brute), bijection=bijection
    )


# ----------------------------------------------------------------------
# Hecke characters psi_m
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HeckeCharacter:
    """psi_m(n) = (m/n)_4 on primary n; modulus 16|m|, trivial infinite type."""

    twist: int

    @property
    def modulus(self) -> int:
        return 16 * abs(self.twist)


def hecke_eval(psi: HeckeCharacter, n: GaussInt) -> QuarticValue:
    from .gaussint import is_primary

    if not is_primary(n):
        raise ValueError(f"{n} is not primary")
    k = quartic_exponent_fast(psi.twist, 0, n.a, n.b)
    return QuarticValue.zero() if k < 0 else QuarticValue.unit(k)
