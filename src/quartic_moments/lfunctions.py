"""Central values of quartic Dirichlet L-functions.

Two independent evaluation routes:

* `lvalues_afe` (and `lvalue_afe`, its batch of one) -- the approximate
  functional equation, evaluated per conductor.  For a primitive chi
  mod q, any G even, holomorphic, bounded on |Re s| < 4, real on the real
  axis, with G(0) = 1, and any split A*B = q,

      L(1/2+a, chi) = S(a, A) + eps(chi) X_{a,j} conj(S(-conj(a), B)),
      S(b, A) = sum_m chi(m) m^{-1/2-b} V_{b,j}(m/A),

  with j = chi(-1),

      V_{a,j}(x)   = (1/2 pi i) int_(2) (G(s)/s) gamma_{a,j}(s) x^{-s} ds,
      gamma_{a,j}(s) = pi^{-s/2} Gamma((1/2+a_j+a+s)/2) / Gamma((1/2+a_j+a)/2),
      a_j = (1-j)/2,    eps(chi) = i^{-a_j} q^{-1/2} tau(chi),
      X_{a,j} = (q/pi)^{-a} Gamma((1/2+a_j-a)/2) / Gamma((1/2+a_j+a)/2).

  As G is real on the real axis, conj(V_{b,j}(x)) = V_{conj(b),j}(x), so
  the dual sum sum_m conj(chi)(m) m^{-1/2+a} V_{-a,j}(m/B) is
  conj(S(-conj(a), B)): every m-sum is of one kind, and when Re a = 0 and
  A = B = sqrt(q) the two are one sum, computed once.

  V is a trapezoidal sum over nodes s_k on a vertical line Re(s) = c
  (shifted left of 0, plus the residue 1, when x < 1, so small x never
  suffers cancellation).  In the AFE, x = m/A and V depends only on
  (q, j, a), so it is evaluated once per conductor and shared by all its
  characters.  Each term factors as (m/A)^{-s_k} = m^{-s_k} A^{s_k}, so

      V_{a,j}(m/A) = 1[m < A] + sum_k E_c[m, k] (w_k A^{s_k}),

  where w_k are the contour weights and E_c[m, k] = m^{-s_k} is a table
  shared by every conductor, one per abscissa c.  It holds at most 512 rows,
  allocated once and filled in place on first use, so a family fills it up
  to the largest cutoff it needs; longer sums (Gaussian G at a != 0 needs
  M ~ 1e5-1e6) stream the rows past it in 512-row blocks.  A conductor thus
  costs one exponential per node for A^{s_k} plus a mat-vec on row slices.
  `_v_quadrature`, which exponentiates (m/A)^{-s_k} directly, is the oracle
  the table route is tested against.  The table serves a != 0; at a = 0
  V comes from `v_values`, by one route per G: for G = 1 the closed form
  V_j(xi) = Gamma(c_j, pi xi^2)/Gamma(c_j), c_j = 1/4 + a_j/2, and for the
  Gaussian G a spline of the quadrature.  `_gamma_q` evaluates the closed
  form in numpy to absolute error 1e-13: the power series of
  P = 1 - Q below y = 18 and the asymptotic series above, each with a
  certified remainder and a Horner length fixed per y-bucket, so a value
  never depends on the rest of its batch.  The closed form is evaluated
  for blocks of up to 2^14 terms from many conductors of one parity at
  once.  Each m-sum carries a certified truncation tail.  The quadrature
  weights carry 1/Gamma((1/2+a_j+a)/2) ~ e^{pi |Im a|/4}, so its rounding
  grows like that (against mpmath 4.8e-13 at |Im a| = 7, 9.3e-13 at 8) and
  its 1e-12 bound holds for |Im a| <= 7 only; larger shifts are rejected
  (`lvalue_direct` serves any t).

  The characters enter once per conductor too: q is factored once into a
  (characters x omega(q)) sign matrix, T_p[m mod p] is gathered once per
  p | q, and the character values of the whole conductor form one
  (characters x M) matrix whose row sums are the m-sums.

  The root number eps(chi) takes tau(chi) from `gauss_sums.tau_crt` (one
  cached Dirichlet Gauss sum per split p | q, combined by CRT, with the
  signs read from the conductor's sign matrix), so no Z[i] factorization
  or Gaussian-prime Gauss sum runs on this path.

* `lvalue_direct` -- the independent oracle
  L(s, chi) = q^{-s} sum_{r=1}^{q} chi(r) zeta(s, r/q) with the Hurwitz zeta
  evaluated by Euler-Maclaurin (shift to x+K >= 30, eight Bernoulli
  corrections, certified remainder).

The main-term constant of the first-moment experiment,

    C = C0 * C1 * Z(2) / zeta_{Q(i)}(2),      C0 = pi/4,

is assembled in `constants` from rapidly convergent peeled Euler products;
the defining Mobius/Dirichlet sums survive as independent test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import gamma as _cgamma
from scipy.special import loggamma

from .characters import (
    _I_POW,
    QuarticCharacter,
    _primary_points_arrays,
    character_exponents,
    conductor_signature,
    signature_exponents,
)
from .gauss_sums import dirichlet_gauss_sum, tau_crt
from .sieves import primes_upto
from .symbols import quartic_exponent_fast

__all__ = [
    "AFEConfig",
    "DEFAULT_AFE",
    "LValueRecord",
    "TruncationError",
    "gamma_factor",
    "v_function",
    "v_values",
    "epsilon_factor",
    "x_factor",
    "lvalue_afe",
    "lvalues_afe",
    "lvalue_direct",
    "hurwitz_zeta",
    "hecke_l_series",
    "HeckeSeriesValue",
    "MainTermConstants",
    "constants",
    "dirichlet_beta_2",
    "zeta_qi2_euler_product",
    "c1_mobius_sum",
    "z2_dirichlet_sum",
    "clear_lfunction_caches",
]

_T_STEP = 0.04  # trapezoid step of the contour quadrature
_T_MAX = 60.0  # the contour runs over |Im s| <= _T_MAX
_IM_ALPHA_MAX = 7.0  # the quadrature's V keeps its 1e-12 bound for |Im alpha| <= this


class TruncationError(RuntimeError):
    """Certified truncation target unreachable within the term budget."""


@dataclass(frozen=True)
class AFEConfig:
    """Knobs of the approximate-functional-equation evaluation.

    g_choice: 'constant_one' (G = 1) or 'gaussian' (G = e^{s^2}).
    split_a:  the A in A*B = q; None means A = sqrt(q).
    truncation_eps: certified bound for each of the two m-sum tails, in (0, 1).
    term_budget: the most terms either m-sum may take.

    The route to V follows from (G, alpha) alone (see `v_values`).  The
    contour quadrature's trapezoid step and cut are the fixed _T_STEP and
    _T_MAX; `key` keeps them in its 6-tuple, so reports name them, and its
    sixth entry stays True: V at G = 1, alpha = 0 is always the closed form.
    """

    g_choice: str = "constant_one"
    split_a: float | None = None
    truncation_eps: float = 1e-9
    term_budget: int = 2_000_000

    def __post_init__(self):
        if self.g_choice not in ("constant_one", "gaussian"):
            raise ValueError(f"unknown G choice {self.g_choice!r}")
        if not 0 < self.truncation_eps < 1:
            raise ValueError(f"truncation_eps must lie in (0, 1), not {self.truncation_eps!r}")
        if self.split_a is not None and not self.split_a > 0:
            raise ValueError(f"split_a must be positive, not {self.split_a!r}")
        if self.term_budget < 1:
            raise ValueError(f"term_budget must be at least 1, not {self.term_budget!r}")

    def key(self) -> tuple:
        return (
            self.g_choice,
            self.split_a,
            self.truncation_eps,
            _T_STEP,
            _T_MAX,
            True,
        )


DEFAULT_AFE = AFEConfig()


@dataclass(frozen=True)
class LValueRecord:
    """One computed L-value: conductor, generator, value, route, and a bound
    on the certified numerical error."""

    q: int
    a: int
    b: int
    value: complex
    method: str
    err_estimate: float


# ----------------------------------------------------------------------
# gamma factors and V functions
# ----------------------------------------------------------------------


def _a_j(j: int) -> int:
    if j not in (1, -1):
        raise ValueError("j must be +1 or -1")
    return (1 - j) // 2


def gamma_factor(alpha: complex, j: int, s: complex) -> complex:
    """pi^{-s/2} Gamma((1/2+a_j+alpha+s)/2) / Gamma((1/2+a_j+alpha)/2)."""
    aj = _a_j(j)
    alpha, s = complex(alpha), complex(s)
    znum = (0.5 + aj + alpha + s) / 2
    zden = (0.5 + aj + alpha) / 2
    for z in (znum, zden):
        nearest = round(z.real)
        if nearest <= 0 and abs(z - nearest) < 1e-8:
            raise ValueError(f"gamma argument {z} within 1e-8 of a pole")
    return np.pi ** (-s / 2) * _cgamma(znum) / _cgamma(zden)


@lru_cache(maxsize=64)
def _contour_nodes(c: float):
    t = np.arange(-_T_MAX, _T_MAX + _T_STEP / 2, _T_STEP)
    return c + 1j * t


@lru_cache(maxsize=256)
def _contour_weights(c: float, alpha_key: tuple, j: int, g_choice: str) -> np.ndarray:
    """G(s)/s * gamma_{alpha,j}(s) * dt/(2 pi) along Re(s) = c."""
    alpha = complex(*alpha_key)
    aj = _a_j(j)
    s = _contour_nodes(c)
    G = np.exp(s * s) if g_choice == "gaussian" else 1.0
    gam = (
        np.exp(-(s / 2) * math.log(math.pi))
        * _cgamma((0.5 + aj + alpha + s) / 2)
        / _cgamma((0.5 + aj + alpha) / 2)
    )
    return G * gam / s * (_T_STEP / (2 * math.pi))


def _v_quadrature(alpha: complex, j: int, xs: np.ndarray, g_choice: str) -> np.ndarray:
    """V_{alpha,j} on an array of positive x by contour quadrature.

    For x < 1 the line is moved just left of 0 (crossing only the pole at
    s = 0, residue G(0) gamma(0) = 1), which kills the x^{-2} cancellation
    the Re(s) = 2 line would suffer.
    """
    alpha = complex(alpha)
    aj = _a_j(j)
    out = np.empty(len(xs), dtype=np.complex128)
    pole_re = -0.5 - aj - alpha.real
    c_left = max(-0.25, pole_re / 2)
    alpha_key = (alpha.real, alpha.imag)
    for left in (True, False):
        sel = xs < 1.0 if left else xs >= 1.0
        if not np.any(sel):
            continue
        c = c_left if left else 2.0
        s = _contour_nodes(c)
        w = _contour_weights(c, alpha_key, j, g_choice)
        lx = np.log(xs[sel])
        vals = np.empty(sel.sum(), dtype=np.complex128)
        for i in range(0, len(lx), _CHUNK):
            block = np.exp(-np.outer(lx[i : i + _CHUNK], s))
            vals[i : i + _CHUNK] = block @ w
        if left:
            vals += 1.0
        out[sel] = vals
    return out


_CHUNK = 512  # rows of m^{-s} (or (m/A)^{-s}) held at once


class _PowerTable:
    """E[m-1, k] = m^{-s_k} for m = 1.._CHUNK and the nodes s_k of one contour.

    The storage is allocated once at full size and never regrown; rows are
    filled in place on first use, and untouched rows of the `np.empty`
    block take no resident memory, so the table costs only the rows some
    conductor has needed.
    """

    def __init__(self, s: np.ndarray):
        self.s = s
        self.rows = np.empty((_CHUNK, len(s)), dtype=np.complex128)
        self.filled = 0

    def upto(self, M: int) -> int:
        """Fill rows 1..min(M, _CHUNK); return how many are available."""
        M = min(M, _CHUNK)
        for m in range(self.filled + 1, M + 1):
            row = self.rows[m - 1]
            np.multiply(self.s, -math.log(m), out=row)
            np.exp(row, out=row)
        self.filled = max(self.filled, M)
        return M


_POWER_TABLES: dict[float, _PowerTable] = {}


def _power_table(c: float) -> _PowerTable:
    table = _POWER_TABLES.get(c)
    if table is None:
        table = _POWER_TABLES[c] = _PowerTable(_contour_nodes(c))
    return table


def _v_folded(alpha: complex, j: int, A: float, M: int, config: AFEConfig) -> np.ndarray:
    """V_{alpha,j}(m/A) for m = 1..M off the shared m^{-s} tables.

    Same contours and nodes as `_v_quadrature`: m < A on the line left of 0
    (plus the residue 1), m >= A on Re(s) = 2.
    """
    alpha = complex(alpha)
    aj = _a_j(j)
    c_left = max(-0.25, (-0.5 - aj - alpha.real) / 2)
    alpha_key = (alpha.real, alpha.imag)
    n_left = min(M, math.ceil(A) - 1)  # the m with m < A
    out = np.empty(M, dtype=np.complex128)
    for lo, hi, c in ((1, n_left, c_left), (n_left + 1, M, 2.0)):
        if lo > hi:
            continue
        table = _power_table(c)
        w = _contour_weights(c, alpha_key, j, config.g_choice)
        wA = w * np.exp(table.s * math.log(A))
        top = table.upto(hi)
        if lo <= top:
            out[lo - 1 : top] = table.rows[lo - 1 : top] @ wA
        for start in range(max(lo, top + 1), hi + 1, _CHUNK):
            m = np.arange(start, min(start + _CHUNK, hi + 1), dtype=float)
            out[start - 1 : start - 1 + len(m)] = np.exp(-np.outer(np.log(m), table.s)) @ wA
    out[:n_left] += 1.0
    return out


_V_SPLINE_CACHE: dict[tuple, tuple] = {}


def _v_spline(j: int, g_choice: str):
    """Dense log-x spline of V_{0,j} for G = e^{s^2}, with a validated error.

    The gaussian G makes V decay only like exp(-(log x)^2/4), so AFE sums
    need ~1e5 V values; a one-time spline over u = log x in [-16, 13] at
    du = 0.004 makes those evaluations cheap.  The spline is checked against
    direct quadrature on an offset grid and the observed max error is
    reported alongside every value.
    """
    key = (j, g_choice)
    hit = _V_SPLINE_CACHE.get(key)
    if hit is not None:
        return hit
    from scipy.interpolate import CubicSpline

    u = np.arange(-16.0, 13.0, 0.004)
    vals = _v_quadrature(0j, j, np.exp(u), g_choice).real
    spline = CubicSpline(u, vals)
    probe = u[500:-500:937] + 0.002
    direct = _v_quadrature(0j, j, np.exp(probe), g_choice).real
    err = float(np.max(np.abs(spline(probe) - direct)))
    entry = (spline, err, float(u[0]), float(u[-1]))
    _V_SPLINE_CACHE[key] = entry
    return entry


# y-buckets of `_gamma_q`: the power series below _Y0, the asymptotic series
# from there on; each bucket's term count is certified at its worst edge.
_Y_EDGES = (0.25, 1.0, 2.25, 4.0, 6.25, 9.0, 12.25, 16.0, 18.0, 20.0, 24.0, 32.0)
_Y0 = 18.0
_GAMMA_Q_TRUNC = 2.0**-52  # truncation bound of either series, per value


@lru_cache(maxsize=2)
def _gamma_q_buckets(c: float) -> tuple:
    """Horner coefficients (highest first) per bucket of `_Y_EDGES` for
    Q(c, y), c in {1/4, 3/4}, with 1/Gamma(c+1) and 1/Gamma(c).

    Power series, y < hi:  P = y^c e^{-y}/Gamma(c+1) sum_k b_k y^k with
    b_k = prod_{i<=k} 1/(c+i); its tail after n terms is at most
    y^c e^{-y}/Gamma(c+1) b_n y^n / (1 - y/(c+n+1)), increasing in y.
    Asymptotic series, y >= lo:  Q = y^{c-1} e^{-y}/Gamma(c) sum_k d_k y^{-k}
    with d_k = prod_{i<=k} (c-i); integrating by parts leaves the remainder
    d_n Gamma(c-n, y) with |Gamma(c-n, y)| <= y^{c-n-1} e^{-y}, decreasing in y.
    The b_k and d_k are rationals in quarters, rounded once to float.
    """
    if c not in (0.25, 0.75):
        raise ValueError(f"the closed form needs c = 1/4 or 3/4, not {c!r}")
    four_c = round(4 * c)
    ln_trunc = math.log(_GAMMA_Q_TRUNC)
    buckets, lo = [], 0.0
    for hi in _Y_EDGES + (math.inf,):
        series = hi <= _Y0
        if series:
            n, ln_b = 1, -math.log(c + 1)
            while not (c + n + 1 > hi and (c + n) * math.log(hi) - hi - math.lgamma(c + 1)
                       + ln_b - math.log1p(-hi / (c + n + 1)) <= ln_trunc):
                n += 1
                ln_b -= math.log(c + n)
        else:
            n, ln_d = 1, math.log(1 - c)
            while (c - 1 - n) * math.log(lo) - lo - math.lgamma(c) + ln_d > ln_trunc:
                n += 1
                ln_d += math.log(n - c)
        num = den = 1
        coeffs = [1.0]
        for k in range(1, n):
            if series:
                num, den = num * 4, den * (4 * k + four_c)
            else:
                num, den = num * (four_c - 4 * k), den * 4
            coeffs.append(num / den)  # int / int rounds correctly
        buckets.append((series, np.array(coeffs[::-1])))
        lo = hi
    return tuple(buckets), 1 / math.gamma(c + 1), 1 / math.gamma(c)


def _gamma_q(c: float, y: np.ndarray) -> np.ndarray:
    """The regularized Gamma(c, y)/Gamma(c) for c in {1/4, 3/4} and y >= 0,
    to absolute error 1e-13.

    Each bucket of `_Y_EDGES` has a fixed Horner length, so every value
    depends on (c, y) alone, never on the other entries of y.  Error: either
    series' truncation is at most 2^-52.  The power series adds positive
    terms, so P <= 1 carries relative rounding error below 140 ulp (at most
    63 terms) and 1 - P absolute error below 2e-14; the asymptotic terms
    shrink in size (n <= 11 < y), so its rounding error is a few ulp of
    Q < 1e-8.
    """
    buckets, inv_g1, inv_g = _gamma_q_buckets(c)
    root = np.sqrt(np.sqrt(y))
    pre = (root if c == 0.25 else root * np.sqrt(y)) * np.exp(-y)  # y^c e^{-y}
    which = np.searchsorted(_Y_EDGES, y, side="right")
    out = np.empty_like(y)
    for k, (series, coeffs) in enumerate(buckets):
        idx = np.flatnonzero(which == k)
        if not len(idx):
            continue
        t = y[idx] if series else 1 / y[idx]
        r = np.full(len(idx), coeffs[0])
        for a in coeffs[1:]:
            r *= t
            r += a
        out[idx] = 1 - pre[idx] * inv_g1 * r if series else pre[idx] * inv_g * t * r
    return out


def v_values(alpha: complex, j: int, xs, config: AFEConfig = DEFAULT_AFE):
    """Vectorized V_{alpha,j}; returns (values, per_value_error_bound).

    The route follows from (G, alpha) alone, and each value from its own x:
    at G = 1, alpha = 0 the closed form Gamma(c_j, pi x^2)/Gamma(c_j) of
    `_gamma_q` (error 1e-13); at the Gaussian G, alpha = 0 the spline of
    `_v_spline`, with the contour quadrature for any x off its range;
    everywhere else the contour quadrature (error 1e-12, |Im alpha| <= 7).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs <= 0):
        raise ValueError("V is only defined for x > 0")
    alpha = complex(alpha)
    if alpha != 0:
        if not (abs(alpha.real) < math.inf and abs(alpha.imag) <= _IM_ALPHA_MAX):
            raise ValueError(f"alpha = {alpha}: V needs a finite alpha with |Im(alpha)| <= "
                             f"{_IM_ALPHA_MAX:g}")
        return _v_quadrature(alpha, j, xs, config.g_choice), 1e-12
    if config.g_choice == "constant_one":
        c = 0.25 + _a_j(j) / 2
        return _gamma_q(c, math.pi * xs * xs).astype(np.complex128), 1e-13
    spline, err, lo, hi = _v_spline(j, config.g_choice)
    u = np.log(xs)
    inside = (u >= lo) & (u <= hi)
    out = np.empty(len(xs), dtype=np.complex128)
    out[inside] = spline(u[inside])
    if inside.all():
        return out, max(err, 1e-13)
    out[~inside] = _v_quadrature(0j, j, xs[~inside], config.g_choice)
    return out, max(err, 1e-12)


def v_function(alpha: complex, j: int, x: float, config: AFEConfig = DEFAULT_AFE) -> complex:
    """V_{alpha,j}(x) for a single x."""
    vals, _ = v_values(alpha, j, np.array([float(x)]), config)
    return complex(vals[0])


# ----------------------------------------------------------------------
# truncation of the AFE sums
# ----------------------------------------------------------------------

_C_GRID = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 14.0, 20.0, 28.0)


@lru_cache(maxsize=512)
def _ln_contour_mass(c: float, alpha_key: tuple, j: int, g_choice: str) -> float:
    """log of (1/2 pi) int |G(c+it) gamma_{alpha,j}(c+it) / (c+it)| dt."""
    alpha = complex(*alpha_key)
    aj = _a_j(j)
    h = 0.05
    t = np.arange(-80.0, 80.0 + h / 2, h)
    s = c + 1j * t
    ln = (
        np.real(loggamma((0.5 + aj + alpha + s) / 2))
        - np.real(loggamma((0.5 + aj + alpha) / 2))
        - (c / 2) * math.log(math.pi)
        - 0.5 * np.log(c * c + t * t)
    )
    if g_choice == "gaussian":
        ln = ln + (c * c - t * t)
    m = float(np.max(ln))
    return m + math.log(float(np.sum(np.exp(ln - m)))) + math.log(h) - math.log(2 * math.pi)


def _cutoff_closed_form(A: float, eps: float, j: int) -> tuple[int, float]:
    # G = 1, alpha = 0: V_j(xi) <= (pi xi^2)^{c-1} e^{-pi xi^2} / Gamma(c), c <= 3/4
    c = 0.25 + _a_j(j) / 2
    gc = math.gamma(c)
    M = max(int(A * math.sqrt(math.log(1 / eps) / math.pi)), 8)
    while True:
        xi2 = math.pi * ((M + 1) / A) ** 2
        f = (M + 1) ** -0.5 * xi2 ** (c - 1) * math.exp(-xi2) / gc
        rho = math.exp(-math.pi * (2 * M + 1) / (A * A))
        tail = f / (1 - rho) if rho < 1 else math.inf
        if tail <= eps:
            return M, tail
        M = int(M * 1.1) + 1


def _cutoff_contour(A: float, sigma: float, alpha: complex, j: int,
                    g_choice: str, eps: float) -> tuple[int, float]:
    # tail(M) <= K_c A^c M^{1-sigma-c} / (sigma+c-1), minimized over c
    alpha_key = (alpha.real, alpha.imag)
    ln_eps, lnA = math.log(eps), math.log(A)
    best_M, best = None, None
    for c in _C_GRID:
        lnK = _ln_contour_mass(c, alpha_key, j, g_choice)
        denom = sigma + c - 1
        if denom <= 0.05:
            continue
        lnM = (lnK + c * lnA - math.log(denom) - ln_eps) / denom
        M = max(8, int(math.exp(min(lnM, 50.0))) + 1)
        if best_M is None or M < best_M:
            tail = math.exp(lnK + c * lnA + (1 - sigma - c) * math.log(M) - math.log(denom))
            best_M, best = M, tail
    if best_M is None:
        raise TruncationError("no admissible contour for the tail bound")
    return best_M, best


def _afe_cutoff(q: int, A: float, beta: complex, j: int,
                config: AFEConfig) -> tuple[int, float]:
    """Cutoff and tail of S(beta, A), whose terms decay like m^{-1/2-Re(beta)}."""
    eps = config.truncation_eps
    if beta == 0 and config.g_choice == "constant_one":
        M, tail = _cutoff_closed_form(A, eps, j)
    else:
        M, tail = _cutoff_contour(A, 0.5 + beta.real, beta, j, config.g_choice, eps)
    if M > config.term_budget:
        raise TruncationError(
            f"conductor q={q}: certified tail {eps:g} needs {M} terms "
            f"(budget {config.term_budget})"
        )
    return M, tail


# ----------------------------------------------------------------------
# epsilon and X factors, AFE assembly
# ----------------------------------------------------------------------


def epsilon_factor(chi: QuarticCharacter, route: str = "crt", signature=None) -> complex:
    """eps(chi) = i^{-a_{chi(-1)}} q^{-1/2} tau(chi).

    tau(chi) comes from `tau_crt` (route 'crt', the L-value path, reading
    chi's prime `signature` when one is given) or from the defining sum
    `dirichlet_gauss_sum` ('direct', the oracle).
    """
    if route == "crt":
        tau = tau_crt(chi, signature)
    elif route == "direct":
        tau = dirichlet_gauss_sum(chi)
    else:
        raise ValueError(f"unknown route {route!r}")
    a = (1 - chi.parity()) // 2
    return (-1j) ** a * tau / math.sqrt(chi.q)


def x_factor(alpha: complex, j: int, q: int) -> complex:
    """(q/pi)^{-alpha} Gamma((1/2+a_j-alpha)/2) / Gamma((1/2+a_j+alpha)/2);
    exactly 1 at alpha = 0."""
    alpha = complex(alpha)
    if alpha == 0:
        return 1 + 0j
    aj = _a_j(j)
    ratio = _cgamma((0.5 + aj - alpha) / 2) / _cgamma((0.5 + aj + alpha) / 2)
    return complex(np.exp(-alpha * math.log(q / math.pi)) * ratio)


_ROW_BLOCK = 1 << 18  # AFE terms formed at once: 4 MB of complex128
_V_BLOCK = 1 << 14  # closed-form V terms evaluated at once (peak memory)


def _row_sums(E: np.ndarray, beta: complex, V: np.ndarray) -> np.ndarray:
    """The m-sums S(beta) = np.sum(i^E[:, m-1] m^{-1/2-beta} V[m-1], axis=1), a
    block of rows at a time so that long sums (Gaussian G) hold no more terms
    than one row or _ROW_BLOCK; each row's sum is the same whatever the blocking."""
    m = np.arange(1, E.shape[1] + 1, dtype=float)
    coeff = m ** -0.5 if beta == 0 else np.exp(-(0.5 + beta) * np.log(m))
    step = max(1, _ROW_BLOCK // E.shape[1])
    return np.concatenate([np.sum(_I_POW[E[r : r + step]] * coeff * V, axis=1)
                           for r in range(0, len(E), step)])


class _Conductor(NamedTuple):
    """One conductor of an `lvalues_afe` batch: its characters' positions,
    their parity, and (beta, scale, cutoff, tail) of each m-sum
    S(beta, scale) -- (alpha, A) and (-conj(alpha), q/A), or one entry when
    the two pairs are equal (Re alpha = 0 and B = A = sqrt(q))."""

    q: int
    idx: list[int]
    j: int
    sums: tuple[tuple[complex, float, int, float], ...]


def _v_blocks(conductors: list[_Conductor]):
    """Consecutive runs of whole conductors with at most _V_BLOCK V terms
    between them, or one conductor that alone has more."""
    block, terms = [], 0
    for cond in conductors:
        n = sum(M for _, _, M, _ in cond.sums)
        if block and terms + n > _V_BLOCK:
            yield block
            block, terms = [], 0
        block.append(cond)
        terms += n
    if block:
        yield block


def _conductor_v(conductors: list[_Conductor], alpha: complex, config: AFEConfig):
    """Yield (conductor, [(V, per-value error) for each of its m-sums]).

    At alpha = 0 (every beta 0), V is `v_values` at m/A: the closed form
    (G = 1) takes one call per block of `_v_blocks` of one parity, over the
    concatenated m/A, and each conductor reads its slices; since `_gamma_q`
    is elementwise, a slice has the bits of a call on that conductor alone.
    The Gaussian G takes one call per m-sum.  Else each reads `_v_folded`.
    """
    if alpha != 0:
        for cond in conductors:
            yield cond, [(_v_folded(beta, cond.j, scale, M, config), 1e-12)
                         for beta, scale, M, _ in cond.sums]
        return
    if config.g_choice == "gaussian":
        for cond in conductors:
            yield cond, [v_values(0j, cond.j, np.arange(1, M + 1, dtype=float) / scale, config)
                         for _, scale, M, _ in cond.sums]
        return
    for j in (1, -1):
        for block in _v_blocks([cond for cond in conductors if cond.j == j]):
            xs = [np.arange(1, M + 1, dtype=float) / scale
                  for cond in block for _, scale, M, _ in cond.sums]
            V, verr = v_values(0j, j, np.concatenate(xs), config)
            parts = iter(np.split(V, np.cumsum([len(x) for x in xs[:-1]])))
            for cond in block:
                yield cond, [(next(parts), verr) for _ in cond.sums]


def lvalues_afe(chars: list[QuarticCharacter], alpha: complex = 0j,
                config: AFEConfig = DEFAULT_AFE) -> list[LValueRecord]:
    """L(1/2 + alpha, chi), |Re alpha| < 1/2, |Im alpha| <= 7, by the
    approximate functional equation for each chi in `chars`, in order.

    L = S(alpha, A) + eps X conj(S(-conj(alpha), q/A)) (module docstring),
    one m-sum S when Re alpha = 0 and A = sqrt(q).  Per conductor, q is
    factored once (`conductor_signature`), each m-sum's cutoff, tail and V
    are found once (the closed-form V for blocks of conductors, in
    `_conductor_v`), and `_row_sums` sums each character's row in the order
    of a lone character's sum, so a value has the same bits in any batch
    and no BLAS reduction enters.  eps(chi) reads the character's sign row
    and the cached tau_p.
    """
    alpha = complex(alpha)
    if not (abs(alpha.real) < 0.5 and abs(alpha.imag) <= _IM_ALPHA_MAX):
        raise ValueError(f"alpha = {alpha}: the AFE needs |Re(alpha)| < 1/2 and |Im(alpha)| <= "
                         f"{_IM_ALPHA_MAX:g} (lvalue_direct serves any t)")
    by_q: dict[int, list[int]] = {}
    for i, chi in enumerate(chars):
        by_q.setdefault(chi.q, []).append(i)
    conductors = []
    for q, idx in by_q.items():
        j = chars[idx[0]].parity()
        A = math.sqrt(q) if config.split_a is None else float(config.split_a)
        pairs = ((alpha, A),)
        if not (alpha.real == 0 and config.split_a is None):
            pairs += ((-alpha.conjugate(), q / A),)
        sums = tuple((beta, scale, *_afe_cutoff(q, scale, beta, j, config))
                     for beta, scale in pairs)
        conductors.append(_Conductor(q, idx, j, sums))

    out: list[LValueRecord | None] = [None] * len(chars)
    for cond, vs in _conductor_v(conductors, alpha, config):
        group = [chars[i] for i in cond.idx]
        tables, signs = conductor_signature(cond.q, [chi.n for chi in group])
        E = signature_exponents(tables, signs, np.arange(1, max(s[2] for s in cond.sums) + 1))
        S = [_row_sums(E[:, :M], beta, V) for (beta, _, M, _), (V, _) in zip(cond.sums, vs)]
        S1, S2 = S[0], S[-1].conj()

        X = x_factor(alpha, cond.j, cond.q)
        (_, _, M1, tail1), (_, _, M2, tail2) = cond.sums[0], cond.sums[-1]
        verr1, verr2 = vs[0][1], vs[-1][1]
        err = tail1 + tail2 + 2.0 * (verr1 * math.sqrt(M1) + verr2 * math.sqrt(M2)) + 1e-12
        for i, chi, row, s1, s2 in zip(cond.idx, group, signs, S1, S2):
            signature = [(p, table, sign) for (p, table), sign in zip(tables, row)]
            L = complex(s1) + epsilon_factor(chi, signature=signature) * X * complex(s2)
            out[i] = LValueRecord(q=cond.q, a=chi.n.a, b=chi.n.b, value=L, method="afe",
                                  err_estimate=err)
    return out


def lvalue_afe(chi: QuarticCharacter, alpha: complex = 0j,
               config: AFEConfig = DEFAULT_AFE) -> LValueRecord:
    """L(1/2 + alpha, chi) by the approximate functional equation."""
    return lvalues_afe([chi], alpha, config)[0]


# ----------------------------------------------------------------------
# Hurwitz zeta by Euler-Maclaurin, and the direct oracle
# ----------------------------------------------------------------------

_B2J_OVER_FACT = tuple(
    b / math.factorial(2 * j)
    for j, b in enumerate(
        (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510),
        start=1,
    )
)
_B18_OVER_18F = (43867 / 798) / math.factorial(18)


def hurwitz_zeta(s: complex, x, shift: float = 30.0):
    """zeta(s, x) on an array of x in (0, 1], with a certified remainder.

    Euler-Maclaurin: shift until the argument exceeds `shift`, keep eight
    Bernoulli corrections, and bound the remainder by the first omitted
    term times (|s| + 17)/(Re s + 17).
    Returns (values, remainder_bound).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0):
        raise ValueError("hurwitz_zeta requires x > 0")
    s = complex(s)
    if abs(s - 1) < 1e-8:
        raise ValueError("pole at s = 1")
    if s.real <= -16:
        raise ValueError("Re(s) too small for the certified remainder")
    K = max(0, int(math.ceil(shift - float(x.min()))))
    base = x[None, :] + np.arange(K)[:, None]
    head = np.sum(base ** (-s), axis=0)
    X = x + K
    out = head + X ** (1 - s) / (s - 1) + 0.5 * X ** (-s)
    rf = s
    Xp = X ** (-s - 1)
    for jj, coef in enumerate(_B2J_OVER_FACT, start=1):
        out = out + coef * rf * Xp
        rf = rf * (s + 2 * jj - 1) * (s + 2 * jj)
        Xp = Xp / (X * X)
    # rf is now (s)_17
    Xmin = float(X.min())
    remainder = (
        _B18_OVER_18F
        * abs(rf)
        * Xmin ** (-s.real - 17)
        * (abs(s) + 17)
        / (s.real + 17)
    )
    return out, float(remainder)


def lvalue_direct(chi: QuarticCharacter, s: complex = 0.5) -> LValueRecord:
    """L(s, chi) = q^{-s} sum_r chi(r) zeta(s, r/q): the independent oracle."""
    s = complex(s)
    q = chi.q
    e = character_exponents(chi, q)[1:]
    mask = e >= 0
    xs = (np.arange(1, q + 1, dtype=float) / q)[mask]
    zvals, rem = hurwitz_zeta(s, xs)
    vals = _I_POW[e[mask]]
    scale = q ** (-s)
    L = complex(scale * np.sum(vals * zvals))
    err = abs(scale) * len(xs) * (rem + 1e-13 * float(np.max(np.abs(zvals))))
    return LValueRecord(q=q, a=chi.n.a, b=chi.n.b, value=L, method="direct",
                        err_estimate=err)


# ----------------------------------------------------------------------
# Hecke L-series in the region of absolute convergence
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HeckeSeriesValue:
    value: complex
    tail_bound: float
    cutoff: int
    terms: int


def hecke_l_series(m: int, s: complex, cutoff: int = 100_000) -> HeckeSeriesValue:
    """Truncated L(s, psi_m) = sum_{n primary} (m/n)_4 N(n)^{-s}, Re(s) > 1.1."""
    from .gauss_sums import primary_count_bound_constant

    s = complex(s)
    if s.real < 1.1:
        raise ValueError("hecke_l_series needs Re(s) >= 1.1 (continuation out of scope)")
    if cutoff < 1000:
        raise ValueError("cutoff must be at least 10^3 (tail-bound validity)")
    qs, As, Bs = _primary_points_arrays(cutoff)
    exps = np.empty(len(qs), dtype=np.int64)
    for i in range(len(qs)):
        exps[i] = quartic_exponent_fast(m, 0, int(As[i]), int(Bs[i]))
    terms = _I_POW[exps] * qs.astype(float) ** (-s)
    total = complex(math.fsum(terms.real), math.fsum(terms.imag))
    sigma = s.real
    c = primary_count_bound_constant()
    tail = c * sigma / (sigma - 1) * cutoff ** (1 - sigma)
    return HeckeSeriesValue(value=total, tail_bound=tail, cutoff=cutoff,
                            terms=int(np.sum(exps >= 0)))


# ----------------------------------------------------------------------
# the main-term constant
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MainTermConstants:
    c0: float
    c1: float
    zeta_qi_2: float
    z2: float
    c: float
    c1_tail: float
    z2_tail: float
    prime_bound: int

    def as_dict(self) -> dict:
        return {
            "C0": self.c0,
            "C1": self.c1,
            "zeta_Qi_2": self.zeta_qi_2,
            "Z2": self.z2,
            "C": self.c,
            "C1_tail": self.c1_tail,
            "Z2_tail": self.z2_tail,
            "prime_bound": self.prime_bound,
        }


def dirichlet_beta_2() -> float:
    """L(2, chi_{-4}) = (zeta(2, 1/4) - zeta(2, 3/4)) / 16 (Catalan)."""
    vals, _ = hurwitz_zeta(2.0, np.array([0.25, 0.75]))
    return float((vals[0] - vals[1]).real) / 16.0


@lru_cache(maxsize=8)
def constants(prime_bound: int = 300_000) -> MainTermConstants:
    """C0, C1, zeta_{Q(i)}(2), Z(2) and C = C0 C1 Z(2) / zeta_{Q(i)}(2).

    C1 = sum over d in Z, d = 1 mod 4, of mu(|d|) d^{-2}
    prod_{pi | d} (1 + N(pi)^{-1})^{-1}.  Both signs of d are essential: the
    Mobius indicator sum_{d | n, d = 1 mod 4} mu(|d|) detects 'no rational
    prime divisor' only because an inert prime p = 3 mod 4 enters through
    d = -p = 1 mod 4.  Exactly one sign of each odd squarefree |d| = m meets
    the congruence, so C1 collapses to the single Euler product
    prod_{p odd} (1 - u_p p^{-2}) with u_p = prod_{pi | p}(1 + N(pi)^{-1})^{-1},
    peeled against zeta(2) so the truncated correction converges like
    sum p^{-3}.  Z(2) collapses to
    (pi^2/9) prod_{p = 1 mod 4} (1 - 2/(p^2(p+2))).

    With these readings C agrees to ~1e-8 with the independently derived
    density constant of the k^4-diagonal,
    zeta(2) (pi/8) prod_{p=3(4)} (1-p^-2) prod_{p=1(4)} (1+(2/p)(1-p^-2))(1-1/p)^2,
    and with the lattice-count density measured by brute force.
    """
    c0 = math.pi / 4
    beta2 = dirichlet_beta_2()
    zeta_qi_2 = (math.pi**2 / 6) * beta2

    p = primes_upto(prime_bound).astype(float)
    p = p[p > 2]
    split = (p % 4) == 1
    u = np.where(split, (p / (p + 1)) ** 2, p * p / (p * p + 1))

    g_hat = (1 - u / p**2) / (1 - 1 / p**2)
    c1 = (8 / math.pi**2) * math.exp(float(np.sum(np.log(g_hat))))
    c1_tail = 3.0 * 1.05 / prime_bound**2

    w_split = 1 - 2 / (p[split] ** 2 * (p[split] + 2))
    z2 = (math.pi**2 / 9) * math.exp(float(np.sum(np.log(w_split))))
    z2_tail = 2.0 * 1.05 / prime_bound**2

    c = c0 * c1 * z2 / zeta_qi_2
    return MainTermConstants(
        c0=c0, c1=c1, zeta_qi_2=zeta_qi_2, z2=z2, c=c,
        c1_tail=c1_tail, z2_tail=z2_tail, prime_bound=prime_bound,
    )


def zeta_qi2_euler_product(prime_bound: int = 30_000_000) -> tuple[float, float]:
    """zeta_{Q(i)}(2) by its Euler product over Gaussian primes: the
    independent route (4/3) prod_split (1-p^{-2})^{-2} prod_inert (1-p^{-4})^{-1}.

    Returns (value, relative_tail_bound); the tail uses
    sum_{p > P} p^{-2} < 1.3 / (P log P).
    """
    # sieve without the cached power-of-two rounding (memory)
    size = prime_bound
    sieve = np.ones(size // 2 + 1, dtype=bool)  # odd numbers 1, 3, 5, ...
    sieve[0] = False
    i = 1
    while (2 * i + 1) ** 2 <= size:
        p = 2 * i + 1
        if sieve[i]:
            start = (p * p - 1) // 2
            sieve[start::p] = False
        i += 1
    odds = 2 * np.flatnonzero(sieve).astype(np.int64) + 1
    pf = odds.astype(float)
    split = (odds & 3) == 1
    ln = np.where(split, -2 * np.log1p(-pf**-2), -np.log1p(-pf**-4))
    value = (4.0 / 3.0) * math.exp(float(np.sum(ln)))
    tail = 3.0 * 1.3 / (prime_bound * math.log(prime_bound))
    return value, tail


def c1_mobius_sum(bound: int = 300_000, signed: bool = True) -> tuple[float, float]:
    """The defining truncated Mobius sum for C1 (coarse oracle, tail ~ 1/bound).

    With signed=True, d runs over all d = 1 mod 4 with |d| <= bound
    (exactly one sign of each odd |d| qualifies); signed=False keeps only
    positive d, for comparison with the positive-only misreading.
    """
    from .sieves import mobius_upto

    mu = mobius_upto(bound)[: bound + 1].astype(float)
    G = np.ones(bound + 1)
    for p in primes_upto(bound):
        p = int(p)
        if p == 2:
            continue
        up = (p / (p + 1)) ** 2 if p % 4 == 1 else p * p / (p * p + 1.0)
        G[p::p] *= up
    if signed:
        m = np.arange(1, bound + 1, 2)
        val = float(np.sum(mu[m] * G[m] / m.astype(float) ** 2))
    else:
        d = np.arange(1, bound + 1, 4)
        val = float(np.sum(mu[d] * G[d] / d.astype(float) ** 2))
    return val, 1.0 / bound


def z2_dirichlet_sum(bound: int = 1_000_000) -> tuple[float, float]:
    """The defining truncated Dirichlet sum for Z(2) (coarse oracle)."""
    F = np.ones(bound + 1)
    for p in primes_upto(bound):
        p = int(p)
        if p == 2 or p % 4 == 3:
            continue  # inert local weight is exactly 1
        F[p::p] *= p / (p + 2.0)
    mvals = np.arange(1, bound + 1, dtype=float)
    val = (2.0 / 3.0) * float(np.sum(F[1:] / mvals**2))
    return val, (2.0 / 3.0) / bound


def clear_lfunction_caches() -> None:
    _contour_nodes.cache_clear()
    _contour_weights.cache_clear()
    _ln_contour_mass.cache_clear()
    _gamma_q_buckets.cache_clear()
    _V_SPLINE_CACHE.clear()
    _POWER_TABLES.clear()
    constants.cache_clear()
