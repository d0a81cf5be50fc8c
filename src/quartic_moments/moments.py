"""Moment experiments over the quartic family.

The family at conductor q is the 2^omega(q) characters chi_n classified in
`characters`; the experiments are:

* first moment   M(Q) = sum_q sum_chi L(1/2, chi) w(q/Q) against the
  predicted main term C * Q * w~(1), with C from `lfunctions.constants`;
* non-vanishing  counts of |L(1/2, chi)| above a threshold;
* second moment  sum_{q <= Q} sum_chi |L(1/2+it, chi)|^2 and its fitted
  growth exponent across doubling Q;
* empirical large-sieve ratios for the quartic-family double sum
  (dyadic q and m ranges, squarefree rational m) and for the quadratic
  residue symbol double sum over squarefree Gaussian integers, whose
  symbol matrix is built as a product of per-prime Legendre rows.

Everything is deterministic: fixed enumeration order, compensated (fsum)
reductions in ascending (q, a, b), counter-based Philox streams keyed by
(master seed, trial index), and einsum mat-vecs in the sieves so no BLAS
threading can reorder their reductions.  The V mat-vecs in `lfunctions` do
use BLAS `@`; the test suite pins their rows bit-identical across call
sizes, which worker invariance rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .characters import (
    QuarticCharacter,
    character_exponents,
    characters_upto,
    exponents_to_complex,
)
from .gaussint import GaussInt, factor, norm
from .lfunctions import (
    AFEConfig,
    DEFAULT_AFE,
    LValueRecord,
    TruncationError,
    constants,
    lvalues_afe,
)
from .sieves import squarefree_mask
from .weights import WeightFunction, bump_weight

__all__ = [
    "MomentReport",
    "NonvanishingReport",
    "SecondMomentReport",
    "SieveReport",
    "central_values",
    "first_moment",
    "moment_family",
    "nonvanishing_count",
    "second_moment",
    "sieve_ratio_quartic",
    "sieve_ratio_quadratic",
    "clear_moment_caches",
]


def clear_moment_caches() -> None:
    _gaussian_squarefree_points.cache_clear()
    _quadratic_symbol_matrix.cache_clear()


# ----------------------------------------------------------------------
# the L-value engine
# ----------------------------------------------------------------------


def central_values(
    chars: list[QuarticCharacter],
    alpha: complex = 0j,
    config: AFEConfig = DEFAULT_AFE,
    workers: int = 1,
) -> list[LValueRecord]:
    """AFE central values for a list of characters, ascending (q, a, b).

    The sorted characters go to `lvalues_afe`, which works conductor by
    conductor; nothing is kept between calls.  With workers > 1, whole
    conductors are dealt round-robin to a process pool and the records
    restored to sorted order; each value has the same bits in any batch, so
    the output is independent of the worker count.
    """
    order = sorted(chars, key=lambda c: (c.q, c.n.a, c.n.b))
    if workers <= 1 or len(order) <= 8:
        return lvalues_afe(order, alpha, config)
    from concurrent.futures import ProcessPoolExecutor

    by_q: dict[int, list[QuarticCharacter]] = {}
    for chi in order:
        by_q.setdefault(chi.q, []).append(chi)
    conductors = list(by_q.values())
    chunks = min(workers * 4, len(conductors))
    tasks = [[chi for group in conductors[i::chunks] for chi in group] for i in range(chunks)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        blocks = pool.map(partial(lvalues_afe, alpha=alpha, config=config), tasks)
        recs = [r for block in blocks for r in block]
    return sorted(recs, key=lambda r: (r.q, r.a, r.b))


def _fsum_complex(values) -> complex:
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


def moment_records(
    chars: list[QuarticCharacter],
    config: AFEConfig = DEFAULT_AFE,
    workers: int = 1,
    method: str = "afe",
) -> list[LValueRecord]:
    """Central-value records for a character list, by either route."""
    if method == "afe":
        return central_values(chars, 0j, config, workers)
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    from .lfunctions import lvalue_direct

    order = sorted(chars, key=lambda c: (c.q, c.n.a, c.n.b))
    return [lvalue_direct(chi, 0.5) for chi in order]


# ----------------------------------------------------------------------
# first moment
# ----------------------------------------------------------------------


def moment_family(Q: int, weight: WeightFunction) -> list[QuarticCharacter]:
    """The characters the first moment at Q sums over: lo*Q < q < hi*Q for
    the weight's support (lo, hi)."""
    lo, hi = weight.support
    return [c for c in characters_upto(int(hi * Q)) if lo * Q < c.q < hi * Q]


@dataclass(frozen=True)
class MomentReport:
    Q: int
    weight: str
    moment: complex
    predicted: float
    ratio: float
    character_count: int
    per_q: tuple | None
    config_key: tuple
    method: str = "afe"

    def to_dict(self) -> dict:
        d = {
            "Q": self.Q,
            "method": self.method,
            "weight": self.weight,
            "moment_re": self.moment.real,
            "moment_im": self.moment.imag,
            "predicted": self.predicted,
            "ratio": self.ratio,
            "character_count": self.character_count,
            "config": list(map(str, self.config_key)),
        }
        if self.per_q is not None:
            d["per_q"] = [list(row) for row in self.per_q]
        return d


def first_moment(
    Q: int,
    weight: WeightFunction | None = None,
    config: AFEConfig = DEFAULT_AFE,
    workers: int = 1,
    with_per_q: bool = False,
    method: str = "afe",
) -> MomentReport:
    """M(Q) = sum over the family of L(1/2, chi) w(q/Q), with the predicted
    main term C * Q * w~(1) and their ratio.

    method='direct' substitutes the Hurwitz-zeta oracle for every L-value
    (slower; used to cross-check the AFE-based moment).
    """
    if Q < 10:
        raise ValueError("Q must be at least 10")
    w = weight or bump_weight()
    chars = moment_family(Q, w)
    try:
        recs = moment_records(chars, config, workers, method)
    except TruncationError as exc:
        raise TruncationError(f"first_moment(Q={Q}): {exc}")
    weights = w(np.array([rec.q for rec in recs]) / Q)
    terms = [rec.value * float(wq) for rec, wq in zip(recs, weights)]
    moment = _fsum_complex(terms)
    per_q = None
    if with_per_q:
        rows: dict[int, list[complex]] = {}
        for rec, t in zip(recs, terms):
            rows.setdefault(rec.q, []).append(t)
        per_q = tuple(
            (q, (total := _fsum_complex(ts)).real, total.imag, len(ts))
            for q, ts in sorted(rows.items())
        )
    pred = constants().c * Q * w.mellin_at_1
    return MomentReport(
        Q=Q,
        weight=w.kind,
        moment=moment,
        predicted=pred,
        ratio=moment.real / pred,
        character_count=len(chars),
        per_q=per_q,
        config_key=config.key(),
        method=method,
    )


# ----------------------------------------------------------------------
# non-vanishing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NonvanishingReport:
    Q: int
    threshold: float
    count: int
    total: int
    proportion: float

    def to_dict(self) -> dict:
        return {
            "Q": self.Q,
            "threshold": self.threshold,
            "count": self.count,
            "total": self.total,
            "proportion": self.proportion,
        }


def nonvanishing_count(
    Q: int,
    threshold: float = 1e-8,
    config: AFEConfig = DEFAULT_AFE,
    workers: int = 1,
) -> NonvanishingReport:
    """Count enumerated chi with conductor <= Q and |L(1/2, chi)| > threshold."""
    if Q < 10:
        raise ValueError("Q must be at least 10")
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, not {threshold!r}")
    chars = characters_upto(Q)
    recs = central_values(chars, 0j, config, workers)
    count = sum(1 for r in recs if abs(r.value) > threshold)
    total = len(recs)
    return NonvanishingReport(
        Q=Q,
        threshold=threshold,
        count=count,
        total=total,
        proportion=count / total if total else 0.0,
    )


# ----------------------------------------------------------------------
# second moment
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SecondMomentReport:
    Q: int
    t: float
    total: float
    growth_table: tuple
    fitted_exponent: float
    bound_constant: float

    def to_dict(self) -> dict:
        return {
            "Q": self.Q,
            "t": self.t,
            "total": self.total,
            "growth_table": [list(row) for row in self.growth_table],
            "fitted_exponent": self.fitted_exponent,
            "bound_constant": self.bound_constant,
        }


def second_moment(
    Q: int,
    t: float = 0.0,
    config: AFEConfig = DEFAULT_AFE,
    grid: tuple[int, ...] | None = None,
    workers: int = 1,
) -> SecondMomentReport:
    """sum_{q <= Q} sum_chi |L(1/2 + it, chi)|^2 with a growth table over
    doubling Q and the least-squares exponent of log-sum vs log-Q."""
    if Q < 10:
        raise ValueError("Q must be at least 10")
    if grid is None:
        pts = [Q]
        while pts[0] > max(10, Q // 16):
            pts.insert(0, pts[0] // 2)
        grid = tuple(pts)
    grid = tuple(sorted(grid))
    chars = characters_upto(grid[-1])
    recs = central_values(chars, complex(0.0, t), config, workers)
    table = []
    for Qi in grid:
        s = math.fsum(abs(r.value) ** 2 for r in recs if r.q <= Qi)
        table.append((Qi, s))
    logq = np.log([row[0] for row in table])
    logs = np.log([row[1] for row in table])
    slope = float(np.polyfit(logq, logs, 1)[0])
    K = max(
        s / (Qi ** (7 / 6 + 0.1) * (1 + abs(t)) ** 0.6) for Qi, s in table
    )
    return SecondMomentReport(
        Q=Q,
        t=t,
        total=table[-1][1],
        growth_table=tuple(table),
        fitted_exponent=slope,
        bound_constant=K,
    )


# ----------------------------------------------------------------------
# empirical large-sieve ratios
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SieveReport:
    kind: str
    params: tuple
    trials: int
    seed: int
    max_ratio: float
    ratios: tuple

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": list(self.params),
            "trials": self.trials,
            "seed": self.seed,
            "max_ratio": self.max_ratio,
            "ratios": list(self.ratios),
        }


def _rademacher(n: int, seed: int, trial: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=(seed << 32) + trial))
    return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0


def quartic_sieve_bound(Q: int, M: int) -> float:
    """min of the four candidate bound shapes (epsilon factors dropped)."""
    return min(
        Q ** 1.5 + M,
        Q ** 1.25 + Q ** 0.5 * M,
        Q ** (7 / 6) + Q ** (2 / 3) * M,
        Q + Q ** (1 / 3) * M ** (5 / 3) + M ** (7 / 3),
    )


def sieve_ratio_quartic(Q: int, M: int, trials: int = 20, rng_seed: int = 1) -> SieveReport:
    """max over +-1 trials of
    [sum_{Q<q<=2Q} sum_chi |sum_{M<m<=2M, m squarefree} a_m chi(m)|^2]
    / [bound(Q, M) * sum |a_m|^2]."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if Q < 3 or M < 1:
        raise ValueError(f"Q must be at least 3 and M at least 1, not {Q!r} and {M!r}")
    chars = [c for c in characters_upto(2 * Q) if c.q > Q]
    sf = squarefree_mask(2 * M)
    ms = np.array([m for m in range(M + 1, 2 * M + 1) if sf[m]], dtype=np.int64)
    V = np.zeros((len(chars), len(ms)), dtype=np.complex128)
    for i, chi in enumerate(chars):
        e = character_exponents(chi, 2 * M)
        V[i] = exponents_to_complex(e[ms])
    bound = quartic_sieve_bound(Q, M) * len(ms)
    ratios = []
    for trial in range(trials):
        a = _rademacher(len(ms), rng_seed, trial)
        y = np.einsum("cm,m->c", V, a.astype(np.complex128))
        lhs = float(np.sum(np.abs(y) ** 2))
        ratios.append(lhs / bound)
    return SieveReport(
        kind="quartic",
        params=(Q, M),
        trials=trials,
        seed=rng_seed,
        max_ratio=max(ratios),
        ratios=tuple(ratios),
    )


@lru_cache(maxsize=4)
def _gaussian_squarefree_points(limit: int) -> tuple[tuple[int, int, int, tuple], ...]:
    """Squarefree odd-norm Gaussian integers (all associates) with norm <= limit,
    as (norm, a, b, primary prime divisors), sorted by (norm, a, b)."""
    out = []
    r = math.isqrt(limit)
    for a in range(-r - 1, r + 2):
        for b in range(-r - 1, r + 2):
            nn = a * a + b * b
            if nn < 1 or nn > limit or nn % 2 == 0:
                continue
            fact = factor(GaussInt(a, b))
            if fact.is_squarefree():
                out.append((nn, a, b, tuple(pi for pi, _ in fact.factors)))
    out.sort(key=lambda pt: pt[:3])
    return tuple(out)


def _legendre(x: np.ndarray, p: int) -> np.ndarray:
    """Legendre symbols (x/p) in {0, 1, -1} as int8, for an odd prime p."""
    table = np.full(p, -1, dtype=np.int8)
    table[0] = 0
    table[np.arange(1, p, dtype=np.int64) ** 2 % p] = 1
    return table[x % p]


@lru_cache(maxsize=4)
def _quadratic_symbol_matrix(m_limit: int, n_limit: int):
    """int8 matrix S[i, j] = quadratic symbol (n_j / m_i) over squarefree
    odd-norm points, plus the norm arrays for slicing.  Row i is the product
    over pi | m_i of (n / pi)_2: ((n_a + n_b s) / p) at a split pi = a + bi of
    norm p, s = -a/b the image of i in Z[i]/(pi) = F_p, and (N(n) / q) at an
    inert pi = -q, as n^{(q^2-1)/2} = N(n)^{(q-1)/2} in F_{q^2}."""
    mpts = _gaussian_squarefree_points(m_limit)
    npts = _gaussian_squarefree_points(n_limit)
    m_norms = np.array([pt[0] for pt in mpts], dtype=np.int64)
    n_norms, na, nb = (np.array([pt[k] for pt in npts], dtype=np.int64) for k in range(3))
    rows = {}
    for pi in {pi for pt in mpts for pi in pt[3]}:
        p = norm(pi)
        rows[pi] = (_legendre(n_norms, -pi.a) if pi.b == 0
                    else _legendre(na + nb * (-pi.a * pow(pi.b, -1, p) % p), p))
    S = np.ones((len(mpts), len(npts)), dtype=np.int8)
    for i, pt in enumerate(mpts):
        for pi in pt[3]:
            S[i] *= rows[pi]
    return m_norms, n_norms, S


def sieve_ratio_quadratic(M: int, N: int, trials: int = 20, rng_seed: int = 1,
                          matrix_limit: int | None = None) -> SieveReport:
    """max over +-1 trials of
    [sum'_{N(m)<=M} |sum'_{N(n)<=N} a_n (n/m)|^2] / [(M+N) sum |a_n|^2],
    both sums over squarefree odd-norm Gaussian integers.  The symbol matrix
    is built to norm `matrix_limit` (default max(M, N)), so a grid can share
    one cached matrix; a limit below max(M, N) would drop terms."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if M < 1 or N < 1:
        raise ValueError(f"M and N must be at least 1, not {M!r} and {N!r}")
    limit = max(M, N) if matrix_limit is None else matrix_limit
    if limit < max(M, N):
        raise ValueError(f"matrix_limit {limit} is below max(M, N) = {max(M, N)}")
    m_norms, n_norms, S = _quadratic_symbol_matrix(limit, limit)
    rows = m_norms <= M
    cols = n_norms <= N
    Ssub = S[np.ix_(rows, cols)].astype(np.float64)
    n_count = int(cols.sum())
    bound = (M + N) * n_count
    ratios = []
    for trial in range(trials):
        a = _rademacher(n_count, rng_seed, trial)
        y = np.einsum("mn,n->m", Ssub, a)
        lhs = float(np.sum(y * y))
        ratios.append(lhs / bound)
    return SieveReport(
        kind="quadratic",
        params=(M, N),
        trials=trials,
        seed=rng_seed,
        max_ratio=max(ratios),
        ratios=tuple(ratios),
    )
