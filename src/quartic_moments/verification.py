"""Verification suites: each returns (ok, detail dict) and is shared between
the CLI `verify` subcommand and the acceptance tests."""

from __future__ import annotations

import inspect
import math

import numpy as np

from .characters import characters_upto, verify_correspondence
from .gauss_sums import (
    dirichlet_gauss_sum,
    gauss_sum,
    primary_points,
    tau_closed_form,
)
from .gaussint import GaussInt, factor, gcd
from .lfunctions import (
    AFEConfig,
    _v_quadrature,
    constants,
    dirichlet_beta_2,
    epsilon_factor,
    hecke_l_series,
    lvalue_afe,
    lvalue_direct,
    v_values,
    zeta_qi2_euler_product,
)
from .sieves import factorize_small
from .symbols import (
    quartic_symbol,
    supplement_i,
    supplement_one_plus_i,
)
from .weights import bump_weight

__all__ = ["SUITES", "run_suite"]


def suite_correspondence(max_q: int = 2000) -> tuple[bool, dict]:
    """Exact per-q count equality and value-table bijection, odd q <= max_q."""
    checked = failures = 0
    total_chars = 0
    for q in range(1, max_q + 1, 2):
        rep = verify_correspondence(q, bound=max_q)
        checked += 1
        total_chars += rep.enumerated
        if not rep.ok:
            failures += 1
    return failures == 0, {
        "conductors_checked": checked,
        "characters_matched": total_chars,
        "failures": failures,
    }


def suite_reciprocity(max_norm: int = 1000) -> tuple[bool, dict]:
    """Quartic reciprocity over all primary coprime pairs with both norms
    <= max_norm, both symbols via the Euler criterion."""
    pts = [p for p in primary_points(max_norm) if p[0] > 1]
    bad = 0
    pairs = 0
    for i, (nm, ma, mb) in enumerate(pts):
        m = GaussInt(ma, mb)
        for nn_, na, nb in pts[i + 1 :]:
            n = GaussInt(na, nb)
            if not gcd(m, n).is_unit():
                continue
            pairs += 1
            lhs = quartic_symbol(m, n)
            rhs = quartic_symbol(n, m)
            sign = ((nm - 1) // 4) * ((nn_ - 1) // 4)
            expect = (rhs.exponent + 2 * (sign & 1)) & 3
            if lhs.exponent != expect:
                bad += 1
    return bad == 0, {"pairs": pairs, "failures": bad}


def suite_supplements(max_norm: int = 10_000) -> tuple[bool, dict]:
    """Supplement laws vs the Euler criterion for all primary N(n) <= max_norm."""
    bad = checked = 0
    for nn, a, b in primary_points(max_norm):
        if nn == 1:
            continue
        n = GaussInt(a, b)
        checked += 1
        if quartic_symbol(GaussInt(0, 1), n) != supplement_i(n):
            bad += 1
        if quartic_symbol(GaussInt(1, 1), n) != supplement_one_plus_i(n):
            bad += 1
    return bad == 0, {"moduli": checked, "failures": bad}


def suite_gauss_magnitude(max_norm: int = 2000) -> tuple[bool, dict]:
    """|g(n)|^2 = N(n) (squarefree) or 0, all odd-norm n, rel. tol 1e-6."""
    r = math.isqrt(max_norm)
    bad = checked = 0
    for a in range(-r - 1, r + 2):
        for b in range(-r - 1, r + 2):
            nn = a * a + b * b
            if nn < 1 or nn > max_norm or nn % 2 == 0:
                continue
            n = GaussInt(a, b)
            checked += 1
            g2 = abs(gauss_sum(n)) ** 2
            if nn == 1 or factor(n).is_squarefree():
                if abs(g2 - nn) > 1e-6 * nn:
                    bad += 1
            else:
                if g2 > 1e-6 * nn:
                    bad += 1
    return bad == 0, {"points": checked, "failures": bad}


def suite_root_number(max_q: int = 2000) -> tuple[bool, dict]:
    """tau_closed_form == dirichlet_gauss_sum to 1e-9, all conductors <= max_q;
    the production eps(chi) (`tau_crt`) equals the defining-sum route to
    1e-9; and |eps(chi)| = 1 to 1e-9."""
    bad_tau = bad_route = bad_eps = total = 0
    worst = worst_route = 0.0
    for chi in characters_upto(max_q):
        total += 1
        t1 = tau_closed_form(chi.n)
        t2 = dirichlet_gauss_sum(chi)
        d = abs(t1 - t2)
        worst = max(worst, d)
        if d > 1e-9:
            bad_tau += 1
        eps = epsilon_factor(chi)
        d = abs(eps - epsilon_factor(chi, route="direct"))
        worst_route = max(worst_route, d)
        if d > 1e-9:
            bad_route += 1
        if abs(abs(eps) - 1) > 1e-9:
            bad_eps += 1
    return bad_tau == 0 and bad_route == 0 and bad_eps == 0, {
        "characters": total,
        "tau_failures": bad_tau,
        "eps_route_failures": bad_route,
        "eps_failures": bad_eps,
        "worst_tau_diff": worst,
        "worst_eps_route_diff": worst_route,
    }


def suite_afe(max_q: int = 500, tol: float = 1e-6) -> tuple[bool, dict]:
    """|lvalue_afe - lvalue_direct| <= tol at alpha = 0 for both G choices
    and splits A = sqrt(q), 2 sqrt(q), all conductors <= max_q."""
    worst = 0.0
    bad = total = 0
    for chi in characters_upto(max_q):
        ref = lvalue_direct(chi, 0.5).value
        for g_choice in ("constant_one", "gaussian"):
            for split_mult in (1.0, 2.0):
                eps = 1e-9 if g_choice == "constant_one" else 1e-7
                cfg = AFEConfig(
                    g_choice=g_choice,
                    split_a=split_mult * math.sqrt(chi.q),
                    truncation_eps=eps,
                )
                total += 1
                d = abs(lvalue_afe(chi, 0j, cfg).value - ref)
                worst = max(worst, d)
                if d > tol:
                    bad += 1
    return bad == 0, {"comparisons": total, "failures": bad, "worst_diff": worst}


def suite_special_functions() -> tuple[bool, dict]:
    """V quadrature vs closed form (50-point grid, 1e-10); w-hat(0) = w~(1)
    to 1e-10; zeta_{Q(i)}(2) two ways to 1e-8."""
    detail: dict = {}
    ok = True

    grid = np.logspace(-6, math.log10(50.0), 50)
    worst_v = 0.0
    for j in (1, -1):
        closed, _ = v_values(0j, j, grid, AFEConfig())
        quad = _v_quadrature(0j, j, grid, "constant_one")
        worst_v = max(worst_v, float(np.max(np.abs(closed - quad))))
    detail["v_worst_diff"] = worst_v
    ok &= worst_v <= 1e-10

    w = bump_weight()
    wdiff = abs(w.fourier_at_zero() - w.mellin_at_1)
    detail["weight_diff"] = wdiff
    ok &= wdiff <= 1e-10

    euler, tail = zeta_qi2_euler_product()
    ref = (math.pi**2 / 6) * dirichlet_beta_2()
    zdiff = abs(euler - ref) / ref
    detail["zeta_qi2_euler"] = euler
    detail["zeta_qi2_catalan"] = ref
    detail["zeta_qi2_rel_diff"] = zdiff
    detail["zeta_qi2_tail_bound"] = tail
    ok &= zdiff <= 1e-8
    return bool(ok), detail


def suite_hecke_principal(cutoff: int = 100_000, tol: float = 1e-4) -> tuple[bool, dict]:
    """For fourth-power twists, L(2, psi_{k^4}) equals zeta_{Q(i)}(2) times the
    finite Euler factor over pi | 2k, both sides truncated independently."""
    zeta2 = constants().zeta_qi_2
    worst = 0.0
    for k in (1, 2, 5, 6):
        lhs = hecke_l_series(k**4, 2.0, cutoff).value.real
        corr = 1 - 2.0**-2
        for p in factorize_small(k):
            if p == 2:
                continue
            if p % 4 == 1:
                corr *= (1 - p**-2.0) ** 2
            else:
                corr *= 1 - (p * p) ** -2.0
        rhs = zeta2 * corr
        worst = max(worst, abs(lhs - rhs))
    return worst <= tol, {"worst_diff": worst, "cutoff": cutoff}


SUITES = {
    "correspondence": suite_correspondence,
    "reciprocity": suite_reciprocity,
    "supplements": suite_supplements,
    "gauss-magnitude": suite_gauss_magnitude,
    "root-number": suite_root_number,
    "afe": suite_afe,
    "special-functions": suite_special_functions,
    "hecke-principal": suite_hecke_principal,
}


def run_suite(name: str, **kwargs) -> tuple[bool, dict]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    accepted = inspect.signature(SUITES[name]).parameters
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        raise ValueError(f"suite {name!r} takes no {unknown}; it accepts {sorted(accepted)}")
    return SUITES[name](**kwargs)
