"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 6 and 8 encode
trend/growth windows that the measured family does not meet at desk scale;
they are implemented exactly as stated and report the measured numbers
(see the module-level notes in the repository README).
"""

import json

import pytest

import quartic_moments
from quartic_moments.moments import (
    first_moment,
    nonvanishing_count,
    second_moment,
    sieve_ratio_quadratic,
    sieve_ratio_quartic,
)
from quartic_moments.verification import run_suite

MOMENT_GRID = (500, 1000, 2000, 4000, 8000)
SECOND_GRID = (250, 500, 1000, 2000, 4000)
SIEVE_GRID = (32, 64, 128, 256, 512)


def _line(num: int, ok: bool, msg: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {msg}")


@pytest.fixture(scope="module")
def root_number_result():
    return run_suite("root-number", max_q=2000)


@pytest.fixture(scope="module")
def moment_reports():
    return {Q: first_moment(Q) for Q in MOMENT_GRID}


def test_criterion_01_correspondence():
    ok, d = run_suite("correspondence", max_q=2000)
    _line(1, ok, f"value-table bijection for every odd q <= 2000 "
                 f"({d['characters_matched']} characters, {d['failures']} failures)")
    assert ok


def test_criterion_02_reciprocity_and_supplements():
    ok1, d1 = run_suite("reciprocity", max_norm=1000)
    ok2, d2 = run_suite("supplements", max_norm=10_000)
    ok = ok1 and ok2
    _line(2, ok, f"reciprocity exact on {d1['pairs']} primary coprime pairs "
                 f"(norms <= 1000); supplements exact on {d2['moduli']} primary "
                 f"moduli (N <= 1e4)")
    assert ok


def test_criterion_03_gauss_magnitude():
    ok, d = run_suite("gauss-magnitude", max_norm=2000)
    _line(3, ok, f"|g(n)|^2 = N(n) (squarefree) or 0, rel tol 1e-6, "
                 f"{d['points']} odd-norm points, {d['failures']} failures")
    assert ok


def test_criterion_04_root_number(root_number_result):
    ok, d = root_number_result
    passed = d["tau_failures"] == 0 and d["eps_route_failures"] == 0
    _line(4, passed,
          f"tau closed form vs defining sum <= 1e-9 for {d['characters']} "
          f"characters (worst {d['worst_tau_diff']:.2e}); production eps vs "
          f"defining-sum eps worst {d['worst_eps_route_diff']:.2e}")
    assert d["tau_failures"] == 0
    assert d["eps_route_failures"] == 0


def test_criterion_05_afe():
    ok, d = run_suite("afe", max_q=500)
    _line(5, ok, f"|AFE - direct| <= 1e-6 at alpha = 0, both G choices, "
                 f"splits sqrt(q) and 2 sqrt(q): {d['comparisons']} comparisons, "
                 f"worst {d['worst_diff']:.2e}")
    assert ok


def test_criterion_06_first_moment_trend(moment_reports):
    ratios = {Q: moment_reports[Q].ratio for Q in MOMENT_GRID}
    gaps = [abs(ratios[Q] - 1) for Q in MOMENT_GRID[-3:]]
    in_window = 0.85 <= ratios[8000] <= 1.15
    monotone = all(gaps[i] >= gaps[i + 1] for i in range(len(gaps) - 1))
    ok = in_window and monotone
    detail = ", ".join(f"Q={Q}: {r:.4f}" for Q, r in ratios.items())
    _line(6, ok, f"M(Q)/(C Q w~(1)) window [0.85, 1.15] at Q=8000 and "
                 f"non-increasing |ratio-1| over last three doublings; {detail}")
    assert ok, (
        "first-moment trend window not met at desk scale: "
        f"ratios {ratios}; the L-values, family, and constant are each "
        "independently certified (criteria 1, 4, 5, 10); see README"
    )


def test_criterion_07_nonvanishing():
    rep = nonvanishing_count(4000, threshold=1e-8)
    ok = rep.proportion >= 0.5
    _line(7, ok, f"|L(1/2, chi)| > 1e-8 for {rep.count}/{rep.total} characters "
                 f"with q <= 4000 (proportion {rep.proportion:.6f})")
    assert ok


def test_criterion_08_second_moment_growth():
    rep = second_moment(SECOND_GRID[-1], t=0.0, grid=SECOND_GRID)
    ok = rep.fitted_exponent <= 7 / 6 + 0.1
    table = ", ".join(f"({Q}, {s:.1f})" for Q, s in rep.growth_table)
    _line(8, ok, f"fitted growth exponent {rep.fitted_exponent:.4f} vs bound "
                 f"{7 / 6 + 0.1:.4f}; sums {table}; bound constant K = "
                 f"{rep.bound_constant:.4f}")
    assert ok, (
        f"fitted exponent {rep.fitted_exponent:.4f} exceeds 7/6 + 0.1: the "
        "certified per-character values give mean |L|^2 ~ 0.06 log^2 q over "
        "this range, so the log-log fit absorbs ~ 2/ln Q of apparent exponent; "
        "the absolute bound itself holds with K = "
        f"{rep.bound_constant:.4f} (see README)"
    )


def test_criterion_09_large_sieve():
    worst_q = 0.0
    for Q in SIEVE_GRID:
        for M in SIEVE_GRID:
            rep = sieve_ratio_quartic(Q, M, trials=20, rng_seed=1)
            worst_q = max(worst_q, rep.max_ratio)
    worst_2 = 0.0
    for M in SIEVE_GRID:
        for N in SIEVE_GRID:
            rep = sieve_ratio_quadratic(M, N, trials=20, rng_seed=1,
                                        matrix_limit=SIEVE_GRID[-1])
            worst_2 = max(worst_2, rep.max_ratio)
    ok = worst_q <= 10 and worst_2 <= 10
    _line(9, ok, f"max LHS/bound ratio over the grid and 20 seeded trials: "
                 f"quartic {worst_q:.4f}, quadratic {worst_2:.4f} (gate 10)")
    assert ok


def test_criterion_10_special_functions(root_number_result):
    ok, d = run_suite("special-functions")
    _, rd = root_number_result
    eps_ok = rd["eps_failures"] == 0
    ok = ok and eps_ok
    _line(10, ok, f"V quad vs closed {d['v_worst_diff']:.2e} (gate 1e-10); "
                  f"w-hat(0) = w~(1) diff {d['weight_diff']:.2e} (gate 1e-10); "
                  f"zeta_Qi(2) two routes rel diff {d['zeta_qi2_rel_diff']:.2e} "
                  f"(gate 1e-8); |eps(chi)| = 1 failures {rd['eps_failures']}")
    assert ok


def test_criterion_11_hecke_principal():
    ok, d = run_suite("hecke-principal")
    _line(11, ok, f"L(2, psi_k4) vs zeta_Qi(2) * Euler factor, worst diff "
                  f"{d['worst_diff']:.2e} (gate 1e-4, cutoff {d['cutoff']})")
    assert ok


def test_criterion_12_determinism(moment_reports):
    def snapshot():
        out = {}
        out["moment"] = {Q: first_moment(Q, with_per_q=True).to_dict() for Q in MOMENT_GRID}
        out["nonvanish"] = nonvanishing_count(4000, threshold=1e-8).to_dict()
        out["second"] = second_moment(SECOND_GRID[-1], grid=SECOND_GRID).to_dict()
        out["sieve_q"] = sieve_ratio_quartic(512, 512, trials=20, rng_seed=1).to_dict()
        out["sieve_2"] = sieve_ratio_quadratic(512, 512, trials=20, rng_seed=1).to_dict()
        return json.dumps(out, sort_keys=True)

    quartic_moments.clear_all_caches()
    first = snapshot()
    quartic_moments.clear_all_caches()
    second = snapshot()
    ok = first == second
    _line(12, ok, f"criteria 6-9 reports byte-identical across cache-cleared "
                  f"re-runs ({len(first)} bytes)")
    assert ok
