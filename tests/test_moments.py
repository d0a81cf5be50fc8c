import json
import random

import numpy as np
import pytest

import quartic_moments
from quartic_moments.characters import characters_upto
from quartic_moments.lfunctions import AFEConfig, TruncationError, lvalue_direct, lvalues_afe
from quartic_moments.moments import (
    central_values,
    first_moment,
    nonvanishing_count,
    quartic_sieve_bound,
    second_moment,
    sieve_ratio_quadratic,
    sieve_ratio_quartic,
)
from quartic_moments.weights import bump_weight


def test_first_moment_is_essentially_real():
    rep = first_moment(500)
    assert abs(rep.moment.imag) <= 1e-6 * abs(rep.moment)
    assert rep.character_count == sum(1 for c in characters_upto(1000) if 500 < c.q < 1000)
    assert rep.predicted > 0


def test_first_moment_against_direct_oracle():
    # AFE-based M(Q) vs the Hurwitz-zeta-based M(Q), Q = 300
    rep = first_moment(300)
    oracle = first_moment(300, method="direct")
    assert oracle.method == "direct"
    assert abs(rep.moment - oracle.moment) <= 1e-4 * abs(oracle.moment)
    # and the report matches a hand-rolled direct sum
    w = bump_weight()
    chars = [c for c in characters_upto(600) if 300 < c.q < 600]
    direct = sum(lvalue_direct(c, 0.5).value * float(w(c.q / 300)) for c in chars)
    assert abs(oracle.moment - direct) < 1e-12


def test_first_moment_determinism():
    a = first_moment(200, with_per_q=True).to_dict()
    quartic_moments.clear_all_caches()
    b = first_moment(200, with_per_q=True).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_clear_all_caches_empties_prime_tables():
    from quartic_moments import characters, gauss_sums

    quartic_moments.clear_all_caches()
    before = json.dumps(first_moment(300).to_dict(), sort_keys=True)
    assert characters.split_prime_table.cache_info().currsize
    assert gauss_sums._TAU_PRIME_CACHE
    quartic_moments.clear_all_caches()
    assert characters.split_prime_table.cache_info().currsize == 0
    assert not gauss_sums._TAU_PRIME_CACHE
    after = json.dumps(first_moment(300).to_dict(), sort_keys=True)
    assert after == before


def test_first_moment_runs_no_per_character_rows(monkeypatch):
    # the kernel reads its sign matrix, not one signature or row per character
    import sys

    from quartic_moments import characters

    quartic_moments.clear_all_caches()
    expected = json.dumps(first_moment(300).to_dict(), sort_keys=True)
    quartic_moments.clear_all_caches()

    def forbidden(*args, **kwargs):
        raise AssertionError("per-character signature or row on the L-value path")

    for name in ("prime_signature", "character_exponents"):
        real = getattr(characters, name)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("quartic_moments") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, forbidden)
    assert json.dumps(first_moment(300).to_dict(), sort_keys=True) == expected


def test_first_moment_per_q_rows_sum_to_moment():
    rep = first_moment(150, with_per_q=True)
    total = sum(complex(re, im) for _, re, im, _ in rep.per_q)
    assert abs(total - rep.moment) < 1e-9
    qs = [row[0] for row in rep.per_q]
    assert qs == sorted(qs)


def test_first_moment_worker_invariance():
    base = first_moment(150).to_dict()
    quartic_moments.clear_all_caches()
    two = first_moment(150, workers=2).to_dict()
    assert json.dumps(base, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_second_moment_shifted_worker_invariance():
    base = second_moment(300, t=5.0).to_dict()
    quartic_moments.clear_all_caches()
    two = second_moment(300, t=5.0, workers=2).to_dict()
    assert json.dumps(base, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_truncation_error_same_on_both_paths():
    chars = characters_upto(100)
    messages = []
    for workers in (1, 2):
        quartic_moments.clear_all_caches()
        with pytest.raises(TruncationError) as info:
            central_values(chars, 0j, AFEConfig(term_budget=3), workers=workers)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "q=5" in messages[0] and "budget 3" in messages[0]


def test_main_term_consistency_across_truncation():
    from quartic_moments.lfunctions import constants

    w = bump_weight()
    p1 = constants(300_000).c * 500 * w.mellin_at_1
    p2 = constants(1_000_000).c * 500 * w.mellin_at_1
    assert abs(p1 - p2) <= 1e-6 * abs(p2)


def test_nonvanishing_counts():
    rep = nonvanishing_count(500)
    assert rep.count <= rep.total
    assert rep.proportion > 0.5
    smaller = nonvanishing_count(250)
    assert rep.count >= smaller.count
    with pytest.raises(ValueError):
        nonvanishing_count(500, threshold=0.0)


def test_inputs_with_empty_results_are_rejected():
    # a NaN threshold counts no character and M or N below 1 leaves an empty
    # sum, so neither would give a report worth printing
    with pytest.raises(ValueError, match="threshold"):
        nonvanishing_count(100, threshold=float("nan"))
    for M, N in ((0, 64), (64, 0), (-3, 64)):
        with pytest.raises(ValueError, match="at least 1"):
            sieve_ratio_quadratic(M, N, trials=2)
    # the quartic ratio over Q < q <= 2Q needs a character (Q >= 3) and an m (M >= 1)
    for Q, M in ((64, 0), (64, -3), (2, 8)):
        with pytest.raises(ValueError, match="at least"):
            sieve_ratio_quartic(Q, M, trials=2)


def test_second_moment_report():
    rep = second_moment(800, grid=(100, 200, 400, 800))
    assert rep.total > 0
    assert len(rep.growth_table) == 4
    sums = [s for _, s in rep.growth_table]
    assert sums == sorted(sums)
    assert np.isfinite(rep.fitted_exponent)
    assert rep.bound_constant > 0
    # t-shape report: the t = 1 sum within the (1+|t|)^{0.6} envelope times slack
    rep_t = second_moment(200, t=1.0, grid=(100, 200))
    base = second_moment(200, grid=(100, 200))
    assert rep_t.total <= 10 * base.total * 2 ** 0.6
    assert rep_t.total > 0


def test_sieve_quartic_basics():
    rep = sieve_ratio_quartic(64, 64, trials=8, rng_seed=3)
    assert 0 < rep.max_ratio <= 10
    assert len(rep.ratios) == 8
    again = sieve_ratio_quartic(64, 64, trials=8, rng_seed=3)
    assert rep.ratios == again.ratios
    other = sieve_ratio_quartic(64, 64, trials=8, rng_seed=4)
    assert rep.ratios != other.ratios
    with pytest.raises(ValueError):
        sieve_ratio_quartic(64, 64, trials=0)


def test_sieve_bound_shapes():
    assert quartic_sieve_bound(64, 64) == min(
        64**1.5 + 64,
        64**1.25 + 8 * 64,
        64 ** (7 / 6) + 64 ** (2 / 3) * 64,
        64 + 64 ** (1 / 3) * 64 ** (5 / 3) + 64 ** (7 / 3),
    )


def test_sieve_quadratic_basics_and_diagonal():
    rep = sieve_ratio_quadratic(48, 48, trials=6, rng_seed=5, matrix_limit=48)
    assert 0 < rep.max_ratio <= 10
    # single nonzero coefficient: LHS <= (#m points) <= M * |a|^2 scale trivially
    from quartic_moments.moments import _quadratic_symbol_matrix

    m_norms, n_norms, S = _quadratic_symbol_matrix(48, 48)
    lhs = float(np.sum(S[:, 0].astype(float) ** 2))
    assert lhs <= (48 + 48) * 1
    # symmetry of the protocol under swapping the roles of the ranges
    rep_swap = sieve_ratio_quadratic(32, 64, trials=3, rng_seed=5, matrix_limit=64)
    rep_orig = sieve_ratio_quadratic(64, 32, trials=3, rng_seed=5, matrix_limit=64)
    assert rep_swap.max_ratio > 0 and rep_orig.max_ratio > 0
    # a matrix below max(M, N) would drop terms and still report (M, N)
    with pytest.raises(ValueError, match="matrix_limit"):
        sieve_ratio_quadratic(128, 128, trials=1, matrix_limit=32)
    with pytest.raises(ValueError, match="matrix_limit"):
        sieve_ratio_quadratic(32, 64, trials=1, matrix_limit=48)


def test_central_values_sorted_and_repeatable():
    chars = characters_upto(100)
    recs = central_values(chars, 0j, AFEConfig())
    keys = [(r.q, r.a, r.b) for r in recs]
    assert keys == sorted(keys)
    recs2 = central_values(chars, 0j, AFEConfig())
    assert [r.value for r in recs2] == [r.value for r in recs]


def test_central_values_pool_equals_kernel_on_sorted_characters():
    chars = characters_upto(400)
    shuffled = random.Random(9).sample(chars, len(chars))
    expected = lvalues_afe(sorted(chars, key=lambda c: (c.q, c.n.a, c.n.b)))
    assert repr(central_values(shuffled, 0j, AFEConfig(), workers=2)) == repr(expected)


def _descent_matrix(points_m, points_n):
    """The old builder: one reciprocity descent per entry, 0 where it is -1."""
    from quartic_moments.gaussint import GaussInt, primary_associate
    from quartic_moments.symbols import quartic_exponent_fast

    S = np.zeros((len(points_m), len(points_n)), dtype=np.int8)
    for i, (_, ma, mb, _) in enumerate(points_m):
        mp = primary_associate(GaussInt(ma, mb))
        for j, (_, na, nb, _) in enumerate(points_n):
            e = quartic_exponent_fast(na, nb, mp.a, mp.b)
            S[i, j] = 0 if e < 0 else 1 - 2 * (e & 1)
    return S


def test_quadratic_symbol_matrix_matches_descent():
    from quartic_moments.moments import _gaussian_squarefree_points, _quadratic_symbol_matrix

    pts = _gaussian_squarefree_points(128)
    m_norms, n_norms, S = _quadratic_symbol_matrix(128, 128)
    assert S.dtype == np.int8 and S.shape == (180, 180)
    assert m_norms.tolist() == n_norms.tolist() == [pt[0] for pt in pts]
    assert np.array_equal(S, _descent_matrix(pts, pts))


def test_quadratic_symbol_matrix_matches_euler_criterion():
    from quartic_moments.gaussint import GaussInt, divides
    from quartic_moments.moments import _gaussian_squarefree_points, _quadratic_symbol_matrix
    from quartic_moments.symbols import quadratic_symbol

    pts = _gaussian_squarefree_points(512)
    _, _, S = _quadratic_symbol_matrix(512, 512)
    rng = np.random.default_rng(20261018)
    cells = set(zip(rng.integers(0, len(pts), 2000).tolist(), rng.integers(0, len(pts), 2000).tolist()))
    inert_rows = [i for i, pt in enumerate(pts) if any(pi.b == 0 for pi in pt[3])]
    assert {-pi.a for i in inert_rows for pi in pts[i][3] if pi.b == 0} == {3, 7, 11, 19}
    for i in inert_rows:
        cells.update((i, int(j)) for j in rng.integers(0, len(pts), 3))
    shared = 0
    for i in rng.permutation(len(pts)).tolist():
        primes = pts[i][3]
        if not primes or shared >= 60:
            continue
        pi = primes[int(rng.integers(len(primes)))]
        js = [j for j, pt in enumerate(pts) if divides(pi, GaussInt(pt[1], pt[2]))]
        j = js[int(rng.integers(len(js)))]
        cells.add((i, j))
        shared += 1
    assert len(cells) >= 2000 and shared >= 50
    zeros = 0
    for i, j in sorted(cells):
        v = quadratic_symbol(GaussInt(pts[j][1], pts[j][2]), GaussInt(pts[i][1], pts[i][2]))
        expected = 0 if v.is_zero else (1 if v.exponent == 0 else -1)
        assert S[i, j] == expected, (pts[i][:3], pts[j][:3])
        zeros += expected == 0
    assert zeros >= 50


def test_quadratic_symbol_matrix_rectangular_is_slice():
    from quartic_moments.moments import _quadratic_symbol_matrix

    m_rect, n_rect, S_rect = _quadratic_symbol_matrix(128, 512)
    m_norms, n_norms, S = _quadratic_symbol_matrix(512, 512)
    rows = m_norms <= 128
    assert np.array_equal(m_rect, m_norms[rows])
    assert np.array_equal(n_rect, n_norms)
    assert np.array_equal(S_rect, S[rows])


def test_quadratic_symbol_matrix_rebuild_after_clear():
    from quartic_moments.moments import _quadratic_symbol_matrix

    before = _quadratic_symbol_matrix(512, 512)
    quartic_moments.clear_all_caches()
    after = _quadratic_symbol_matrix(512, 512)
    assert after[2] is not before[2]
    for x, y in zip(before, after):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
