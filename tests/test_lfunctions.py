import json
import math
import random

import numpy as np
import pytest
from scipy.special import zeta as scipy_zeta

from quartic_moments.characters import characters_upto
from quartic_moments.gauss_sums import dirichlet_gauss_sum
from quartic_moments.gaussint import GaussInt
import quartic_moments
from quartic_moments import lfunctions
from quartic_moments.lfunctions import (
    AFEConfig,
    TruncationError,
    c1_mobius_sum,
    constants,
    dirichlet_beta_2,
    epsilon_factor,
    gamma_factor,
    hecke_l_series,
    hurwitz_zeta,
    lvalue_afe,
    lvalue_direct,
    lvalues_afe,
    v_function,
    v_values,
    x_factor,
    z2_dirichlet_sum,
    zeta_qi2_euler_product,
)
from quartic_moments.sieves import factorize_small

G = GaussInt


# ----------------------------------------------------------------------
# gamma factor and X factor
# ----------------------------------------------------------------------


def test_gamma_factor_examples():
    assert gamma_factor(0, 1, 0) == 1
    assert abs(gamma_factor(0.1 + 0.2j, -1, 0) - 1) < 1e-14
    # a_{+1} = 0, a_{-1} = 1: check through the recurrence Gamma(z+1) = z Gamma(z)
    val = gamma_factor(0, 1, 2)
    expect = (1 / math.pi) * 0.25  # pi^{-1} Gamma(5/4)/Gamma(1/4) = (1/4)/pi
    assert abs(val - expect) < 1e-12
    val_m = gamma_factor(0, -1, 2)
    expect_m = (1 / math.pi) * 0.75  # Gamma(7/4)/Gamma(3/4) = 3/4
    assert abs(val_m - expect_m) < 1e-12
    with pytest.raises(ValueError):
        gamma_factor(0, 1, -0.5)  # pole of the numerator Gamma
    with pytest.raises(ValueError):
        gamma_factor(0, 2, 1.0)


def test_x_factor():
    assert x_factor(0, 1, 17) == 1
    assert x_factor(0, -1, 5) == 1
    # reflection: X_{alpha} X_{-alpha} = 1
    for alpha in (0.1, 0.2 + 0.3j, -0.15 + 1j):
        for j in (1, -1):
            prod = x_factor(alpha, j, 13) * x_factor(-alpha, j, 13)
            assert abs(prod - 1) < 1e-12


# ----------------------------------------------------------------------
# V functions
# ----------------------------------------------------------------------


def test_v_examples():
    assert abs(v_function(0, 1, 0.001) - 1) < 0.05
    assert abs(v_function(0, 1, 50.0)) <= 1e-15
    quad = lfunctions._v_quadrature(0j, 1, np.array([1.0]), "constant_one")
    assert abs(quad[0] - v_function(0, 1, 1.0)) < 1e-10


def test_v_closed_form_vs_quadrature_grid():
    grid = np.logspace(-6, math.log10(50.0), 50)
    for j in (1, -1):
        closed, _ = v_values(0, j, grid, AFEConfig())
        quad = lfunctions._v_quadrature(0j, j, grid, "constant_one")
        assert np.max(np.abs(closed - quad)) <= 1e-10


def test_gamma_q_matches_scipy_and_mpmath():
    # the closed form's numpy series from x = 1e-6 (y = 3e-12) to x = 50
    # (y = 7854), densely over the AFE range y <= 30 and at every bucket edge
    # and its neighbours, within the stated per-value bound
    import mpmath
    from scipy.special import gammaincc

    edges = np.array(lfunctions._Y_EDGES)
    ys = np.concatenate([math.pi * np.logspace(-6, math.log10(50.0), 300) ** 2,
                         np.linspace(0.01, 30.0, 600),
                         edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    for j, c in ((1, 0.25), (-1, 0.75)):
        got = lfunctions._gamma_q(c, ys)
        ones = np.concatenate([lfunctions._gamma_q(c, ys[i : i + 1]) for i in range(len(ys))])
        assert ones.tobytes() == got.tobytes()  # a batch of one has its row's bits
        assert np.max(np.abs(got - gammaincc(c, ys))) <= 1e-13
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.gammainc(c, float(y), regularized=True)) for y in ys])
        assert np.max(np.abs(got - ref)) <= 1e-13
        vals, err = v_values(0, j, np.sqrt(ys / math.pi))
        assert err == 1e-13 and np.max(np.abs(vals - ref)) <= err


def test_closed_form_block_slices_match_lone_calls(monkeypatch):
    # 1105 and 65 (j = 1), 1885 and 13 (j = -1), 65 with both sums (A = 5,
    # B = 13): each conductor's V slice of a block has the bits of v_values
    # on that conductor alone, whether a block holds every conductor of its
    # parity (one call per parity) or, at 125 terms, 1105 and 65 (85 + 45
    # terms) fall in two blocks and 1885 and 13 (111 + 9) share one
    cfg = AFEConfig()
    conds = []
    for q, A in ((1105, None), (65, 5.0), (1885, None), (13, None)):
        j = _conductor(q)[0].parity()
        scales = (math.sqrt(q),) if A is None else (A, q / A)
        sums = tuple((0j, s, *lfunctions._afe_cutoff(q, s, 0j, j, cfg)) for s in scales)
        conds.append(lfunctions._Conductor(q, [], j, sums))
    calls = []
    real_v = lfunctions.v_values

    def counting_v(*args, **kwargs):
        calls.append(args)
        return real_v(*args, **kwargs)

    monkeypatch.setattr(lfunctions, "v_values", counting_v)
    for block, n_calls in ((lfunctions._V_BLOCK, 2), (125, 3)):
        monkeypatch.setattr(lfunctions, "_V_BLOCK", block)
        calls.clear()
        got = {cond.q: vs for cond, vs in lfunctions._conductor_v(conds, 0j, cfg)}
        assert len(calls) == n_calls and len(got) == len(conds)
        for cond in conds:
            assert len(got[cond.q]) == len(cond.sums)
            for (_, scale, M, _), (V, err) in zip(cond.sums, got[cond.q]):
                alone, err_alone = real_v(0j, cond.j, np.arange(1, M + 1, dtype=float) / scale)
                assert V.tobytes() == alone.tobytes() and err == err_alone


def test_v_gaussian_spline_matches_quadrature():
    cfg = AFEConfig(g_choice="gaussian")
    xs = np.exp(np.linspace(-10, 8, 300))
    sp, err = v_values(0, 1, xs, cfg)
    direct = lfunctions._v_quadrature(0j, 1, xs[::7], "gaussian")
    assert np.max(np.abs(sp[::7] - direct)) < max(5 * err, 1e-9)


def test_v_gaussian_value_depends_on_x_alone():
    # at the Gaussian G and alpha = 0 every in-range x reads the spline, so
    # a value has the same bits in a batch of any length; x off the spline's
    # range take the quadrature without moving the other entries
    cfg = AFEConfig(g_choice="gaussian")
    for j in (1, -1):
        for n in (1, 64, 65, 300):
            xs = np.exp(np.linspace(-10, 8, n))
            vals, err = v_values(0, j, xs, cfg)
            alone = np.array([v_function(0, j, x, cfg) for x in xs])
            assert vals.tobytes() == alone.tobytes() and err < 1e-12
        off = np.array([1e-8, 2e6])
        mixed, err = v_values(0, j, np.concatenate([xs[:150], off, xs[150:]]), cfg)
        assert np.concatenate([mixed[:150], mixed[152:]]).tobytes() == alone.tobytes()
        quad = lfunctions._v_quadrature(0j, j, off, "gaussian")
        assert np.max(np.abs(mixed[150:152] - quad)) <= 1e-12 and err == 1e-12


def _folded_vs_oracle(alpha, j, A, M, cfg):
    got = lfunctions._v_folded(alpha, j, A, M, cfg)
    xs = np.arange(1, M + 1, dtype=float) / A
    ref = lfunctions._v_quadrature(alpha, j, xs, cfg.g_choice)
    return float(np.max(np.abs(got - ref)))


def test_v_folded_matches_quadrature_oracle():
    # the shared m^{-s} table route against direct (m/A)^{-s} quadrature;
    # m runs to 4A, across both contours
    for g in ("constant_one", "gaussian"):
        cfg = AFEConfig(g_choice=g)
        for alpha in (5j, -5j, 0.25, -0.3, 0.1 + 0.5j):
            for j in (1, -1):
                for q in (5, 101, 997):
                    A = math.sqrt(q)
                    assert _folded_vs_oracle(alpha, j, A, 4 * math.ceil(A), cfg) <= 1e-13
    # rows past the 512-row table are streamed
    assert _folded_vs_oracle(5j, 1, math.sqrt(997), 600, AFEConfig()) <= 1e-13


def test_v_folded_rows_independent_of_call_size():
    # the BLAS mat-vec must give each row the same bits whatever the slice
    # length and however far the shared table was filled; worker invariance
    # of shifted-moment reports rests on it
    cfg = AFEConfig()
    sizes = (7, 64, 257, 511)
    for alpha in (5j, -5j):
        for j in (1, -1):
            for q in (5, 101, 997):
                A = math.sqrt(q)
                runs = []
                for order in (sizes, sizes[::-1]):
                    quartic_moments.clear_all_caches()
                    runs += [lfunctions._v_folded(alpha, j, A, M, cfg) for M in order]
                full = lfunctions._v_folded(alpha, j, A, sizes[-1], cfg)
                for v in runs:
                    assert np.array_equal(v, full[: len(v)])


def test_v_rejects_nonpositive():
    with pytest.raises(ValueError):
        v_function(0, 1, 0.0)


@pytest.mark.parametrize("t", [7.0, -7.0])
def test_v_quadrature_matches_mpmath_at_t7(t):
    # G = 1: V_{alpha,j}(x) = Gamma(z, pi x^2)/Gamma(z), z = (1/2 + a_j + alpha)/2;
    # the quadrature's rounding grows with |t|, and t = 7 is the largest shift
    # the AFE accepts
    import mpmath

    xs = np.exp(np.linspace(-4.0, 2.5, 40))
    for j in (1, -1):
        z = (0.5 + (1 - j) // 2 + complex(0, t)) / 2
        got = lfunctions._v_quadrature(complex(0, t), j, xs, "constant_one")
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.gammainc(z, math.pi * x * x, regularized=True))
                            for x in xs])
        assert np.max(np.abs(got - ref)) <= 1e-12


# ----------------------------------------------------------------------
# epsilon factor
# ----------------------------------------------------------------------


def test_epsilon_factor():
    for chi in characters_upto(300):
        e1 = epsilon_factor(chi)
        assert abs(abs(e1) - 1) < 1e-9
        e2 = epsilon_factor(chi, route="direct")
        assert abs(e1 - e2) < 1e-9
    # a_{chi(-1)} = 0 for even chi: q = 17 is an even-family conductor
    chi17 = [c for c in characters_upto(17) if c.q == 17][0]
    assert chi17.parity() == 1
    tau = dirichlet_gauss_sum(chi17)
    assert abs(epsilon_factor(chi17, route="direct") - tau / math.sqrt(17)) < 1e-12
    with pytest.raises(ValueError):
        epsilon_factor(chi17, route="closed_form")  # tau_closed_form is an oracle only


def test_lvalue_path_runs_no_gaussian_factorization(monkeypatch):
    # the root numbers of the first moment come from the split-prime tables
    from quartic_moments import characters, gauss_sums
    from quartic_moments.moments import first_moment

    quartic_moments.clear_all_caches()
    expected = first_moment(300).to_dict()
    quartic_moments.clear_all_caches()

    def forbidden(*args, **kwargs):
        raise AssertionError("Z[i] factorization or Gaussian-prime sum on the L-value path")

    for module, name in ((gauss_sums, "factor"), (characters, "factor"),
                         (gauss_sums, "gauss_sum_twisted")):
        monkeypatch.setattr(module, name, forbidden)
    assert first_moment(300).to_dict() == expected
    assert gauss_sums._TAU_PRIME_CACHE


def test_first_moment_workers_byte_identical():
    from quartic_moments.moments import first_moment

    quartic_moments.clear_all_caches()
    one = json.dumps(first_moment(300).to_dict(), sort_keys=True)
    quartic_moments.clear_all_caches()
    two = json.dumps(first_moment(300, workers=2).to_dict(), sort_keys=True)
    assert one == two


def test_dual_sum_reused_at_center(monkeypatch):
    # default split at alpha = 0: one V evaluation per conductor, and the
    # value agrees with the explicit split A = sqrt(q), which sums both sides
    # (both sums' V in one closed-form block, so one call per character)
    chars = [c for c in characters_upto(1105) if c.q == 1105]
    calls = []
    real_v = lfunctions.v_values

    def counting_v(*args, **kwargs):
        calls.append(args)
        return real_v(*args, **kwargs)

    monkeypatch.setattr(lfunctions, "v_values", counting_v)
    recs = lvalues_afe(chars)
    assert len(calls) == 1
    for chi, rec in zip(chars, recs):
        alt = lvalue_afe(chi, 0j, AFEConfig(split_a=math.sqrt(chi.q)))
        assert abs(rec.value - alt.value) <= rec.err_estimate
    assert len(calls) == 1 + len(chars)


def _count_calls(monkeypatch, *names):
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(lfunctions, name)

        def counting(*args, _real=real, _calls=calls[name], **kwargs):
            _calls.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(lfunctions, name, counting)
    return calls


@pytest.mark.parametrize("alpha, per_conductor", [(5j, 1), (0.25, 2)])
def test_one_m_sum_per_conductor_when_re_alpha_is_zero(alpha, per_conductor, monkeypatch):
    # the dual sum is conj S(-conj(alpha), q/A): at Re alpha = 0 with the
    # default split that is the first sum itself, so its cutoff and V are
    # found once per conductor; off the line Re alpha = 0 there are two
    chars = _conductor(1105) + _conductor(13) + _conductor(997)
    calls = _count_calls(monkeypatch, "_afe_cutoff", "_v_folded")
    recs = lvalues_afe(chars, alpha)
    n_cond = len({c.q for c in chars})
    assert len(calls["_afe_cutoff"]) == len(calls["_v_folded"]) == per_conductor * n_cond
    monkeypatch.undo()
    for chi, rec in zip(chars, recs):
        alt = lvalue_afe(chi, alpha, AFEConfig(split_a=math.sqrt(chi.q)))
        assert abs(rec.value - alt.value) <= rec.err_estimate, chi


# ----------------------------------------------------------------------
# the per-conductor kernel
# ----------------------------------------------------------------------


def _conductor(q):
    return [c for c in characters_upto(q) if c.q == q]


def test_kernel_matches_direct_oracle_three_primes():
    # 1105 = 5 * 13 * 17: eight characters share one sign matrix
    chars = _conductor(1105)
    assert len(chars) == 8
    for chi, rec in zip(chars, lvalues_afe(chars)):
        ref = lvalue_direct(chi, 0.5)
        assert abs(rec.value - ref.value) <= rec.err_estimate + ref.err_estimate, chi


@pytest.mark.parametrize("alpha", [0j, 5j])
def test_kernel_same_bits_in_any_batch(alpha, monkeypatch):
    chars = _conductor(1105) + _conductor(65) + _conductor(1885) + _conductor(13)
    batch = lvalues_afe(chars, alpha)
    monkeypatch.setattr(lfunctions, "_ROW_BLOCK", 1)  # one row per block
    assert lvalues_afe(chars, alpha) == batch
    monkeypatch.undo()
    rev = lvalues_afe(chars[::-1], alpha)[::-1]
    perm = list(range(len(chars)))
    random.Random(7).shuffle(perm)
    shuffled = lvalues_afe([chars[k] for k in perm], alpha)
    for chi, rec, rec_rev, k in zip(chars, batch, rev, range(len(chars))):
        assert rec.value.real.hex() == rec_rev.value.real.hex(), chi
        assert rec.value.imag.hex() == rec_rev.value.imag.hex(), chi
        assert shuffled[perm.index(k)] == rec
        assert lvalue_afe(chi, alpha) == rec


def test_kernel_rejects_invalid_characters():
    from quartic_moments.characters import QuarticCharacter

    with pytest.raises(ValueError):
        lvalues_afe(_conductor(65) + [QuarticCharacter(G(3, 2), 65)])  # over 13 only
    with pytest.raises(ValueError):
        lvalues_afe([QuarticCharacter(G(3, 4), 25)])  # 5^2: not squarefree


def test_kernel_contour_v_at_center_matches_closed_form(monkeypatch):
    # the contour table's V in place of the closed form at the center: the
    # one m-sum and its conjugate as the dual sum agree within both errors
    chars = _conductor(1105) + _conductor(13) + _conductor(997)
    closed = lvalues_afe(chars)

    def folded_v(conductors, alpha, config):
        for cond in conductors:
            yield cond, [(lfunctions._v_folded(beta, cond.j, scale, M, config), 1e-12)
                         for beta, scale, M, _ in cond.sums]

    monkeypatch.setattr(lfunctions, "_conductor_v", folded_v)
    contour = lvalues_afe(chars)
    for chi, a, b in zip(chars, closed, contour):
        assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate, chi


def test_kernel_factors_each_conductor_once(monkeypatch):
    from quartic_moments import characters

    chars = [c for c in characters_upto(2000) if c.q > 1000]
    calls = []
    real = characters.factorize_small

    def counting(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(characters, "factorize_small", counting)
    lvalues_afe(chars)
    assert sorted(calls) == sorted({c.q for c in chars})


# ----------------------------------------------------------------------
# AFE vs the direct oracle
# ----------------------------------------------------------------------


def test_afe_matches_direct_sample():
    for chi in characters_upto(150):
        ref = lvalue_direct(chi, 0.5)
        rec = lvalue_afe(chi)
        assert abs(rec.value - ref.value) < 1e-6
        assert rec.method == "afe" and ref.method == "direct"
        assert rec.err_estimate < 1e-6


def test_afe_split_and_g_invariance_sample():
    import os

    count = 100 if os.environ.get("QUARTIC_EXHAUSTIVE") else 24
    rng = random.Random(77)
    chars = characters_upto(2000)
    sample = rng.sample(chars, count)
    for chi in sample:
        base = lvalue_afe(chi).value
        alt_split = lvalue_afe(chi, 0j, AFEConfig(split_a=2 * math.sqrt(chi.q))).value
        assert abs(base - alt_split) < 1e-6
        gauss = lvalue_afe(chi, 0j, AFEConfig(g_choice="gaussian", truncation_eps=1e-7)).value
        assert abs(base - gauss) < 1e-6


def test_afe_rejects_bad_alpha_and_budget():
    chi = characters_upto(5)[0]
    # |Re alpha| < 1/2 and |Im alpha| <= 7, with NaN and inf rejected too
    nan, inf = float("nan"), float("inf")
    for alpha in (0.6, -0.5, nan, 7.5j, -40j, complex(0, nan), complex(0, inf)):
        with pytest.raises(ValueError, match="alpha"):
            lvalue_afe(chi, alpha)
    for alpha in (7.5j, complex(0.1, -8), complex(0, nan), nan, inf):
        with pytest.raises(ValueError, match="alpha"):
            v_values(alpha, 1, [1.0])
    assert np.isfinite(v_values(7j, 1, [1.0])[0]).all()
    assert math.isfinite(abs(lvalue_direct(chi, 0.5 + 40j).value))  # the oracle takes any t
    with pytest.raises(TruncationError):
        lvalue_afe(chi, 0j, AFEConfig(term_budget=3))
    # settings that would otherwise divide by zero or be silently replaced
    for kwargs in ({"truncation_eps": 0.0}, {"truncation_eps": 1.0}, {"truncation_eps": -1e-9},
                   {"split_a": 0.0}, {"split_a": -2.0}, {"term_budget": 0}):
        with pytest.raises(ValueError):
            AFEConfig(**kwargs)


def test_afe_config_key_names_the_contour_constants():
    # reports print this tuple; the quadrature's step and cut keep their
    # places, and the sixth entry stays True so that report bytes hold
    import dataclasses

    assert AFEConfig().key() == ("constant_one", None, 1e-9, 0.04, 60.0, True)
    assert [f.name for f in dataclasses.fields(AFEConfig)] == [
        "g_choice", "split_a", "truncation_eps", "term_budget"]


def test_afe_at_shifted_alpha():
    # AFE identity holds off-center too: compare against the Hurwitz oracle
    chi = [c for c in characters_upto(13) if c.q == 13][0]
    for alpha in (0.25, -0.3, 0.1 + 0.5j):
        rec = lvalue_afe(chi, alpha, AFEConfig(truncation_eps=1e-8))
        ref = lvalue_direct(chi, 0.5 + alpha)
        assert abs(rec.value - ref.value) < 1e-6


def test_afe_at_t5_against_direct_oracle():
    # s = 1/2 + 5i on seeded characters near the top of the second-moment
    # family; the batch and the batch of one give the same bytes
    chars = [c for c in characters_upto(1000) if 500 < c.q <= 1000]
    sample = sorted(random.Random(5).sample(chars, 8), key=lambda c: (c.q, c.n.a, c.n.b))
    batch = lvalues_afe(sample, 5j)
    for chi, rec in zip(sample, batch):
        ref = lvalue_direct(chi, 0.5 + 5j)
        assert abs(rec.value - ref.value) <= rec.err_estimate + ref.err_estimate
        assert lvalue_afe(chi, 5j) == rec


def test_afe_at_t7_against_direct_oracle():
    # the largest accepted shift, on both sides of the real axis, near the
    # top of the second-moment family
    chars = [c for c in characters_upto(1000) if 500 < c.q <= 1000]
    sample = sorted(random.Random(7).sample(chars, 6), key=lambda c: (c.q, c.n.a, c.n.b))
    for t in (7.0, -7.0):
        for chi, rec in zip(sample, lvalues_afe(sample, complex(0, t))):
            ref = lvalue_direct(chi, complex(0.5, t))
            assert abs(rec.value - ref.value) <= min(rec.err_estimate, ref.err_estimate), chi


def test_clear_caches_empties_power_tables():
    chi = [c for c in characters_upto(13) if c.q == 13][0]
    lvalue_afe(chi, 5j)
    assert lfunctions._POWER_TABLES
    quartic_moments.clear_all_caches()
    assert not lfunctions._POWER_TABLES


def test_direct_oracle_properties():
    chi = [c for c in characters_upto(5) if c.q == 5][0]
    rec = lvalue_direct(chi, 0.5)
    assert np.isfinite(rec.value.real)
    conj = lvalue_direct(chi.conjugate(), 0.5)
    assert abs(conj.value - rec.value.conjugate()) < 1e-10
    assert abs(abs(conj.value) - abs(rec.value)) < 1e-10


# ----------------------------------------------------------------------
# Hurwitz zeta
# ----------------------------------------------------------------------


def test_hurwitz_zeta_against_scipy():
    xs = np.array([0.1, 0.25, 0.5, 0.75, 1.0])
    for s in (2.0, 3.5, 1.5):
        vals, rem = hurwitz_zeta(s, xs)
        assert rem < 1e-12
        assert np.max(np.abs(vals.real - scipy_zeta(s, xs))) < 1e-10


def test_hurwitz_zeta_series_identity():
    # zeta(s, x) - zeta(s, x+1) = x^{-s}, also for s < 1 and complex s
    for s in (0.5, 0.5 + 2j, -1.5):
        v1, _ = hurwitz_zeta(s, np.array([0.3]))
        v2, _ = hurwitz_zeta(s, np.array([1.3]))
        assert abs((v1[0] - v2[0]) - 0.3 ** (-complex(s))) < 1e-10


def test_hurwitz_zeta_guards():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, np.array([0.5]))
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, np.array([0.0]))


# ----------------------------------------------------------------------
# Hecke L-series
# ----------------------------------------------------------------------


def test_hecke_l_series_principal_case():
    zeta2 = constants().zeta_qi_2
    for k in (1, 2):
        got = hecke_l_series(k**4, 2.0, cutoff=50_000)
        corr = 1 - 0.25
        for p in factorize_small(k):
            if p % 4 == 1:
                corr *= (1 - p**-2.0) ** 2
            elif p != 2:
                corr *= 1 - float(p * p) ** -2.0
        assert abs(got.value.real - zeta2 * corr) < 1e-3
        assert abs(got.value.imag) < 1e-10


def test_hecke_l_series_stability_and_guard():
    a = hecke_l_series(2, 2.0, cutoff=10_000)
    b = hecke_l_series(2, 2.0, cutoff=40_000)
    assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound
    with pytest.raises(ValueError):
        hecke_l_series(2, 1.05)


# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------


def test_constants_values():
    c = constants()
    assert c.c0 == math.pi / 4
    assert abs(c.zeta_qi_2 - 1.5067030099229) < 1e-10
    assert c.c > 0
    assert 0 < c.c1 < 1
    assert c.z2 > 1


def test_constants_against_defining_sums():
    c = constants()
    v, tail = c1_mobius_sum(200_000)
    assert abs(v - c.c1) <= tail + 1e-8
    v2, tail2 = z2_dirichlet_sum(400_000)
    assert abs(v2 - c.z2) <= tail2 + 1e-8
    # positive-only misreading differs by far more than the tails
    vpos, _ = c1_mobius_sum(200_000, signed=False)
    assert abs(vpos - c.c1) > 0.1


def test_constants_truncation_consistency():
    a = constants(300_000)
    b = constants(1_000_000)
    assert abs(a.c - b.c) / b.c <= 1e-6


def test_zeta_qi2_two_routes():
    ref = (math.pi**2 / 6) * dirichlet_beta_2()
    val, tail = zeta_qi2_euler_product(4_000_000)
    assert abs(val - ref) / ref < 3e-8
    assert tail < 1e-7


def test_dirichlet_beta_2_is_catalan():
    assert abs(dirichlet_beta_2() - 0.915965594177219015) < 1e-12
