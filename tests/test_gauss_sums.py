import cmath
import math
import random

import numpy as np
import pytest

from quartic_moments.characters import characters_upto
from quartic_moments.gauss_sums import (
    additive_char,
    dirichlet_gauss_sum,
    gauss_average,
    gauss_sum,
    gauss_sum_factored,
    gauss_sum_twisted,
    h_series,
    primary_points,
    tau_closed_form,
    tau_crt,
)
from quartic_moments.gaussint import GaussInt, factor, gcd, norm
from quartic_moments.symbols import quartic_symbol
from quartic_moments.weights import bump_weight

G = GaussInt


def test_additive_char_examples():
    assert additive_char(G(0, 0), G(3, 2)) == 1
    # Im(z) = 1/2 gives -1: z = i/2 -> num=i, den=2
    assert abs(additive_char(G(0, 1), G(2, 0)) + 1) < 1e-15
    # real z gives 1
    assert abs(additive_char(G(7, 0), G(3, 0)) - 1) < 1e-15
    with pytest.raises(ZeroDivisionError):
        additive_char(G(1, 0), G(0, 0))


def test_additive_char_is_exact_rational():
    # argument is reduced exactly before any float conversion
    big = G(10**7 + 1, -(10**7) + 3)
    den = G(3, 2)
    t = big * den.conj()
    expect = cmath.exp(2j * math.pi * ((t.b % 13) / 13))
    assert abs(additive_char(big, den) - expect) < 1e-14


def test_gauss_sum_magnitude_examples():
    assert abs(abs(gauss_sum(G(-1, -2))) ** 2 - 5) < 1e-9
    sq = G(-1, -2) * G(-1, -2)
    assert abs(gauss_sum(sq)) < 1e-12
    assert gauss_sum(G(1, 0)) == 1
    with pytest.raises(ValueError):
        gauss_sum(G(1, 1))


def test_twisted_identities_random():
    rng = random.Random(515)
    done = 0
    while done < 600:
        n = G(rng.randint(-14, 14), rng.randint(-14, 14))
        if not n or norm(n) % 2 == 0 or norm(n) < 3:
            continue
        s = G(rng.randint(-9, 9), rng.randint(-9, 9))
        r = G(rng.randint(-9, 9), rng.randint(-9, 9))
        if not s or not gcd(s, n).is_unit():
            continue
        lhs = gauss_sum_twisted(r * s, n)
        rhs = quartic_symbol(s, n).conj().to_complex() * gauss_sum_twisted(r, n)
        assert abs(lhs - rhs) < 1e-9
        done += 1


def test_denominator_twisted_multiplicativity_random():
    rng = random.Random(516)
    done = 0
    while done < 400:
        n1 = G(rng.randint(-10, 10), rng.randint(-10, 10))
        n2 = G(rng.randint(-10, 10), rng.randint(-10, 10))
        r = G(rng.randint(-6, 6), rng.randint(-6, 6))
        if not n1 or not n2 or norm(n1) % 2 == 0 or norm(n2) % 2 == 0:
            continue
        if not gcd(n1, n2).is_unit():
            continue
        lhs = gauss_sum_twisted(r, n1 * n2)
        rhs = (
            quartic_symbol(n2, n1).to_complex()
            * quartic_symbol(n1, n2).to_complex()
            * gauss_sum_twisted(r, n1)
            * gauss_sum_twisted(r, n2)
        )
        assert abs(lhs - rhs) < 1e-9
        done += 1


def test_g_of_one_is_g():
    for n in (G(-1, -2), G(3, 2), G(-3, 0)):
        assert gauss_sum_twisted(G(1, 0), n) == gauss_sum(n)


def test_rational_twist_identity():
    # g(dn) = conj(chi_n(d^2)) g(d) g(n), primary rational squarefree d, (d, n) = 1
    for d in (G(5, 0), G(-3, 0), G(13, 0), G(-7, 0)):
        for n in (G(3, 2), G(-1, -2), G(1, 4)):
            if not gcd(d, n).is_unit():
                continue
            lhs = gauss_sum(d * n)
            rhs = (
                quartic_symbol(d * d, n).conj().to_complex()
                * gauss_sum(d)
                * gauss_sum(n)
            )
            assert abs(lhs - rhs) < 1e-9


def test_gauss_sum_factored_matches_direct():
    rng = random.Random(99)
    done = 0
    while done < 250:
        n = G(rng.randint(-40, 40), rng.randint(-40, 40))
        if not n or norm(n) % 2 == 0:
            continue
        assert abs(gauss_sum_factored(n) - gauss_sum(n)) < 1e-9
        done += 1


def test_dirichlet_gauss_sum_primitivity():
    for chi in characters_upto(300):
        assert abs(abs(dirichlet_gauss_sum(chi)) ** 2 - chi.q) < 1e-8
    # tau(chi) tau(chibar) = chi(-1) q
    for chi in characters_upto(100):
        t1 = dirichlet_gauss_sum(chi)
        t2 = dirichlet_gauss_sum(chi.conjugate())
        assert abs(t1 * t2 - chi(-1).to_complex() * chi.q) < 1e-8


def test_tau_closed_form_examples():
    for q in (5, 13, 17):
        for chi in characters_upto(q):
            if chi.q != q:
                continue
            assert abs(tau_closed_form(chi.n) - dirichlet_gauss_sum(chi)) < 1e-9
    with pytest.raises(ValueError):
        tau_closed_form(G(5, 0))
    with pytest.raises(ValueError):
        tau_closed_form(G(1, 2))


def test_tau_closed_form_factors_once(monkeypatch):
    from quartic_moments import gauss_sums

    chi = next(c for c in characters_upto(1105) if c.q == 1105)  # 5 * 13 * 17
    expected = tau_closed_form(chi.n)  # warms the prime Gauss sums
    calls = []
    real_factor = gauss_sums.factor

    def counting_factor(n, *args, **kwargs):
        calls.append(n)
        return real_factor(n, *args, **kwargs)

    monkeypatch.setattr(gauss_sums, "factor", counting_factor)
    assert tau_closed_form(chi.n) == expected
    assert calls == [chi.n]


def test_tau_crt_matches_defining_sum():
    for chi in characters_upto(2000):
        assert abs(tau_crt(chi) - dirichlet_gauss_sum(chi)) <= 1e-10, chi


def test_tau_crt_matches_closed_form_large_q():
    chars = [c for c in characters_upto(16000) if c.q > 8000]
    for chi in random.Random(6).sample(chars, 50):
        assert abs(tau_crt(chi) - tau_closed_form(chi.n)) <= 1e-10 * math.sqrt(chi.q), chi


def test_prime_tau_and_conjugate_identity():
    # tau_p against the defining sums over T_p and -T_p, every split p <= 5000
    from quartic_moments.characters import split_prime_table
    from quartic_moments.gauss_sums import _tau_prime
    from quartic_moments.sieves import primes_upto

    i_pow = np.array([1, 1j, -1, -1j])
    for p in (int(p) for p in primes_upto(5000) if p % 4 == 1):
        _, table = split_prime_table(p)
        x = np.arange(1, p)
        phase = np.exp(2j * math.pi * x / p)
        direct = np.sum(i_pow[table[1:]] * phase)
        direct_conj = np.sum(i_pow[(-table[1:]) & 3] * phase)
        tau = _tau_prime(p)
        assert abs(tau - direct) <= 1e-10, p
        assert abs((-1) ** ((p - 1) // 4) * tau.conjugate() - direct_conj) <= 1e-10, p


def test_tau_crt_rejects_invalid_characters():
    from quartic_moments.characters import QuarticCharacter

    with pytest.raises(ValueError):
        tau_crt(QuarticCharacter(G(3, 4), 25))  # 5^2: not squarefree
    with pytest.raises(ValueError):
        tau_crt(QuarticCharacter(G(-3, 0), 9))  # 3 is inert
    with pytest.raises(ValueError):
        tau_crt(QuarticCharacter(G(3, 2), 65))  # 3 + 2i lies over 13 only


def test_h_series_guards_and_consistency():
    with pytest.raises(ValueError):
        h_series(G(1, 0), 1.5)
    with pytest.raises(ValueError):
        h_series(G(1, 0), 3.0, cutoff=10)
    a = h_series(G(1, 0), 3.0, cutoff=1000)
    b = h_series(G(1, 0), 3.0, cutoff=10_000)
    assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound
    # s = 4: |h| below the stated absolute-series bound
    c = h_series(G(2, 1), 4.0, cutoff=1000)
    bound = sum(q ** -3.0 for q, _, _ in primary_points(1000))
    assert abs(c.value) <= bound
    # non-squarefree n contribute 0: remove them explicitly, value unchanged
    d = h_series(G(1, 0), 3.0, cutoff=1000)
    total = 0j
    for q, aa, bb in primary_points(1000):
        n = G(aa, bb)
        if q > 1 and not factor(n).is_squarefree():
            continue
        if q > 1 and not gcd(n, G(1, 0)).is_unit():
            continue
        total += gauss_sum(n) * q ** -3.0
    assert abs(d.value - total) < 1e-9


def test_h_series_nontrivial_character_label():
    v = h_series(G(1, 0), 2.5, chi16=(1, 2), cutoff=1500)
    assert np.isfinite(v.value.real) and np.isfinite(v.value.imag)


def test_gauss_average_support_and_l_zero():
    w = bump_weight()
    rep = gauss_average(G(1, 0), 50.0, w)
    # only norms in (50, 100) contribute
    manual = 0j
    for q, a, b in primary_points(100):
        if not 50 < q < 100:
            continue
        manual += gauss_sum(G(a, b)) * w(q / 50.0) / math.sqrt(q)
    assert abs(rep.value - manual) < 1e-9
    # l = 0: chi_n(0) = 0 for non-unit n; support excludes n = 1 here, so 0
    rep0 = gauss_average(G(0, 0), 50.0, w)
    assert rep0.value == 0
    # X < 1 brings in the n = 1 term through w(1/X)
    rep1 = gauss_average(G(0, 0), 0.8, w)
    assert abs(rep1.value - w(1 / 0.8)) < 1e-12


def test_primary_count_bound_constant():
    # the tail bounds rely on #{primary : N <= t} <= 0.5 t for t >= 100
    from quartic_moments.characters import _primary_points_arrays
    from quartic_moments.gauss_sums import primary_count_bound_constant

    qs, _, _ = _primary_points_arrays(10**6)
    counts = np.arange(1, len(qs) + 1)
    mask = qs >= 100
    assert np.all(counts[mask] <= primary_count_bound_constant() * qs[mask])
    # and the density is settling toward pi/8
    assert abs(counts[-1] / qs[-1] - math.pi / 8) < 0.01


def test_gauss_average_restricted_growth_report():
    w = bump_weight()
    vals = {}
    for Q in (1000, 4000):
        rep = gauss_average(G(1, 0), float(Q), w, restrict=True)
        assert np.isfinite(rep.value.real)
        vals[Q] = abs(rep.value)
    # report-style: finite, and compared against Q^{3/4} scale without asserting growth
    for Q, v in vals.items():
        assert v < 50 * Q ** 0.75
