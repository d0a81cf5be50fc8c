import math
import random

import numpy as np
import pytest

from quartic_moments.characters import (
    HeckeCharacter,
    QuarticCharacter,
    char_eval,
    character_exponents,
    characters_upto,
    conductor_signature,
    enumerate_generators,
    enumerate_range,
    exponents_to_complex,
    hecke_eval,
    prime_signature,
    prime_table,
    signature_exponents,
    split_prime_table,
    verify_correspondence,
)
from quartic_moments.gaussint import (
    GaussInt,
    factor,
    is_primary,
    norm,
    primary_associate,
    prime_above,
)
from quartic_moments.sieves import factorize_small, primes_upto, primitive_root
from quartic_moments.symbols import QuarticValue, _euler_exponent

G = GaussInt


def test_enumerate_generators_examples():
    assert enumerate_generators(5) == [G(-1, -2), G(-1, 2)]
    assert enumerate_generators(15) == []
    assert len(enumerate_generators(65)) == 4
    assert enumerate_generators(1) == []
    assert enumerate_generators(25) == []
    with pytest.raises(ValueError):
        enumerate_generators(10)


def test_generators_match_brute_force_lattice_scan():
    for q in range(1, 500, 2):
        expected = []
        r = math.isqrt(q)
        for a in range(-r - 1, r + 2):
            for b in range(-r - 1, r + 2):
                if a * a + b * b != q or not is_primary(G(a, b)):
                    continue
                f = factor(G(a, b))
                if f.is_squarefree() and not f.has_rational_prime_divisor() and q > 1:
                    expected.append(G(a, b))
        expected.sort(key=lambda n: (n.a, n.b))
        assert enumerate_generators(q) == expected


def test_enumerate_range_examples():
    assert len(characters_upto(5)) == 2
    chars = characters_upto(30)
    assert sorted(set(c.q for c in chars)) == [5, 13, 17, 29]
    qs = [c.q for c in chars]
    assert qs == sorted(qs)
    # density roughly doubles with Q (report-style check, wide margin)
    big, small = len(characters_upto(4000)), len(characters_upto(2000))
    assert 1.6 < big / small < 2.4


def test_enumerate_range_matches_per_conductor():
    by_q: dict[int, list[GaussInt]] = {}
    for c in characters_upto(300):
        by_q.setdefault(c.q, []).append(c.n)
    for q, gens in by_q.items():
        assert gens == enumerate_generators(q)
    assert list(by_q) == sorted(by_q)
    assert next(enumerate_range(30)).q == 5


def test_char_eval_examples():
    chi = QuarticCharacter(G(-1, -2))
    assert chi(1) == QuarticValue.one()
    assert chi(2) == QuarticValue.unit(1)  # i
    assert chi(5).is_zero
    assert char_eval(chi, 7) == chi(7)
    # q-periodicity and multiplicativity
    rng = random.Random(2)
    for _ in range(100):
        m = rng.randint(-100, 100)
        assert chi(m) == chi(m + 5 * rng.randint(-3, 3))
    for chi in characters_upto(60):
        for m1 in range(1, 20):
            for m2 in range(1, 20):
                assert chi(m1 * m2) == chi(m1) * chi(m2)


def test_character_exponents_table_matches_pointwise():
    for chi in characters_upto(40):
        e = character_exponents(chi, 200)
        for m in range(1, 201):
            v = chi(m)
            if v.is_zero:
                assert e[m] == -1
            else:
                assert e[m] == v.exponent
        vals = exponents_to_complex(e)
        assert np.allclose(vals[1:], [chi(m).to_complex() for m in range(1, 201)])


def test_character_exponents_large_q_match_descent():
    # the table gather against the reciprocity descent chi(m), q in (8000, 16000]
    chars = [c for c in characters_upto(16000) if c.q > 8000]
    for chi in random.Random(24).sample(chars, 24):
        primes = sorted(factorize_small(chi.q))
        e = character_exponents(chi, max(400, 20 * primes[-1]))
        ms = set(range(1, 401)) | {k * p for p in primes for k in range(1, 21)}
        for m in sorted(ms):
            v = chi(m)
            assert e[m] == (-1 if v.is_zero else v.exponent), (chi, m)
        for p in primes:
            assert chi.prime_exponent(p) == -1
        assert chi.prime_exponent(401) == e[401]


def test_exponents_to_complex_single_gather():
    # the 5-entry table read equals the clip-and-mask form, bit for bit
    e = np.array([-1, 0, 1, 2, 3, 3, -1, 2], dtype=np.int8)
    old = np.where(e < 0, 0, np.array([1, 1j, -1, -1j])[np.clip(e, 0, 3)])
    new = exponents_to_complex(e)
    assert new.dtype == np.complex128
    assert new.tobytes() == old.astype(np.complex128).tobytes()


def test_conductor_signature_rows_match_single_characters():
    for q in (5, 65, 1105, 1885, 6409):
        chars = [c for c in characters_upto(q) if c.q == q]
        tables, signs = conductor_signature(q, [c.n for c in chars])
        assert [p for p, _ in tables] == sorted(factorize_small(q))
        E = signature_exponents(tables, signs, np.arange(3 * q + 1))
        assert E.dtype == np.int8 and E.shape == (len(chars), 3 * q + 1)
        for chi, row, e in zip(chars, signs, E):
            assert [(p, sign) for p, _, sign in prime_signature(chi)] == [
                (p, sign) for (p, _), sign in zip(tables, row)
            ]
            assert np.array_equal(e, character_exponents(chi, 3 * q))


def _euler_exponent_fp(x: int, pi: GaussInt) -> int:
    """Euler criterion in F_p = Z[i]/(pi): x^{(p-1)/4} = i^k with i = -a/b."""
    p = norm(pi)
    i_image = -pi.a * pow(pi.b, -1, p) % p
    r = pow(x, (p - 1) // 4, p)
    return -1 if r == 0 else [1, i_image, p - 1, p - i_image].index(r)


def test_split_prime_tables_byte_equal_reference_build():
    # the baby-step/giant-step build against the definition
    # T[g^k mod p] = k mod 4 for k = 0..p-2, on seeded split p <= 16000
    rng = random.Random(9041)
    split = [int(p) for p in primes_upto(16000) if p % 4 == 1]
    for p in rng.sample(split, 24) + split[-1:]:
        g = primitive_root(p)
        ref = [0] * p
        x = 1
        for k in range(p - 1):
            ref[x] = k & 3
            x = x * g % p
        s, T = split_prime_table(p)
        assert s == pow(g, (p - 1) // 4, p)
        assert T.dtype == np.int8 and T.tobytes() == bytes(ref), p


def test_split_prime_tables_match_euler_criterion():
    # every x mod p for split p <= 1000, seeded samples at the five largest
    # split p <= 16000; the F_p form of the Euler criterion is itself pinned
    # to the Gaussian one (_euler_exponent) on seeded samples of every prime
    rng = random.Random(16000)
    split = [int(p) for p in primes_upto(16000) if p % 4 == 1]
    for p in [p for p in split if p <= 1000] + split[-5:]:
        pi = prime_above(p)
        tables = []
        for rho in (pi, pi.conj(), primary_associate(pi)):
            got_p, s, T = prime_table(rho)
            assert got_p == p and T.dtype == np.int8
            assert (rho.a + rho.b * s) % p == 0  # s is the image of i mod rho
            xs = range(1, p) if p <= 1000 else rng.sample(range(1, p), 400)
            for x in xs:
                assert T[x] == _euler_exponent_fp(x, rho), (rho, x)
            for x in rng.sample(range(1, p), min(p - 1, 8 if p <= 1000 else 40)):
                assert T[x] == _euler_exponent(G(x, 0), rho), (rho, x)
            tables.append(T)
        assert not np.any((tables[0][1:] + tables[1][1:]) & 3)  # T_pibar = -T_pi
        assert np.array_equal(tables[0], tables[2])  # depends on the ideal only


def test_parity_and_conjugates():
    chars = characters_upto(500)
    keyset = {(c.q, c.n.a, c.n.b) for c in chars}
    for chi in chars:
        assert chi(-1) == QuarticValue.unit(0 if chi.parity() == 1 else 2)
        cc = chi.conjugate()
        assert (cc.q, cc.n.a, cc.n.b) in keyset
        assert is_primary(cc.n)
        for m in (2, 3, 7):
            assert cc(m) == chi(m).conj()


def test_order_four_and_primitive_square_small():
    # chi^2 nontrivial and of order 2, chi^4 principal, directly on values
    for chi in characters_upto(200):
        e = character_exponents(chi, chi.q)
        exps = e[1:][e[1:] >= 0]
        assert set(exps.tolist()) == {0, 1, 2, 3}  # order exactly 4, onto


def test_verify_correspondence_examples():
    assert verify_correspondence(5).enumerated == 2
    assert verify_correspondence(5).ok
    assert verify_correspondence(13).brute_force == 2
    r45 = verify_correspondence(45)
    assert r45.enumerated == r45.brute_force == 0 and r45.ok
    with pytest.raises(ValueError):
        verify_correspondence(4)
    with pytest.raises(ValueError):
        verify_correspondence(5001, bound=2000)


def test_verify_correspondence_sweep_small():
    for q in range(1, 400, 2):
        assert verify_correspondence(q).ok


def test_from_generator_validates():
    with pytest.raises(ValueError):
        QuarticCharacter.from_generator(G(1, 2))  # not primary
    with pytest.raises(ValueError):
        QuarticCharacter.from_generator(G(5, 0))  # rational
    chi = QuarticCharacter.from_generator(G(-1, -2))
    assert chi.q == 5


def test_hecke_eval():
    psi = HeckeCharacter(3)
    assert psi.modulus == 48
    with pytest.raises(ValueError):
        hecke_eval(psi, G(1, 2))
    # psi_1 is 1 on everything coprime; fourth powers give 1
    rng = random.Random(9)
    for _ in range(50):
        n = G(rng.randint(-30, 30), rng.randint(-30, 30))
        if not n or norm(n) % 2 == 0:
            continue
        n = primary_associate(n)
        assert hecke_eval(HeckeCharacter(1), n) == QuarticValue.one()
        k = rng.randint(2, 6)
        v = hecke_eval(HeckeCharacter(k**4), n)
        if math.gcd(k, norm(n)) == 1:
            assert v == QuarticValue.one()
        else:
            assert v.is_zero


def test_hecke_periodicity_mod_16m():
    rng = random.Random(41)
    for m in (2, 3, 5, -7):
        psi = HeckeCharacter(m)
        mod = 16 * abs(m)
        done = 0
        while done < 40:
            n = G(rng.randint(-50, 50), rng.randint(-50, 50))
            if not n or norm(n) % 2 == 0:
                continue
            n = primary_associate(n)
            t = G(mod * rng.randint(-3, 3), mod * rng.randint(-3, 3))
            n2 = n + t
            if not is_primary(n2):
                continue
            v1, v2 = hecke_eval(psi, n), hecke_eval(psi, n2)
            if v1.is_zero or v2.is_zero:
                continue
            assert v1 == v2
            done += 1
