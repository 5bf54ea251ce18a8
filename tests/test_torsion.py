import math
from fractions import Fraction

import pytest
import sympy
from mpmath import mp

from cli_matrix import BASE_FIELDS, scaled
from extbloch.field import NumberField, euler_phi
from extbloch.regulator import NotTorsion, reg_vector
from extbloch.torsion import (NotApplicable, TorsionError, _cosine_sequence,
                              beta_p, certify_order, cosine_exponents,
                              flattened_torsion, nu_p, torsion_profile,
                              two_cos)


@pytest.fixture(scope="module")
def rationals():
    return NumberField([0, 1])


@pytest.fixture(scope="module")
def sqrt2():
    return NumberField([-2, 0, 1])


def cyclotomic_field(n):
    """Q(zeta_n) via the n-th cyclotomic polynomial (by exact division of
    x^n - 1 by the lower cyclotomics)."""
    polys = {}
    for d in range(1, n + 1):
        num = [Fraction(0)] * (d + 1)
        num[0], num[d] = Fraction(-1), Fraction(1)
        for e in range(1, d):
            if d % e == 0:
                num = _polydiv(num, polys[e])
        polys[d] = num
    return NumberField(polys[n]), polys[n]


def _polydiv(num, den):
    num = list(num)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        out[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    assert all(c == 0 for c in num[:len(den) - 1])
    return out


def _sympy_min_poly(x):
    """The monic minimal polynomial of x over Q (coefficients high to low)
    by sympy, independently of FieldElement.min_poly: the characteristic
    polynomial of multiplication by x is a power of it."""
    X = sympy.Symbol("X")
    d = x.field.degree
    modulus = sympy.Poly([sympy.Rational(c) for c in x.field.poly[::-1]], X)
    a = sympy.Poly([sympy.Rational(c) for c in x.coeffs[::-1]], X)
    columns = [(a * X ** i).rem(modulus).all_coeffs()[::-1] for i in range(d)]
    mat = sympy.Matrix(d, d, lambda r, c: columns[c][r]
                       if r < len(columns[c]) else 0)
    (factor, _), = sympy.factor_list(mat.charpoly(X).as_expr(), X)[1]
    return tuple(sympy.Poly(factor, X).monic().all_coeffs())


def test_two_cos_base_cases(rationals):
    assert two_cos(rationals, 1) == rationals.rational(2)
    assert two_cos(rationals, 2) == rationals.rational(-2)
    assert two_cos(rationals, 4) == rationals.rational(0)
    assert two_cos(rationals, 5) is None


def test_two_cos_against_cyclotomic_oracle():
    # in Q(zeta_16) the value 2cos(2pi/16) is zeta + zeta^-1
    nf, _ = cyclotomic_field(16)
    z = nf.gen
    c = two_cos(nf, 16)
    assert c is not None
    # any Galois conjugate is a primitive cosine; verify by minimal poly
    X = sympy.Symbol("X")
    want = sympy.Poly(sympy.minimal_polynomial(
        2 * sympy.cos(2 * sympy.pi / 16), X), X).all_coeffs()
    assert _sympy_min_poly(c) == tuple(want)
    assert _sympy_min_poly(z + z.inverse()) == tuple(want)


def test_nu_p_values(rationals, sqrt2):
    assert nu_p(rationals, 2) == 2
    assert nu_p(rationals, 3) == 1
    assert nu_p(rationals, 5) == 0
    assert nu_p(sqrt2, 2) == 3
    assert nu_p(sqrt2, 3) == 1
    with pytest.raises(TorsionError):
        nu_p(rationals, 4)


def test_profile_rationals(rationals):
    profile = torsion_profile(rationals)
    assert profile.m == 2
    assert profile.w == 24
    assert (profile.nu[2], profile.nu[3], profile.nu[5]) == (2, 1, 0)
    assert profile.nu_prime[2] == 1  # m = 2 removes one factor of 2


def test_profile_degree_bound():
    # Q(zeta_5): nu_5 = 1, so w gains a factor 5
    nf, _ = cyclotomic_field(5)
    profile = torsion_profile(nf)
    assert profile.nu[5] == 1
    assert profile.m == 10
    assert profile.w % 5 == 0


def test_beta_3_over_q(rationals):
    b = beta_p(rationals, 3)
    assert [(n, z.as_fraction()) for n, z in b.terms] == \
        [(2, Fraction(-2)), (1, Fraction(1, 4))]


def test_beta_2_over_sqrt2(sqrt2):
    b = beta_p(sqrt2, 2)
    r = sqrt2.element([0, 1])
    values = sorted(tuple(z.coeffs) for _, z in b.terms)
    assert values == sorted([tuple((-sqrt2.one - r).coeffs),
                             tuple((-sqrt2.one + r).coeffs)])
    assert all(n == 2 for n, _ in b.terms)


def test_beta_recurrence_against_cyclotomic_oracle():
    # z_k = a_{k+1} a_{k-1} / a_k^2 with a_k = zeta^k + zeta^-k in Q(zeta_9)
    nf, _ = cyclotomic_field(9)
    z = nf.gen
    b = beta_p(nf, 3)
    expected = []
    for k in range(1, 10):
        a = lambda j: z ** j + z ** -j
        expected.append(a(k + 1) * a(k - 1) * (a(k) ** 2).inverse())
    got = []
    for n, val in b.terms:
        got.extend([tuple(val.coeffs)] * n)
    want = {}
    for v in expected:
        want[tuple(v.coeffs)] = want.get(tuple(v.coeffs), 0) + 1
    got_counts = {}
    for t in got:
        got_counts[t] = got_counts.get(t, 0) + 1
    # the recurrence may land on a Galois conjugate cosine; compare the
    # multisets of minimal polynomials and multiplicities instead
    assert sorted(want.values()) == sorted(got_counts.values())
    assert sorted(_sympy_min_poly(nf.element(list(t))) for t in want) == \
        sorted(_sympy_min_poly(nf.element(list(t))) for t in got_counts)


def test_not_applicable(rationals):
    with pytest.raises(NotApplicable):
        beta_p(rationals, 5)
    with pytest.raises(NotApplicable):
        flattened_torsion(rationals, 7)


def test_flattened_orders(rationals, sqrt2):
    assert certify_order(flattened_torsion(rationals, 3)) == 3
    assert certify_order(flattened_torsion(rationals, 2)) == 8
    assert certify_order(flattened_torsion(sqrt2, 2)) == 16


@pytest.mark.parametrize("c", [1, 7, 1000])
@pytest.mark.parametrize("name", sorted(BASE_FIELDS))
def test_beta_is_the_projection_of_the_flattened_generator(name, c):
    # the flattened torsion generator lifts the plain one, on the base
    # fields of the CLI matrix with their generators multiplied by c; the
    # recurrence values and cross-ratios avoid what beta_p no longer checks
    nf = NumberField(scaled(BASE_FIELDS[name], c))
    primes = [p for p, nu in cosine_exponents(nf).items() if nu > 0]
    assert primes
    for p in primes:
        _, seq, span = _cosine_sequence(nf, p)
        assert not any(seq[k].is_zero() for k in range(span[-1] + 2))
        for k in span:
            z = seq[k + 1] * seq[k - 1] / seq[k] ** 2
            assert not (z.is_zero() or z.is_one())
        assert beta_p(nf, p) == flattened_torsion(nf, p).project()


def test_flattened_generators_have_zero_wedge(rationals, sqrt2):
    for nf, p in ((rationals, 2), (rationals, 3), (sqrt2, 2), (sqrt2, 3)):
        assert flattened_torsion(nf, p).is_in_Bhat()


def test_certified_order_of_multiples(rationals):
    s = flattened_torsion(rationals, 2)
    order = certify_order(s)
    for k in (2, 3, 5):
        assert certify_order(k * s) == order // math.gcd(k, order)


def test_rationals_order_3_regulator(rationals):
    v = reg_vector(flattened_torsion(rationals, 3), 45)[0]
    with mp.workdps(50):
        # a generator of the 3-torsion: value is a nonzero multiple of
        # 4 pi^2 / 3
        assert min(v.distance(4 * mp.pi ** 2 / 3),
                   v.distance(-4 * mp.pi ** 2 / 3)) < mp.mpf(10) ** -38


def test_non_torsion_rejected():
    # an infinite-order element over a field with complex embeddings
    from extbloch.extgroup import MultBasis
    from extbloch.bloch import ExtBlochSum, Flattening
    nf = NumberField([1, -2, 2, -1, 1])
    x = nf.element([0, 1])
    w = x ** 3 + x
    u = -x ** 3 - 2 * x + nf.one
    basis = MultBasis(nf, [u], saturated=True, torsion_gen=w)
    ut = basis.element(0, {0: 1})
    wt = basis.element(1)
    s = ExtBlochSum(basis, [(1, Flattening(ut, 2 * ut + 4 * wt)),
                            (2, Flattening(-2 * ut + 3 * wt,
                                           -3 * ut + wt))], -3 * ut)
    with pytest.raises(NotTorsion):
        certify_order(s)
