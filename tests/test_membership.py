"""Certified membership: the split-prime certificate, the l-adic lattice
and its proven bound, and the torsion data they decide, against sympy and
under rescaling."""
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import extbloch.field as field_mod
from extbloch.cli import main
from extbloch.field import (SIEVE_FIRST, NotSquarefree, NumberField,
                            cos2pi_minpoly, cyclotomic, discriminant,
                            element_in_field, euler_phi, integral_model,
                            nonmembership_prime)
from extbloch.torsion import (certify_order, flattened_torsion,
                              torsion_bound, torsion_profile, two_cos)

# base fields with their order m of roots of unity and nu_p for p = 2, 3
# (nu_p = 0 for larger p), as in the torsion tables of the README fields
BASE = {
    "Q": ([0, 1], 2, {2: 2, 3: 1}),
    "sqrt2": ([-2, 0, 1], 2, {2: 3, 3: 1}),
    "i": ([1, 0, 1], 4, {2: 2, 3: 1}),
    "sqrt-3": ([1, 1, 1], 6, {2: 2, 3: 1}),
    "quartic": ([1, -2, 2, -1, 1], 6, {2: 2, 3: 1}),
    "x4+1": ([1, 0, 0, 0, 1], 8, {2: 3, 3: 1}),
}


def scaled(poly, c):
    """c^d p(x/c): the same field, generator multiplied by c."""
    d = len(poly) - 1
    return [Fraction(a) * Fraction(c) ** (d - i) for i, a in enumerate(poly)]


def profile_of(poly, c=1):
    prof = torsion_profile(NumberField(scaled(poly, c)))
    return prof.m, {p: v for p, v in prof.nu.items() if v or p in (2, 3)}


# rescalings on which a fixed-precision search reported too small an m or
# nu_p before membership was certified
@pytest.mark.parametrize("name, c", [("quartic", 1000), ("x4+1", 1000),
                                     ("i", 3 * 10 ** 7),
                                     ("sqrt-3", 3 * 10 ** 7),
                                     ("sqrt2", 3 * 10 ** 7)])
def test_rescaled_fields_keep_their_torsion(name, c):
    poly, m, nu = BASE[name]
    assert profile_of(poly, c) == (m, nu)


# the smallest powers of ten, found by bisection, at which the
# approximation-driven route exited 4 ("precision exhausted: no root of ...
# reconstructed"); 10^100, 10^100 and 10^300 did too
@pytest.mark.parametrize("name, exponent", [("x4+1", 63), ("quartic", 76),
                                            ("sqrt2", 189)])
def test_members_of_hugely_rescaled_fields_are_found(name, exponent,
                                                     tmp_path, capsys):
    with open("tests/fixtures/golden_cli.json") as fh:
        want = json.load(fh)[f"torsion table {name}@1"]
    path = tmp_path / "field.json"
    path.write_text(json.dumps(
        {"field": [str(c) for c in scaled(BASE[name][0], 10 ** exponent)]}))
    assert main(["torsion", "table", str(path)]) == want["code"] == 0
    assert capsys.readouterr().out == want["stdout"]


ORDERS = [n for n in range(1, 31) if euler_phi(n) <= 8]


@given(poly=st.sampled_from([p for p, _, _ in BASE.values()]
                            + [[-2, 0, 0, 1]]),
       q=st.one_of(st.sampled_from(ORDERS).map(cyclotomic),
                   st.sampled_from(ORDERS).map(cos2pi_minpoly),
                   st.just(None),
                   st.integers(-60, 60).filter(
                       lambda a: a < 0 or math.isqrt(a) ** 2 != a).map(
                       lambda a: (-a, 0, 1))))
@settings(max_examples=40, deadline=None)
def test_membership_matches_sympy(poly, q):
    # None draws p itself; x^2 - a is drawn only for a non-square a, so
    # that every q is irreducible, as element_in_field asks
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    q = tuple(poly) if q is None else q
    nf = NumberField(poly)
    beta = element_in_field(q, nf)
    extension = {} if nf.degree == 1 else {"extension": sympy.CRootOf(
        sympy.Poly(list(reversed(poly)), y), 0)}
    factors = sympy.factor_list(sum(c * x ** i for i, c in enumerate(q)),
                                x, **extension)[1]
    assert (beta is not None) == any(sympy.degree(f, x) == 1
                                     for f, _ in factors), (poly, q)
    if beta is not None:
        assert field_mod._peval(q, beta, nf.zero).is_zero()


def test_m_and_nu_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")

    def has_root(poly_expr, domain):
        factors = sympy.Poly(poly_expr, x, domain=domain).factor_list()[1]
        return any(f.degree() == 1 for f, _ in factors)

    for poly, _, _ in BASE.values():
        p = sympy.Poly(list(reversed(poly)), x)
        d = p.degree()
        domain = sympy.QQ if d == 1 else \
            sympy.QQ.algebraic_field(sympy.CRootOf(p, 0))
        want_m = max(m for m in range(1, 2 * d * d + 3)
                     if sympy.totient(m) <= d
                     and has_root(sympy.cyclotomic_poly(m, x), domain))
        prof = torsion_profile(NumberField(poly))
        assert prof.m == want_m
        for q in prof.nu:
            nu = 0
            while True:
                target = sympy.minimal_polynomial(
                    2 * sympy.cos(2 * sympy.pi / q ** (nu + 1)), x)
                if sympy.degree(target, x) > d or not has_root(target,
                                                               domain):
                    break
                nu += 1
            assert prof.nu[q] == nu, (poly, q)


@given(name=st.sampled_from(["sqrt2", "i", "sqrt-3", "quartic"]),
       num=st.integers(min_value=1, max_value=10 ** 9),
       den=st.integers(min_value=1, max_value=10 ** 3))
@settings(max_examples=12, deadline=None)
def test_torsion_is_invariant_under_rescaling(name, num, den):
    poly, m, nu = BASE[name]
    assert profile_of(poly, Fraction(num, den)) == (m, nu)


@pytest.mark.parametrize("name", sorted(BASE))
def test_certified_orders_are_the_prime_parts_of_w(name):
    # the flattened generator at p has order the p-part of w = 2 prod p^nu
    poly, _, nu = BASE[name]
    nf = NumberField(poly)
    w = torsion_profile(nf).w
    assert torsion_bound(nf.degree) % w == 0
    for p in (2, 3):
        part = math.gcd(w, p ** w.bit_length())
        assert part == p ** (nu[p] + (p == 2))
        assert certify_order(flattened_torsion(nf, p)) == part, p


def _divisors(n):
    return [k for k in range(1, n + 1) if n % k == 0]


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 12, 15, 16])
def test_certificate_never_rejects_a_member(n):
    # Q(zeta_n) contains zeta_m for m | lcm(2, n) and 2cos(2pi/k) for the
    # same k; its real subfield Q(2cos(2pi/n)) contains the cosines
    full = 2 * n if n % 2 else n
    members = _divisors(full)
    nf = NumberField(cyclotomic(n))
    for k in members:
        assert nonmembership_prime(cyclotomic(k), nf) is None, (n, k)
        assert nonmembership_prime(cos2pi_minpoly(k), nf) is None, (n, k)
    real = NumberField(cos2pi_minpoly(n))
    for k in members:
        assert nonmembership_prime(cos2pi_minpoly(k), real) is None, (n, k)
    # and it excludes every other root of unity the degree allows
    for k in range(3, 2 * nf.degree ** 2 + 3):
        if k not in members and nf.degree % euler_phi(k) == 0:
            assert nonmembership_prime(cyclotomic(k), nf) is not None, (n, k)


def test_misses_run_no_lattice_reduction(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lattice reduction on an excluded candidate")

    monkeypatch.setattr(field_mod, "reconstruct_at", refuse)
    sqrt2 = NumberField([-2, 0, 1])
    assert element_in_field([-3, 0, 1], sqrt2) is None
    assert sqrt2.torsion[0] == 2


def _record(monkeypatch, name, calls, arg):
    """Record argument `arg` of every call of field.<name>."""
    original = getattr(field_mod, name)
    monkeypatch.setattr(field_mod, name, lambda *a: calls.append(a[arg])
                        or original(*a))


def test_late_witness_still_excludes(monkeypatch):
    # sqrt(285 * 2^12) is not in Q(i); the first split prime of Q(i) at
    # which x^2 - 285 * 2^12 has no root comes after the first SIEVE_FIRST.
    # Its coefficient puts the proven bound above the first lattice, so
    # the full sieve decides after one lattice reduction per root mod l
    nf = NumberField([1, 0, 1])
    q = [-285 * 2 ** 12, 0, 1]
    assert nonmembership_prime(q, nf, 0, SIEVE_FIRST) is None
    assert nonmembership_prime(q, nf) is not None
    moduli, starts = [], []
    _record(monkeypatch, "reconstruct_at", moduli, 3)
    _record(monkeypatch, "nonmembership_prime", starts, 2)
    assert element_in_field(q, nf) is None
    assert len(moduli) == 2 and len(set(moduli)) == 1
    assert moduli[0].bit_length() >= field_mod.LIFT_BITS
    assert starts == [0, SIEVE_FIRST]


def test_member_tests_only_the_first_split_primes(monkeypatch):
    nf = NumberField([-2, 0, 1])
    q = (-8, 0, 1)   # 2*sqrt2
    tested = []
    has_root = field_mod._fp_has_root
    monkeypatch.setattr(field_mod, "_fp_has_root",
                        lambda poly, ell: tested.append(tuple(poly))
                        or has_root(poly, ell))
    w = element_in_field(q, nf)
    assert w * w == nf.rational(8)
    assert tested.count(q) == SIEVE_FIRST


@pytest.mark.parametrize("poly, q, member", [
    # non-members with roots mod the lattice's prime l = 7
    ([-2, 0, 1], [-11, 0, 1], False),                 # sqrt11, Q(sqrt2)
    ([1, -2, 2, -1, 1], [-2, 0, 1], False),           # sqrt2, quartic
    ([1, 0, 0, 0, 1], cos2pi_minpoly(8), True),       # sqrt2, Q(zeta_8)
    (scaled([1, 1, 1], 10 ** 6), cyclotomic(6), True),
])
def test_lattice_bound_proves_absence_without_the_sieve(monkeypatch, poly,
                                                        q, member):
    # with no split prime allowed to exclude, the lattice alone decides:
    # a non-member is refused only at a modulus past the proven bound
    monkeypatch.setattr(field_mod, "nonmembership_prime",
                        lambda *a, **k: None)
    moduli = []
    _record(monkeypatch, "reconstruct_at", moduli, 3)
    nf = NumberField(poly)
    beta = element_in_field(q, nf)
    if member:
        assert field_mod._peval(q, beta, nf.zero).is_zero()
        return
    assert beta is None
    d, delta = nf.degree, nf.denominator_bound
    r2 = (1 + max(map(abs, integral_model(q)[1]))) ** 2
    c2 = d * (1 + max(map(abs, integral_model(nf.poly)[1]))) ** (2 * d - 2)
    x2 = d ** 3 * delta * c2 ** (d - 1) * r2 + delta ** 2
    assert moduli[-1] ** 2 > (2 ** (d + 2) * x2 * x2 * c2) ** d


def test_torsion_is_lazy_and_two_cos_memoized(monkeypatch):
    nf = NumberField([1, 0, 0, 0, 1])
    assert "torsion" not in vars(nf)
    first = two_cos(nf, 8)
    monkeypatch.setattr("extbloch.torsion.element_in_field",
                        lambda *a, **k: pytest.fail("not memoized"))
    assert two_cos(nf, 8) is first
    assert first * first == nf.rational(2)


def test_integral_model_and_discriminant():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for poly, c in itertools.product([BASE["quartic"][0], [-7, 0, 0, 1]],
                                     [1, Fraction(3, 10), 12]):
        p = tuple(scaled(poly, c))
        den, p_int = integral_model(p)
        assert all(isinstance(a, int) for a in p_int) and p_int[-1] == 1
        want = sympy.discriminant(sympy.Poly(list(reversed(p_int)), x))
        assert discriminant(p_int) == int(want)
        want = sympy.discriminant(sympy.Poly(
            [sympy.Rational(a.numerator, a.denominator)
             for a in reversed(p)], x))
        assert discriminant(p) == Fraction(int(want.p), int(want.q)), p
    # 200 seeded monic polynomials of degree 1-8; every third one of degree
    # at least 2 is q^2 r, with repeated roots and discriminant 0
    rng = random.Random(1)
    zeros = 0
    for i in range(200):
        d = 1 + i % 8
        if i % 3 == 0 and d >= 2:
            q = [rng.randint(-5, 5) for _ in range(rng.randint(1, d // 2))]
            r = [rng.randint(-5, 5) for _ in range(d - 2 * len(q))]
            poly = sympy.Poly(list(reversed(q + [1])), x) ** 2 \
                * sympy.Poly(list(reversed(r + [1])), x)
            coeffs = tuple(int(c) for c in reversed(poly.all_coeffs()))
        else:
            coeffs = tuple(rng.randint(-20, 20) for _ in range(d)) + (1,)
        want = sympy.discriminant(sympy.Poly(list(reversed(coeffs)), x))
        assert discriminant(coeffs) == int(want), coeffs
        zeros += want == 0
    assert zeros >= 20


def test_denominator_bound_is_the_discriminant_of_the_integral_model():
    # the bound comes from the Sturm chain of the monic p, scaled by
    # D^(d(d-1)); the oracle is sympy's discriminant of p_D itself
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(15)
    dens = {True: 0, False: 0}
    for i in range(80):
        d = 1 + i % 6
        c = (1, rng.randint(2, 9), Fraction(1, rng.randint(2, 9)),
             Fraction(rng.randint(1, 9), rng.randint(2, 9)))[i % 4]
        lead = 1 if i % 4 < 2 else rng.randint(1, 3)
        poly = [rng.randint(-9, 9) for _ in range(d)] + [lead]
        try:
            nf = NumberField(scaled(poly, c))
        except NotSquarefree:
            continue
        den, p_int = integral_model(nf.poly)
        want = sympy.discriminant(sympy.Poly(list(reversed(p_int)), x))
        assert nf.denominator_bound == abs(int(want)), (poly, c)
        dens[den == 1] += 1
    assert min(dens.values()) >= 20


def test_two_cos_reads_an_embedding_only_for_an_irrational_cosine():
    nf = NumberField([-2, 0, 1])
    assert two_cos(nf, 2) == nf.rational(-2)
    assert two_cos(nf, 3) == nf.rational(-1)
    assert two_cos(nf, 5) is None
    assert nf._refined is None
    # the first embedding of Q(sqrt2) is the real root -sqrt2, where -x
    # is 2cos(2pi/8)
    assert two_cos(nf, 8) == -nf.gen
    assert nf._refined is not None


@given(coeffs=st.lists(st.integers(min_value=-30, max_value=30),
                       min_size=1, max_size=5),
       ell=st.sampled_from([2, 3, 5, 7, 11, 13]))
@settings(max_examples=60, deadline=None)
def test_root_test_mod_ell_matches_brute_force(coeffs, ell):
    poly = tuple(coeffs) + (1,)
    brute = any(sum(c * r ** i for i, c in enumerate(poly)) % ell == 0
                for r in range(ell))
    assert field_mod._fp_has_root(poly, ell) == brute
