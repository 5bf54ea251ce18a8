import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from mpmath import mp

from cli_matrix import BASE_FIELDS, scaled
from extbloch import field as field_module
from extbloch.field import (PRIME_LIMIT, FieldError, NotSquarefree,
                            NumberField, _solve_rational, cos2pi_minpoly,
                            element_in_field, euler_phi, count_real_roots,
                            integral_model, is_prime, is_small,
                            nearest_integer, tolerance, working)


@pytest.fixture(scope="module")
def sqrt2():
    return NumberField([-2, 0, 1])


@pytest.fixture(scope="module")
def example_field():
    return NumberField([1, -2, 2, -1, 1])


def test_rationals_need_nonconstant_poly():
    with pytest.raises(FieldError):
        NumberField([1])


def test_repeated_roots_rejected():
    # (x - 1)^2
    with pytest.raises(FieldError):
        NumberField([1, -2, 1])


def test_signatures(sqrt2, example_field):
    assert NumberField([0, 1]).signature == (1, 0)
    assert sqrt2.signature == (2, 0)
    assert example_field.signature == (0, 2)


small_rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12)
# Q, Q(sqrt2) and the quartic fixture
RING_FIELDS = {"Q": NumberField([0, 1]), "sqrt2": NumberField([-2, 0, 1]),
               "quartic": NumberField([1, -2, 2, -1, 1])}


@given(name=st.sampled_from(sorted(RING_FIELDS)),
       coords=st.lists(small_rationals, min_size=12, max_size=12))
@settings(max_examples=90, deadline=None)
def test_field_arithmetic_is_a_ring(name, coords):
    nf = RING_FIELDS[name]
    d = nf.degree
    r, s, t = (nf.element(coords[k * d:(k + 1) * d]) for k in range(3))
    assert r * (s + t) == r * s + r * t
    assert (r + s) * t == t * r + t * s
    assert (r * s) * t == r * (s * t)
    assert r - r == nf.zero
    assert -r + r == nf.zero
    if not r.is_zero():
        assert r * r.inverse() == nf.one


def _irreducible(rng, degree, lead):
    while True:
        p = [rng.randint(-9, 9) for _ in range(degree)] + [lead]
        if _as_sympy(p).is_irreducible:
            return p


def _oracle_field(kind, degree):
    """A seeded irreducible polynomial of the degree: monic, non-monic, or
    a monic one rescaled to p(x/c) c^d with c = 10^6."""
    rng = random.Random(100 * degree + len(kind))
    if kind == "non-monic":
        return _irreducible(rng, degree, rng.choice([2, 3, -5, 7]))
    p = _irreducible(rng, degree, 1)
    if kind == "rescaled":
        p = [a * 10 ** (6 * (degree - k)) for k, a in enumerate(p)]
    return p


def _as_sympy(coeffs):
    """The polynomial over QQ with these coefficients, constant first."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], sympy.Symbol("x"),
                      domain="QQ")


def _from_sympy(poly, degree):
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (degree - len(coeffs)))


def _random_coords(rng, degree):
    """Rational coordinates, about a third of them zero."""
    return [Fraction(rng.randint(-10 ** 3, 10 ** 3), rng.randint(1, 50))
            if rng.random() > 0.3 else Fraction(0) for _ in range(degree)]


@pytest.mark.parametrize("kind, degree",
                         [(kind, d) for d in range(1, 9)
                          for kind in ("monic", "non-monic")]
                         + [("rescaled", 4)])
def test_product_and_inverse_match_sympy(kind, degree):
    poly = _oracle_field(kind, degree)
    nf = NumberField(poly)
    p = _as_sympy(poly)
    rng = random.Random(degree)
    for _ in range(8):
        a = nf.element(_random_coords(rng, degree))
        b = nf.element(_random_coords(rng, degree))
        want = (_as_sympy(a.coeffs) * _as_sympy(b.coeffs)).rem(p)
        assert (a * b).coeffs == _from_sympy(want, degree)
        if not a.is_zero():
            want = sympy.invert(_as_sympy(a.coeffs), p)
            assert a.inverse().coeffs == _from_sympy(want, degree)


def test_product_divides_no_polynomials(monkeypatch):
    cases = []
    for poly in ([0, 1], [-2, 0, 1], [1, -2, 2, -1, 1],
                 [1, 0, 0, 0, 0, 0, 0, 0, 1]):
        nf = NumberField(poly)
        p = _as_sympy(poly)
        a = nf.element([Fraction(k + 1, 3) for k in range(nf.degree)])
        b = nf.element([Fraction(-2, k + 1) for k in range(nf.degree)])
        want = (_as_sympy(a.coeffs) * _as_sympy(b.coeffs)).rem(p)
        cases.append((a, b, _from_sympy(want, nf.degree)))

    def forbidden(*args):
        raise AssertionError("a product called a polynomial helper")

    for name in ("_integer", "_trim", "_pmul", "_pdivmod", "_pderiv",
                 "_sturm_chain", "_fp_rem"):
        monkeypatch.setattr(field_module, name, forbidden)
    for a, b, want in cases:
        assert (a * b).coeffs == want
        assert (a * 3).coeffs == (3 * a).coeffs == tuple(3 * c for c in a.coeffs)
    q = RING_FIELDS["Q"].rational(Fraction(-4, 7))
    assert q.inverse().coeffs == (Fraction(-7, 4),)


def test_inverse_of_zero(sqrt2):
    with pytest.raises(FieldError):
        sqrt2.zero.inverse()


def test_inverse_of_a_zero_divisor_raises():
    # x - 1 in Q[x]/(x^2 - 1) and x^2 + 1 in Q[x]/((x^2 + 1)(x^2 - 2))
    for poly, element in (([-1, 0, 1], [-1, 1]),
                          ([-2, 0, -1, 0, 1], [1, 0, 1])):
        with pytest.raises(FieldError, match="not irreducible"):
            NumberField(poly).element(element).inverse()


def _sympy_solution(rows, rhs):
    """The unique solution of rows * c = rhs by sympy, or None."""
    try:
        sol, params = sympy.Matrix(rows).gauss_jordan_solve(
            sympy.Matrix(rhs))
    except ValueError:
        return None
    if params.shape[0]:
        return None
    return [Fraction(int(v.p), int(v.q)) for v in sol]


def test_solve_rational_matches_sympy():
    # square, overdetermined, singular and inconsistent systems, with zero
    # entries that force row swaps
    rng = random.Random(17)
    kinds = {"unique": 0, "none": 0}
    for _ in range(300):
        ncols = rng.randint(1, 5)
        nrows = ncols + rng.choice((0, 0, 1, 2))
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                 if rng.random() < 0.6 else Fraction(0)
                 for _ in range(ncols)] for _ in range(nrows)]
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 5))
             for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(r, x)) for r in rows]
        if rng.random() < 0.3:
            rhs[rng.randrange(nrows)] += 1
        got = _solve_rational(rows, rhs)
        assert got == _sympy_solution(rows, rhs)
        kinds["unique" if got else "none"] += 1
    assert min(kinds.values()) > 50


@pytest.mark.parametrize("precision", [20, 50, 200])
def test_decisions_at_their_boundaries(precision):
    # the inputs carry more digits than the decisions use: at mpmath's
    # default 15 digits, k + 10^-22 would already be k
    with mp.workdps(2 * precision + 40):
        tol = mp.mpf(10) ** (10 - precision)
        assert tolerance(precision) == tol
        step = mp.mpf(10) ** (-precision // 2)
        for sign in (1, -1):
            assert is_small(sign * tol / 2, precision)
            assert not is_small(sign * 2 * tol, precision)
            assert is_small(mp.mpc(tol / 4, sign * tol / 4), precision)
            assert not is_small(mp.mpc(tol, sign * tol), precision)
            for k in (-3, 0, 7, 10 ** 30):
                assert nearest_integer(k + sign * step / 2, precision) == k
                assert nearest_integer(k + sign * 2 * step, precision) is None
                assert nearest_integer(mp.mpc(k, sign * step / 2),
                                       precision) == k
                assert nearest_integer(mp.mpc(k, sign * 2 * step),
                                       precision) is None
    # the bound itself passes
    with working(precision):
        assert is_small(tolerance(precision), precision)
        assert nearest_integer(mp.mpf(10) ** (-precision // 2), precision) \
            == 0


def test_min_poly_of_generator(example_field):
    assert example_field.gen.min_poly() == example_field.poly


def test_min_poly_of_rational(sqrt2):
    assert sqrt2.rational(Fraction(3, 2)).min_poly() == \
        (Fraction(-3, 2), Fraction(1))


def test_embeddings_evaluate_generator_to_root(example_field):
    for ctx in example_field.embeddings(40):
        val = ctx.evaluate(example_field.gen)
        assert abs(val - ctx.root()) < mp.mpf(10) ** -35


@pytest.mark.parametrize("poly", [[0, 1], [-2, 0, 1], [1, -2, 2, -1, 1],
                                  [-2, 0, 0, 1]])
def test_all_roots_lists_every_root_once(poly):
    # the roots of the embeddings and the conjugates of the non-real ones
    # are the d roots of p, each once (mpmath.polyroots as the reference)
    nf = NumberField(poly)
    roots, r1 = nf.roots(40), nf.signature[0]
    with mp.workdps(50):
        found = roots + [mp.conj(z) for z in roots[r1:]]
        reference = mpmath.polyroots(poly[::-1], maxsteps=200, extraprec=200)
        assert len(found) == nf.degree
        for z in reference:
            assert sum(abs(w - z) < mp.mpf(10) ** -35 for w in found) == 1


def test_embedding_respects_products(sqrt2):
    a = sqrt2.element([1, 2])
    b = sqrt2.element([-3, 1])
    with mp.workdps(45):
        for ctx in sqrt2.embeddings(40):
            lhs = ctx.evaluate(a * b)
            rhs = ctx.evaluate(a) * ctx.evaluate(b)
            assert abs(lhs - rhs) < mp.mpf(10) ** -35


def test_torsion_detection():
    assert NumberField([0, 1]).torsion[0] == 2
    assert NumberField([-2, 0, 1]).torsion[0] == 2
    m, w = NumberField([1, -2, 2, -1, 1]).torsion
    assert m == 6
    assert (w ** 6).is_one()
    assert not (w ** 3).is_one()
    assert not (w ** 2).is_one()


def test_cos2pi_minpoly_known_values():
    assert cos2pi_minpoly(1) == (Fraction(-2), Fraction(1))
    assert cos2pi_minpoly(2) == (Fraction(2), Fraction(1))
    assert cos2pi_minpoly(3) == (Fraction(1), Fraction(1))
    assert cos2pi_minpoly(4) == (Fraction(0), Fraction(1))
    assert cos2pi_minpoly(6) == (Fraction(-1), Fraction(1))
    # 2cos(2pi/5) = (sqrt(5) - 1)/2 has x^2 + x - 1
    assert cos2pi_minpoly(5) == (Fraction(-1), Fraction(1), Fraction(1))
    # 2cos(pi/4) = sqrt(2)
    assert cos2pi_minpoly(8) == (Fraction(-2), Fraction(0), Fraction(1))


@given(n=st.integers(min_value=1, max_value=60))
@settings(max_examples=40, deadline=None)
def test_cos2pi_minpoly_has_the_right_root(n):
    poly = cos2pi_minpoly(n)
    with mp.workdps(40):
        x = 2 * mp.cos(2 * mp.pi / n)
        acc = mp.mpf(0)
        for c in reversed(poly):
            acc = acc * x + mp.mpf(c.numerator) / mp.mpf(c.denominator)
        assert abs(acc) < mp.mpf(10) ** -30
    assert len(poly) - 1 == max(euler_phi(n) // 2, 1)


def test_euler_phi_small():
    assert [euler_phi(n) for n in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


# Carmichael numbers, strong pseudoprimes to base 2, the least strong
# pseudoprimes to the bases 2..23 and 2..37, and primes next to 10^6
HARD_INTEGERS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                 321197185, 5394826801, 232250619601, 9746347772161,
                 2047, 3277, 4033, 4681, 8321, 1373653, 25326001, 3215031751,
                 2152302898747, 3474749660383, 341550071728321,
                 3825123056546413051, 318665857834031151167461,
                 999983, 10 ** 6, 1000003, 999983 * 1000003]


def test_is_prime_agrees_with_sympy():
    rng = random.Random(11)
    numbers = HARD_INTEGERS + [rng.randrange(10 ** rng.randint(1, 30))
                               for _ in range(400)]
    numbers += [sympy.nextprime(n) for n in numbers[-100:]]
    for n in numbers:
        if n < PRIME_LIMIT:
            assert is_prime(n) == sympy.isprime(n), n
        else:
            with pytest.raises(ValueError):
                is_prime(n)


def test_count_real_roots():
    # x^3 - 2x: three real roots
    assert count_real_roots((Fraction(0), Fraction(-2),
                             Fraction(0), Fraction(1))) == 3
    # x^2 + 1: none
    assert count_real_roots((Fraction(1), Fraction(0), Fraction(1))) == 0


def _seeded_polynomials():
    """Integer polynomials of degree 1-8 (sympy Polys): per degree, three
    random ones and one with a repeated factor q^2."""
    rng = random.Random(13)
    x = sympy.Symbol("x")

    def random_poly(d):
        return sympy.Poly([rng.choice([1, -2, 3])]
                          + [rng.randint(-9, 9) for _ in range(d)], x)

    out = []
    for d in range(1, 9):
        out += [random_poly(d) for _ in range(3)]
        if d >= 2:
            k = rng.randint(1, d // 2)
            out.append(random_poly(k) ** 2 * random_poly(d - 2 * k))
    return out


def test_count_real_roots_matches_sympy():
    # each seeded polynomial also with rational coefficients, and with the
    # sign of its leading coefficient flipped
    repeated = 0
    for p in _seeded_polynomials():
        for scale in (1, Fraction(3, 10), Fraction(-7, 4)):
            poly = tuple(scale * int(c) for c in reversed(p.all_coeffs()))
            if sympy.gcd(p, p.diff()).degree() > 0:
                repeated += 1
                with pytest.raises(NotSquarefree):
                    count_real_roots(poly)
            else:
                assert count_real_roots(poly) == p.count_roots(), (p, scale)
    assert repeated >= 21


def _split_primes_by_definition(p_int, count):
    """The first `count` primes l at which the monic integer p_int has a
    root mod l, found by trying every residue, and is squarefree mod l:
    sympy's squarefree factorization has no repeated factor.  (sympy's
    `Poly.is_sqf` is no oracle here: mod l it answers True for x^2 + 1
    at l = 2, whose derivative vanishes.)"""
    x = sympy.Symbol("x")
    out, ell = [], 1
    while len(out) < count:
        ell = sympy.nextprime(ell)
        factors = sympy.Poly(list(reversed(p_int)), x,
                             modulus=ell).sqf_list()[1]
        if any(sum(c * r ** i for i, c in enumerate(p_int)) % ell == 0
               for r in range(ell)) and all(m == 1 for _, m in factors):
            out.append(ell)
    return tuple(out)


@pytest.mark.parametrize("scale", [1, 10 ** 3])
@pytest.mark.parametrize("name", BASE_FIELDS)
def test_split_primes_match_the_definition(name, scale):
    nf = NumberField(scaled(BASE_FIELDS[name], scale))
    p_int = integral_model(nf.poly)[1]
    assert nf.split_primes(30) == _split_primes_by_definition(p_int, 30)


def test_element_in_field_finds_sqrt2(sqrt2):
    found = element_in_field([-2, 0, 1], sqrt2)
    assert found is not None
    assert found * found == sqrt2.rational(2)


def test_element_in_field_rejects_sqrt3(sqrt2):
    assert element_in_field([-3, 0, 1], sqrt2) is None


def test_substitute_automorphism(sqrt2):
    # x -> -x is the nontrivial automorphism of Q(sqrt 2)
    image = sqrt2.element([0, -1])
    a = sqrt2.element([3, 5])
    b = sqrt2.element([-1, 2])
    assert (a * b).substitute(image) == a.substitute(image) * b.substitute(image)
    assert a.substitute(image).substitute(image) == a
