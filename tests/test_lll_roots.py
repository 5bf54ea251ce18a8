"""Exact integral LLL and Newton-refined roots, against independent checks:
Gram-Schmidt data recomputed in Fractions, and mpmath.polyroots at three
times the precision."""
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

import extbloch.field as field_mod
from extbloch.field import (NotSquarefree, NumberField, PrecisionExhausted,
                            _mpc, _newton_fixed, lll_reduce)

DELTA = Fraction(99, 100)


def _gram_schmidt(rows):
    """(mu, squared norms of the Gram-Schmidt vectors), exactly."""
    star, mu, norms = [], [], []
    for b in rows:
        v = [Fraction(x) for x in b]
        coeffs = []
        for s, n in zip(star, norms):
            c = sum(x * y for x, y in zip(b, s)) / n
            coeffs.append(c)
            v = [x - c * y for x, y in zip(v, s)]
        star.append(v)
        mu.append(coeffs)
        norms.append(sum(x * x for x in v))
    return mu, norms


def _gram_det(rows):
    """det(B B^T) by Gaussian elimination in Fractions."""
    g = [[Fraction(sum(x * y for x, y in zip(a, b))) for b in rows]
         for a in rows]
    det = Fraction(1)
    for col in range(len(g)):
        piv = next((r for r in range(col, len(g)) if g[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            g[col], g[piv] = g[piv], g[col]
            det = -det
        det *= g[col][col]
        for r in range(col + 1, len(g)):
            f = g[r][col] / g[col][col]
            g[r] = [x - f * y for x, y in zip(g[r], g[col])]
    return det


def _coordinates(rows, v):
    """The rational x with x . rows = v (rows independent), or None."""
    n, m = len(rows), len(v)
    a = [[Fraction(rows[i][j]) for i in range(n)] + [Fraction(v[j])]
         for j in range(m)]
    pivots, r = [], 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            return None
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    if any(a[i][n] != 0 for i in range(r, m)):
        return None
    return [a[i][n] for i in range(n)]


@st.composite
def integer_bases(draw):
    n = draw(st.integers(2, 7))
    m = draw(st.integers(n, n + 2))
    bits = draw(st.sampled_from([4, 20, 64, 140]))
    entry = st.integers(-2 ** bits, 2 ** bits)
    return [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(n)]


@given(integer_bases())
@settings(max_examples=80, deadline=None)
def test_lll_reduce_is_an_lll_basis_of_the_same_lattice(rows):
    assume(_gram_det(rows) != 0)
    reduced = lll_reduce(rows)
    assert len(reduced) == len(rows)
    assert all(isinstance(x, int) for row in reduced for x in row)
    # the same lattice: integral in both directions, so equal covolume
    assert _gram_det(reduced) == _gram_det(rows)
    for row in reduced:
        coords = _coordinates(rows, row)
        assert coords is not None
        assert all(c.denominator == 1 for c in coords)
    mu, norms = _gram_schmidt(reduced)
    assert all(abs(c) <= Fraction(1, 2) for coeffs in mu for c in coeffs)
    for k in range(1, len(reduced)):
        assert norms[k] >= (DELTA - mu[k][k - 1] ** 2) * norms[k - 1]


def test_lll_reduce_rejects_dependent_rows():
    with pytest.raises(ValueError):
        lll_reduce([(1, 2, 3), (2, 4, 6)])


FIELDS = {
    "Q": [0, 1], "sqrt2": [-2, 0, 1], "i": [1, 0, 1], "sqrt-3": [1, 1, 1],
    "quartic": [1, -2, 2, -1, 1], "x4+1": [1, 0, 0, 0, 1],
    "x6-7": [-7, 0, 0, 0, 0, 0, 1], "x8+1": [1, 0, 0, 0, 0, 0, 0, 0, 1],
}


def _reference_roots(poly, dps, precision=None):
    """Roots by mpmath.polyroots in the documented order: the real ones
    ascending, then those with positive imaginary part by (re, im), real
    parts that agree to `precision` digits (if given) counting as equal."""
    den = math.lcm(*(Fraction(c).denominator for c in poly))
    with mp.workdps(dps):
        raw = mpmath.polyroots([int(c * den) for c in reversed(poly)],
                               maxsteps=800, extraprec=4 * dps)
        tiny = mp.mpf(10) ** (-dps // 2)
        reals = sorted(mp.re(z) for z in raw if abs(mp.im(z)) < tiny)
        scale = mp.mpf(10) ** precision if precision else 1
        upper = sorted((z for z in raw if mp.im(z) >= tiny),
                       key=lambda z: (mp.nint(mp.re(z) * scale)
                                      if precision else mp.re(z), mp.im(z)))
        return [mp.mpc(x) for x in reals] + upper


@pytest.mark.parametrize("name", FIELDS)
def test_roots_agree_with_polyroots_at_triple_precision(name):
    nf = NumberField(FIELDS[name])
    for precision in (44, 48, 50, 200):
        ours = nf.roots(precision)
        ref = _reference_roots(FIELDS[name], 3 * precision)
        assert len(ours) == len(ref) == sum(nf.signature)
        with mp.workdps(3 * precision):
            for z, w in zip(ours, ref):
                assert abs(z - w) < mp.mpf(10) ** -precision, (precision, z, w)


_FRESH = {}


def _fresh_roots(name, precision):
    """The roots of a newly built field at one precision, computed once."""
    if (name, precision) not in _FRESH:
        _FRESH[name, precision] = NumberField(FIELDS[name]).roots(precision)
    return _FRESH[name, precision]


@given(name=st.sampled_from(["Q", "sqrt2", "i", "sqrt-3", "quartic", "x4+1",
                             "x6-7"]),
       precisions=st.lists(st.sampled_from([20, 44, 48, 50, 100, 200]),
                           min_size=2, max_size=6))
@settings(max_examples=40, deadline=None)
def test_roots_do_not_depend_on_earlier_requests(name, precisions):
    # a field reuses or refines its most precise roots; each answer must be
    # that of a field asked at this precision first
    nf = NumberField(FIELDS[name])
    for precision in precisions:
        ours, fresh = nf.roots(precision), _fresh_roots(name, precision)
        assert len(ours) == len(fresh)
        with mp.workdps(2 * precision + 40):
            for z, w in zip(ours, fresh):
                assert abs(z - w) < mp.mpf(10) ** -(2 * precision + 30)


def test_pairs_with_equal_real_parts_keep_their_order():
    # (x - 7)^4 + 3 (x - 7)^2 + 1: roots 7 +- i/phi and 7 +- i*phi, so the
    # order of the two pairs rests on the imaginary parts alone
    nf = NumberField([2549, -1414, 297, -28, 1])
    for precision in (30, 44, 48, 50, 60, 88, 100):
        low, high = nf.roots(precision)
        with mp.workdps(precision):
            assert abs(low - mp.mpc(7, 2 / (1 + mp.sqrt(5)))) < 1e-20
            assert abs(high - mp.mpc(7, (1 + mp.sqrt(5)) / 2)) < 1e-20


def test_close_roots_are_isolated_again(monkeypatch):
    # (x - 1)(x - 1 - 10^-30): an isolation at 20 digits cannot separate them
    eps = Fraction(1, 10 ** 30)
    nf = NumberField([1 + eps, -(2 + eps), 1])
    isolations = []
    isolate = field_mod._isolate_roots

    def spy(poly, digits):
        isolations.append(digits)
        return isolate(poly, digits)

    monkeypatch.setattr(field_mod, "_isolate_roots", spy)
    roots = nf.roots(44)
    assert len(isolations) >= 2
    assert isolations[0] == field_mod.ISOLATION_DIGITS
    assert isolations == sorted(isolations)
    with mp.workdps(100):
        assert abs(roots[0] - 1) < mp.mpf(10) ** -44
        assert abs(roots[1] - 1 - mp.mpf(10) ** -30) < mp.mpf(10) ** -44
    # later precisions refine the roots the field kept, with no isolation
    isolations.clear()
    nf.roots(60)
    assert isolations == []


def test_unseparated_roots_raise_precision_exhausted(monkeypatch):
    nf = NumberField([-2, 0, 1])
    # every isolation returns the same root twice, so separation never holds
    monkeypatch.setattr(field_mod, "_isolate_roots",
                        lambda poly, digits: [mp.mpc(1.4), mp.mpc(1.5)])
    with pytest.raises(PrecisionExhausted):
        nf.roots(44)


def test_newton_converges_to_the_root_it_starts_near():
    poly = (-2, 0, 1)
    root, (sr, si, b) = _newton_fixed(poly, mp.mpf("-1.41"), 15, 80)
    with mp.workdps(80):
        assert abs(_mpc(root) + mp.sqrt(2)) < mp.mpf(10) ** -75
        step = mp.ldexp(math.isqrt(sr * sr + si * si), -b)
        assert step < mp.mpf(10) ** -39


def test_newton_step_budget_raises():
    # x^2 + 1 has no real root: Newton's method from a real start wanders
    poly = (1, 0, 1)
    with pytest.raises(PrecisionExhausted):
        _newton_fixed(poly, mp.mpf("0.5"), 30, 30)


def test_roots_never_call_polyroots(monkeypatch):
    # mpmath.polyroots is the independent reference of these tests and of
    # the benchmark's oracles, so the library must find roots without it
    def forbidden(*args, **kwargs):
        raise AssertionError("mpmath.polyroots called")

    monkeypatch.setattr(mpmath, "polyroots", forbidden)
    monkeypatch.setattr(mp, "polyroots", forbidden)
    eps = Fraction(1, 10 ** 30)
    for poly in [*FIELDS.values(), [1 + eps, -(2 + eps), 1]]:
        nf = NumberField(poly)
        for precision in (20, 50, 200):
            assert len(nf.roots(precision)) == sum(nf.signature)
    assert NumberField(FIELDS["sqrt-3"]).torsion[0] == 6


@st.composite
def squarefree_polys(draw):
    """(poly, a): an integer polynomial of degree 1-8 (low to high) as
    drawn or rescaled to p(x/c) c^d with 1 <= c <= 10^8, and a = None; or
    one of degree 0-6 times (x - a)(x - a - 10^-30).  NumberField rejects
    the ones that are not squarefree."""
    kind = draw(st.sampled_from(["plain", "rescaled", "close pair"]))
    d = draw(st.integers(0 if kind == "close pair" else 1,
                         6 if kind == "close pair" else 8))
    poly = draw(st.lists(st.integers(-20, 20), min_size=d, max_size=d))
    poly.append(draw(st.integers(1, 20)))
    a = None
    if kind == "rescaled":
        c = draw(st.integers(1, 10 ** 8))
        poly = [b * c ** (d - k) for k, b in enumerate(poly)]
    elif kind == "close pair":
        a = Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 9)))
        eps = Fraction(1, 10 ** 30)
        poly = field_mod._pmul(poly, [a * (a + eps), -(2 * a + eps), 1])
    return [Fraction(c) for c in poly], a


@given(case=squarefree_polys(), precision=st.sampled_from([20, 48, 50, 200]))
@settings(max_examples=10, deadline=None)
def test_roots_match_polyroots_on_squarefree_polynomials(case, precision):
    poly, a = case
    try:
        nf = NumberField(poly)
    except NotSquarefree:
        assume(False)
    ours = nf.roots(precision)
    # 3P digits resolve 10^-(2P+30) only from P = 30 on
    ref = _reference_roots(poly, max(3 * precision, 2 * precision + 60),
                           precision)
    assert len(ours) == len(ref) == sum(nf.signature)
    with mp.workdps(3 * precision + 60):
        for z, w in zip(ours, ref):
            # a root of the close pair has condition ~10^30: Newton's
            # convergence test, step <= 10^-(dps/2) |z|, then leaves an
            # error up to ~10^30 step^2, so it is held to 10^-2P
            tol = 2 * precision + (0 if a is not None and abs(w - a) < 1e-20
                                   else 30)
            assert abs(z - w) < mp.mpf(10) ** -tol, (z, w)


# Integer polynomials (low to high) whose rescalings p(x/c) c^d by
# c = 10^8 the absolute residue test |p(z)| <= 10^-P rejected at P <= 50:
# |p'(z)| there reaches 10^90 and more.  The first is from a reported
# failure, the other two from a seeded search (random.Random(2026),
# degree 9-12, coefficients up to 10^6).
LARGE_POLYS = [
    [907787, 64169, -549746, -921366, -819756, -90580, -123030, -853503,
     -495294, 1],
    [876546, 260452, 303346, 167188, -117907, 642853, 200763, 148843,
     766644, 532051, 1],
    [575015, 621251, 230023, -74957, -496822, -994685, 288079, -830711,
     -767769, -397614, 712872, -794371, 1],
]


def _rescaled(poly, c):
    d = len(poly) - 1
    return [a * c ** (d - k) for k, a in enumerate(poly)]


@pytest.mark.parametrize("poly", LARGE_POLYS, ids=lambda p: f"deg{len(p) - 1}")
def test_roots_of_large_polynomials_pass_the_relative_residue(poly):
    poly = _rescaled(poly, 10 ** 8)
    nf = NumberField(poly)
    ref = _reference_roots(poly, 300)
    for precision in (20, 30, 48, 50, 100):
        ours = nf.roots(precision)
        assert len(ours) == len(ref) == sum(nf.signature)
        with mp.workdps(300):
            for z, w in zip(ours, ref):
                assert abs(z - w) < abs(w) * mp.mpf(10) ** -(2 * precision + 30)
