import cmath
import importlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
import mpmath
from mpmath import mp

from extbloch.field import (NumberField, PrecisionExhausted, is_small,
                            working)
from extbloch.extgroup import (LogLift, MultBasis, SymbolicBasis,
                               UnsaturatedBasis, cover_to_C)
from extbloch.bloch import (Flattening, chi, galois_apply, lift_five_term,
                            normalize, rho_hat)
from extbloch import regulator
from extbloch.regulator import (LiftInconsistent, RealSlotNotReal,
                                RegulatorValue, bloch_wigner, li2,
                                reg_flattening, reg_sum, reg_vector,
                                torsion_order)
from extbloch.torsion import certify_order


@given(re=st.floats(-3, 3), im=st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_li2_matches_mpmath_off_the_cut(re, im):
    if abs(im) < 1e-3 and re > 0.99:
        return  # stay off the branch cut
    with mp.workdps(45):
        z = mp.mpc(re, im)
        ours = li2(z, 40)
        ref = mpmath.polylog(2, z)
        assert abs(ours - ref) < mp.mpf(10) ** -35


def test_li2_special_values():
    with mp.workdps(45):
        assert abs(li2(1, 40) - mp.pi ** 2 / 6) < mp.mpf(10) ** -38
        assert abs(li2(-1, 40) + mp.pi ** 2 / 12) < mp.mpf(10) ** -38
        assert abs(li2(mp.mpf(1) / 2, 40)
                   - (mp.pi ** 2 / 12 - mp.log(2) ** 2 / 2)) < mp.mpf(10) ** -38


def test_li2_on_cut_is_limit_from_below():
    with mp.workdps(50):
        x = mp.mpf(3)
        eps = mp.mpf(10) ** -25
        on_cut = li2(x, 45)
        below = li2(mp.mpc(x, -eps), 45)
        assert abs(on_cut - below) < mp.mpf(10) ** -20


@given(re=st.floats(-3, 3), im=st.floats(0.01, 3))
@settings(max_examples=40, deadline=None)
def test_bloch_wigner_antisymmetry(re, im):
    with mp.workdps(40):
        z = mp.mpc(re, im)
        if abs(z) < 1e-3 or abs(z - 1) < 1e-3:
            return
        assert abs(bloch_wigner(z, 35) + bloch_wigner(mp.conj(z), 35)) \
            < mp.mpf(10) ** -30
        # six-fold symmetry of the single-valued imaginary part
        assert abs(bloch_wigner(z, 35) - bloch_wigner(1 - 1 / z, 35)) \
            < mp.mpf(10) ** -28
        assert abs(bloch_wigner(z, 35) + bloch_wigner(1 / z, 35)) \
            < mp.mpf(10) ** -28


def _li2_branch_points(seed, per_branch):
    """Seeded points off the real axis in each region of li2: the disc
    |z| <= 1/2, |z| >= 2 (inversion), |1 - z| <= 1/2 (reflection) and the
    annulus between them.  The series runs at u = -Log(1 - z) on the disc
    and the annulus, and behind the maps on the other two."""
    rng = random.Random(seed)
    points = []
    while len(points) < 4 * per_branch:
        kind = len(points) % 4
        angle = rng.uniform(0.05, 2 * math.pi - 0.05)
        if kind == 0:
            z = cmath.rect(rng.uniform(0.05, 0.5), angle)
        elif kind == 1:
            z = cmath.rect(rng.uniform(2, 50), angle)
        elif kind == 2:
            z = 1 + cmath.rect(rng.uniform(0.05, 0.5), angle)
        else:
            z = cmath.rect(rng.uniform(0.5, 2), angle)
        in_annulus = 0.5 < abs(z) < 2
        if kind < 2 or in_annulus and (abs(1 - z) <= 0.5) == (kind == 2):
            points.append(z)
    return points


def _disc_and_near_two_points():
    """Tiny |z|, where the digits of Li2(z) ~ z sit far below 1, and
    annulus points next to z = 2, where u = -Log(1 - z) is largest."""
    return [cmath.rect(1e-30, 2), 1e-100j, -1e-60, 1.95 - 0.1j,
            1.86 + 0.11j, 1.99999 + 1e-9j, 1.99999 - 1e-9j]


@pytest.mark.parametrize("precision, per_branch",
                         [(20, 3), (50, 3), (200, 1)])
def test_bloch_wigner_matches_polylog_on_every_branch(precision, per_branch):
    points = _li2_branch_points(precision, per_branch)
    for z in points + _disc_and_near_two_points():
        ours = bloch_wigner(z, precision)
        with mp.workdps(2 * precision):
            z = mp.mpc(z)
            ref = mp.im(mpmath.polylog(2, z)) + mp.arg(1 - z) * mp.log(abs(z))
            assert abs(ours - ref) < mp.mpf(10) ** -precision, z


def _li2_boundary_points():
    """Points where li2 changes branch: |z| = 1/2, |z| = 2 and
    |1 - z| = 1/2 (at several angles), z = 0, z = 1, and real z > 1 on the
    cut, where li2 takes the limit from below, as mpmath.polylog does."""
    points = [0, 1, 1.25, 1.5, 1.75, 2, 3, 10]
    for k in range(8):
        angle = (k + 0.5) * math.pi / 4
        points += [cmath.rect(0.5, angle), cmath.rect(2, angle),
                   1 + cmath.rect(0.5, angle)]
    return points


@pytest.mark.parametrize("precision", [40, 100, 240])
def test_li2_matches_polylog_on_every_branch(precision):
    points = (_li2_branch_points(precision, 3) + _li2_boundary_points()
              + _disc_and_near_two_points())
    for z in points:
        ours = li2(z, precision)
        with mp.workdps(2 * precision):
            ref = mpmath.polylog(2, mp.mpc(z))
            assert abs(ours - ref) < mp.mpf(10) ** -precision, z


def test_li2_series_argument_within_its_radius(monkeypatch):
    """The one series converges for |u| < 2*pi.  `_li2` runs it at the
    smallest |u| of the direct, inversion and reflection maps, so every
    argument has |u| <= pi/3, the common value at z = e^(+-i*pi/3) (with
    some slack for the floats that choose the map), well inside 3.34.
    Without the inversion or the reflection map, points near 1 or beyond 2
    on the cut exceed 3.34; with fixed annuli instead of the smallest |u|,
    they exceed pi/3."""
    seen = []
    series = regulator._li2_log_series

    def spy(u):
        seen.append(abs(u))
        return series(u)

    monkeypatch.setattr(regulator, "_li2_log_series", spy)
    rng = random.Random(0)
    points = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
              for _ in range(300)] + _li2_boundary_points()
    for z in points:
        li2(z, 30)
    assert len(seen) == len(points) - 2  # z = 0 and z = 1 are exact
    assert max(seen) <= 3.34
    assert max(seen) <= 1.05 * mp.pi / 3


def _real_points():
    """Real z in every region: z < 0 near 0 and far out, 0 < z < 1, z
    next to 1 on both sides, and z > 1 on the cut, on both sides of 2."""
    with mp.workdps(300):
        return [mp.mpf(x) for x in
                ("-1e6", "-50", "-3", "-1", "-0.3", "-1e-30", "1e-40", "0.1",
                 "0.5", "0.9", "0.999", "1.0001", "1.3", "1.5", "1.95", "2",
                 "2.05", "3", "10", "1e6")] + \
            [1 + s * mp.mpf(10) ** -k for s in (-1, 1) for k in (5, 20, 250)]


@pytest.mark.parametrize("precision", [40, 100, 240])
def test_li2_matches_polylog_on_the_real_line(precision):
    for x in _real_points():
        ours = li2(x, precision)
        with mp.workdps(2 * precision):
            ref = mpmath.polylog(2, x)
            if x > 1:   # the limit from below on the cut
                ref = mp.mpc(mp.re(ref), -mp.pi * mp.log(x))
            bound = mp.mpf(10) ** -precision * max(1, abs(ref))
            assert abs(ours - ref) < bound, x


def test_real_arguments_give_a_real_series_argument(monkeypatch):
    """Every real z reaches the series with a real u, behind whichever map
    gives the smallest |u|, and li2 gives the same value for x and for
    x + 0i."""
    seen = []
    series = regulator._li2_log_series

    def spy(u):
        seen.append(mp.mpc(u).imag)
        return series(u)

    monkeypatch.setattr(regulator, "_li2_log_series", spy)
    for x in _real_points():
        with mp.workdps(300):
            z = mp.mpc(x, 0)
        assert li2(x, 240) == li2(z, 240)
    assert len(seen) == 2 * len(_real_points())
    assert all(im == 0 for im in seen)


def test_real_and_complex_series_arguments_agree():
    # a real u gives an exactly real sum, which agrees with the sum at a u
    # just off the real axis, whose real part differs by O(Im(u)^2)
    with mp.workdps(60):
        for u in ("-1.04", "-0.3", "1e-20", "0.5", "1.04", "3.3"):
            u = mp.mpf(u)
            real = regulator._li2_log_series(u)
            off = regulator._li2_log_series(mp.mpc(u, mp.mpf(10) ** -40))
            assert real.imag == 0
            assert abs(real.real - off.real) < mp.mpf(10) ** -58


def test_li2_coefficient_scaling_regression():
    # series coefficients B_n / (n+1)! stored unscaled in fixed point lose
    # the digits of their shrinking values while u^n grows: a fixed-point
    # sum with them missed Li2(1.5 + 0.5i) by 1.4e-31 at 40 digits, at
    # u = -Log(1 - z), |u| = 2.4.  li2 now reaches z through the reflection
    # map, so the series is also checked at that u itself.
    z = mp.mpc("1.5", "0.5")
    ours = li2(z, 40)
    with working(40):
        direct = regulator._li2_log_series(-mp.log(1 - z))
    with mp.workdps(80):
        ref = mpmath.polylog(2, z)
        assert abs(ours - ref) < mp.mpf(10) ** -40
        assert abs(direct - ref) < mp.mpf(10) ** -40


def _li2_of_one_minus_exp(u):
    """Li2(1 - e^-u) continued from u = 0 across the disc |u| < 2*pi, by
    mpmath.polylog in the caller's context: where |Im u| > pi the point
    1 - e^-u has crossed the cut [1, oo), across which the principal
    branch jumps by 2*pi*i * Log(1 - e^-u)."""
    z = 1 - mp.exp(-u)
    value = mpmath.polylog(2, z)
    if abs(mp.im(u)) > mp.pi:
        value += mp.sign(mp.im(u)) * 2j * mp.pi * mp.log(z)
    return value


_SERIES_DISC = st.tuples(st.floats(-3.3, 3.3), st.floats(-3.3, 3.3)).filter(
    lambda p: abs(complex(*p)) <= 3.3)


@pytest.mark.parametrize("precision", [40, 100, 240])
@given(point=_SERIES_DISC, real=st.booleans())
@settings(max_examples=20, deadline=None)
def test_li2_log_series_matches_polylog(precision, point, real):
    """The kernel against an independent oracle at 2P digits, on the disc
    |u| <= 3.3 (where |v| < 0.53) and on its real diameter."""
    re, im = point
    with mp.workdps(precision):
        u = mp.mpf(re) if real else mp.mpc(re, im)
        ours = regulator._li2_log_series(u)
        bound = mp.mpf(2) ** -mp.prec
    with mp.workdps(2 * precision):
        ref = _li2_of_one_minus_exp(u)
        assert abs(ours - ref) < bound * max(1, abs(ref)), u
    if real:
        assert ours.imag == 0


def _tail_bound(a, n):
    """The series' stated tail bound after n terms at |v| = a."""
    return 7 * a ** (2 * n + 3) / (1 - a ** 2)


@pytest.mark.parametrize("precision", [40, 100, 240])
def test_li2_series_term_count_is_the_least_with_its_tail_bound(
        monkeypatch, precision):
    """On a grid of |v| in (0, 0.7), real and complex, the series sums the
    least number n of terms whose tail bound 7 |v|^(2n+3) / (1 - |v|^2) is
    below 2^-(prec + 10), judged here at twice the digits."""
    counts = []
    coefficients = regulator._coefficients

    def spy(w, n):
        counts.append(n)
        return coefficients(w, n)

    monkeypatch.setattr(regulator, "_coefficients", spy)
    for a in ["1e-9", "0.001", "0.01"] + [f"{k / 20}" for k in range(1, 14)]:
        for angle in (0, 1, 2.5):
            with mp.workdps(precision):
                prec = mp.prec
                u = 2 * mp.pi * mp.mpf(a) * mp.expjpi(mp.mpf(angle) / 4)
                if angle == 0:
                    u = mp.re(u)
                regulator._li2_log_series(u)
            n = counts.pop()
            with mp.workdps(2 * precision):
                v = abs(u) / (2 * mp.pi)
                target = mp.mpf(2) ** -(prec + 10)
                assert _tail_bound(v, n) < target, (a, angle)
                assert n == 0 or _tail_bound(v, n - 1) >= target, (a, angle)


@pytest.mark.parametrize("precision", [40, 100, 240])
def test_li2_series_beyond_its_term_count_raises_before_any_coefficient(
        monkeypatch, precision):
    """Once |v| is above about 1/sqrt(2), a term gains less than a bit and
    the count exceeds W = prec + 20: PrecisionExhausted, with no Bernoulli
    coefficient made."""
    monkeypatch.setattr(regulator, "_BERNOULLI", {})
    for a, angle in (("0.75", 0), ("0.75", 1), ("0.9", 3), ("1.5", 2)):
        with mp.workdps(precision):
            u = 2 * mp.pi * mp.mpf(a) * mp.expjpi(mp.mpf(angle) / 4)
            if angle == 0:
                u = mp.re(u)
            with pytest.raises(PrecisionExhausted):
                regulator._li2_log_series(u)
    assert regulator._BERNOULLI == {}


def test_bloch_wigner_vanishes_on_reals():
    assert bloch_wigner(mp.mpf("2.5"), 40) == 0
    assert bloch_wigner(mp.mpf("-0.3"), 40) == 0


def test_regulator_value_ranges():
    with mp.workdps(45):
        mod = 4 * mp.pi ** 2
        v = RegulatorValue(mp.mpc(mod + 1, 2), 40)
        assert abs(v.canonical() - mp.mpc(1, 2)) < mp.mpf(10) ** -35
        assert abs(v.symmetric() - mp.mpc(1, 2)) < mp.mpf(10) ** -35
        w = RegulatorValue(mp.mpc(3 * mp.pi ** 2, 0), 40)
        assert abs(w.symmetric() - (3 * mp.pi ** 2 - mod)) < mp.mpf(10) ** -35
        assert v.distance(v.value + 7 * mod) < mp.mpf(10) ** -30
        assert v.distance(v.value + mp.mpf("1e-5")) > mp.mpf(10) ** -30


def test_torsion_order_reconstruction():
    with mp.workdps(45):
        v = RegulatorValue(mp.mpc(4 * mp.pi ** 2 * Fraction(5, 24)), 40)
        assert torsion_order(v, 24) == 24
        assert torsion_order(v, 240) == 24
        assert torsion_order(RegulatorValue(mp.mpc(0), 40), 24) == 1
        # the largest order of degree 4, above 10^4
        v = RegulatorValue(mp.mpc(4 * mp.pi ** 2 * Fraction(-11, 10080)), 40)
        assert torsion_order(v, 10080) == 10080
        # a non-torsion value is no multiple of 4 pi^2 / w
        assert torsion_order(RegulatorValue(mp.mpc(mp.sqrt(2)), 40),
                             10080) is None
        # nor is a value off the real line, however close to it
        assert torsion_order(RegulatorValue(mp.mpc(0, mp.mpf(10) ** -25), 40),
                             24) is None


def test_real_slot_not_real_at_the_default_bound():
    # (log 2, log -1) over the flattening z = 2 has Im R = -1.09 at the
    # real place: neither a regulator vector nor a torsion order exists
    rationals = NumberField([0, 1])
    basis = MultBasis(rationals, [rationals.rational(2)])
    s = normalize(basis, [(1, fl_of(basis, 2))])
    with pytest.raises(RealSlotNotReal, match="imaginary part -1.0887"):
        reg_vector(s, 30)
    with pytest.raises(RealSlotNotReal):
        certify_order(s, 30)


def _flattening(basis, z):
    return Flattening(basis.log_lift(z), basis.log_lift(basis.field.one - z))


# sums over Q(sqrt-3) = Q[x]/(x^2 - x + 1) with w = x, a sixth root of
# unity, whose wedges vanish
GALOIS_ELEMENTS = {"2[w]": [(2, "w")], "4[w]": [(4, "w")],
                   "2[1-w]": [(2, "1-w")],
                   "2[w]-4[1-w]": [(2, "w"), (-4, "1-w")],
                   "[w]+[1-w]": [(1, "w"), (1, "1-w")]}


def galois_element(terms):
    """The sum of GALOIS_ELEMENTS' terms over the basis {2}."""
    field = NumberField([1, -1, 1])
    basis = MultBasis(field, [field.rational(2)])
    w = field.gen
    values = {"w": w, "1-w": field.one - w}
    return normalize(basis, [(n, _flattening(basis, values[z]))
                             for n, z in terms])


@pytest.mark.parametrize("terms", list(GALOIS_ELEMENTS.values()),
                         ids=list(GALOIS_ELEMENTS))
def test_regulator_is_galois_equivariant_on_bhat(terms):
    # tau = 1 - w is complex conjugation, so the regulator of tau(s) at the
    # one complex place is the conjugate of that of s, mod 4*pi^2
    s = galois_element(terms)
    field = s.basis.field
    assert s.is_in_Bhat()
    [v] = reg_vector(s, 40)
    [image] = reg_vector(galois_apply(field.one - field.gen, s), 40)
    with mp.workdps(60):
        assert is_small(image.distance(mp.conj(v.value)), 40)


def test_regulator_is_not_galois_equivariant_off_bhat():
    # 1*[w] has a nonzero wedge: the two sides differ by 2*pi^2
    field = NumberField([1, -1, 1])
    basis = MultBasis(field, [field.rational(2)])
    s = normalize(basis, [(1, _flattening(basis, field.gen))])
    with pytest.warns(UnsaturatedBasis):
        assert not s.is_in_Bhat()
    [v] = reg_vector(s, 40)
    [image] = reg_vector(galois_apply(field.one - field.gen, s), 40)
    with mp.workdps(60):
        gap = image.distance(mp.conj(v.value))
        assert is_small(gap - 2 * mp.pi ** 2, 40)


@pytest.fixture(scope="module")
def basis23():
    rationals = NumberField([0, 1])
    return MultBasis(rationals, [rationals.rational(2),
                                 rationals.rational(3)], saturated=True)


def fl_of(basis, q):
    field = basis.field
    z = field.rational(q)
    return Flattening(basis.log_lift(z), basis.log_lift(field.one - z))


def test_reg_flattening_translate_shift(basis23):
    # translating by (p, q) changes R by the chi correction of the shift
    fl = fl_of(basis23, Fraction(3))
    ctx = basis23.field.embeddings(45)[0]
    lift = cover_to_C(basis23, ctx)
    base = reg_flattening(fl, lift)
    moved = reg_flattening(fl.translate(1, -2), lift)
    shift = -2 * fl.e - 1 * fl.f + basis23.iota(-2)
    with mp.workdps(50):
        chi_term = -1j * mp.pi * lift.k_unit * lift.lift(shift)
        assert moved.distance(base.value + chi_term) < mp.mpf(10) ** -38


def test_reg_sum_matches_manual_chi(basis23):
    fl = fl_of(basis23, Fraction(3))
    s = normalize(basis23, [(1, fl)], basis23.element(1, {0: 1}))
    ctx = basis23.field.embeddings(45)[0]
    lift = cover_to_C(basis23, ctx)
    with mp.workdps(50):
        expected = reg_flattening(fl, lift).value \
            - 1j * mp.pi * lift.k_unit * lift.lift(s.chi_part)
        assert reg_sum(s, lift).distance(expected) < mp.mpf(10) ** -38


def test_regulator_annihilates_five_term(basis23):
    lifted = lift_five_term(fl_of(basis23, Fraction(3)),
                            fl_of(basis23, Fraction(9)))
    s = normalize(basis23, rho_hat(lifted))
    for v in reg_vector(s, 45):
        assert v.distance(0) < mp.mpf(10) ** -35


def test_regulator_independent_of_branch(basis23):
    # same element, covering with the other logarithm of -1
    fl = fl_of(basis23, Fraction(-8))
    s = normalize(basis23, [(1, fl), (1, Flattening(fl.f, fl.e))])
    ctx = basis23.field.embeddings(45)[0]
    with mp.workdps(50):
        l1 = cover_to_C(basis23, ctx)
        l2 = LogLift(basis23, ctx, -1j * mp.pi, -1)
        assert reg_sum(s, l1).distance(reg_sum(s, l2)) < mp.mpf(10) ** -35


def test_swap_pair_regulator_value(basis23):
    # (e, f) + (f, e) always lands on -pi^2/6 modulo 4 pi^2
    fl = fl_of(basis23, Fraction(9, 8))
    s = normalize(basis23, [(1, fl), (1, Flattening(fl.f, fl.e))])
    v = reg_vector(s, 45)[0]
    with mp.workdps(50):
        assert v.distance(-mp.pi ** 2 / 6) < mp.mpf(10) ** -38


def test_lift_inconsistency_detected(basis23):
    # a deliberately wrong lift pair is caught by the exponential check
    fl = fl_of(basis23, Fraction(3))
    bad = Flattening(fl.e, fl.f + basis23.element(0, {0: 2}), fl.z)
    ctx = basis23.field.embeddings(45)[0]
    lift = cover_to_C(basis23, ctx)
    with pytest.raises(LiftInconsistent):
        reg_flattening(bad, lift)
    # over Q(sqrt2), a flattening that carries the conjugate -r - 1 of its
    # cross-ratio z = r - 1 is caught at both embeddings, where the true
    # one passes
    field = NumberField([-2, 0, 1])
    r = field.gen
    basis = MultBasis(field, [r, r - 1], saturated=True)
    fl = _flattening(basis, r - 1)
    bad = Flattening(fl.e, fl.f, -r - 1)
    for ctx in field.embeddings(40):
        lift = cover_to_C(basis, ctx)
        reg_flattening(fl, lift)
        with pytest.raises(LiftInconsistent):
            reg_flattening(bad, lift)


# Fields and cross-ratios of the regulator oracle: over Q, z in each series
# map of li2 (1/3 and -1/2 direct, 9 and 3 inversion, 3/4 and 6/5
# reflection), on the cut (3, 6/5), next to 0 and on both sides of 1; over
# Q(sqrt-3) and the quartic at complex embeddings, with a rational z on the
# cut there too.  A MultBasis lifts what factors over {2, 3, 5}, a
# SymbolicBasis the rest.
_TINY = Fraction(1, 10 ** 60)
ORACLE_CASES = {
    "Q": ([0, 1], [Fraction(1, 3), Fraction(-1, 2), Fraction(9), Fraction(3),
                   Fraction(3, 4), Fraction(6, 5)],
          [_TINY, 1 - _TINY, 1 + _TINY]),
    "Q(sqrt-3)": ([1, -1, 1], [], [[0, 1], [0, 2], [Fraction(1, 5),
                                                   Fraction(1, 3)], [3]]),
    "quartic": ([1, -2, 2, -1, 1], [], [[0, 1], [Fraction(-1, 3), 0, 2],
                                        [5, 0, 0, 1]]),
}


def _oracle_flattenings(case):
    """The flattenings (log_lift(z), log_lift(1 - z)) over {2, 3, 5} and
    (symbol(z), symbol(1 - z)) over a SymbolicBasis of ORACLE_CASES[case],
    each with its cross-ratio."""
    poly, factored, symbolic = ORACLE_CASES[case]
    field = NumberField(poly)
    out = []
    if factored:
        basis = MultBasis(field, [field.rational(p) for p in (2, 3, 5)],
                          saturated=True)
        out += [_flattening(basis, field.rational(z)) for z in factored]
    basis = SymbolicBasis(field)
    for coeffs in symbolic:
        z = field.element(coeffs if isinstance(coeffs, list) else [coeffs])
        out.append(Flattening(basis.symbol(z), basis.symbol(field.one - z),
                              z))
    return field, out


def _reference_regulator(fls, ctx, precision):
    """R(z; w0, w1) = Li2(z) + w0 * (Log(1 - z) - 2*q*pi*i) / 2 - pi^2/6 for
    each flattening, from mpmath alone at 2P digits: the root from
    mp.polyroots, w0 and w1 as sums of principal logarithms over the
    coordinates of e and f, Li2 from mp.polylog (its limit from below on
    the cut [1, oo)), and p, q rounded, each within 10^-P of an integer."""
    field = ctx.field
    with mp.workdps(2 * precision + 20):
        roots = mp.polyroots([mp.mpf(c.numerator) / c.denominator
                              for c in reversed(field.poly)],
                             maxsteps=200, extraprec=4 * precision)
        root = min(roots, key=lambda t: abs(t - ctx.root()))

        def sigma(a):
            return sum(mp.mpf(c.numerator) / c.denominator * root ** i
                       for i, c in enumerate(a.coeffs))

        logs = {}

        def log_of(e):
            basis = e.basis
            for j in [-1] + [j for j, _ in e.r]:
                if (basis, j) not in logs:
                    value = basis.torsion_gen if j == -1 \
                        else basis.gen_value(j)
                    logs[basis, j] = mp.log(sigma(value))
            return e.k * logs[basis, -1] + sum(r * logs[basis, j]
                                               for j, r in e.r)

        at = {}    # z -> (Log z, Log(1 - z), Li2(z)), once per cross-ratio
        out = []
        for fl in fls:
            if fl.z not in at:
                z = mp.mpc(sigma(fl.z))
                li = mp.polylog(2, z)
                if z.imag == 0 and z.real > 1:
                    li = mp.mpc(mp.re(li), -mp.pi * mp.log(z.real))
                at[fl.z] = mp.log(z), mp.log(1 - z), li
            logz, log1z, li = at[fl.z]
            turns = [(w - log) / (2j * mp.pi) for w, log in
                     ((log_of(fl.e), logz), (log_of(fl.f), log1z))]
            p, q = [int(mp.nint(mp.re(t))) for t in turns]
            assert all(abs(t - k) < mp.mpf(10) ** -precision
                       for t, k in zip(turns, (p, q)))
            out.append((li, li + log_of(fl.e) * (log1z - 2j * mp.pi * q) / 2
                        - mp.pi ** 2 / 6))
        return out


@pytest.mark.parametrize("precision", [40, 100, 240])
@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_reg_flattening_matches_an_mpmath_oracle(case, precision):
    # every translate by (p, q) in {-2..2}^2 of every flattening, at every
    # embedding, within 10^-P * max(1, |Li2(z)|) of the reference
    field, fls = _oracle_flattenings(case)
    translates = [fl.translate(p, q) for fl in fls
                  for p in range(-2, 3) for q in range(-2, 3)]
    for ctx in field.embeddings(precision):
        refs = _reference_regulator(translates, ctx, precision)
        for fl, (li, ref) in zip(translates, refs):
            lift = cover_to_C(fl.basis, ctx)
            ours = reg_flattening(fl, lift).value
            with mp.workdps(2 * precision):
                bound = mp.mpf(10) ** -precision * max(1, abs(li))
                assert abs(ours - ref) < bound, (fl, fl.z)
    if case == "Q":
        # the cross-ratios over Q take each map of li2
        assert {regulator._series_map(fl.z.as_fraction())
                for fl in fls} == {0, 1, 2}


def _in_context(fl, lift):
    """z, w0 and the regulator of fl from mpmath's operators in a working
    context: the formulas whose roundings the libmp pass repeats."""
    ctx = lift.ctx
    with working(ctx.precision):
        def sigma(a):
            acc = mp.mpc(0)
            for c in reversed(a.coeffs):
                acc = (acc * ctx.root()
                       + mp.mpf(c.numerator) / mp.mpf(c.denominator))
            return acc

        def log_of(e):
            acc = e.k * lift.lambda_w
            for j, exp in e.r:
                acc += exp * lift.lambda_p(j)
            return acc

        z, w0 = sigma(fl.z), log_of(fl.e)
        log1z = mp.log(sigma(ctx.field.one - fl.z))
        q = int(mp.nint(mp.im(log_of(fl.f) - log1z) / (2 * mp.pi)))
        return z, w0, (li2(z, ctx.precision)
                       + w0 * (log1z - q * (2j * mp.pi)) / 2 - mp.pi ** 2 / 6)


@pytest.mark.parametrize("precision", [20, 100])
@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_libmp_pass_rounds_as_a_working_context(case, precision):
    # evaluate, LogLift.lift, reg_flattening and reg_sum call libmp without
    # a context; each value must equal, bit for bit, the same formula in
    # mpmath's operators in the working context
    field, fls = _oracle_flattenings(case)
    for ctx in field.embeddings(precision):
        for fl in fls:
            lift = cover_to_C(fl.basis, ctx)
            z, w0, val = _in_context(fl, lift)
            assert ctx.evaluate(fl.z)._mpc_ == z._mpc_
            assert lift.lift(fl.e)._mpc_ == w0._mpc_
            assert reg_flattening(fl, lift).value._mpc_ == val._mpc_
        basis = fls[-1].basis
        s = normalize(basis, [(n, fl) for n, fl in zip((3, -2), fls[-2:])
                              if fl.basis is basis], basis.iota(2))
        lift = cover_to_C(basis, ctx)
        with working(precision):
            expected = sum(n * _in_context(fl, lift)[2] for n, fl in s.terms)
            expected += -1j * mp.pi * lift.k_unit * lift.lift(s.chi_part)
        assert reg_sum(s, lift).value._mpc_ == expected._mpc_


def test_reg_vector_reaches_the_traced_spans(basis23, monkeypatch):
    # wrap li2 and cover_to_C in every extbloch module that binds them, as
    # the benchmark's tracer does: reg_vector must call both through those
    # names, once per term and embedding and once per embedding
    calls = {"li2": 0, "cover_to_C": 0}
    modules = [importlib.import_module(f"extbloch.{name}") for name in
               ("field", "extgroup", "bloch", "regulator", "torsion",
                "cochain", "cli")]
    for name, original in (("li2", li2), ("cover_to_C", cover_to_C)):
        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)
    s = normalize(basis23, rho_hat(lift_five_term(
        fl_of(basis23, Fraction(3)), fl_of(basis23, Fraction(9)))))
    reg_vector(s, 40)
    assert calls == {"li2": len(s.terms), "cover_to_C": 1}
