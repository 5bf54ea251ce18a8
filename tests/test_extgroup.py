import warnings
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from extbloch.field import NumberField, PrecisionExhausted
from extbloch.extgroup import (BranchInvalid, ExtGroupError, MultBasis,
                               NotInSubgroup, SymbolicBasis,
                               UnsaturatedBasis, cover_to_C)


@pytest.fixture(scope="module")
def rationals():
    return NumberField([0, 1])


@pytest.fixture(scope="module")
def basis23(rationals):
    return MultBasis(rationals, [rationals.rational(2),
                                 rationals.rational(3)], saturated=True)


def test_torsion_only_basis_lifts_roots_of_unity():
    # Q(sqrt-3) = Q[x]/(x^2 - x + 1): x is a primitive sixth root of unity
    # and the basis has no free generator, so no free exponent to recover
    field = NumberField([1, -1, 1])
    basis = MultBasis(field, [], saturated=True)
    assert basis.log_lift(field.gen) == basis.element(1)
    assert basis.log_lift(-field.one) == basis.element(3)
    with pytest.raises(NotInSubgroup):
        basis.log_lift(field.rational(2))


def test_element_arithmetic(basis23):
    a = basis23.element(1, {0: 2})
    b = basis23.element(-3, {0: 1, 1: -1})
    assert a + b == basis23.element(-2, {0: 3, 1: -1})
    assert a - a == basis23.element(0)
    assert 2 * a == basis23.element(2, {0: 4})
    assert (-a).coord(0) == -2
    assert a.coord(-1) == 1
    assert (a + b).coords() == {-1: -2, 0: 3, 1: -1}


def test_iota_and_half(basis23):
    assert basis23.iota() == basis23.element(2)
    assert basis23.iota(3) == basis23.element(6)
    assert basis23.half() + basis23.half() == basis23.iota()


def test_pi_projection(basis23, rationals):
    e = basis23.element(1, {0: 2, 1: -1})
    from fractions import Fraction
    assert e.pi() == rationals.rational(Fraction(-4, 3))
    assert basis23.iota().pi().is_one()


@given(a=st.integers(-8, 8), b=st.integers(-8, 8),
       sign=st.sampled_from([1, -1]))
@settings(max_examples=50, deadline=None)
def test_log_lift_roundtrip(a, b, sign):
    from fractions import Fraction
    rationals = NumberField([0, 1])
    basis = MultBasis(rationals, [rationals.rational(2),
                                  rationals.rational(3)], saturated=True)
    z = rationals.rational(sign * Fraction(2) ** a * Fraction(3) ** b)
    e = basis.log_lift(z)
    assert e.pi() == z
    assert e.coord(0) == a and e.coord(1) == b
    assert e.k == (0 if sign == 1 else 1)


def test_log_lift_rejects_outsiders(basis23, rationals):
    with pytest.raises(NotInSubgroup):
        basis23.log_lift(rationals.rational(5))
    with pytest.raises(NotInSubgroup):
        basis23.log_lift(rationals.zero)


@pytest.mark.parametrize("n", [65, -65, 200])
def test_log_lift_of_a_large_power_over_q(rationals, n):
    basis = MultBasis(rationals, [rationals.rational(2)])
    e = basis.log_lift(rationals.rational(2) ** n)
    assert (e.k, e.coord(0)) == (0, n)


@pytest.mark.parametrize("n", [65, -65])
def test_log_lift_of_a_large_power_over_a_number_field(n):
    # at the conjugate, (1 - sqrt2)^65 = -1.3e-25 keeps 11 of the 60
    # working digits of the exponent recovery
    sqrt2 = NumberField([-2, 0, 1])
    unit = sqrt2.element([1, 1])
    basis = MultBasis(sqrt2, [unit])
    e = basis.log_lift(unit ** n)
    assert (e.k, e.coord(0)) == (0, n)
    assert basis.log_lift(-unit ** n) == e + basis.element(1)


@pytest.mark.parametrize("n", [-80, 80, 100, -100])
def test_log_lift_refuses_a_cancelled_evaluation(n):
    # the conjugate of (1 + sqrt2)^n is (1 - sqrt2)^n: 2.4e-31 for n = 80
    # and 1.4e-38 for n = 100, while the terms of sum c_i sigma(alpha)^i
    # are near 10^31 and 10^38; at 60 working digits its value keeps under
    # one digit or none, so no exponent can be rounded from its log
    sqrt2 = NumberField([-2, 0, 1])
    unit = sqrt2.element([1, 1])
    basis = MultBasis(sqrt2, [unit])
    with pytest.raises(PrecisionExhausted, match="cancel"):
        basis.log_lift(unit ** n)


def test_dependent_generators_rejected():
    sqrt2 = NumberField([-2, 0, 1])
    r = sqrt2.element([0, 1])
    with pytest.raises(ExtGroupError):
        MultBasis(sqrt2, [r, r * r * r])  # sqrt2 and 2*sqrt2... dependent
    rationals = NumberField([0, 1])
    with pytest.raises(ExtGroupError):
        MultBasis(rationals, [rationals.rational(2), rationals.rational(4)])


def test_wedge_decision(basis23):
    two = basis23.element(0, {0: 1})
    three = basis23.element(0, {1: 1})
    # antisymmetry: e /\ f + f /\ e = 0
    assert basis23.wedge_is_zero([(1, two, three), (1, three, two)])
    # diagonal with even coefficient vanishes, odd does not
    assert basis23.wedge_is_zero([(2, two, two)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not basis23.wedge_is_zero([(1, two, two)])
        assert not basis23.wedge_is_zero([(1, two, three)])


def test_wedge_warns_on_unsaturated_basis(rationals):
    basis = MultBasis(rationals, [rationals.rational(2)])
    e = basis.element(0, {0: 1})
    with pytest.warns(UnsaturatedBasis):
        basis.wedge_is_zero([(1, e, e)])


def test_fstar_wedge_uses_torsion_order(basis23, wedge_bases):
    # in F* the torsion generator has order 2, so mixed sums count mod 2
    t = basis23.element(1)
    g = basis23.element(0, {0: 1})
    assert basis23.fstar_wedge_is_zero([(2, t, g)])
    assert not basis23.fstar_wedge_is_zero([(1, t, g)])
    # over E the same combination is nonzero
    assert not basis23.wedge_is_zero([(2, t, g)])
    # in the quartic field the torsion generator has order 6
    quartic = wedge_bases[6]
    t = quartic.element(1)
    g = quartic.element(0, {0: 1})
    assert quartic.fstar_wedge_is_zero([(6, t, g)])
    assert quartic.fstar_wedge_is_zero([(1, quartic.iota(), g)])
    assert not quartic.fstar_wedge_is_zero([(2, t, g)])
    assert not quartic.wedge_is_zero([(6, t, g)])


# The two wedge decisions as they stood before they were merged into one
# routine, verbatim, as the reference for the merged one.  `self` needs
# `m`, `saturated` and `_caveat(verdict)`.

def reference_wedge_is_zero(self, terms):
    terms = list(terms)
    keys = set()
    for _, e, f in terms:
        keys.update(e.coords())
        keys.update(f.coords())
    keys = sorted(keys)
    verdict = True
    for a in keys:
        diag = sum(n * e.coord(a) * f.coord(a) for n, e, f in terms)
        if diag % 2 != 0:
            verdict = False
            break
    if verdict:
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                off = sum(n * (e.coord(a) * f.coord(b)
                               - e.coord(b) * f.coord(a))
                          for n, e, f in terms)
                if off != 0:
                    verdict = False
                    break
            if not verdict:
                break
    if not verdict and not self.saturated:
        warnings.warn("nonzero wedge verdict over an unsaturated basis",
                      UnsaturatedBasis, stacklevel=2)
    return verdict


def reference_fstar_wedge_is_zero(self, terms):
    terms = list(terms)
    keys = sorted({j for _, e, f in terms for j, _ in e.r + f.r})
    for a in keys:
        if sum(n * e.coord(a) * f.coord(a) for n, e, f in terms) % 2:
            return self._caveat(False)
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            if sum(n * (e.coord(a) * f.coord(b) - e.coord(b) * f.coord(a))
                   for n, e, f in terms) != 0:
                return self._caveat(False)
    for j in keys:
        mixed = sum(n * (f.k * e.coord(j) - e.k * f.coord(j))
                    for n, e, f in terms)
        if mixed % self.m != 0:
            return self._caveat(False)
    if sum(n * e.k * f.k for n, e, f in terms) % 2:
        return self._caveat(False)
    return True


@pytest.fixture(scope="module")
def wedge_bases():
    """Saturated bases keyed by the torsion order m: Q with 2, 3, 5, 7, and
    the quartic fixture field with one free generator."""
    q = NumberField([0, 1])
    quartic = NumberField([1, -2, 2, -1, 1])
    return {2: MultBasis(q, [q.rational(p) for p in (2, 3, 5, 7)],
                         saturated=True),
            6: MultBasis(quartic, [quartic.element([1, -2, 0, -1])],
                         saturated=True)}


@pytest.mark.parametrize("m", [2, 6])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_merged_wedge_decision_matches_the_old_routines(wedge_bases, m, data):
    basis = wedge_bases[m]
    coeff = st.integers(-3, 3)
    element = st.builds(basis.element, st.integers(-2 * m, 2 * m),
                        st.dictionaries(st.integers(0, basis.num_gens() - 1),
                                        st.integers(-3, 3)))
    terms = data.draw(st.lists(st.tuples(coeff, element, element),
                               max_size=4))
    if data.draw(st.booleans()):
        # symmetrized sums vanish in both exterior squares
        terms += [(n, f, e) for n, e, f in terms]
    # torsion/free terms n * (kT /\ e); with k a multiple of m these are
    # the pure-central terms n * (c*m*T /\ e)
    torsion = st.integers(-2 * m, 2 * m).map(basis.element)
    central = st.integers(-2, 2).map(basis.iota)
    terms += data.draw(st.lists(st.tuples(coeff, torsion | central, element),
                                max_size=3))
    terms = data.draw(st.permutations(terms))
    ref = SimpleNamespace(m=m, saturated=True, _caveat=lambda verdict: verdict)
    assert basis.m == m
    assert basis.wedge_is_zero(terms) == reference_wedge_is_zero(ref, terms)
    assert basis.fstar_wedge_is_zero(terms) == \
        reference_fstar_wedge_is_zero(ref, terms)


def test_symbolic_basis_dedupes_values(rationals):
    basis = SymbolicBasis(rationals)
    a = basis.symbol(rationals.rational(5))
    b = basis.symbol(rationals.rational(5))
    assert a == b
    assert basis.symbol(rationals.one).is_zero()
    assert basis.symbol(rationals.rational(-1)) == basis.element(1)


@pytest.mark.parametrize("first", [7, -7], ids=["v_first", "minus_v_first"])
def test_symbol_ties_negatives(rationals, first):
    basis = SymbolicBasis(rationals)
    a = basis.symbol(rationals.rational(first))
    b = basis.symbol(rationals.rational(-first))
    # the second call reuses the first symbol, shifted by the torsion slot
    assert b - a == basis.element(1)
    assert a.pi() == rationals.rational(first)
    assert b.pi() == rationals.rational(-first)
    assert basis.num_gens() == 1


def test_symbolic_pi(rationals):
    basis = SymbolicBasis(rationals)
    a = basis.symbol(rationals.rational(-6))
    assert a.pi() == rationals.rational(-6)


def test_cover_lift_exponentiates(basis23, rationals):
    from fractions import Fraction
    ctx = rationals.embeddings(40)[0]
    lift = cover_to_C(basis23, ctx)
    z = rationals.rational(Fraction(-9, 8))
    e = basis23.log_lift(z)
    with mp.workdps(45):
        val = lift.lift(e)
        assert abs(mp.exp(val) - ctx.evaluate(z)) < mp.mpf(10) ** -35
    assert lift.k_unit % basis23.m == 1 % basis23.m or \
        lift.k_unit % basis23.m == (basis23.m - 1)


def test_cover_branch_validation(basis23, rationals):
    ctx = rationals.embeddings(40)[0]
    with mp.workdps(45):
        # -i*pi is also a logarithm of -1 and stays a covering
        lift = cover_to_C(basis23, ctx, branch=-1j * mp.pi)
        assert lift.k_unit == -1
        with pytest.raises(BranchInvalid):
            cover_to_C(basis23, ctx, branch=mp.mpc(0.5))


def test_explicit_torsion_generator():
    f = NumberField([1, -2, 2, -1, 1])
    x = f.element([0, 1])
    w = x ** 3 + x
    basis = MultBasis(f, [], saturated=True, torsion_gen=w)
    assert basis.element(1).pi() == w
    with pytest.raises(ExtGroupError):
        MultBasis(f, [], torsion_gen=w * w)  # order 3, not 6


def test_generators_outside_the_field_are_rejected(rationals):
    sqrt2 = NumberField([-2, 0, 1])
    with pytest.raises(ExtGroupError, match="elements of the field"):
        MultBasis(rationals, [2])
    with pytest.raises(ExtGroupError, match="elements of the field"):
        MultBasis(rationals, [rationals.rational(2)], torsion_gen=-1)
    with pytest.raises(ExtGroupError, match="elements of the field"):
        MultBasis(rationals, [sqrt2.gen])
