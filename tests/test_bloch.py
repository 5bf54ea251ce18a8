import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

from extbloch.field import NumberField
from extbloch.extgroup import (ExtGroupError, MultBasis, NotInSubgroup,
                               SymbolicBasis, _BasisCommon)
from extbloch.bloch import (BlochError, BlochSum, DegenerateTuple,
                            ExtBlochSum, Flattening, NotAFlattening, chi,
                            change_torsion_generator, five_term,
                            galois_apply, lift_five_term, normalize,
                            psl_lift_obstruction, psl_project, rho_hat)
from extbloch.cli import main
from extbloch.cochain import is_lifted_five_term
from extbloch.regulator import reg_vector
from test_regulator import GALOIS_ELEMENTS, _flattening, galois_element


@pytest.fixture(scope="module")
def rationals():
    return NumberField([0, 1])


@pytest.fixture(scope="module")
def basis23(rationals):
    return MultBasis(rationals, [rationals.rational(2),
                                 rationals.rational(3)], saturated=True)


@pytest.fixture(scope="module")
def basis235(rationals):
    return MultBasis(rationals, [rationals.rational(p) for p in (2, 3, 5)],
                     saturated=True)


def fl_of(basis, q):
    field = basis.field
    z = field.rational(q)
    return Flattening(basis.log_lift(z), basis.log_lift(field.one - z))


def test_flattening_requires_complementary_projections(basis23):
    e = basis23.log_lift(basis23.field.rational(3))
    with pytest.raises(NotAFlattening):
        Flattening(e, e)
    f = basis23.log_lift(basis23.field.rational(-2))
    assert Flattening(e, f).z == basis23.field.rational(3)


def test_translate_moves_by_central_units(basis23):
    fl = fl_of(basis23, Fraction(3))
    moved = fl.translate(2, -1)
    assert moved.e == fl.e + 2 * basis23.iota()
    assert moved.f == fl.f - basis23.iota()
    assert moved.z == fl.z


def test_normalization_folds_translates(basis23):
    fl = fl_of(basis23, Fraction(3))
    p, q = 2, -3
    lhs = normalize(basis23, [(1, fl.translate(p, q))])
    shift = q * fl.e - p * fl.f + basis23.iota(p * q)
    rhs = normalize(basis23, [(1, fl)]) + chi(shift)
    assert lhs == rhs


def test_chi_kills_even_central_elements(basis23):
    assert chi(basis23.iota(2)).is_zero()
    assert not chi(basis23.iota(1)).is_zero()
    assert chi(basis23.iota(3)) == chi(basis23.iota(1))


def test_normal_form_is_translate_invariant(basis23):
    # the same combination entered via different representatives
    fl = fl_of(basis23, Fraction(-8))
    a = normalize(basis23, [(1, fl.translate(1, 1)), (1, fl.translate(-1, 0))])
    b = normalize(basis23, [(2, fl)]) + chi(
        1 * fl.e - 1 * fl.f + basis23.iota(1)) + chi(fl.f)
    # chi accumulates exactly the translation shifts
    assert a.terms == b.terms
    assert a.chi_part == b.chi_part


def test_five_term_degenerate_pairs(rationals):
    x = rationals.rational(3)
    with pytest.raises(DegenerateTuple):
        five_term(x, x)
    with pytest.raises(DegenerateTuple):
        five_term(rationals.one, x)


def test_five_term_values(rationals):
    x = rationals.rational(3)
    y = rationals.rational(9)
    zs = five_term(x, y)
    expect = [Fraction(3), Fraction(9), Fraction(3), Fraction(3, 4),
              Fraction(1, 4)]
    assert [z.as_fraction() for z in zs] == expect


def test_lift_five_term_equations(basis23):
    fl0 = fl_of(basis23, Fraction(3))
    fl1 = fl_of(basis23, Fraction(9))
    lifted = lift_five_term(fl0, fl1)
    e = [fl.e for fl in lifted]
    f = [fl.f for fl in lifted]
    assert e[2] == e[1] - e[0]
    assert e[3] == e[1] - e[0] - f[1] + f[0]
    assert f[3] == f[2] - f[1]
    assert e[4] == f[0] - f[1]
    assert f[4] == f[2] - f[1] + e[0]


def test_lift_five_term_over_a_symbolic_basis_is_a_library_error(
        rationals):
    # the flattenings of 2 and 3 exist, the lift of 1 - 3/2 does not
    basis = SymbolicBasis(rationals)
    fl0, fl1 = [Flattening(basis.symbol(rationals.rational(x)),
                           basis.symbol(rationals.rational(1 - x)))
                for x in (2, 3)]
    with pytest.raises(ExtGroupError, match="does not lift"):
        lift_five_term(fl0, fl1)


def test_lifted_relations_satisfy_the_equations(basis23):
    # every lift of a five-term relation in the {-1, 2, 3}-units passes the
    # check of the defining equations; a central shift of one coordinate
    # fails it
    units = [s * Fraction(2) ** a * Fraction(3) ** b for s in (1, -1)
             for a in range(-3, 4) for b in range(-2, 3)]
    flattenable = []
    for x in units:
        try:
            flattenable.append(fl_of(basis23, x))
        except (NotAFlattening, NotInSubgroup):
            pass
    rng = random.Random(5)
    lifted_count = 0
    for _ in range(200):
        fl0, fl1 = rng.sample(flattenable, 2)
        try:
            lifted = lift_five_term(fl0, fl1)
        except (DegenerateTuple, NotAFlattening):
            continue
        lifted_count += 1
        assert is_lifted_five_term(rho_hat(lifted))
        bad = list(lifted)
        bad[3] = bad[3].translate(0, 1)
        assert not is_lifted_five_term(rho_hat(bad))
    assert lifted_count >= 20


def test_lift_five_term_makes_no_plain_tuple(basis23, monkeypatch):
    # the lifted flattenings carry their cross-ratios, so the plain tuple
    # is never built
    def plain(x, y):
        raise AssertionError("five_term called")

    monkeypatch.setattr("extbloch.bloch.five_term", plain)
    lifted = lift_five_term(fl_of(basis23, Fraction(3)),
                            fl_of(basis23, Fraction(9)))
    assert [fl.z.as_fraction() for fl in lifted] == [
        Fraction(3), Fraction(9), Fraction(3), Fraction(3, 4),
        Fraction(1, 4)]


_COEFF = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(field=st.sampled_from([NumberField([0, 1]), NumberField([-2, 0, 1])]),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_five_term_values_avoid_zero_and_one(field, data):
    # five_term checks x and y only: the other three values follow
    x, y = (field.element(data.draw(st.lists(_COEFF, min_size=field.degree,
                                              max_size=field.degree)))
            for _ in range(2))
    assume(x != y and not any(t.is_zero() or t.is_one() for t in (x, y)))
    assert not any(t.is_zero() or t.is_one() for t in five_term(x, y))


def _s_units_235(bound):
    return {s * Fraction(2) ** a * Fraction(3) ** b * Fraction(5) ** c
            for s in (1, -1) for a in range(-bound, bound + 1)
            for b in range(-bound, bound + 1)
            for c in range(-bound, bound + 1)}


# the pairs of {-1, 2, 3, 5}-units x != y whose five-term tuple lies in
# those units with each 1 - z, found with Fractions alone
_UNITS_235 = _s_units_235(4)
_FLATTENABLE_235 = sorted(x for x in _UNITS_235 if 1 - x in _UNITS_235)
_LIFTABLE_235 = [(x, y) for x in _FLATTENABLE_235 for y in _FLATTENABLE_235
                 if x != y and 1 - y / x in _UNITS_235]


@given(pair=st.sampled_from(_LIFTABLE_235),
       unit=st.sampled_from(sorted(_s_units_235(6))))
@settings(max_examples=80, deadline=None)
def test_lifted_five_term_projects_to_the_five_term_tuple(
        rationals, basis235, pair, unit):
    # the run-time comparison lift_five_term no longer makes, and the
    # exactness of log_lift over Q on signed S-units
    z = rationals.rational(unit)
    assert basis235.log_lift(z).pi() == z
    fl0, fl1 = (fl_of(basis235, q) for q in pair)
    assert (fl0.z, fl1.z) == tuple(rationals.rational(q) for q in pair)
    assert tuple(fl.z for fl in lift_five_term(fl0, fl1)) == \
        five_term(fl0.z, fl1.z)


def test_five_term_wedge_vanishes(basis23):
    lifted = lift_five_term(fl_of(basis23, Fraction(3)),
                            fl_of(basis23, Fraction(9)))
    s = normalize(basis23, rho_hat(lifted))
    assert s.is_in_Bhat()


def _pi_calls(monkeypatch):
    """The list of the elements that `_BasisCommon.pi` projects from now
    on."""
    calls = []
    pi = _BasisCommon.pi
    monkeypatch.setattr(_BasisCommon, "pi",
                        lambda self, e: calls.append(e) or pi(self, e))
    return calls


def test_normal_form_projects_no_flattening(basis23, monkeypatch):
    # each term of the normal form takes its cross-ratio from the
    # flattenings it folds, so normalizing projects nothing
    # (cross-ratios 3, -3, -1, 1/2, -1/2: five terms, none merged)
    lifted = lift_five_term(fl_of(basis23, Fraction(3)),
                            fl_of(basis23, Fraction(-3)))
    calls = _pi_calls(monkeypatch)
    s = normalize(basis23, rho_hat(lifted))
    assert calls == []
    assert {(n, fl.z) for n, fl in s.terms} == {
        (n, fl.z) for n, fl in rho_hat(lifted)}


# Flattenings that the library derives from proven data carry their
# cross-ratio; the projections they skip are the oracle of the property
# test below.

def test_lift_five_term_projects_no_flattening(basis23, monkeypatch):
    fl0, fl1 = fl_of(basis23, Fraction(3)), fl_of(basis23, Fraction(9))
    calls = _pi_calls(monkeypatch)
    lift_five_term(fl0, fl1)
    assert calls == []


def _inverse_torsion_basis(s):
    """The basis of s with the inverse torsion generator."""
    return MultBasis(s.basis.field, s.basis.free_gens,
                     torsion_gen=s.basis.torsion_gen.inverse())


def test_change_torsion_generator_projects_no_flattening(monkeypatch):
    s = galois_element(GALOIS_ELEMENTS["2[w]"])
    new_basis = _inverse_torsion_basis(s)
    calls = _pi_calls(monkeypatch)
    change_torsion_generator(s, new_basis)
    assert calls == []


def test_galois_apply_projects_no_flattening(monkeypatch):
    s = galois_element(GALOIS_ELEMENTS["2[w]-4[1-w]"])
    field = s.basis.field
    calls = _pi_calls(monkeypatch)
    galois_apply(field.one - field.gen, s)
    assert calls == []


def test_fiveterm_check_projects_no_flattening(monkeypatch, capsys):
    calls = _pi_calls(monkeypatch)
    assert main(["fiveterm", "check",
                 "tests/fixtures/fiveterm_rational.json"]) == 0
    assert "wedge_zero: True" in capsys.readouterr().out
    assert calls == []


def _sqrt2_lifted():
    """The lifted five-term relation of x = sqrt2 and y = -1 over the
    units {sqrt2, 1 + sqrt2} of Q(sqrt2)."""
    field = NumberField([-2, 0, 1])
    r = field.gen
    basis = MultBasis(field, [r, field.one + r], saturated=True)
    return lift_five_term(_flattening(basis, r),
                          _flattening(basis, -field.one))


def _derived_flattenings(basis235, source, arg):
    if source == "five-term over Q":
        return lift_five_term(*(fl_of(basis235, q) for q in arg))[2:]
    if source == "five-term over Q(sqrt2)":
        return _sqrt2_lifted()[2:]
    s = galois_element(arg)
    field = s.basis.field
    if source == "Galois image":
        moved = galois_apply(field.one - field.gen, s)
    else:
        moved = change_torsion_generator(s, _inverse_torsion_basis(s))
    return [fl for _, fl in moved.terms]


@given(case=st.one_of(
    st.tuples(st.just("five-term over Q"), st.sampled_from(_LIFTABLE_235)),
    st.just(("five-term over Q(sqrt2)", None)),
    st.tuples(st.sampled_from(["Galois image", "new torsion generator"]),
              st.sampled_from(list(GALOIS_ELEMENTS.values())))))
@settings(max_examples=80, deadline=None)
def test_derived_flattenings_project_to_the_cross_ratio_they_carry(
        basis235, case):
    for fl in _derived_flattenings(basis235, *case):
        assert fl.e.pi() == fl.z
        assert (fl.z + fl.f.pi()).is_one()


def test_plain_bloch_sum_membership(basis23, rationals):
    # [x] + [1/x] is killed by z /\ (1-z) over F*
    s = BlochSum(rationals, [(1, Fraction(4)), (1, Fraction(1, 4))])
    assert s.is_in_B(basis23)
    assert not BlochSum(rationals, [(1, Fraction(4))]).is_in_B(basis23)


def test_symbolic_basis_decides_no_membership_in_B(rationals):
    basis = SymbolicBasis(rationals)
    with pytest.raises(ExtGroupError, match="does not decide"):
        BlochSum(rationals, []).is_in_B(basis)
    with pytest.raises(ExtGroupError, match="does not lift"):
        BlochSum(rationals, [(1, Fraction(4))]).is_in_B(basis)


def test_bloch_sum_merges_terms(rationals):
    s = BlochSum(rationals, [(1, Fraction(4)), (2, Fraction(4)),
                             (1, Fraction(3)), (-1, Fraction(3))])
    assert s.terms == ((3, rationals.rational(4)),)


def test_swap_pair_is_in_Bhat(basis23):
    fl = fl_of(basis23, Fraction(3))
    swapped = Flattening(fl.f, fl.e)
    s = normalize(basis23, [(1, fl), (1, swapped)])
    assert s.is_in_Bhat()


def test_ext_sum_ring_ops(basis23):
    fl = fl_of(basis23, Fraction(3))
    s = normalize(basis23, [(1, fl)], basis23.element(1))
    t = 3 * s - s
    assert t == 2 * s
    assert (s - s).is_zero()


def test_project_drops_chi(basis23, rationals):
    fl = fl_of(basis23, Fraction(3))
    s = normalize(basis23, [(2, fl)], basis23.iota(1))
    assert s.project() == BlochSum(rationals, [(2, Fraction(3))])


def test_galois_on_bloch_sum():
    sqrt2 = NumberField([-2, 0, 1])
    r = sqrt2.element([0, 1])
    tau = sqrt2.element([0, -1])
    s = BlochSum(sqrt2, [(1, r - sqrt2.one)])
    imaged = galois_apply(tau, s)
    assert imaged.terms[0][1] == -r - sqrt2.one


def test_galois_on_ext_sum():
    sqrt2 = NumberField([-2, 0, 1])
    r = sqrt2.element([0, 1])
    one = sqrt2.one
    basis = MultBasis(sqrt2, [r, r - one], saturated=True)
    z = r - one
    fl = Flattening(basis.log_lift(z), basis.log_lift(one - z))
    s = normalize(basis, [(1, fl), (1, Flattening(fl.f, fl.e))])
    tau = sqrt2.element([0, -1])
    imaged = galois_apply(tau, s)
    assert imaged.is_in_Bhat()
    # the images of the cross-ratios are their Galois conjugates
    assert sorted(t[1].z.coeffs for t in imaged.terms) == \
        sorted([(-r - one).coeffs, (sqrt2.rational(2) + r).coeffs])


def test_galois_on_symbolic_sum_is_a_library_error():
    # a symbolic basis cannot lift the images of its symbols
    sqrt2 = NumberField([-2, 0, 1])
    basis = SymbolicBasis(sqrt2)
    z = sqrt2.gen - sqrt2.one
    s = normalize(basis, [(1, Flattening(basis.symbol(z),
                                         basis.symbol(sqrt2.one - z)))])
    with pytest.raises(ExtGroupError, match="does not lift"):
        galois_apply(-sqrt2.gen, s)


def test_galois_rejects_a_non_automorphism():
    # x -> 2x is no automorphism of Q(i) or Q(sqrt2): 2*gen is not a root of
    # the defining polynomial, which both kinds of sum must check up front
    gaussian = NumberField([1, 0, 1])
    basis = MultBasis(gaussian, [], saturated=True)
    cases = [(gaussian, ExtBlochSum(basis, (), basis.element(1)))]
    sqrt2 = NumberField([-2, 0, 1])
    r = sqrt2.gen
    basis = MultBasis(sqrt2, [r, r - sqrt2.one], saturated=True)
    z = r - sqrt2.one
    fl = Flattening(basis.log_lift(z), basis.log_lift(sqrt2.one - z))
    cases += [(sqrt2, BlochSum(sqrt2, [(1, z)])),
              (sqrt2, ExtBlochSum(basis, [(1, fl)]))]
    for field, s in cases:
        with pytest.raises(BlochError):
            galois_apply(2 * field.gen, s)


@pytest.mark.parametrize("poly", [[1, 0, 1], [1, 0, 0, 0, 1]],
                         ids=["Q(i)", "Q(zeta8)"])
def test_change_torsion_generator_rejects_another_order(poly):
    # the symbolic basis has m = 2, the multiplicative one m = 4 or 8: the
    # old central unit is not a times the new one, so the chi part has no
    # transport by the factor a
    field = NumberField(poly)
    sym = SymbolicBasis(field)
    s = ExtBlochSum(sym, (), sym.element(1))
    with pytest.raises(BlochError):
        change_torsion_generator(s, MultBasis(field, [], saturated=True))


def test_change_torsion_generator_roundtrip():
    f = NumberField([1, -2, 2, -1, 1])
    x = f.element([0, 1])
    w = x ** 3 + x
    u = -x ** 3 - 2 * x + f.one
    b1 = MultBasis(f, [u], saturated=True, torsion_gen=w)
    b2 = MultBasis(f, [u], saturated=True, torsion_gen=w.inverse())
    ut = b1.element(0, {0: 1})
    wt = b1.element(1)
    s = ExtBlochSum(b1, [(1, Flattening(ut, 2 * ut + 4 * wt)),
                         (2, Flattening(-2 * ut + 3 * wt, -3 * ut + wt))],
                    -3 * ut)
    moved = change_torsion_generator(s, b2)
    assert moved.is_in_Bhat()
    back = change_torsion_generator(moved, b1)
    v1 = reg_vector(s, 40)
    v3 = reg_vector(back, 40)
    assert all(a.distance(b) < mp.mpf(10) ** -30 for a, b in zip(v1, v3))


def test_psl_projection_collapses_half_chi(basis23):
    # a chi-only sum, and one with flattening terms, whose term list the
    # projection keeps
    flattenings = [(2, fl_of(basis23, Fraction(3))),
                   (-1, fl_of(basis23, Fraction(9)))]
    for terms in ((), flattenings):
        s = normalize(basis23, terms, basis23.half())
        t = normalize(basis23, terms, basis23.half() + basis23.iota())
        assert s != t
        assert psl_project(s) == psl_project(t)
        assert [n for n, _, _ in psl_project(s)[0]] == [n for n, _ in s.terms]


def test_symbolic_basis_has_no_psl_lift_obstruction(rationals):
    with pytest.raises(ExtGroupError, match="does not lift"):
        psl_lift_obstruction(rationals.rational(4), SymbolicBasis(rationals))


def test_psl_lift_obstruction(basis23, rationals):
    assert psl_lift_obstruction(rationals.rational(4), basis23)
    assert psl_lift_obstruction(rationals.rational(Fraction(9, 16)), basis23)
    assert not psl_lift_obstruction(rationals.rational(2), basis23)
    assert not psl_lift_obstruction(rationals.rational(-4), basis23)

