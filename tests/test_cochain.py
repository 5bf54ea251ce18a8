import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from extbloch.field import NumberField, is_small, working
from extbloch.extgroup import (LogLift, SymbolicBasis, _BasisCommon,
                               cover_to_C)
from extbloch.bloch import Flattening, NotAFlattening, chi, normalize
from extbloch.regulator import reg_vector
from extbloch.torsion import beta_p, certify_order
from extbloch.cochain import (CochainError, EdgeConditionFailed,
                              FlagBoundaryReport, IdealCochain,
                              LiftedCochain, ManifoldInvariant, NotACocycle,
                              NotGeneralPosition, NotIdeal,
                              Triangulated3Cycle, _edge_sums, _edge_targets,
                              _translate_coefficients,
                              cyclic_cochain, cyclic_cycle,
                              flag_boundary_check, flag_lambda,
                              is_lifted_five_term, lambda_sl2,
                              manifold_invariant, sigma_hat, z2_twist)

RATIONALS = NumberField([0, 1])
SQRT2 = NumberField([-2, 0, 1])


# ---------------------------------------------------------------------------
# cycles

def test_cyclic_cycle_combinatorics():
    cyc = cyclic_cycle(6)
    assert cyc.closed and cyc.ordered
    classes = cyc.edge_classes()
    assert len(classes) == 8
    assert sorted(len(m) for m in classes.values()) == [4] * 6 + [6] * 2


def test_conflicting_gluings_rejected():
    with pytest.raises(CochainError):
        Triangulated3Cycle(2, [(0, 0, 1, 0, (1, 2, 3)),
                               (0, 0, 1, 1, (0, 2, 3))])


def test_bad_vertex_map_rejected():
    with pytest.raises(CochainError):
        Triangulated3Cycle(2, [(0, 0, 1, 0, (0, 1, 2))])  # 0 not in face 0


@pytest.mark.parametrize("count", [0, -1])
def test_cycle_needs_a_simplex(count):
    with pytest.raises(CochainError):
        Triangulated3Cycle(count, [])


def test_open_cycle():
    cyc = Triangulated3Cycle(1, [])
    assert not cyc.closed
    assert len(cyc.edge_classes()) == 6


# ---------------------------------------------------------------------------
# ideal cochains

def test_cyclic_cochain_cross_ratios():
    co = cyclic_cochain(RATIONALS, 1, 6)
    zs = [z.as_fraction() for z in co.cross_ratios]
    assert sorted(zs) == sorted([Fraction(-2)] * 4 + [Fraction(1, 4)] * 2)


def test_missing_label_rejected():
    cyc = Triangulated3Cycle(1, [])
    with pytest.raises(NotIdeal):
        IdealCochain(cyc, RATIONALS, {(0, (0, 1)): 1})


def test_conflicting_label_rejected():
    cyc = cyclic_cycle(2)
    values = {(t, e): 1 for t in range(2)
              for e in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))}
    values[(0, (0, 1))] = 1
    values[(1, (0, 1))] = 2  # same 1-cell as (0, (0, 1))
    with pytest.raises(NotIdeal):
        IdealCochain(cyc, RATIONALS, values)


def test_non_cross_ratio_labels_rejected():
    cyc = Triangulated3Cycle(1, [])
    values = {(0, e): 1 for e in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                  (2, 3))}
    with pytest.raises(NotIdeal):  # z would be 1
        IdealCochain(cyc, RATIONALS, values)


def test_single_simplex_determinant_labels():
    # labels det(v_i, v_j) of four plane vectors give the cross-ratio
    # det(v0,v3)det(v1,v2) / (det(v0,v2)det(v1,v3))
    rng = random.Random(2)
    vs = [(RATIONALS.rational(rng.randint(1, 9)),
           RATIONALS.rational(rng.randint(-9, -1))) for _ in range(4)]
    vs[1] = (RATIONALS.rational(1), RATIONALS.rational(2))
    det = lambda u, v: u[0] * v[1] - u[1] * v[0]
    cyc = Triangulated3Cycle(1, [])
    values = {(0, (i, j)): det(vs[i], vs[j])
              for i in range(4) for j in range(i + 1, 4)}
    co = IdealCochain(cyc, RATIONALS, values)
    expect = det(vs[0], vs[3]) * det(vs[1], vs[2]) / \
        (det(vs[0], vs[2]) * det(vs[1], vs[3]))
    assert co.cross_ratios[0] == expect


# ---------------------------------------------------------------------------
# the flattening sum

@pytest.fixture(scope="module")
def cyclic6():
    co = cyclic_cochain(RATIONALS, 1, 6)
    return co, LiftedCochain(co)


def test_sigma_hat_closed_cycle_in_Bhat(cyclic6):
    co, lc = cyclic6
    s = sigma_hat(lc)
    assert s.is_in_Bhat()


def test_sigma_hat_invariant_under_unit_shifts(cyclic6):
    # adding the central unit on any single 1-cell keeps the normal form
    co, lc = cyclic6
    s = sigma_hat(lc)
    for rep in co.class_values:
        for amount in (1, -1, 2):
            assert sigma_hat(lc.shifted(rep, amount)) == s


def test_explicit_lifts_must_project(cyclic6):
    co, lc = cyclic6
    lifts = dict(lc.class_lifts)
    rep = next(iter(lifts))
    lifts[rep] = lifts[rep] + lc.basis.element(0, {0: 1})
    with pytest.raises(NotIdeal):
        LiftedCochain(co, lc.basis, lifts)


def _cyclic4_with_a_key_outside():
    """The cyclic cochain over Q with c = 0 on four simplices, its lifted
    cochain and a key at a ninth simplex, which the cycle lacks."""
    co = cyclic_cochain(RATIONALS, 0, 4)
    return co, LiftedCochain(co), (9, (0, 1))


@pytest.mark.parametrize("use", ["label", "twist", "edge"])
def test_a_key_outside_the_cycle_is_a_cochain_error(use):
    co, lc, key = _cyclic4_with_a_key_outside()
    with pytest.raises(CochainError, match="no edge"):
        if use == "label":
            IdealCochain(co.cycle, RATIONALS, {**co.class_values, key: 1})
        elif use == "twist":
            z2_twist(lc, {**{rep: 1 for rep in co.class_values}, key: 1})
        else:
            co.cycle.edge_class(0, 1, 1)


@pytest.mark.parametrize("change", ["missing", "extra"])
def test_lifts_must_label_exactly_the_one_cells(change):
    co, lc, key = _cyclic4_with_a_key_outside()
    lifts = dict(lc.class_lifts)
    if change == "missing":
        del lifts[next(iter(lifts))]
    else:
        lifts[key] = lc.basis.element(0)
    with pytest.raises(NotIdeal, match="exactly the 1-cells"):
        LiftedCochain(co, lc.basis, lifts)


def test_shifting_a_key_outside_the_one_cells_is_not_ideal():
    _, lc, key = _cyclic4_with_a_key_outside()
    with pytest.raises(NotIdeal, match=r"\(9, \(0, 1\)\) is no 1-cell"):
        lc.shifted(key, 1)


def _edge_totals(cycle, fls):
    """The edge sums of the flattenings' log-parameters at every 1-cell."""
    return _edge_sums(cycle, [(fl.e, fl.f) for fl in fls],
                      fls[0].basis.element(0))


def test_edge_conditions_exact_zero(cyclic6):
    co, lc = cyclic6
    totals = _edge_totals(co.cycle, [lc.flattening(t) for t in range(6)])
    assert all(tot.is_zero() for tot in totals.values())


def test_edge_condition_locality(cyclic6):
    # bumping one simplex's second translate disturbs exactly the 1-cells
    # on the four edges that carry an f-dependent parameter
    co, lc = cyclic6
    fls = [lc.flattening(t) for t in range(6)]
    fls[2] = fls[2].translate(0, 1)
    totals = _edge_totals(co.cycle, fls)
    touched = {co.cycle.edge_class(2, *e)
               for e in ((0, 3), (1, 2), (0, 2), (1, 3))}
    assert {rep for rep, tot in totals.items() if not tot.is_zero()} \
        == touched


def test_twist_identity_and_coboundary(cyclic6):
    co, lc = cyclic6
    classes = co.cycle.edge_classes()
    res = z2_twist(lc, {rep: 1 for rep in classes})
    assert res.class_bit == 0 and res.difference.is_zero() and res.matches
    # a coboundary: -1 exactly on the six axis 1-cells
    axis = [rep for rep in classes if len(classes[rep]) == 4]
    alpha = {rep: (-1 if rep in axis else 1) for rep in classes}
    res = z2_twist(lc, alpha)
    assert res.class_bit == 0
    assert res.difference.is_zero()
    assert res.matches


def test_twist_rejects_non_cocycle(cyclic6):
    co, lc = cyclic6
    classes = co.cycle.edge_classes()
    alpha = {rep: 1 for rep in classes}
    axis = next(rep for rep in classes if len(classes[rep]) == 4)
    alpha[axis] = -1
    with pytest.raises(NotACocycle):
        z2_twist(lc, alpha)


def test_sigma_hat_projects_no_label(cyclic6, monkeypatch):
    # the ideal cochain proves each cross-ratio once; its flattenings take it
    co, _ = cyclic6
    lc = LiftedCochain(co)
    calls = []
    real = _BasisCommon.pi

    def spy(self, e):
        calls.append(e)
        return real(self, e)
    monkeypatch.setattr(_BasisCommon, "pi", spy)
    assert sigma_hat(lc).is_in_Bhat()
    assert calls == []


@pytest.mark.parametrize("source", ["cyclic6", "twist", "shifted",
                                    "figure_eight", "figure_eight_glued"])
def test_flattenings_project_to_the_cross_ratio_they_take(cyclic6, source):
    # the projection check these flattenings no longer make
    co, lc = cyclic6
    if source == "twist":
        classes = co.cycle.edge_classes()
        axis = [rep for rep in classes if len(classes[rep]) == 4]
        lc = z2_twist(lc, {rep: (-1 if rep in axis else 1)
                           for rep in classes}).twisted
    elif source == "shifted":
        lc = lc.shifted(next(iter(co.class_values)), 3)
    if source.startswith("figure_eight"):
        fls = manifold_invariant(_figure_eight(source), 40).flattenings
    else:
        fls = [lc.flattening(t) for t in range(co.cycle.num_simplices)]
    for fl in fls:
        assert fl.e.pi() == fl.z and fl.f.pi() == 1 - fl.z


# ---------------------------------------------------------------------------
# SL(2) orbits

def _sl2_torsion_data(n, c):
    """The cyclic-subgroup representative tuples for g with trace c."""
    g = ((c, RATIONALS.rational(-1)),
         (RATIONALS.one, RATIONALS.zero))
    h1 = ((RATIONALS.one, RATIONALS.zero),
          (RATIONALS.rational(-1), RATIONALS.one))
    h2 = ((RATIONALS.one, RATIONALS.zero),
          (RATIONALS.one, RATIONALS.one))

    def matmul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2))
                           for j in range(2)) for i in range(2))

    def power(m, k):
        out = ((RATIONALS.one, RATIONALS.zero),
               (RATIONALS.zero, RATIONALS.one))
        for _ in range(k):
            out = matmul(out, m)
        return out

    return [(1, (h1, matmul(g, h1), matmul(power(g, k), h2),
                 matmul(power(g, k + 1), h2))) for k in range(1, n + 1)]


def test_sl2_torsion_cycle_matches_plain_generator():
    # order-3 subgroup of SL(2, Q): trace is 2cos(2pi/3) = -1
    tuples = _sl2_torsion_data(3, RATIONALS.rational(-1))
    v = (RATIONALS.one, RATIONALS.zero)
    s = lambda_sl2(tuples, v)
    assert s.project() == beta_p(RATIONALS, 3)
    assert s.is_in_Bhat()
    assert certify_order(s) == 3


def test_sl2_base_vector_independence():
    tuples = _sl2_torsion_data(3, RATIONALS.rational(-1))
    s1 = lambda_sl2(tuples, (RATIONALS.one, RATIONALS.zero))
    s2 = lambda_sl2(tuples, (RATIONALS.rational(2), RATIONALS.one))
    v1 = reg_vector(s1, 40)
    v2 = reg_vector(s2, 40)
    assert all(a.distance(b) < mp.mpf(10) ** -30 for a, b in zip(v1, v2))


def test_sl2_degenerate_orbit_rejected():
    g = ((RATIONALS.one, RATIONALS.zero), (RATIONALS.zero, RATIONALS.one))
    with pytest.raises(NotGeneralPosition):
        lambda_sl2([(1, (g, g, g, g))], (RATIONALS.one, RATIONALS.zero))


def test_broken_flattening_identity_is_no_verdict_on_the_vectors(monkeypatch):
    # nonzero determinant labels always give a flattening, so a failure of
    # the identity is a bug of the library, not a degenerate orbit
    def broken(c):
        raise NotAFlattening("pi(e) + pi(f) != 1")

    monkeypatch.setattr("extbloch.cochain.edge_flattening", broken)
    tuples = _sl2_torsion_data(3, RATIONALS.rational(-1))
    with pytest.raises(NotAFlattening):
        lambda_sl2(tuples, (RATIONALS.one, RATIONALS.zero))


def _random_sl2(rng, field):
    while True:
        a, b, c = (rng.randint(-5, 5) for _ in range(3))
        if a:
            d = field.rational(Fraction(1 + b * c, a))
            return ((field.rational(a), field.rational(b)),
                    (field.rational(c), d))


def test_sl2_boundary_is_lifted_five_term():
    from extbloch.bloch import Flattening
    rng = random.Random(3)
    v = (RATIONALS.one, RATIONALS.zero)
    basis = SymbolicBasis(RATIONALS)
    det = lambda u, w: u[0] * w[1] - u[1] * w[0]

    def raw_flattening(us):
        c = {(i, j): basis.symbol(det(us[i], us[j]))
             for i in range(4) for j in range(i + 1, 4)}
        return Flattening(c[(0, 3)] + c[(1, 2)] - c[(0, 2)] - c[(1, 3)],
                          c[(0, 1)] + c[(2, 3)] - c[(0, 2)] - c[(1, 3)])

    def matvec(g, u):
        return (g[0][0] * u[0] + g[0][1] * u[1],
                g[1][0] * u[0] + g[1][1] * u[1])

    for _ in range(5):
        while True:
            g5 = tuple(_random_sl2(rng, RATIONALS) for _ in range(5))
            vs = [matvec(g, v) for g in g5]
            if any(det(vs[i], vs[j]).is_zero()
                   for i in range(5) for j in range(i + 1, 5)):
                continue
            terms = [((-1) ** j,
                      raw_flattening([u for t, u in enumerate(vs) if t != j]))
                     for j in range(5)]
            break
        assert is_lifted_five_term(terms)
        s = normalize(basis, terms)
        assert s.is_in_Bhat()
        assert all(val.distance(0) < mp.mpf(10) ** -30
                   for val in reg_vector(s, 40))


# ---------------------------------------------------------------------------
# ordered bases of F^3

def _random_vector(rng):
    return tuple(RATIONALS.rational(rng.randint(-9, 9)) for _ in range(3))


def _random_bases(rng, count):
    return [tuple(_random_vector(rng) for _ in range(3))
            for _ in range(count)]


def _general_position_bases(rng, count, build):
    for _ in range(1000):
        bases = _random_bases(rng, count)
        try:
            return bases, build(bases)
        except NotGeneralPosition:
            continue
    raise AssertionError("rejection sampling failed")


def test_flag_boundary_certificate():
    rng = random.Random(7)
    for _ in range(5):
        _, report = _general_position_bases(rng, 5, flag_boundary_check)
        assert report.ok


def test_flag_lambda_shear_invariance():
    # replacing a secondary vector by itself plus a multiple of the leading
    # vector changes nothing at all
    rng = random.Random(9)
    bases, s = _general_position_bases(rng, 4, flag_lambda)
    basis = s.basis
    sheared = [list(map(list, b)) for b in bases]
    lead = bases[2][0]
    sheared[2][1] = [sheared[2][1][j] + 5 * lead[j] for j in range(3)]
    sheared = [tuple(tuple(v) for v in b) for b in sheared]
    assert flag_lambda(sheared, basis) == s


def test_flag_lambda_third_vector_irrelevant():
    rng = random.Random(10)
    bases, s = _general_position_bases(rng, 4, flag_lambda)
    changed = [list(b) for b in bases]
    changed[1][2] = _random_vector(rng)
    changed = [tuple(b) for b in changed]
    assert flag_lambda(changed, s.basis) == s


def test_flag_lambda_rescaling_preserves_regulator():
    # rescaling a secondary vector changes the log symbols but not the
    # regulator of the element
    rng = random.Random(11)
    bases, s = _general_position_bases(rng, 4, flag_lambda)
    basis = s.basis
    scaled = [list(map(list, b)) for b in bases]
    scaled[0][1] = [3 * c for c in scaled[0][1]]
    scaled = [tuple(tuple(v) for v in b) for b in scaled]
    s2 = flag_lambda(scaled, basis)
    # a single 4-tuple of flags is not in the kernel, so compare the raw
    # regulator sums at the embedding instead of the vector interface
    from extbloch.extgroup import cover_to_C
    from extbloch.regulator import reg_sum
    ctx = RATIONALS.embeddings(40)[0]
    with mp.workdps(45):
        lift = cover_to_C(basis, ctx)
        assert reg_sum(s, lift).distance(reg_sum(s2, lift)) < mp.mpf(10) ** -30


def test_face_point_shift_rule():
    # adding the central unit to the log of the face point opposite vertex 0
    # (the determinant of the three leading vectors 1, 2, 3) changes the
    # element by chi of the signed edge-point sum on that face plus chi(1)
    from extbloch.cochain import _det3, _flag_determinants, _swapped
    from extbloch.bloch import Flattening, ExtBlochSum
    rng = random.Random(13)
    bases, s = _general_position_bases(rng, 4, flag_lambda)
    basis = s.basis
    dets = _flag_determinants(bases, basis)

    def term(i, shift):
        fl = dets.flattening(_swapped(range(4), i), (i, 0), i)
        de, df = shift
        return Flattening(fl.e + basis.iota(de), fl.f + basis.iota(df))

    # the face point occurs in terms 1, 2, 3 with shifts read off from the
    # determinant patterns
    shifted = ExtBlochSum(basis, [
        (1, term(0, (0, 0))), (1, term(1, (0, 1))),
        (1, term(2, (-1, -1))), (1, term(3, (1, 0)))])
    fl1, fl2, fl3 = (term(i, (0, 0)) for i in (1, 2, 3))
    expected = s + chi(fl1.e - fl2.e + fl2.f - fl3.f + basis.iota())
    assert shifted == expected
    # and the chi argument is exactly the signed sum of the six edge-point
    # logs on the face opposite vertex 0
    L = lambda a, b, c: basis.symbol(_det3(a, b, c))
    F = bases
    edge_sum = (L(F[1][0], F[1][1], F[2][0]) - L(F[1][0], F[2][0], F[2][1])
                + L(F[1][0], F[3][0], F[3][1]) - L(F[1][0], F[1][1], F[3][0])
                + L(F[2][0], F[2][1], F[3][0]) - L(F[2][0], F[3][0], F[3][1]))
    assert fl1.e - fl2.e + fl2.f - fl3.f == edge_sum


def _merged_order_flattening(basis, vectors, w, position):
    """The determinant rule written out: edge (j, k) is labeled by the
    determinant of v_j, v_k and w in the order of their places, w at
    `position` among the four vectors.  None if a label is zero or the
    labels give no flattening."""
    from extbloch.bloch import NotAFlattening
    from extbloch.cochain import _det3
    c = {}
    for j, k in [(j, k) for j in range(4) for k in range(j + 1, 4)]:
        if position <= j:
            d = _det3(w, vectors[j], vectors[k])
        elif position <= k:
            d = _det3(vectors[j], w, vectors[k])
        else:
            d = _det3(vectors[j], vectors[k], w)
        if d.is_zero():
            return None
        c[(j, k)] = basis.symbol(d)
    try:
        return Flattening(c[(0, 3)] + c[(1, 2)] - c[(0, 2)] - c[(1, 3)],
                          c[(0, 1)] + c[(2, 3)] - c[(0, 2)] - c[(1, 3)])
    except NotAFlattening:
        return None


@pytest.mark.parametrize("poly", [[0, 1], [-2, 0, 1]])
def test_basis_flattening_follows_the_merged_order(poly):
    # one `_Determinants` per set of five vectors serves every order of the
    # four labels and every place of the reference, so a flattening keyed
    # without its place or its order, or a determinant without its sign,
    # gives a wrong answer here
    from itertools import permutations
    from extbloch.cochain import _Determinants
    field = NumberField(poly)
    basis = SymbolicBasis(field)
    rng = random.Random(17)
    checked = [0] * 5
    for _ in range(3):
        vectors = [tuple(field.element([rng.randint(-6, 6) for _ in poly[1:]])
                         for _ in range(3)) for _ in range(5)]
        dets = _Determinants(basis, dict(enumerate(vectors)))
        for ref in range(5):
            orders = list(permutations([x for x in range(5) if x != ref]))
            for labels in rng.sample(orders, 4):
                for place in range(5):
                    want = _merged_order_flattening(
                        basis, [vectors[x] for x in labels], vectors[ref],
                        place)
                    if want is None:
                        with pytest.raises(NotGeneralPosition):
                            dets.flattening(labels, ref, place)
                    else:
                        assert dets.flattening(labels, ref, place) == want
                        checked[place] += 1
    assert min(checked) >= 30


def _reference_flag_terms(basis, bases, sign):
    """`flag_lambda`'s four terms by the per-term formula, uncached."""
    terms = []
    for i in range(4):
        vectors = [b[0] for b in bases]
        vectors[i] = bases[i][1]
        terms.append((sign, _merged_order_flattening(basis, vectors,
                                                     bases[i][0], i)))
    return terms


def _reference_flag_boundary(basis, bases):
    """`flag_boundary_check` by the per-term formula, uncached: the 20
    boundary terms, the five partial boundaries and the mixed boundary
    each compute their own flattenings.  None if one of them fails."""
    lhs = []
    for j in range(5):
        lhs += _reference_flag_terms(basis, bases[:j] + bases[j + 1:],
                                     (-1) ** j)
    partials = []
    for i in range(5):
        vectors = [b[0] for b in bases]
        vectors[i] = bases[i][1]
        partials.append([((-1) ** j, _merged_order_flattening(
            basis, vectors[:j] + vectors[j + 1:], bases[i][0], i - (j < i)))
            for j in range(5)])
    leading = [b[0] for b in bases]
    mixed = [((-1) ** j, _merged_order_flattening(
        basis, leading[:j] + leading[j + 1:], bases[j][0], j))
        for j in range(5)]
    if any(fl is None for _, fl in lhs + mixed + sum(partials, [])):
        return None
    count = Counter()
    for s, fl in lhs + mixed:
        count[fl] += s
    for inst in partials:
        for s, fl in inst:
            count[fl] -= s
    return FlagBoundaryReport(
        partials_ok=tuple(is_lifted_five_term(inst) for inst in partials),
        mixed_ok=is_lifted_five_term(mixed),
        identity_ok=not any(count.values()))


def _criterion_06_bases(rng):
    # the inputs of tests/test_acceptance.py::test_criterion_06
    return [tuple(tuple(RATIONALS.rational(rng.randint(-5, 5))
                        for _ in range(3)) for _ in range(3))
            for _ in range(5)]


def _sqrt2_bases(rng):
    return [tuple(tuple(SQRT2.element([rng.randint(-3, 3) for _ in range(2)])
                        for _ in range(3)) for _ in range(3))
            for _ in range(5)]


def _outcome(build, field):
    """[repr of the result, repr of the generator values of the basis it
    grew], or None for NotGeneralPosition."""
    basis = SymbolicBasis(field)
    try:
        return [repr(build(basis)), repr(basis.values)]
    except NotGeneralPosition:
        return None


def _reference_outcome(build, field):
    basis = SymbolicBasis(field)
    result = build(basis)
    return None if result is None else [repr(result), repr(basis.values)]


def _reference_flag_lambda(basis, bases):
    terms = _reference_flag_terms(basis, bases, 1)
    if any(fl is None for _, fl in terms):
        return None
    return normalize(basis, terms)


# The seeded inputs of the flag checks against the uncached formula: the
# inputs of one case run until 100 of them are in general position.  The
# formula's outcomes on them are recorded in FLAG_REFERENCE, since the
# formula takes several times as long as the library; to re-record:
#
#     PYTHONPATH=src python3 tests/test_cochain.py --record-flag-reference
FLAG_CASES = {"criterion_06": (_criterion_06_bases, RATIONALS, 6),
              "sqrt2": (_sqrt2_bases, SQRT2, 61)}
FLAG_REFERENCE = "tests/fixtures/flag_reference.json"


def _reference_flag_rows(case, count=None):
    """[boundary outcome, lambda outcome] of the uncached formula on the
    inputs of a case, or on the first `count` of them."""
    inputs, field, seed = FLAG_CASES[case]
    rng = random.Random(seed)
    rows, certified = [], 0
    while certified < 100 and len(rows) != count:
        bases = inputs(rng)
        rows.append([
            _reference_outcome(lambda b: _reference_flag_boundary(b, bases),
                               field),
            _reference_outcome(lambda b: _reference_flag_lambda(b, bases[:4]),
                               field)])
        certified += rows[-1][0] is not None
    return rows


def _flag_reference():
    with open(FLAG_REFERENCE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(FLAG_CASES))
def test_flag_results_match_the_uncached_formula(case):
    inputs, field, seed = FLAG_CASES[case]
    rng = random.Random(seed)
    certified = 0
    for boundary, lam in _flag_reference()[case]:
        bases = inputs(rng)
        got = _outcome(lambda b: flag_boundary_check(bases, b), field)
        assert got == boundary
        certified += got is not None
        assert got is None or "False" not in got[0]   # the report is ok
        assert _outcome(lambda b: flag_lambda(bases[:4], b), field) == lam
    assert certified == 100


@pytest.mark.parametrize("case", sorted(FLAG_CASES))
def test_flag_reference_is_the_uncached_formula(case):
    # the recording starts with what the formula gives today
    assert _flag_reference()[case][:8] == _reference_flag_rows(case, 8)


def test_flag_check_computes_each_determinant_and_flattening_once(
        monkeypatch):
    import extbloch.cochain as cochain
    calls = Counter()

    def spy(name):
        real = getattr(cochain, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(cochain, name, wrapper)

    spy("_det3")
    spy("_determinant_flattening")
    rng = random.Random(6)
    for _ in range(12):
        bases, _ = _general_position_bases(rng, 5, flag_boundary_check)
        calls.clear()
        assert flag_boundary_check(bases).ok
        assert calls == {"_det3": 30, "_determinant_flattening": 25}
    calls.clear()
    flag_lambda(bases[:4])
    assert calls == {"_det3": 16, "_determinant_flattening": 4}


def test_every_flag_determinant_is_checked_for_zero():
    # make one of the 30 determinants of a check vanish by replacing one of
    # its vectors with the sum of the other two; twenty of them involve a
    # second vector and so occur only in the partial boundaries, not in the
    # mixed one, and each still raises NotGeneralPosition
    rng = random.Random(6)
    bases, _ = _general_position_bases(rng, 5, flag_boundary_check)
    triples = set()
    for i in range(5):
        labels = [(t, int(t == i)) for t in range(5)]
        for a, b in itertools.combinations(labels, 2):
            triples.add(tuple(sorted([(i, 0), a, b])))
    assert len(triples) == 30
    for a, b, c in sorted(triples):
        changed = [list(basis) for basis in bases]
        u, v = changed[a[0]][a[1]], changed[b[0]][b[1]]
        changed[c[0]][c[1]] = tuple(x + y for x, y in zip(u, v))
        with pytest.raises(NotGeneralPosition):
            flag_boundary_check([tuple(basis) for basis in changed])


# ---------------------------------------------------------------------------
# flattened triangulation files

def _figure_eight(name="figure_eight"):
    with open(f"tests/fixtures/{name}.json") as fh:
        return json.load(fh)


def test_figure_eight_fixture():
    inv = manifold_invariant(_figure_eight(), 50)
    assert inv.matches
    with mp.workdps(40):
        assert abs(inv.imaginary_parts[0]
                   - mp.mpf("2.029883212819307250042405109")) \
            < mp.mpf(10) ** -25


def test_invariant_takes_one_logarithm_per_generator(monkeypatch):
    # _edge_targets and reg_vector each build a covering at the one
    # embedding; both read the logarithms of the two symbols of the basis
    inside, logs = [], []
    lambda_p, log = LogLift.lambda_p, mp.log

    def spy_lambda_p(self, j):
        inside.append(j)
        try:
            return lambda_p(self, j)
        finally:
            inside.pop()

    monkeypatch.setattr(LogLift, "lambda_p", spy_lambda_p)
    monkeypatch.setattr(mp, "log",
                        lambda x: (inside and logs.append(x)) or log(x))
    assert manifold_invariant(_figure_eight("figure_eight_glued"), 50).matches
    assert len(logs) == 2


def test_glued_figure_eight_constrains_the_shapes():
    # figure_eight.json glues each 1-cell from edges whose sums cancel for
    # any shapes; this gluing has two 1-cells of six edges each, and its
    # edge sums vanish only for shapes that satisfy the gluing equations
    data = _figure_eight("figure_eight_glued")
    cycle = Triangulated3Cycle(data["tets"], data["gluings"])
    assert sorted(len(edges) for edges in cycle.edge_classes().values()) \
        == [6, 6]
    inv = manifold_invariant(data, 50)
    assert inv.matches
    with mp.workdps(60):
        volume = 2 * mpmath.clsin(2, mp.pi / 3)
        assert abs(inv.imaginary_parts[0] - volume) < mp.mpf(10) ** -45
        assert abs(inv.dilogarithm_sums[0] - volume) < mp.mpf(10) ** -45
    data["shapes"][1] = [2]
    with pytest.raises(EdgeConditionFailed,
                       match=r"the shapes fail the gluing equation of the "
                             r"1-cell \(0, \(0, 1\)\)"):
        manifold_invariant(data, 50)


@pytest.mark.parametrize("name", ["figure_eight", "figure_eight_glued"])
def test_reversed_orientations_negate_the_invariant(name):
    # reversing every simplex negates the element: the regulator negates
    # modulo 4*pi^2, and so do its imaginary parts and the Bloch-Wigner sums
    data = _figure_eight(name)
    inv = manifold_invariant(data, 40)
    rev = manifold_invariant(dict(data, orientations=[-1] * data["tets"]),
                             40)
    assert inv.matches and rev.matches
    with mp.workdps(40):
        eps = mp.mpf(10) ** -30
        assert all(a.distance(-b.value) < eps
                   for a, b in zip(rev.regulator, inv.regulator))
        for got, want in ((rev.imaginary_parts, inv.imaginary_parts),
                          (rev.dilogarithm_sums, inv.dilogarithm_sums)):
            assert all(abs(a + b) < eps for a, b in zip(got, want))


def test_explicit_flattenings_path():
    data = _figure_eight()
    data["flattenings"] = [[-2, -2], [-2, -2]]
    inv = manifold_invariant(data, 40)
    assert inv.matches


@pytest.mark.parametrize("key, entries", [
    ("shapes", lambda data: data["shapes"][:1]),
    ("shapes", lambda data: data["shapes"] * 2),
    ("flattenings", lambda data: [[-2, -2]])],
    ids=["one_shape", "doubled_shapes", "one_flattening"])
def test_miscounted_entries_rejected(key, entries):
    data = _figure_eight()
    data[key] = entries(data)
    with pytest.raises(CochainError, match=key):
        manifold_invariant(data, 30)


def _cyclic_triangulation_data():
    gluings = []
    for t in range(6):
        gluings.append([t, 2, (t + 1) % 6, 3, [0, 1, 2]])
        gluings.append([t, 0, (t - 1) % 6, 1, [0, 2, 3]])
    return {"field": [0, 1], "tets": 6, "gluings": gluings,
            "shapes": [[-2], [-2], [0.25], [-2], [-2], [0.25]]}


def test_searched_rational_cycle():
    inv = manifold_invariant(_cyclic_triangulation_data(), 30)
    assert inv.matches
    assert inv.imaginary_parts[0] == 0


@pytest.mark.parametrize("source", ["figure_eight_glued", "cyclic"])
def test_invariant_reports_its_translates(source):
    # the searched pairs are those the flattenings carry over the symbols
    # of z and 1 - z; supplied pairs come back as given
    data = _cyclic_triangulation_data() if source == "cyclic" else \
        _figure_eight(source)
    inv = manifold_invariant(data, 20)
    basis = inv.flattenings[0].basis
    assert [x for pq in inv.translates for x in pq] == \
        [(x - basis.symbol(x.pi())).k // basis.m
         for fl in inv.flattenings for x in (fl.e, fl.f)]
    again = manifold_invariant(
        dict(data, flattenings=[list(pq) for pq in inv.translates]), 20)
    assert again.translates == inv.translates


def _relabelled(data, perm):
    """The triangulation with simplex t renamed perm[t]: its gluings, and
    its shapes, orientations and translates moved to their new places."""
    out = dict(data, gluings=[[perm[t], f, perm[t2], f2, vmap]
                              for t, f, t2, f2, vmap in data["gluings"]])
    for key in ("shapes", "orientations", "flattenings"):
        if data.get(key):
            out[key] = [None] * len(perm)
            for t, entry in enumerate(data[key]):
                out[key][perm[t]] = entry
    return out


@pytest.mark.parametrize("supplied", [False, True],
                         ids=["searched", "supplied"])
@pytest.mark.parametrize("source", ["figure_eight", "figure_eight_glued",
                                    "cyclic"])
def test_relabelling_simplices_keeps_the_invariant(source, supplied):
    # renaming the simplices reorders the terms of the element; the edge
    # conditions and the imaginary parts of the regulator do not see it
    if source == "cyclic":
        data = _cyclic_triangulation_data()
        rng = random.Random(31)
        perms = [rng.sample(range(6), 6) for _ in range(3)]
    else:
        data = _figure_eight(source)
        perms = list(itertools.permutations(range(data["tets"])))
    if supplied:
        # every simplex reversed, with the translates the search finds
        data = dict(data, orientations=[-1] * data["tets"])
        data["flattenings"] = [list(pq) for pq in
                               manifold_invariant(data, 30).translates]
    inv = manifold_invariant(data, 30)
    assert inv.matches
    for perm in perms:
        got = manifold_invariant(_relabelled(data, perm), 30)
        assert got.matches
        with working(30):
            assert all(is_small(a - b, 30) for a, b in zip(
                got.imaginary_parts, inv.imaginary_parts, strict=True))


def _trial_coefficients(cycle, field, shapes):
    """The translate coefficients read off the edge sums of flattenings:
    one pass at zero translates, then one per translate with a single unit
    set."""
    basis = SymbolicBasis(field)
    sz = [basis.symbol(z) for z in shapes]
    s1z = [basis.symbol(field.one - z) for z in shapes]
    n = cycle.num_simplices

    def totals_of(pqs):
        return _edge_totals(cycle, [
            Flattening(sz[t] + basis.iota(p), s1z[t] + basis.iota(q))
            for t, (p, q) in enumerate(pqs)])

    zero = [(0, 0)] * n
    base = totals_of(zero)
    coeffs = []
    for t in range(n):
        for unit in ((1, 0), (0, 1)):
            pqs = list(zero)
            pqs[t] = unit
            bumped = totals_of(pqs)
            coeffs.append([(bumped[rep].k - base[rep].k) // basis.m
                           for rep in sorted(base)])
    return coeffs


@pytest.mark.parametrize("source", ["figure_eight", 6, 12, 24])
def test_translate_coefficients_match_the_trial_passes(source):
    if source == "figure_eight":
        data = _figure_eight()
        field = NumberField(data["field"])
        cycle = Triangulated3Cycle(data["tets"], data["gluings"],
                                   data.get("orientations"))
        shapes = [field.element(c) for c in data["shapes"]]
    else:
        field, cycle = RATIONALS, cyclic_cycle(source)
        shapes = [RATIONALS.rational(Fraction(v))
                  for v in (-2, -2, Fraction(1, 4))] * (source // 3)
    reps = sorted(cycle.edge_classes())
    assert _translate_coefficients(cycle, reps) == \
        _trial_coefficients(cycle, field, shapes)


def _certified(cycle, fls, precision):
    """The reference decision of the edge conditions: every edge sum is
    the zero element, or its value projection is 1 and its logarithm
    vanishes at every embedding."""
    basis = fls[0].basis
    lifts = [cover_to_C(basis, ctx)
             for ctx in basis.field.embeddings(precision)]
    return all(tot.is_zero() or (tot.pi().is_one() and all(
        is_small(lift.lift(tot), precision) for lift in lifts))
        for tot in _edge_totals(cycle, fls).values())


@pytest.mark.parametrize("source, accepted", [
    ("figure_eight", 81), ("figure_eight_glued", 13), ("cyclic", 23)])
def test_supplied_translates_agree_with_the_certificate(source, accepted):
    # manifold_invariant accepts supplied translates exactly when the
    # reference certificate holds: every vector within 1 of zero on
    # figure_eight.json and of the searched translates on the glued
    # fixture, and 200 seeded ones near the searched translates on the
    # cyclic triangulation
    if source == "cyclic":
        data = _cyclic_triangulation_data()
        rng = random.Random(0)
        steps = [[rng.choice((-1, 0, 1)) * rng.randrange(2) * rng.randrange(2)
                  for _ in range(12)] for _ in range(200)]
    else:
        data = _figure_eight(source)
        steps = list(itertools.product((-1, 0, 1), repeat=4))
    center = [0] * 4 if source == "figure_eight" else \
        [x for pq in manifold_invariant(data, 20).translates for x in pq]
    field = NumberField(data["field"])
    cycle = Triangulated3Cycle(data["tets"], data["gluings"])
    basis = SymbolicBasis(field)
    shapes = [field.element(c) for c in data["shapes"]]
    count = 0
    for step in steps:
        x = [c + s for c, s in zip(center, step)]
        pqs = [x[i:i + 2] for i in range(0, len(x), 2)]
        fls = [Flattening(basis.symbol(z) + basis.iota(p),
                          basis.symbol(field.one - z) + basis.iota(q))
               for z, (p, q) in zip(shapes, pqs)]
        try:
            manifold_invariant(dict(data, flattenings=pqs), 20)
            ok = True
        except EdgeConditionFailed as exc:
            assert "edge sums do not vanish" in str(exc)
            ok = False
        assert ok == _certified(cycle, fls, 20), pqs
        count += ok
    assert count == accepted


def test_edge_targets():
    # a central sum needs the translates that cancel it, at every embedding
    basis = SymbolicBasis(SQRT2)
    rep = (0, (0, 1))
    assert _edge_targets(basis, {rep: basis.iota(3)}, 30) == [-3]
    # (1 + sqrt2)(sqrt2 - 1) = 1, but the logarithm of the sum is 0 where
    # sqrt2 > 0 and 2*pi*i where both factors are negative
    root = SQRT2.element([0, 1])
    base = basis.symbol(SQRT2.one + root) + basis.symbol(root - SQRT2.one)
    assert base.pi().is_one()
    with pytest.raises(EdgeConditionFailed,
                       match=r"no integer translates cancel the edge sum of "
                             r"the 1-cell \(0, \(0, 1\)\)"):
        _edge_targets(basis, {rep: base}, 30)


def test_violated_edge_conditions_rejected():
    data = _cyclic_triangulation_data()
    data["flattenings"] = [[0, 0]] * 6
    with pytest.raises(EdgeConditionFailed):
        manifold_invariant(data, 30)


def test_unsolvable_search_rejected():
    # breaking one shape destroys the multiplicative edge relations, so no
    # translate assignment can repair the sums: translates change only
    # central coordinates and pi(iota) = 1, so the error names the 1-cell
    # whose edge sum does not project to 1
    data = _cyclic_triangulation_data()
    data["shapes"][0] = [3]
    with pytest.raises(EdgeConditionFailed,
                       match=r"gluing equation of the 1-cell \(0, \(0, 1\)\): "
                             r"the value projection of its edge sum is "
                             r"<-3/2>, not 1"):
        manifold_invariant(data, 30)


def test_exhausted_search_names_the_bound(monkeypatch):
    # the gluing equations hold, but the zero translates, the only ones
    # within the bound 0, leave nonzero edge sums
    monkeypatch.setattr("extbloch.cochain.SEARCH_BOUND", 0)
    with pytest.raises(EdgeConditionFailed, match="search bound"):
        manifold_invariant(_cyclic_triangulation_data(), 30)


def test_degenerate_shape_rejected():
    data = _cyclic_triangulation_data()
    data["shapes"][0] = [1]
    with pytest.raises(NotIdeal):
        manifold_invariant(data, 30)


def test_matches_uses_the_given_tolerance():
    # the bound of 30 digits is 1e-20: a gap of 1e-30 passes it and a gap
    # of 1e-10 does not
    with mp.workdps(60):
        close = ManifoldInvariant(None, (), (), [], [mp.mpf(1)],
                                  [1 + mp.mpf(10) ** -30], precision=30)
        apart = ManifoldInvariant(None, (), (), [], [mp.mpf(1)],
                                  [1 + mp.mpf(10) ** -10], precision=30)
    assert close.matches and not apart.matches


if __name__ == "__main__":
    import sys
    if sys.argv[1:] != ["--record-flag-reference"]:
        sys.exit("usage: tests/test_cochain.py --record-flag-reference")
    with open(FLAG_REFERENCE, "w") as fh:
        json.dump({case: _reference_flag_rows(case) for case in FLAG_CASES},
                  fh, indent=0, sort_keys=True)
        fh.write("\n")
