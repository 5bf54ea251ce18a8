"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "criterion NN: PASS/FAIL" line (visible with -s)
and enforces its own wall-clock budget.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from mpmath import mp

from extbloch.field import NumberField
from extbloch.extgroup import MultBasis, SymbolicBasis, cover_to_C
from extbloch.bloch import (ExtBlochSum, Flattening, chi,
                            change_torsion_generator, lift_five_term,
                            normalize, rho_hat)
from extbloch.regulator import bloch_wigner, reg_sum, reg_vector
from extbloch.torsion import beta_p, certify_order, flattened_torsion, \
    torsion_profile
from extbloch.cochain import cyclic_cochain, LiftedCochain, manifold_invariant, \
    sigma_hat, flag_boundary_check, NotGeneralPosition, z2_twist

RATIONALS = NumberField([0, 1])
SQRT2 = NumberField([-2, 0, 1])
QUARTIC = NumberField([1, -2, 2, -1, 1])


def verdict(num, ok):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} failed"


def quartic_data():
    x = QUARTIC.element([0, 1])
    u = -x ** 3 - 2 * x + QUARTIC.one
    v = x * x - x + QUARTIC.one
    w = x ** 3 + x
    return u, v, w


def quartic_element():
    u, v, w = quartic_data()
    basis = MultBasis(QUARTIC, [u], saturated=True, torsion_gen=w)
    ut = basis.element(0, {0: 1})
    wt = basis.element(1)
    s = ExtBlochSum(basis, [(1, Flattening(ut, 2 * ut + 4 * wt)),
                            (2, Flattening(-2 * ut + 3 * wt,
                                           -3 * ut + wt))], -3 * ut)
    return basis, s


def test_criterion_01_quartic_field_end_to_end():
    start = time.perf_counter()
    u, v, w = quartic_data()
    relations = (QUARTIC.one - u == u * u * w ** 4
                 and v == w ** 3 * (u * u).inverse()
                 and QUARTIC.one - v == (u ** 3).inverse() * w)
    basis, s = quartic_element()
    membership = s.is_in_Bhat()
    vec = reg_vector(s, 40)
    ctxs = QUARTIC.embeddings(40)
    with mp.workdps(45):
        root_ok = abs(ctxs[0].root() - mp.mpc("-0.1217444141", "1.3066224028")) \
            < mp.mpf("1e-9")
        target = mp.mpc("-7.453229547025347", "-2.3126354032530247")
        value_ok = abs(vec[0].symmetric() - target) < mp.mpf("5e-4")
    elapsed = time.perf_counter() - start
    verdict(1, relations and membership and root_ok and value_ok
            and elapsed < 5)


def test_criterion_02_sqrt2_two_torsion():
    start = time.perf_counter()
    s = flattened_torsion(SQRT2, 2)
    vec = reg_vector(s, 45)
    with mp.workdps(50):
        quarter = mp.pi ** 2 / 4
        value_ok = any(v.distance(quarter) < mp.mpf(10) ** -30 for v in vec)
    order_ok = certify_order(s) == 16
    b = beta_p(SQRT2, 2)
    r = SQRT2.element([0, 1])
    wanted = sorted([tuple((r - SQRT2.one).coeffs),
                     tuple((-r - SQRT2.one).coeffs)])
    beta_ok = sorted(tuple(z.coeffs) for _, z in b.terms) == wanted \
        and all(n == 2 for n, _ in b.terms)
    elapsed = time.perf_counter() - start
    verdict(2, value_ok and order_ok and beta_ok and elapsed < 5)


def test_criterion_03_rational_three_torsion():
    start = time.perf_counter()
    b = beta_p(RATIONALS, 3)
    beta_ok = [(n, z.as_fraction()) for n, z in b.terms] == \
        [(2, Fraction(-2)), (1, Fraction(1, 4))]
    order_ok = certify_order(flattened_torsion(RATIONALS, 3)) == 3
    profile = torsion_profile(RATIONALS)
    table_ok = (profile.nu[2], profile.nu[3], profile.nu[5]) == (2, 1, 0) \
        and profile.w == 24
    elapsed = time.perf_counter() - start
    verdict(3, beta_ok and order_ok and table_ok and elapsed < 2)


def test_criterion_04_random_five_term_relations():
    start = time.perf_counter()
    basis = MultBasis(RATIONALS, [RATIONALS.rational(2),
                                  RATIONALS.rational(3),
                                  RATIONALS.rational(5)], saturated=True)
    pool = set()
    for a, b, c in itertools.product(range(-6, 7), repeat=3):
        q = Fraction(2) ** a * Fraction(3) ** b * Fraction(5) ** c
        pool.add(q)
        pool.add(-q)
    shifted = sorted(q for q in pool if q - 1 in pool)
    pairs = [(x, y) for x in shifted for y in shifted
             if x != y and x - y in pool]
    rng = random.Random(20260823)
    ok = True
    for x, y in rng.sample(pairs, 200):
        zx = RATIONALS.rational(x)
        zy = RATIONALS.rational(y)
        fl0 = Flattening(basis.log_lift(zx),
                         basis.log_lift(RATIONALS.one - zx))
        fl1 = Flattening(basis.log_lift(zy),
                         basis.log_lift(RATIONALS.one - zy))
        s = normalize(basis, rho_hat(lift_five_term(fl0, fl1)))
        if not s.is_in_Bhat():
            ok = False
            break
        with mp.workdps(45):
            if any(v.distance(0) >= mp.mpf(10) ** -25
                   for v in reg_vector(s, 40)):
                ok = False
                break
    elapsed = time.perf_counter() - start
    verdict(4, ok and elapsed < 30)


def _swap_pair(basis, z):
    if isinstance(basis, MultBasis):
        e = basis.log_lift(z)
        f = basis.log_lift(basis.field.one - z)
    else:
        e = basis.symbol(z)
        f = basis.symbol(basis.field.one - z)
    return [(1, Flattening(e, f)), (1, Flattening(f, e))]


def _sqrt2_sample(rng, basis):
    r = SQRT2.element([0, 1])
    one = SQRT2.one
    terms = []
    for z in (r - one, -r - one, SQRT2.rational(2), r):
        n = rng.randint(-3, 3)
        terms.extend((n * s, fl) for s, fl in _swap_pair(basis, z))
    return normalize(basis, terms, rng.randint(-2, 2) * basis.iota())


def _quartic_sample(rng, basis, alpha):
    terms = []
    u, _, _ = quartic_data()
    for z in (u, u.inverse()):
        n = rng.randint(-3, 3)
        terms.extend((n * s, fl) for s, fl in _swap_pair(basis, z))
    s = normalize(basis, terms,
                  rng.randint(-2, 2) * basis.iota()
                  + 2 * rng.randint(-2, 2) * basis.element(1))
    return s + rng.randint(-2, 2) * alpha


def test_criterion_05_imaginary_part_is_dilogarithm_sum():
    start = time.perf_counter()
    rng = random.Random(5)
    r = SQRT2.element([0, 1])
    sqrt2_basis = MultBasis(SQRT2, [r, r - SQRT2.one], saturated=True)
    quartic_basis, alpha = quartic_element()
    samples = [(_sqrt2_sample(rng, sqrt2_basis), SQRT2) for _ in range(50)]
    samples += [(_quartic_sample(rng, quartic_basis, alpha), QUARTIC)
                for _ in range(50)]
    ok = True
    for s, field in samples:
        if not s.is_in_Bhat():
            ok = False
            break
        vec = reg_vector(s, 40)
        with mp.workdps(45):
            for v, ctx in zip(vec, field.embeddings(40)):
                dsum = mp.mpf(0)
                for n, fl in s.terms:
                    dsum += n * bloch_wigner(ctx.evaluate(fl.z), 40)
                if abs(mp.im(v.canonical()) - dsum) >= mp.mpf(10) ** -25:
                    ok = False
        if not ok:
            break
    elapsed = time.perf_counter() - start
    verdict(5, ok and elapsed < 60)


def test_criterion_06_flag_boundaries():
    start = time.perf_counter()
    rng = random.Random(6)
    done = 0
    ok = True
    while done < 100:
        bases = [tuple(tuple(RATIONALS.rational(rng.randint(-5, 5))
                             for _ in range(3)) for _ in range(3))
                 for _ in range(5)]
        try:
            report = flag_boundary_check(bases)
        except NotGeneralPosition:
            continue
        done += 1
        if not report.ok:
            ok = False
            break
    elapsed = time.perf_counter() - start
    verdict(6, ok and elapsed < 60)


def test_criterion_07_swapped_flattenings():
    start = time.perf_counter()
    rng = random.Random(7)
    basis = SymbolicBasis(RATIONALS)
    ok = True
    for _ in range(20):
        while True:
            z = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
            if z not in (0, 1):
                break
        s = normalize(basis, _swap_pair(basis, RATIONALS.rational(z)))
        if not s.is_in_Bhat():
            ok = False
            break
        v = reg_vector(s, 40)[0]
        with mp.workdps(45):
            if v.distance(-mp.pi ** 2 / 6) >= mp.mpf(10) ** -25:
                ok = False
                break
        if certify_order(s) != 24:
            ok = False
            break
    elapsed = time.perf_counter() - start
    verdict(7, ok and elapsed < 30)


def test_criterion_08_two_torsion_twist():
    co = cyclic_cochain(RATIONALS, 1, 6)
    lc = LiftedCochain(co)
    cyc = co.cycle
    ladder = [cyc.edge_class(0, 0, 2), cyc.edge_class(0, 0, 3),
              cyc.edge_class(1, 0, 3), cyc.edge_class(2, 0, 3),
              cyc.edge_class(3, 0, 3), cyc.edge_class(0, 1, 2)]
    axis = [cyc.edge_class(0, 0, 1), cyc.edge_class(0, 2, 3)]
    alpha = {rep: -1 for rep in axis}
    alpha.update({rep: (-1) ** j for j, rep in enumerate(ladder)})
    res = z2_twist(lc, alpha)
    twist_ok = res.matches and res.class_bit == 1 \
        and certify_order(res.difference) == 2
    coboundary = {rep: 1 for rep in axis}
    coboundary.update({rep: -1 for rep in ladder})
    res0 = z2_twist(lc, coboundary)
    trivial_ok = res0.matches and res0.class_bit == 0 \
        and res0.difference.is_zero()
    verdict(8, twist_ok and trivial_ok)


def test_criterion_09_figure_eight():
    start = time.perf_counter()
    with open("tests/fixtures/figure_eight.json") as fh:
        inv = manifold_invariant(json.load(fh), 40)
    with mp.workdps(30):
        value_ok = abs(inv.imaginary_parts[0]
                       - mp.mpf("2.029883212819307250")) < mp.mpf(10) ** -8
    elapsed = time.perf_counter() - start
    verdict(9, inv.matches and value_ok and elapsed < 2)


def test_criterion_10_torsion_generator_change():
    u, v, w = quartic_data()
    b1, s1 = quartic_element()
    b2 = MultBasis(QUARTIC, [u], saturated=True, torsion_gen=w.inverse())
    s2 = change_torsion_generator(s1, b2)
    v1 = reg_vector(s1, 40)
    v2 = reg_vector(s2, 40)
    with mp.workdps(45):
        ok = s2.is_in_Bhat() and all(
            a.distance(b) < mp.mpf(10) ** -25 for a, b in zip(v1, v2))
    verdict(10, ok)
