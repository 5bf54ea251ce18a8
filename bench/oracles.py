"""Reference values that extbloch does not compute.

Everything here uses plain integers, `fractions.Fraction` and mpmath
(`mpmath.polylog` for the dilogarithm, `mpmath.polyroots` for embeddings),
never the library under test.
"""
from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction

import mpmath
from mpmath import mp

# Base fields of the cli_fields workload with their invariants, checked
# offline with sympy (`to_number_field` on roots of unity and on 2cos(2pi/n))
# and stable under the rescaling x -> x/c, which does not change the field.
# m: order of the roots of unity; nu: largest nu with 2cos(2pi/p^nu) in F
# (primes not listed have nu = 0); aut: number of automorphisms.
BASE_FIELDS = {
    "Q": {"poly": [0, 1], "signature": [1, 0], "m": 2,
          "nu": {2: 2, 3: 1}, "aut": 1},
    "sqrt2": {"poly": [-2, 0, 1], "signature": [2, 0], "m": 2,
              "nu": {2: 3, 3: 1}, "aut": 2},
    "i": {"poly": [1, 0, 1], "signature": [0, 1], "m": 4,
          "nu": {2: 2, 3: 1}, "aut": 2},
    "sqrt-3": {"poly": [1, 1, 1], "signature": [0, 1], "m": 6,
               "nu": {2: 2, 3: 1}, "aut": 2},
    "quartic": {"poly": [1, -2, 2, -1, 1], "signature": [0, 2], "m": 6,
                "nu": {2: 2, 3: 1}, "aut": 4},
    "x4+1": {"poly": [1, 0, 0, 0, 1], "signature": [0, 2], "m": 8,
             "nu": {2: 3, 3: 1}, "aut": 4},
}


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def digits(diff, cap):
    """Decimal digits to which two numbers agree, given |a - b|; capped
    where they agree exactly."""
    if diff == 0:
        return float(cap)
    return float(min(cap, -mpmath.log10(diff)))


# -- exact general position ------------------------------------------------

def det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def flag_general_position(bases):
    """Every ordered basis is a basis, and every 3x3 determinant among the
    ten vectors a flag-boundary computation uses (the first two of each
    basis) is nonzero."""
    if any(det3(*b) == 0 for b in bases):
        return False
    used = [b[0] for b in bases] + [b[1] for b in bases]
    return all(det3(a, b, c) != 0
               for a, b, c in itertools.combinations(used, 3))


# -- S-units over {2, 3, 5} ------------------------------------------------

def s_unit_pairs(bound=6):
    """All pairs (x, y), x != y, with x, y, 1 - x, 1 - y and x - y all of
    the form +-2^a 3^b 5^c, |a|, |b|, |c| <= bound."""
    units = set()
    for a, b, c in itertools.product(range(-bound, bound + 1), repeat=3):
        q = Fraction(2) ** a * Fraction(3) ** b * Fraction(5) ** c
        units.update((q, -q))
    shifted = sorted(q for q in units if 1 - q in units)
    return [(x, y) for x in shifted for y in shifted
            if x != y and x - y in units]


# -- embeddings and the Bloch-Wigner function --------------------------------

def embeddings(poly, dps):
    """Roots of a rational polynomial (coefficients low to high) in the
    documented embedding order: real roots ascending, then one root per
    conjugate pair, the one with positive imaginary part, ordered by real
    then imaginary part.  Returns (roots, number of real roots)."""
    return _embeddings(tuple(Fraction(c) for c in poly), dps)


@functools.lru_cache(maxsize=None)
def _embeddings(poly, dps):
    with mp.workdps(2 * dps + 20):
        coeffs = [mp.mpf(c.numerator) / c.denominator for c in reversed(poly)]
        raw = mpmath.polyroots(coeffs, maxsteps=400, extraprec=4 * dps)
        tol = mp.mpf(10) ** (-dps)
        reals = sorted(mp.re(z) for z in raw if abs(mp.im(z)) < tol)
        upper = sorted((z for z in raw if mp.im(z) >= tol),
                       key=lambda z: (mp.re(z), mp.im(z)))
    return tuple(mp.mpc(r) for r in reals) + tuple(upper), len(reals)


def evaluate(coeffs, root):
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        c = Fraction(c)
        acc = acc * root + mp.mpf(c.numerator) / c.denominator
    return acc


def bloch_wigner(z):
    """D(z) = Im Li2(z) + arg(1 - z) log|z|, from mpmath.polylog."""
    z = mp.mpc(z)
    if mp.im(z) == 0:
        return mp.mpf(0)
    return mp.im(mpmath.polylog(2, z)) + mp.arg(1 - z) * mp.log(abs(z))


def figure_eight_volume(dps):
    """2 D(exp(i pi/3)), the value the figure-eight fixture must give."""
    with mp.workdps(dps):
        return 2 * bloch_wigner(mp.expjpi(mp.mpf(1) / 3))


def bloch_wigner_sums(poly, torsion_gen, gens, terms, dps):
    """The Bloch-Wigner sum of a combination of cross-ratios at each
    embedding; for an element of the extended Bloch group it equals the
    imaginary part of the regulator.  Real embeddings give 0.

    terms: (n, (k, [[j, r_j], ...]), complement) stands for n [z], or
    n [1 - z] when complement is true, with z = w^k prod g_j^r_j."""
    key = (tuple(poly), tuple(torsion_gen), tuple(map(tuple, gens)), dps)
    totals = [mp.mpf(0)] * len(embeddings(poly, dps)[0])
    with mp.workdps(dps + 10):
        for n, (k, pairs), complement in terms:
            values = _term_d(*key, k, tuple(map(tuple, pairs)), complement)
            totals = [t + n * v for t, v in zip(totals, values)]
    return totals


@functools.lru_cache(maxsize=None)
def _term_d(poly, torsion_gen, gens, dps, k, pairs, complement):
    roots, r1 = embeddings(poly, dps)
    out = [mp.mpf(0)] * r1
    with mp.workdps(dps + 10):
        for root in roots[r1:]:
            z = evaluate(torsion_gen, root) ** k
            for j, r in pairs:
                z *= evaluate(gens[j], root) ** r
            out.append(bloch_wigner(1 - z if complement else z))
    return out


# -- parsing CLI output ------------------------------------------------------

_COMPLEX = re.compile(r"^(\S+) ([+-]) (\S+)i$")
_TERM = re.compile(r"^(-?\d+)\*\[\[(.*)\]\]$")


def parse_complex(text):
    match = _COMPLEX.match(text)
    expect(match is not None, f"not a complex number: {text!r}")
    re_part, sign, im_part = match.groups()
    im = mp.mpf(im_part)
    return mp.mpc(mp.mpf(re_part), im if sign == "+" else -im)


def parse_generator(text):
    """'n*[[c0, c1, ...]] + ...' -> [(n, [Fraction, ...]), ...]."""
    out = []
    for term in text.split(" + "):
        match = _TERM.match(term.strip())
        expect(match is not None, f"not a generator term: {term!r}")
        n, body = match.groups()
        out.append((int(n), [Fraction(c.strip()) for c in body.split(",")]))
    return out


def distance_mod_4pi2(value):
    """Distance of a complex number to the lattice 4 pi^2 Z."""
    mod = 4 * mp.pi ** 2
    re_part = mp.re(value)
    return abs(mp.mpc(re_part - mp.nint(re_part / mod) * mod, mp.im(value)))
