"""Roots-of-unity torsion in the Bloch group of a number field.

Everything here runs inside the field itself.  The key quantity per prime p
is the largest exponent nu with 2*cos(2*pi/p^nu) in F.  Writing
c = 2*cos(2*pi/n) for n = p^nu, the sequences

    a_0 = 2,  a_1 = c,   a_{k+1} = c*a_k - a_{k-1}      (odd p)
    b_0 = -1, b_1 = 1,   b_{k+1} = c*b_k - b_{k-1}      (p = 2)

reproduce, without leaving F, the values x^k + x^-k and
(x^k - x^{-k+1})/(x - 1) for a root of unity x of order n.  The plain
torsion generators are the combinations of cross-ratios
z_k = a_{k+1}a_{k-1}/a_k^2 (resp. the b version), and the flattened
generators lift them over a symbolic log basis with one symbol per distinct
value, where the logs of v and -v are tied together by a half-unit.

For p = 2 the flattened generator is the half-sum over k = 1..n/2 plus an
explicit chi correction; the correction is what makes the wedge vanish and
the regulator land on pi^2/4-type values.  Orders are certified through the
regulator: each embedding's value is rounded once against torsion_bound.
Cosine membership is exact (field.element_in_field) and takes no precision.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from mpmath import mp

from .field import (NumberField, _primes, cos2pi_minpoly, element_in_field,
                    euler_phi, first_embedding_turn, is_prime,
                    prime_factors)
from .extgroup import SymbolicBasis
from .bloch import BlochSum, ExtBlochSum, edge_flattening
from .regulator import NotTorsion, reg_vector, torsion_order


class TorsionError(Exception):
    pass


class NotApplicable(TorsionError):
    pass


def two_cos(nf, n):
    """2*cos(2*pi/n) as an element of nf, or None if it does not lie there.

    None is an exact certificate (see field.element_in_field).  The
    element returned is the conjugate whose image at the first embedding
    is 2cos(2pi/n): if the root c found there is 2cos(2pi h/n), it is
    D_j(c) = 2cos(2pi hj/n) of the recurrence below, j = h^-1 mod n.
    Results are memoized on the field per n."""
    key = ("two_cos", n)
    if key not in nf.memo:
        c = element_in_field(cos2pi_minpoly(n), nf)
        if c is not None and not c.is_rational():
            h = first_embedding_turn(c, n, lambda z: mp.acos(mp.re(z) / 2))
            j = pow(h, -1, n)
            c = _recurrence(c, nf.rational(2), c, j + 1)[j]
        nf.memo[key] = c
    return nf.memo[key]


def nu_p(nf, p):
    """Largest nu with 2*cos(2*pi/p^nu) in the field.

    >>> nu_p(NumberField([-2, 0, 1]), 2)
    3
    """
    if not is_prime(p):
        raise TorsionError(f"{p} is not prime")
    nu = 0
    while True:
        n = p ** (nu + 1)
        if n > 2 and p ** nu * (p - 1) // 2 > nf.degree:  # phi(n) / 2
            return nu
        if two_cos(nf, n) is None:
            return nu
        nu += 1


@dataclass(frozen=True)
class TorsionProfile:
    """Per-prime tables, by ascending prime, of the cosine exponents and
    the reduced exponents nu'_p = nu_p - v_p(m), with the derived group
    order w = 2 * prod p^nu_p and m the order of the roots of unity of the
    field."""
    nu: dict
    nu_prime: dict
    w: int
    m: int


def cosine_exponents(nf):
    """{p: nu_p} for every prime that could contribute (p - 1 <= 2*degree,
    and at least 2, 3 and 5), ascending."""
    bound = max(5, 2 * nf.degree + 1)
    return {p: nu_p(nf, p)
            for p in itertools.takewhile(lambda q: q <= bound, _primes())}


def torsion_profile(nf):
    """The cosine exponents, plus w and the reduced exponents."""
    m = nf.torsion[0]
    nu = cosine_exponents(nf)
    w = 2 * math.prod(p ** v for p, v in nu.items())
    v_m = Counter(prime_factors(m))
    nu_prime = {p: v - v_m[p] for p, v in nu.items()}
    return TorsionProfile(nu=nu, nu_prime=nu_prime, w=w, m=m)


def _recurrence(c, first, second, length):
    """The first `length` (at least 2) terms of s_{k+1} = c*s_k - s_{k-1}
    from s_0 = first, s_1 = second."""
    seq = [first, second]
    while len(seq) < length:
        seq.append(c * seq[-1] - seq[-2])
    return seq


def _cosine_sequence(nf, p):
    """(c, seq, span) for the largest power n = p^nu with c = 2cos(2pi/n)
    in nf: the b-sequence up to b_{n/2+1} (p = 2) or the a-sequence up to
    a_{n+1} (odd p), and the indices k of the generator's terms."""
    nu = nu_p(nf, p)
    if nu == 0:
        raise NotApplicable(f"no p-power cosines beyond nu = 0 for p = {p}")
    n = p ** nu
    c = two_cos(nf, n)
    if p == 2:
        seq = _recurrence(c, nf.rational(-1), nf.rational(1), n // 2 + 2)
        return c, seq, range(1, n // 2 + 1)
    return c, _recurrence(c, nf.rational(2), c, n + 2), range(1, n + 1)


def beta_p(nf, p):
    """The in-field torsion generator of the plain Bloch group at p, the sum of
    z_k = s_{k+1} s_{k-1} / s_k^2, none 0 or 1: for x of order n = p^nu,
    s_k = 0 needs x^(2k) = -1 (n odd) or x^(2k-1) = 1 (n even), and
    s_{k+1} s_{k-1} - s_k^2, c^2 - 4 (odd p) or -(c + 2) (p = 2) at every k,
    vanishes only for n <= 2.

    >>> beta_p(NumberField([0, 1]), 3).terms[0][0]
    2
    """
    _, seq, span = _cosine_sequence(nf, p)
    return BlochSum(nf, [(1, seq[k + 1] * seq[k - 1] / seq[k] ** 2)
                         for k in span])


def flattened_torsion(nf, p):
    """The flattened torsion generator over a fresh symbolic log basis.

    Term k is the `edge_flattening` of the log symbols of the labels of a
    cyclic simplex: 01 is 1 (p = 2) or 2 - c (odd p), 23 is c + 2, 02 and 13
    are s_k, 03 is s_{k+1} and 12 is s_{k-1}; k = 1..n for odd p.  For p = 2 it
    is the half-range sum over k = 1..n/2 plus the chi part l(c+2) + half;
    without that correction the wedge of the half-sum does not vanish.  The
    wedge is verified before returning.
    """
    c, seq, span = _cosine_sequence(nf, p)
    basis = SymbolicBasis(nf)
    lifts = [basis.symbol(v) for v in seq]
    a_plus = basis.symbol(c + nf.rational(2))
    c01 = basis.symbol(nf.one if p == 2 else nf.rational(2) - c)
    chi_part = a_plus + basis.element(1) if p == 2 else None
    terms = [(1, edge_flattening({(0, 1): c01, (0, 2): lifts[k],
                                  (0, 3): lifts[k + 1], (1, 2): lifts[k - 1],
                                  (1, 3): lifts[k], (2, 3): a_plus}))
             for k in span]
    out = ExtBlochSum(basis, terms, chi_part)
    if not out.is_in_Bhat():
        raise TorsionError("flattened generator has nonzero wedge")
    return out


def torsion_bound(d):
    """2 * lcm{n : phi(n) <= 2d}: the torsion order w of every field of
    degree d divides it, as each p^nu | w / 2 has 2*cos(2*pi/p^nu) in the
    field, so phi(p^nu) <= 2d; and phi(n) >= sqrt(n / 2) bounds the range.

    >>> [torsion_bound(d) for d in (1, 2, 4)]
    [24, 240, 10080]
    """
    return 2 * math.lcm(*(n for n in range(1, 8 * d * d + 1)
                          if euler_phi(n) <= 2 * d))


def certify_order(s, precision=50):
    """Certified order of a torsion element: the lcm over all embeddings of
    the order of its regulator value in C/4pi^2 (`torsion_order` against
    `torsion_bound`)."""
    w = torsion_bound(s.basis.field.degree)
    orders = []
    for v in reg_vector(s, precision):
        k = torsion_order(v, w)
        if k is None:
            raise NotTorsion("a regulator value is not a multiple of "
                             f"4*pi^2/{w}")
        orders.append(k)
    return math.lcm(*orders)
