"""Arbitrary-precision dilogarithm and the regulator of flattenings.

The dilogarithm uses the principal branch with cut along [1, oo), continuous
from below.  One series serves the whole plane: the expansion of
Li2(1 - e^-u) in u with Bernoulli coefficients, convergent for |u| < 2*pi.
It runs at u = -Log(1 - z) (direct), at u = -Log(1 - 1/z) behind the
inversion map or at u = -Log z behind the reflection map, whichever u is
smallest in floats; then |u| <= pi/3 (up to that rounding), the value at
z = e^(+-i*pi/3), where the three coincide.  The series is summed in fixed
point, on Python integers scaled by 2^W, W = prec + 20 bits, prec being
the working binary precision, in v = u/(2*pi), c = v^2.  The number of
terms n is fixed before summing: the least n whose tail bound
7 * |v|^(2n+3) / (1 - |v|^2) is below 2^-(prec + 10), with |v| rounded up,
since the j-th coefficient has modulus 4*pi*zeta(2j+2) / (2j+3) < 7; an n
above W raises PrecisionExhausted.  The n terms are summed by Horner's
rule over the real quadratic x^2 - 2*Re(c)*x + |c|^2, two real products
per term (one for a real u), and multiplied once by v^3.  Error budget:
the tail bound, plus the truncation units of 2^-W: each step adds at most
2 units, and an error made at step k grows by at most (k+1)*|c|^k, at
most 2 / (1 - |c|)^2 units in all; rounding v, c and the product by v^3
adds a few units more.

The regulator of a flattening with logarithm values (w0, w1) over the
cross-ratio z is

    Li2(z) + (1/2) * w0 * (Log(1-z) - 2*q*pi*i) - pi^2/6,

where w1 = Log(1-z) + 2*q*pi*i; it is well defined modulo 4*pi^2.  The
canonical representative has real part in [0, 4*pi^2); the symmetric range
[-2*pi^2, 2*pi^2) is available for display.  A pure chi part contributes
-pi*i times k_unit times its logarithm value.

The regulator pass works on mpmath's integer-mantissa numbers through
libmp.  `reg_vector` enters one working context; `reg_flattening` and
`reg_sum` enter none and round each step to `working_bits`, as that
context would.  Per flattening, z and 1 - z come from
`EmbeddingContext.evaluate` (1 - z from its coordinates, so that a z next
to 1 keeps its digits), the lifts w0 and w1 from `LogLift.lift` and the
covering from `cover_to_C`, which keeps it on the basis; Log z and
Log(1 - z) are taken once each, and p and q are decided by `nearest_turn`
on integers, without the quotient by 2*pi*i.  Each flattening calls the
module's `li2` once.
"""
from __future__ import annotations

import cmath
import functools
import math

from mpmath import mp
from mpmath.libmp import (dps_to_prec, from_int, fzero, mpc_add,
                          mpc_div_mpf, mpc_log, mpc_mul, mpc_mul_int,
                          mpc_pos, mpc_sub, mpc_sub_mpf, mpf_div, mpf_neg,
                          mpf_pi, mpf_pow_int, mpf_shift, pi_fixed,
                          round_nearest, to_fixed)

from .field import (PrecisionExhausted, _mpc, is_small, nearest_turn,
                    working, working_bits)
from .extgroup import cover_to_C


class RegulatorError(Exception):
    pass


class LiftInconsistent(RegulatorError):
    pass


class RealSlotNotReal(RegulatorError):
    pass


class NotTorsion(RegulatorError):
    pass


# W -> [d_j * 2^W, truncated, for j = 0, 1, ...], where d_j =
# B_(2j+2) * (2*pi)^(2j+3) / (2j+3)! = +-4*pi*zeta(2j+2) / (2j+3) is the
# coefficient of v^(2j+3) in v = u / (2*pi).  (B_n / (n+1)! itself would
# not do: it shrinks like (2*pi)^-n while u^n grows, and a fixed-point term
# lost the digits the shrinking coefficient no longer carried.)  |d_j| < 7,
# so the terms after the first n sum to less than 7 * |v|^(2n+3) /
# (1 - |v|^2), and the series takes the least n that puts this below
# 2^-(prec + 10) (`_term_count`).  Each list grows to the largest n asked
# of it.  A truncated d_j is one of the at most 2 units of 2^-W that a
# Horner step adds; an error made at step k grows by at most (k+1) * |c|^k,
# c = v^2, so the sum's truncation error stays below 2 / (1 - |c|)^2 units.
_BERNOULLI = {}


def _coefficients(w, n):
    """The first n d_j of `_BERNOULLI` at W = w bits, each made once.  More
    than w terms means |v| above about 1/sqrt(2), where a term gains about
    a bit or less: that raises before any coefficient is made."""
    if n > w:
        raise PrecisionExhausted("dilogarithm expansion did not converge")
    table = _BERNOULLI.setdefault(w, [])
    for j in range(len(table), n):
        k = 2 * j + 2
        with mp.workprec(w + 20):
            d = mp.bernoulli(k) * (2 * mp.pi) ** (k + 1) / mp.factorial(k + 1)
        table.append(to_fixed(d._mpf_, w))
    return table[:n]


def _term_count(c, prec):
    """The least n >= 0 with 7 * c^(n + 3/2) / (1 - c) < 2^-(prec + 10),
    solved in floats; for c >= |v|^2 that bounds the tail of the series
    after n terms, since |d_j| < 7.  Infinite for c >= 1."""
    if c >= 1:
        return math.inf
    lc = math.log2(c)
    return max(0, math.floor((prec + 10 + math.log2(7 / (1 - c)) + 1.5 * lc)
                             / -lc) + 1)


def _li2_log_series(u):
    """Li2(1 - e^-u) = sum B_n u^(n+1) / (n+1)!, convergent for
    |u| < 2*pi; `_li2` calls it with |u| at most about pi/3.  B_1 = -1/2
    and B_n = 0 for odd n > 1, so the sum is u - u^2/4 + v^3 * p(v^2) with
    p(c) = sum_(j < n) d_j c^j and v = u / (2*pi), in integers scaled by
    2^W.  n comes from `_term_count` at |v|^2 rounded up.  p(c) runs by
    Horner's rule over the real quadratic x^2 - t*x + s that c and its
    conjugate solve, b_j = d_j + t*b_(j+1) - s*b_(j+2), which leaves
    p(c) = b_0 - b_1 * conj(c); a real v takes plain Horner, so a real u
    keeps the imaginary half exactly 0."""
    w = mp.prec + 20
    twopi = pi_fixed(w) << 1
    ur, ui = to_fixed(u.real._mpf_, w), to_fixed(u.imag._mpf_, w)
    vr, vi = (ur << w) // twopi, (ui << w) // twopi
    re = ur - ((ur * ur - ui * ui) >> w + 2)
    im = ui - (ur * ui >> w + 1)
    # a quotient of Python integers is correctly rounded; step it up
    n = _term_count(math.nextafter((vr * vr + vi * vi) / (1 << 2 * w),
                                   math.inf), mp.prec)
    coefficients = reversed(_coefficients(w, n))
    if not vi:
        c = vr * vr >> w
        b = 0
        for d in coefficients:
            b = d + (b * c >> w)
        return _mpc((re + ((b * c >> w) * vr >> w), im, w))
    cr, ci = (vr * vr - vi * vi) >> w, vr * vi >> w - 1
    t, s = cr << 1, (cr * cr + ci * ci) >> w
    b0 = b1 = 0
    for d in coefficients:
        b0, b1 = d + ((t * b0 - s * b1) >> w), b0
    pr, pi = b0 - (b1 * cr >> w), b1 * ci >> w
    v3r, v3i = (cr * vr - ci * vi) >> w, (cr * vi + ci * vr) >> w
    return _mpc((re + ((pr * v3r - pi * v3i) >> w),
                 im + ((pr * v3i + pi * v3r) >> w), w))


def _series_map(z):
    """The map whose series argument u is smallest, judged in floats: 0 for
    u = -Log(1 - z), 1 for the inversion u = -Log(1 - 1/z), 2 for the
    reflection u = -Log z.  For |z| >= 8 that is always the inversion and
    for |z| <= 1/8 the direct map, so the floats that decide never overflow.
    """
    zf = complex(z)
    if abs(zf) >= 8:
        return 1
    if abs(zf) <= 0.125:
        return 0
    if zf == 1:
        return 2
    sizes = (abs(cmath.log(1 - zf)), abs(cmath.log(1 - 1 / zf)),
             abs(cmath.log(zf)))
    return sizes.index(min(sizes))


def _li2(z):
    """Principal-branch dilogarithm at the working precision, unrounded."""
    z = mp.mpc(z)
    if z == 0:
        return mp.mpc(0)
    if z == 1:
        return mp.mpc(mp.pi ** 2 / 6)
    way = _series_map(z)
    if way == 1:
        # inversion; the principal logarithm of -z also gives the limit
        # from below on the cut [1, oo).  Never taken for 0 < z < 1, where
        # it would not: there |u| >= pi, and another map has |u| < 0.7
        return (-_li2_log_series(-mp.log(1 - 1 / z)) - mp.pi ** 2 / 6
                - mp.log(-z) ** 2 / 2)
    if way == 2:
        # reflection; Li2(1 - z) is the series at u = -Log z
        logz = mp.log(z)
        return (mp.pi ** 2 / 6 - logz * mp.log(1 - z)
                - _li2_log_series(-logz))
    return _li2_log_series(-mp.log(1 - z))


def li2(z, precision=50):
    """Principal-branch dilogarithm, rounded to `precision` significant
    digits.  Its error is about 10^-precision * max(1, |Li2(z)|): relative
    for large values, absolute near z = 0, where 1 - z is rounded.

    >>> from mpmath import mp
    >>> with mp.workdps(30):
    ...     abs(li2(1, 30) - mp.pi**2/6) < 1e-29
    True
    """
    with working(precision):
        out = _li2(z)._mpc_
    return mp.make_mpc(mpc_pos(out, dps_to_prec(precision), round_nearest))


def bloch_wigner(z, precision=50):
    """The single-valued imaginary-part combination
    D(z) = Im Li2(z) + arg(1-z) * log|z|; zero on the reals."""
    with working(precision):
        z = mp.mpc(z)
        if z == 0 or z == 1 or mp.im(z) == 0:
            return mp.mpf(0)
        out = mp.im(_li2(z)) + mp.arg(1 - z) * mp.log(abs(z))
        with mp.workdps(precision):
            return +out


class RegulatorValue:
    """A complex value well defined modulo 4*pi^2 (a real lattice)."""

    def __init__(self, value, precision):
        self.value = value
        self.precision = precision

    def _reduced(self, shift):
        """Representative with real part in [-shift, 1 - shift) * 4*pi^2."""
        with working(self.precision):
            mod = 4 * mp.pi ** 2
            re = mp.re(self.value)
            re -= mp.floor(re / mod + shift) * mod
            return +mp.mpc(re, mp.im(self.value))

    def canonical(self):
        """Representative with real part in [0, 4*pi^2)."""
        return self._reduced(0)

    def symmetric(self):
        """Representative with real part in [-2*pi^2, 2*pi^2)."""
        return self._reduced(mp.mpf("0.5"))

    def distance(self, other):
        """Distance to another value (or plain complex) modulo 4*pi^2."""
        o = other.value if isinstance(other, RegulatorValue) else other
        with working(self.precision):
            d = RegulatorValue(self.value - o, self.precision)
            return abs(d.symmetric())

    def __repr__(self):
        return f"RegulatorValue({self.symmetric()})"


@functools.cache
def _constants(wp):
    """2*pi*i, -pi*i and pi^2/6 at wp bits, as a context of that precision
    makes them from mp.pi."""
    pi = mpf_pi(wp, round_nearest)
    return ((fzero, mpf_shift(pi, 1)), (fzero, mpf_neg(pi)),
            mpf_div(mpf_pow_int(pi, 2, wp, round_nearest), from_int(6), wp,
                    round_nearest))


def reg_flattening(fl, lift):
    """Regulator of one flattening under a covering at one embedding:
    li2(z) + w0 * (Log(1-z) - q * 2*pi*i) / 2 - pi^2/6 in libmp, each step
    rounded to the working precision."""
    ctx = lift.ctx
    prec = ctx.precision
    wp = working_bits(prec)
    w0 = lift.lift(fl.e)._mpc_
    w1 = lift.lift(fl.f)._mpc_
    z = ctx.evaluate(fl.z)
    logz = mpc_log(z._mpc_, wp, round_nearest)
    log1z = mpc_log(ctx.evaluate(ctx.field.one - fl.z)._mpc_, wp,
                    round_nearest)
    # w0 = Log z + 2*p*pi*i and w1 = Log(1-z) + 2*q*pi*i; only q enters
    q = nearest_turn(w1, log1z, prec)
    if q is None or nearest_turn(w0, logz, prec) is None:
        raise LiftInconsistent("lift values do not exponentiate to the "
                               "cross-ratio and its complement")
    twopii, _, zeta2 = _constants(wp)
    val = mpc_sub(log1z, mpc_mul_int(twopii, q, wp, round_nearest), wp,
                  round_nearest)
    val = mpc_div_mpf(mpc_mul(w0, val, wp, round_nearest), from_int(2), wp,
                      round_nearest)
    val = mpc_add(li2(z, prec)._mpc_, val, wp, round_nearest)
    return RegulatorValue(mp.make_mpc(mpc_sub_mpf(val, zeta2, wp,
                                                  round_nearest)), prec)


def reg_sum(s, lift):
    """Regulator of a normalized combination: term regulators plus the chi
    contribution -pi*i * k_unit * lift(chi_part), summed in libmp at the
    working precision."""
    prec = lift.ctx.precision
    wp = working_bits(prec)
    acc = (fzero, fzero)
    for n, fl in s.terms:
        term = mpc_mul_int(reg_flattening(fl, lift).value._mpc_, n, wp,
                           round_nearest)
        acc = mpc_add(acc, term, wp, round_nearest)
    if not s.chi_part.is_zero():
        chi = mpc_mul_int(_constants(wp)[1], lift.k_unit, wp, round_nearest)
        chi = mpc_mul(chi, lift.lift(s.chi_part)._mpc_, wp, round_nearest)
        acc = mpc_add(acc, chi, wp, round_nearest)
    return RegulatorValue(mp.make_mpc(acc), prec)


def reg_vector(s, precision=50):
    """One regulator value per real embedding (real part; the imaginary part
    must vanish) and per conjugate-pair representative."""
    basis = s.basis
    field = basis.field
    out = []
    with working(precision):
        for ctx in field.embeddings(precision):
            lift = cover_to_C(basis, ctx)
            val = reg_sum(s, lift)
            if ctx.is_real:
                if not is_small(mp.im(val.value), precision):
                    raise RealSlotNotReal(
                        "regulator at a real embedding has imaginary part "
                        f"{mp.im(val.value)}")
                out.append(RegulatorValue(mp.re(val.value), precision))
            else:
                out.append(val)
    return out


def torsion_order(v, w):
    """Order of a regulator value v as a torsion point of C/4pi^2 whose
    order divides w: w / gcd(w, a) for a = nint(w * Re v / 4pi^2), or None
    unless Im v and the rounding residual pass `is_small` at the precision
    of v.

    Acceptance is a vanishing decision, not a rounding: (x - a)/w is the
    distance of v to the lattice point 4pi^2 a/w, and `mp.nint` only picks
    that point.  `nearest_integer` would loosen it: at precision 50 and
    w = 24 its bound on |x - a| is 1e-25 instead of 2.4e-39, and rounding
    the complex value would accept an imaginary part of 1e-25 at
    precision 40, which test_torsion_order_reconstruction refuses."""
    prec = v.precision
    with working(prec):
        x = w * mp.re(v.value) / (4 * mp.pi ** 2)
        a = int(mp.nint(x))
        if not (is_small(mp.im(v.value), prec)
                and is_small((x - a) / w, prec)):
            return None
        return w // math.gcd(w, a)
