"""Arbitrary-precision dilogarithm and the regulator of flattenings.

The dilogarithm uses the principal branch with cut along [1, oo), continuous
from below.  One series serves the whole plane: the expansion of
Li2(1 - e^-u) in u with Bernoulli coefficients, convergent for |u| < 2*pi.
It runs at u = -Log(1 - z) (direct), at u = -Log(1 - 1/z) behind the
inversion map or at u = -Log z behind the reflection map, whichever u is
smallest in floats; then |u| <= pi/3 (up to that rounding), the value at
z = e^(+-i*pi/3), where the three coincide.  The series is summed in fixed
point, on Python integers scaled by 2^W, W = prec + 20 bits, prec being
the working binary precision, in v = u/(2*pi).  It stops at the first
term below 2^-(prec + 10).

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


# W -> [d_j * 2^W, truncated, for j = 0, 1, ...], grown on demand, where
# d_j = B_(2j+2) * (2*pi)^(2j+3) / (2j+3)! is the coefficient of v^(2j+3)
# in v = u / (2*pi).  |d_j| is about 4*pi / (2j+3), so with |v| < 1 every
# term is within a unit or two of 2^-W.  (B_n / (n+1)! itself would not
# do: it shrinks like (2*pi)^-n while u^n grows, and a fixed-point term
# lost the digits the shrinking coefficient no longer carried.)
_BERNOULLI = {}


def _coefficients(w):
    """The d_j of `_BERNOULLI` at W = w bits, j = 0, 1, ..., w - 1; a
    series that needs more terms has |v| > 0.7 and raises."""
    table = _BERNOULLI.setdefault(w, [])
    for j in range(w):
        if j == len(table):
            n = 2 * j + 2
            with mp.workprec(w + 20):
                d = (mp.bernoulli(n) * (2 * mp.pi) ** (n + 1)
                     / mp.factorial(n + 1))
            table.append(to_fixed(d._mpf_, w))
        yield table[j]
    raise PrecisionExhausted("dilogarithm expansion did not converge")


def _li2_log_series(u):
    """Li2(1 - e^-u) = sum B_n u^(n+1) / (n+1)!, convergent for
    |u| < 2*pi; `_li2` calls it with |u| at most about pi/3.  B_1 = -1/2
    and B_n = 0 for odd n > 1, so the sum is u - u^2/4 + sum_j d_j v^(2j+3)
    with v = u / (2*pi), in integers scaled by 2^W; a real u keeps the
    imaginary half exactly 0.  The sum stops at the first term below
    2^-(prec + 10)."""
    w = mp.prec + 20
    small = 1 << 10   # 2^-(prec + 10) in units of 2^-w
    twopi = pi_fixed(w) << 1
    ur, ui = to_fixed(u.real._mpf_, w), to_fixed(u.imag._mpf_, w)
    vr, vi = (ur << w) // twopi, (ui << w) // twopi
    re = ur - ((ur * ur - ui * ui) >> w + 2)
    im = ui - (ur * ui >> w + 1)
    v2r, v2i = (vr * vr - vi * vi) >> w, vr * vi >> w - 1
    pr, pi = (v2r * vr - v2i * vi) >> w, (v2r * vi + v2i * vr) >> w
    for d in _coefficients(w):
        tr, ti = d * pr >> w, d * pi >> w
        re += tr
        im += ti
        if abs(tr) + abs(ti) < small:
            break
        pr, pi = (pr * v2r - pi * v2i) >> w, (pr * v2i + pi * v2r) >> w
    return _mpc((re, im, w))


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
