"""Arbitrary-precision dilogarithm and the regulator of flattenings.

The dilogarithm uses the principal branch with cut along [1, oo), continuous
from below.  One series serves the whole plane: the expansion of
Li2(1 - e^-u) in u with Bernoulli coefficients, convergent for |u| < 2*pi.
For |z| >= 2 it runs at u = -Log(1 - 1/z) behind the inversion map, for
|1 - z| <= 1/2 at u = -Log z behind the reflection map, and elsewhere at
u = -Log(1 - z); every such u has |u| <= sqrt(log(3)^2 + pi^2) < 3.33.  The
series stops at the first term below 2^-(prec + 10), prec being the working
binary precision.

The regulator of a flattening with logarithm values (w0, w1) over the
cross-ratio z is

    Li2(z) + (1/2) * w0 * (Log(1-z) - 2*q*pi*i) - pi^2/6,

where w1 = Log(1-z) + 2*q*pi*i; it is well defined modulo 4*pi^2.  The
canonical representative has real part in [0, 4*pi^2); the symmetric range
[-2*pi^2, 2*pi^2) is available for display.  A pure chi part contributes
-pi*i times k_unit times its logarithm value.
"""
from __future__ import annotations

from fractions import Fraction

from mpmath import mp

from .field import (PrecisionExhausted, is_small, nearest_integer,
                    tolerance as _tolerance, working)
from .extgroup import cover_to_C


class RegulatorError(Exception):
    pass


class LiftInconsistent(RegulatorError):
    pass


class RealSlotNotReal(RegulatorError):
    pass


class NotTorsion(RegulatorError):
    pass


# binary precision -> [B_2j / (2j+1)! for j = 1, 2, ...], grown on demand
_BERNOULLI = {}


def _li2_log_series(u):
    """Li2(1 - e^-u) as sum B_n u^(n+1) / (n+1)!, convergent for
    |u| < 2*pi; `_li2` calls it with |u| <= 3.33.  B_1 = -1/2 and B_n = 0
    for odd n > 1, so after u - u^2/4 the terms step through even n in
    u^2, with coefficients from a table per precision.  The sum stops at
    the first term below 2^-(prec + 10), an exponent test that needs no
    complex absolute value."""
    u2 = u * u
    coeffs = _BERNOULLI.setdefault(mp.prec, [])
    acc = u - u2 / 4
    upow = u
    j = 0
    while True:
        if j == len(coeffs):
            n = 2 * j + 2
            coeffs.append(mp.bernoulli(n) / mp.factorial(n + 1))
        upow *= u2
        term = coeffs[j] * upow
        acc += term
        j += 1
        if mp.mag(term) < -mp.prec - 10:
            return acc
        if j > 50 * mp.dps + 500:  # pragma: no cover
            raise PrecisionExhausted("dilogarithm expansion did not converge")


def _li2(z):
    """Principal-branch dilogarithm at the working precision, unrounded."""
    z = mp.mpc(z)
    if z == 0:
        return mp.mpc(0)
    if z == 1:
        return mp.mpc(mp.pi ** 2 / 6)
    if abs(z) >= 2:
        # inversion; the principal logarithm of -z also gives the limit
        # from below on the cut [1, oo)
        return (-_li2_log_series(-mp.log(1 - 1 / z)) - mp.pi ** 2 / 6
                - mp.log(-z) ** 2 / 2)
    if abs(1 - z) <= mp.mpf("0.5"):
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
        out = _li2(z)
        with mp.workdps(precision):
            return +out


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


def reg_flattening(fl, lift):
    """Regulator of one flattening under a covering at one embedding."""
    prec = lift.ctx.precision
    with working(prec):
        w0 = lift.lift(fl.e)
        w1 = lift.lift(fl.f)
        z = lift.ctx.evaluate(fl.z)
        logz = mp.log(z)
        log1z = mp.log(1 - z)
        twopii = 2j * mp.pi
        # w0 = Log z + 2*p*pi*i and w1 = Log(1-z) + 2*q*pi*i; only q enters
        q = nearest_integer((w1 - log1z) / twopii, prec)
        if q is None or nearest_integer((w0 - logz) / twopii, prec) is None:
            raise LiftInconsistent("lift values do not exponentiate to the "
                                   "cross-ratio and its complement")
        val = li2(z, prec) + w0 * (log1z - q * twopii) / 2 - mp.pi ** 2 / 6
        return RegulatorValue(+val, prec)


def reg_sum(s, lift):
    """Regulator of a normalized combination: term regulators plus the chi
    contribution -pi*i * k_unit * lift(chi_part)."""
    prec = lift.ctx.precision
    with working(prec):
        acc = mp.mpc(0)
        for n, fl in s.terms:
            acc += n * reg_flattening(fl, lift).value
        if not s.chi_part.is_zero():
            acc += -1j * mp.pi * lift.k_unit * lift.lift(s.chi_part)
        return RegulatorValue(+acc, prec)


def reg_vector(s, precision=50, tolerance=None):
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
                if not is_small(mp.im(val.value), precision, tolerance):
                    raise RealSlotNotReal(
                        "regulator at a real embedding has imaginary part "
                        f"{mp.im(val.value)}")
                out.append(RegulatorValue(mp.re(val.value), precision))
            else:
                out.append(val)
    return out


TORSION_MAX_DEN = 10 ** 4   # the largest order `torsion_order` reconstructs


def torsion_order(v, tolerance=None):
    """Order of a regulator value as a torsion point of C/4pi^2: rational
    reconstruction of value / 4pi^2 by continued fractions on an exact
    dyadic snapshot.  Returns the denominator, or None when no
    reconstruction fits the default tolerance of the precision.  A fit
    within the default tolerance but not within a finer `tolerance` raises
    PrecisionExhausted, naming both."""
    prec = v.precision
    with working(prec):
        x = mp.re(v.value) / (4 * mp.pi ** 2)
        snap = Fraction(int(mp.nint(mp.ldexp(x, mp.prec))), 1 << mp.prec)
        frac = snap.limit_denominator(TORSION_MAX_DEN)
        for what, r in (("imaginary part", mp.im(v.value)),
                        ("reconstruction residual",
                         x - mp.mpf(frac.numerator) / frac.denominator)):
            if not is_small(r, prec, tolerance):
                if not is_small(r, prec):
                    return None
                raise PrecisionExhausted(
                    f"torsion order: {what} {mp.nstr(abs(r), 3)} passes the "
                    f"tolerance {mp.nstr(_tolerance(prec), 3)} of {prec} "
                    f"digits but not the requested {mp.nstr(tolerance, 3)}")
        return frac.denominator
