"""Integer-coordinate model of a central Z-extension E of the multiplicative
group of a number field.

E is generated by a lift of the torsion generator w (of order m) together
with lifts of declared free generators p_1, ..., p_r.  An element is a pair
(k, r): k the coefficient of the lifted torsion generator, r a sparse integer
exponent vector over the free generators.  The distinguished central element
1 is (m, 0) and its half is (m/2, 0) (m is even for a number field).

Two basis flavours share this coordinate model:

* MultBasis -- a fixed, multiplicatively independent generator list; elements
  of the subgroup of F* it spans can be lifted back to coordinates.
* SymbolicBasis -- a growable list of formal log symbols keyed by exact field
  values, with -1 in the torsion slot (m = 2); used where no global
  factorization of the occurring values is available.

Deciding that a formal sum of wedges e_i /\\ f_i vanishes in the exterior
square of E reduces, over a saturated basis of a number field, to two checks
in coordinates: every diagonal coefficient sum must be even and every
antisymmetrized off-diagonal sum must vanish.  (The general decision
procedure has two further conditions tied to torsion and 2-divisibility of
the distinguished generator; both degenerate here because E is torsion-free,
m is even so the torsion lift is not 2-divisible, and saturation excludes
2-divisible free generators.)
"""
from __future__ import annotations

import functools
import math
import warnings

from mpmath import mp
from mpmath.libmp import mpc_add, mpc_mul_int, round_nearest

from .field import (READ_DIGITS, FieldElement, FieldError, PrecisionExhausted,
                    _peval, cyclotomic, is_small, nearest_integer, working,
                    working_bits)


class ExtGroupError(Exception):
    pass


class NotInSubgroup(ExtGroupError):
    pass


class UnsaturatedBasis(UserWarning):
    """A zero/nonzero verdict is only basis-relative: the generator list was
    not asserted to be saturated."""


class ExtElement:
    """(k, r)-coordinates of an element of E over a declared basis."""

    __slots__ = ("basis", "k", "r")

    def __init__(self, basis, k, r=()):
        self.basis = basis
        self.k = int(k)
        if isinstance(r, dict):
            items = r.items()
        else:
            items = r
        self.r = tuple(sorted((j, int(e)) for j, e in items if e != 0))

    def coord(self, j):
        """Coordinate at free generator j; j = -1 addresses the torsion slot."""
        if j == -1:
            return self.k
        return dict(self.r).get(j, 0)

    def coords(self):
        """All coordinates as a dict keyed by generator index, torsion at -1."""
        return {-1: self.k, **dict(self.r)}

    def __add__(self, other):
        if not isinstance(other, ExtElement) or other.basis is not self.basis:
            return NotImplemented
        r = dict(self.r)
        for j, e in other.r:
            r[j] = r.get(j, 0) + e
        return ExtElement(self.basis, self.k + other.k, r)

    def __sub__(self, other):
        if not isinstance(other, ExtElement) or other.basis is not self.basis:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ExtElement(self.basis, -self.k, {j: -e for j, e in self.r})

    def __mul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return ExtElement(self.basis, n * self.k, {j: n * e for j, e in self.r})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, ExtElement) and other.basis is self.basis
                and self.k == other.k and self.r == other.r)

    def __hash__(self):
        return hash((id(self.basis), self.k, self.r))

    def is_zero(self):
        return self.k == 0 and not self.r

    def sort_key(self):
        return (self.k, self.r)

    def __repr__(self):
        parts = [f"{self.k}*T"] if self.k else []
        for j, e in self.r:
            parts.append(f"{e}*g{j}")
        return "E(" + (" + ".join(parts) if parts else "0") + ")"

    def pi(self):
        return self.basis.pi(self)


class _BasisCommon:
    def element(self, k, r=()):
        return ExtElement(self, k, r)

    def iota(self, n=1):
        """The central element n in E: n times (m, 0)."""
        return ExtElement(self, n * self.m)

    def half(self):
        """The element 1/2; exists because m is even."""
        return ExtElement(self, self.m // 2)

    @functools.cached_property
    def _torsion_powers(self):
        """w^0, ..., w^(m-1) for the torsion generator w, built on first
        use."""
        powers = [self.field.one]
        for _ in range(self.m - 1):
            powers.append(powers[-1] * self.torsion_gen)
        return powers

    @functools.cached_property
    def _coverings(self):
        """The principal coverings made by `cover_to_C`, keyed by (root
        index, precision)."""
        return {}

    def torsion_log(self, x):
        """The k in [0, m) with w^k = x for the torsion generator w, or None
        if x is not a power of w."""
        try:
            return self._torsion_powers.index(x)
        except ValueError:
            return None

    def pi(self, e):
        out = self._torsion_powers[e.k % self.m]
        for j, exp in e.r:
            out = out * self.gen_value(j) ** exp
        return out

    def log_lift(self, z):
        """Coordinates of a field element: a MultBasis only."""
        raise ExtGroupError(f"a {type(self).__name__} does not lift field "
                            "elements to coordinates")

    def fstar_wedge_is_zero(self, terms):
        """The wedge decision over F*: a MultBasis only."""
        raise ExtGroupError(f"a {type(self).__name__} does not decide "
                            "wedges over F*")

    def wedge_is_zero(self, terms):
        """Decide whether sum n_i * (e_i /\\ f_i) vanishes in the exterior
        square of E, treating the torsion lift and the free generator lifts
        as a free basis.  terms: iterable of (n, ExtElement, ExtElement)."""
        return self._caveat(_wedge_vanishes(terms, 0), "nonzero wedge")

    def _caveat(self, verdict, what):
        """Pass a verdict through, warning the caller of the public method
        that a negative one only holds relative to an unsaturated basis."""
        if not verdict and not self.saturated:
            warnings.warn(f"{what} verdict over an unsaturated basis",
                          UnsaturatedBasis, stacklevel=3)
        return verdict


def _wedge_vanishes(terms, torsion_modulus):
    """Whether sum n * (e /\\ f) over (n, e, f) in terms vanishes, in the
    coordinates of ExtElement.coords (torsion slot at -1): every diagonal
    sum is even, every free/free antisymmetrized sum is 0, and every
    torsion/free sum is 0 when torsion_modulus is 0 (the torsion lift is
    free, as in E) and divisible by it otherwise (the torsion generator has
    that order, as in F*)."""
    rows = [(n, e.coords(), f.coords()) for n, e, f in terms]
    keys = sorted({j for _, ce, cf in rows for j in (*ce, *cf)})
    for i, a in enumerate(keys):
        if sum(n * ce.get(a, 0) * cf.get(a, 0) for n, ce, cf in rows) % 2:
            return False
        for b in keys[i + 1:]:
            off = sum(n * (ce.get(a, 0) * cf.get(b, 0)
                           - ce.get(b, 0) * cf.get(a, 0))
                      for n, ce, cf in rows)
            if off % torsion_modulus if a == -1 and torsion_modulus else off:
                return False
    return True


class MultBasis(_BasisCommon):
    """Torsion generator plus a fixed list of multiplicatively independent
    free generators of a subgroup of F*.  Over a number field `log_lift`
    reads exponents from log moduli, so theirs must have full rank.  A
    supplied torsion generator w is certified by Phi_m(w) = 0."""

    def __init__(self, field, free_gens, saturated=False, torsion_gen=None):
        self.field = field
        self.free_gens = list(free_gens)
        supplied = [] if torsion_gen is None else [torsion_gen]
        if not all(isinstance(g, FieldElement) and g.field == field
                   for g in self.free_gens + supplied):
            raise ExtGroupError("generators must be elements of the field")
        self.m, self.torsion_gen = field.torsion
        if torsion_gen is not None:
            # any primitive generator of the roots of unity may serve
            if not _peval(cyclotomic(self.m), torsion_gen,
                          field.zero).is_zero():
                raise ExtGroupError("supplied torsion generator does not "
                                    f"have exact order {self.m}")
            self.torsion_gen = torsion_gen
        self.saturated = bool(saturated)
        for p in self.free_gens:
            if p.is_zero():
                raise ExtGroupError("free generator is zero")
            if (p ** self.m).is_one():
                raise ExtGroupError("free generator is a root of unity")
        if field.degree == 1:
            # pairwise coprime integers > 1 are multiplicatively
            # independent; this also matches the exact lifting path
            vals = [p.as_fraction() for p in self.free_gens]
            if any(v.denominator != 1 or v <= 1 for v in vals):
                raise ExtGroupError("rational basis values must be "
                                    "integers greater than one")
            if any(math.gcd(int(a), int(b)) != 1
                   for i, a in enumerate(vals) for b in vals[i + 1:]):
                raise ExtGroupError("rational basis values must be "
                                    "pairwise coprime")
        else:
            self._least_squares = self._least_squares_map()

    def gen_value(self, j):
        return self.free_gens[j]

    def num_gens(self):
        return len(self.free_gens)

    def _least_squares_map(self):
        """The rows of (M^T M)^-1 M^T, M the log moduli of the free
        generators with a row per embedding, at READ_DIGITS.  M must
        have full column rank: its Gram determinant must not round to 0."""
        if not self.free_gens:
            return []
        with working(READ_DIGITS):
            mat = mp.matrix([[mp.log(abs(ctx.evaluate(p)))
                              for p in self.free_gens]
                             for ctx in self.field.embeddings(READ_DIGITS)])
            gram = mat.T * mat
            if mat.rows < mat.cols or nearest_integer(
                    mp.det(gram), READ_DIGITS) == 0:
                raise ExtGroupError(
                    "log_lift cannot separate the free generators by their "
                    "log moduli: these have rank below the number of "
                    "generators, as for dependent ones and for some "
                    "independent ones (2 and 3 in a quadratic field)")
            return (mp.inverse(gram) * mat.T).tolist()

    def log_lift(self, z):
        """Coordinates (k, r) of a field element lying in the subgroup
        generated by the basis; exact verification is the authority.

        Over Q they are the exact factorization of z.  Otherwise free
        exponents are the rounded image of the log-moduli of z under the
        least-squares map of the basis, then k by exact matching of the
        remaining root of unity."""
        if not isinstance(z, FieldElement) or z.field != self.field:
            raise FieldError("element belongs to a different field")
        if z.is_zero():
            raise NotInSubgroup("zero is not in the multiplicative group")
        if self.field.degree == 1:
            return self._factor_rational(z.as_fraction())
        r = self._free_exponents(z)
        rest = z
        for j, e in enumerate(r):
            if e:
                rest = rest / self.gen_value(j) ** e
        k = self.torsion_log(rest)
        if k is None:
            raise NotInSubgroup(f"{z!r} is not a product of basis generators")
        return ExtElement(self, k, {j: e for j, e in enumerate(r) if e})

    def fstar_wedge_is_zero(self, terms):
        """Decision in the exterior square of F* itself, where the torsion
        generator only has order m: the mixed torsion/free sums need only
        vanish mod m, while the torsion diagonal sum must still be even (the
        torsion generator is not 2-divisible in F*, since a square root
        would be a root of unity of order 2m)."""
        return self._caveat(_wedge_vanishes(terms, self.m), "nonzero wedge")

    def _free_exponents(self, z):
        """The log-moduli of z under the least-squares map, rounded.  Where
        the terms of sigma(z) = sum c_i sigma(alpha)^i cancel to within
        10^(10 - D) of the sum of their moduli, D the working digits, fewer
        than about 10 digits remain: PrecisionExhausted."""
        with working(READ_DIGITS):
            coeffs = [abs(mp.mpf(c.numerator) / c.denominator)
                      for c in z.coeffs]
            logs = []
            for ctx in self.field.embeddings(READ_DIGITS):
                value = ctx.evaluate(z)
                terms = _peval(coeffs, abs(ctx.root()), mp.mpf(0))
                if is_small(value / terms, mp.dps):
                    raise PrecisionExhausted(
                        f"log_lift: the terms of the element cancel at an "
                        f"embedding to {mp.nstr(abs(value), 3)}, fewer than "
                        f"10 of the {mp.dps} working digits")
                logs.append(mp.log(abs(value)))
            return [int(mp.nint(mp.fdot(row, logs)))
                    for row in self._least_squares]

    def _factor_rational(self, q):
        """Exact coordinates over Q: factor |q| over the basis values,
        integers greater than one (checked by the constructor), by repeated
        exact division down to 1, which proves |q| = prod p_j^e_j; k is 1
        for negative q, as -1 is the torsion generator (m = 2)."""
        out = [0] * len(self.free_gens)
        num, den = abs(q.numerator), q.denominator
        for j, p in enumerate(self.free_gens):
            pv = p.as_fraction().numerator
            while num % pv == 0:
                num //= pv
                out[j] += 1
            while den % pv == 0:
                den //= pv
                out[j] -= 1
        if num != 1 or den != 1:
            raise NotInSubgroup(f"{q} does not factor over the basis")
        return ExtElement(self, int(q < 0), enumerate(out))


class SymbolicBasis(_BasisCommon):
    """A growable free basis of formal log symbols keyed by exact field
    values, with -1 in the torsion slot.  Distinct values get distinct
    symbols; equal values share one, which is the only identification used."""

    def __init__(self, field):
        self.field = field
        self.m = 2
        self.torsion_gen = field.rational(-1)
        self.saturated = True
        self.values = []
        self._index = {}

    def gen_value(self, j):
        return self.values[j]

    def num_gens(self):
        return len(self.values)

    def symbol(self, value):
        """The basis element standing for a fixed logarithm of `value`.  If
        the negated value already has a symbol, it is reused shifted by the
        torsion slot, so that the logarithms of v and -v always differ by
        exactly one half-unit."""
        if not isinstance(value, FieldElement) or value.field != self.field:
            raise FieldError("element belongs to a different field")
        if value.is_zero():
            raise ExtGroupError("no logarithm symbol for zero")
        if value.is_one():
            return ExtElement(self, 0)
        if value == self.torsion_gen:
            return ExtElement(self, 1)
        j = self._index.get(value)
        if j is None:
            j = self._index.get(-value)
            if j is not None:
                return ExtElement(self, 1, {j: 1})
            j = len(self.values)
            self.values.append(value)
            self._index[value] = j
        return ExtElement(self, 0, {j: 1})


class LogLift:
    """A covering of the extension into C at one embedding: an actual
    logarithm value per basis generator.  m * lambda_w is a multiple
    2*pi*i*k_unit of 2*pi*i with k_unit prime to m.  A lift is a sum on
    the integer mantissas of lambda_w and of the generator logarithms,
    each taken on first use and kept by the covering."""

    def __init__(self, basis, ctx, lambda_w, k_unit):
        self.basis = basis
        self.ctx = ctx
        self.lambda_w = lambda_w
        self.k_unit = k_unit
        self._logs = {}

    def lambda_p(self, j):
        """The principal logarithm of free generator j, whatever lambda_w
        is."""
        if j not in self._logs:
            with working(self.ctx.precision):
                self._logs[j] = mp.log(
                    self.ctx.evaluate(self.basis.gen_value(j)))
        return self._logs[j]

    def lift(self, e):
        """k * lambda_w + sum r_j * lambda_p(j) for e = (k, r), on the
        integer mantissas of mpmath's numbers: libmp rounds each step to
        `working_bits` as a `working` context would, without entering
        one."""
        wp = working_bits(self.ctx.precision)
        acc = mpc_mul_int(self.lambda_w._mpc_, e.k, wp, round_nearest)
        for j, exp in e.r:
            acc = mpc_add(acc, mpc_mul_int(self.lambda_p(j)._mpc_, exp, wp,
                                           round_nearest), wp, round_nearest)
        return mp.make_mpc(acc)


def cover_to_C(basis, ctx):
    """The principal covering at an embedding sigma (other coverings are
    LogLift's), with k_unit, m lambda_w = 2 pi i k_unit, rounded once or
    PrecisionExhausted.  k_unit is prime to m: w has exact order m
    (Phi_m(w) = 0 is certified, or w = -1 and m = 2), so
    sigma(w) = e^(2 pi i h/m) with gcd(h, m) = 1 and k_unit = h (mod m).
    It is made once per root index and precision and kept on the basis."""
    key = (ctx.root_index, ctx.precision)
    if key not in basis._coverings:
        prec = ctx.precision
        with working(prec):
            lambda_w = mp.log(ctx.evaluate(basis.torsion_gen))
            k_unit = nearest_integer(basis.m * lambda_w / (2j * mp.pi), prec)
        if k_unit is None:
            raise PrecisionExhausted("m * lambda_w does not round to a "
                                     f"multiple of 2*pi*i at {prec} digits")
        basis._coverings[key] = LogLift(basis, ctx, lambda_w, k_unit)
    return basis._coverings[key]
