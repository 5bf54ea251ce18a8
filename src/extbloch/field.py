"""Exact arithmetic in a number field F = Q[x]/(p(x)).

A field is described by a squarefree polynomial p with rational
coefficients, made monic; p must be irreducible, which nothing checks (a
reducible p gives meaningless answers).  Elements are vectors of rationals
of length deg(p), i.e. residues of polynomials of degree < deg(p).
Polynomials are dense lists of integers, lowest coefficient first.  A
field keeps one, the integral model p_D = D^d p(x/D) (D the least common
denominator of p), monic with the roots theta = D*alpha: its Sturm chain
(`_sturm_chain`) gives the signature, squarefreeness and the discriminant,
its roots mod l (`_roots_mod`, by trial evaluation) the split primes, its
complex roots, divided by D, the embeddings.

Numeric embeddings evaluate elements at the complex roots of p at a
requested decimal precision.  The roots are isolated once per field at low
precision by the Aberth-Ehrlich iteration and refined by Newton's method,
both in fixed-point integer arithmetic; the field keeps its most precise
refinement, rounds it for a request that needs no more digits and refines
it further for one that needs more.  The refined roots must be separated
(disjoint Newton disks) and leave a small residue, or the roots are
isolated again at higher precision.

Membership of an algebraic number given by its minimal polynomial q (roots
of unity, cosines 2cos(2pi/n), roots of p itself) is decided on integers
alone (`element_in_field`): a split prime at which q has no root proves
that q has no root in F (split primes are found only up to the first such
witness), and Hensel lifting at one split prime with exact lattice
reduction (LLL) finds a root, verified exactly, or proves past a size
bound that there is none.  Numerics remain only in embeddings and
regulators.

Other modules decide on a value computed at N digits by `is_small` (it
vanishes: |x| <= 10^(10 - N)) or `nearest_integer` (it is an integer: it
lies within 10^-ceil(N/2) of one).  Both bounds follow from N alone; a
caller who wants a tighter check asks for more digits.  Only code that
makes a number enters a precision context (`working`); the decisions, like
the printing of the CLI, read a value as it is and run in the caller's
context.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import (dps_to_prec, from_int, from_man_exp, fzero,
                          mpc_add_mpf, mpc_mul, mpf_div, mpf_pow_int,
                          pi_fixed, round_nearest, to_fixed, to_int)


class FieldError(Exception):
    pass


class NotSquarefree(FieldError):
    pass


class DegreeZero(FieldError):
    pass


class DivisionByZero(FieldError):
    pass


class PrecisionExhausted(FieldError):
    pass


def working(precision):
    """The mpmath context of a computation whose result carries
    `precision` digits: 20% more, and at least 10 more.  Only code that
    makes a number enters it; reading a value needs no context."""
    return mp.workdps(precision + max(10, precision // 5))


@functools.cache
def working_bits(precision):
    """The binary precision of `working(precision)`: code that calls
    mpmath's libmp directly rounds there, as the context would."""
    return dps_to_prec(precision + max(10, precision // 5))


@functools.cache
def _power_of_ten(n, prec):
    """10^n rounded to prec bits, as mp.mpf(10) ** n in a context of that
    precision: each decision bound is made once per precision."""
    return mp.make_mpf(mpf_pow_int(from_int(10), n, prec, round_nearest))


def tolerance(precision):
    """The tolerance of `is_small` for values computed at `precision`
    digits: 10^(10 - precision), rounded in the caller's context.

    >>> tolerance(30) == mp.mpf(10) ** -20
    True
    """
    return _power_of_ten(10 - precision, mp.prec)


def is_small(x, precision):
    """Whether |x| <= tolerance(precision): a value computed at `precision`
    digits that must vanish.  It runs in the caller's context."""
    return abs(x) <= tolerance(precision)


def nearest_integer(x, precision):
    """The integer k nearest Re x if |x - k| <= 10^(-precision // 2), else
    None; the bound follows from the precision.  k is read exactly, in any
    context; the comparison runs in the caller's.
    """
    k = to_int(mp.re(x)._mpf_, round_nearest)
    return k if abs(x - k) <= _decision_bound(precision, mp.prec) else None


def _decision_bound(precision, prec):
    """The bound 10^(-precision // 2) of `nearest_integer` and
    `nearest_turn`, rounded to prec bits."""
    return _power_of_ten(-precision // 2, prec)


@functools.cache
def _turn_scale(precision):
    """The binary point b of `nearest_turn` at `precision`, 20 bits below
    the working precision, and on it 2*pi and the square of the radius
    2*pi * 10^(-precision // 2)."""
    b = working_bits(precision) + 20
    twopi = pi_fixed(b + 1)
    radius = twopi * to_fixed(_decision_bound(precision, b)._mpf_, b) >> b
    return b, twopi, radius * radius


def nearest_turn(u, v, precision):
    """`nearest_integer((u - v) / (2*pi*i), precision)` for the libmp
    complex numbers u and v, decided on integers without the quotient: on
    d = u - v read to b bits, the k nearest Im d / (2*pi) if
    |d - 2*k*pi*i| <= 2*pi * 10^(-precision // 2), else None."""
    b, twopi, radius2 = _turn_scale(precision)
    dr = to_fixed(u[0], b) - to_fixed(v[0], b)
    di = to_fixed(u[1], b) - to_fixed(v[1], b)
    k = (2 * di + twopi) // (2 * twopi)
    di -= k * twopi
    return k if dr * dr + di * di <= radius2 else None


# ---------------------------------------------------------------------------
# integer polynomials: coefficient lists, lowest coefficient first

def _integer(poly):
    """(D, D * poly) for a rational poly, with D the least common
    denominator of its coefficients: the integer polynomial with the roots
    of poly, where a rational polynomial enters this layer."""
    den = math.lcm(*(Fraction(c).denominator for c in poly))
    return den, [int(c * den) for c in poly]


def _trim(a):
    """The list a without its trailing zeros, trimmed in place."""
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b):
    """The product of two polynomials over any ring."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pdivmod(a, b):
    """Pseudo-division of integer polynomials (Cohen, GTM 138, Alg. 3.1.2,
    with |c| for the leading coefficient c of b): (q, r) with
    |c|^(deg a - deg b + 1) a = q b + r and deg r < deg b.  For a monic b
    they are the quotient and the remainder."""
    db, m = len(b) - 1, abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    q, r = [0] * max(0, len(a) - db), list(a)
    for k in range(len(a) - 1 - db, -1, -1):
        t = sign * r.pop()
        q = [m * c for c in q]
        q[k] = t
        r = [m * c for c in r]
        for j in range(db):
            r[k + j] -= t * b[j]
    return _trim(q), _trim(r)


def _pderiv(a):
    return _trim([i * c for i, c in enumerate(a)][1:])


def _peval(poly, t, zero):
    """poly(t) by Horner's rule for a dense poly (low to high), summing from
    `zero`, the zero of the ring where the value lies."""
    acc = zero
    for c in reversed(poly):
        acc = acc * t + c
    return acc


def _sturm_chain(p):
    """The Sturm chain of the integer polynomial p and the scale of each
    entry after p'.  The chain is p, p', then, for the two entries a, b
    before it, c = -|lc b|^(deg a - deg b + 1) (a mod b) / g with g > 0
    the content of c, until a mod b = 0.  So c = -s (a mod b) with the
    scale s = |lc b|^(deg a - deg b + 1) / g > 0, which keeps the signs
    that count real roots."""
    chain, scales = [p, _pderiv(p)], []
    while chain[-1]:
        a, b = chain[-2:]
        r = _pdivmod(a, b)[1]
        if not r:
            break
        g = math.gcd(*r)
        chain.append([-c // g for c in r])
        scales.append(Fraction(abs(b[-1]) ** (len(a) - len(b) + 1), g))
    return [c for c in chain if c], scales


def _chain_real_roots(chain):
    """The number of distinct real roots of chain[0], from its Sturm
    chain: the sign changes along the chain at -infinity less those at
    +infinity, read from the leading coefficients.  The last entry of the
    chain is gcd(p, p'), up to a constant factor, so a nonconstant one
    raises NotSquarefree."""
    if len(chain[-1]) > 1:
        raise NotSquarefree("defining polynomial has repeated roots")
    high = [c[-1] > 0 for c in chain]
    low = [h == (len(c) % 2 == 1) for h, c in zip(high, chain)]
    return (sum(a != b for a, b in zip(low, low[1:]))
            - sum(a != b for a, b in zip(high, high[1:])))


# ---------------------------------------------------------------------------
# cyclotomic machinery

@functools.lru_cache(maxsize=None)
def cyclotomic(n):
    """Integer coefficient tuple (low-to-high) of the n-th cyclotomic
    polynomial: x^n - 1 divided by the product of the lower ones.

    >>> cyclotomic(1), cyclotomic(6)
    ((-1, 1), (1, -1, 1))
    """
    if n <= 0:
        raise ValueError("cyclotomic index must be positive")
    lower = [1]
    for d in range(1, n):
        if n % d == 0:
            lower = _pmul(lower, cyclotomic(d))
    return tuple(_pdivmod([-1] + [0] * (n - 1) + [1], lower)[0])


def prime_factors(n):
    """The prime factors of n >= 1, ascending and with multiplicity, by
    lazy trial division.

    >>> list(prime_factors(360)), list(prime_factors(1))
    ([2, 2, 2, 3, 3, 5], [])
    """
    d = 2
    while d * d <= n:
        while n % d == 0:
            yield d
            n //= d
        d += 1
    if n > 1:
        yield n


# Miller-Rabin to the prime bases 2..41 has no strong pseudoprime below
# PRIME_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017), so it proves
# primality there; trial division stays the cheaper test below 10^6.
PRIME_LIMIT = 3317044064679887385961981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Whether the integer n < PRIME_LIMIT is prime; a larger n raises
    ValueError.

    >>> [n for n in (-3, 0, 1, 2, 4, 7, 2 ** 61 - 1) if is_prime(n)]
    [2, 7, 2305843009213693951]
    """
    if n < 10 ** 6:
        return n >= 2 and next(prime_factors(n)) == n
    if n >= PRIME_LIMIT:
        raise ValueError(f"primality is decided only below {PRIME_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def euler_phi(n):
    out = n
    for p in set(prime_factors(n)):
        out -= out // p
    return out


@functools.lru_cache(maxsize=None)
def cos2pi_minpoly(n):
    """Minimal polynomial (integer, low-to-high, monic) of 2*cos(2*pi/n)
    over Q.

    Obtained from the n-th cyclotomic polynomial: writing y = x + 1/x and
    using x^k + x^-k = D_k(y) with D_0 = 2, D_1 = y, D_{k+1} = y D_k - D_{k-1}.

    >>> cos2pi_minpoly(8), cos2pi_minpoly(3)
    ((-2, 0, 1), (1, 1))
    """
    if n == 1:
        return (-2, 1)
    if n == 2:
        return (2, 1)
    phi = cyclotomic(n)
    h = (len(phi) - 1) // 2
    out, d_prev, d_cur = [phi[h]] + [0] * h, [2], [0, 1]
    for k in range(1, h + 1):
        for i, c in enumerate(d_cur):
            out[i] += phi[h + k] * c
        d_next = [0] + d_cur
        for i, c in enumerate(d_prev):
            d_next[i] -= c
        d_prev, d_cur = d_cur, d_next
    return tuple(out)


# ---------------------------------------------------------------------------
# the split-prime certificate of non-membership
#
# Let p_D = D^d p(x/D) be the integral model of the defining polynomial, with
# root theta = D*alpha.  At a prime l where p_D is squarefree mod l (so l does
# not divide the index of Z[theta] in O_F) and has a root r mod l, the ideal
# (l, theta - r) is a prime of O_F of degree one (Dedekind-Kummer).  If a root
# beta of a monic q lies in F, then E*beta is integral, with q_E the integral
# model of q, and reduces to a root of q_E in that prime's residue field F_l.
# So q_E without a root mod one such split prime l proves that q has no root
# in F, using integer arithmetic only.

SPLIT_PRIMES = 30   # split primes the certificate reads at most
SIEVE_FIRST = 4     # of them, the ones tried before any lattice reduction


def integral_model(poly):
    """(D, D^d p(x/D)) for a monic rational polynomial p of degree d, with D
    the least common denominator of its coefficients: a monic integer
    polynomial whose roots are D times those of p.

    >>> integral_model((Fraction(1, 4), Fraction(1, 2), Fraction(1)))
    (4, (4, 2, 1))
    """
    den, p = _integer(poly)
    d = len(p) - 1
    # the coefficient D^(d-i) c_i of x^i is p_i D^(d-i-1), and 1 for i = d
    return den, tuple(c * den ** (d - i) // den for i, c in enumerate(p))


def discriminant(poly):
    """Discriminant of a rational polynomial p, exactly: that of its
    integer model P = D p, divided by D^(2d-2).

    >>> discriminant((2, 0, 1)), discriminant((Fraction(1, 2), 0, 1))
    (Fraction(-8, 1), Fraction(-2, 1))
    """
    den, p = _integer(poly)
    p = _trim(p)
    return _chain_discriminant(*_sturm_chain(p)) / den ** (2 * len(p) - 4)


def _chain_discriminant(chain, scales):
    """The discriminant (-1)^(d(d-1)/2) Res(p, p') / lc(p) of the integer
    p = chain[0] of degree d, from its Sturm chain and scales: for the
    entries a, b, c = -s (a mod b),
    Res(a, b) = (-1)^(deg a deg b + deg b) lc(b)^(deg a - deg c)
    s^(-deg b) Res(b, c), down to b^(deg a) for a constant b; 0 if the
    chain ends in a common factor of p and p' of positive degree."""
    d = len(chain[0]) - 1
    if len(chain[-1]) > 1:
        return Fraction(0)
    res = Fraction(chain[-1][0]) ** (len(chain[-2]) - 1)
    for a, b, c, s in zip(chain, chain[1:], chain[2:], scales):
        res *= ((-1) ** ((len(b) - 1) * len(a)) * b[-1] ** (len(a) - len(c))
                / s ** (len(b) - 1))
    return (-1) ** (d * (d - 1) // 2) * res / chain[0][-1]


def _primes():
    return filter(is_prime, itertools.count(2))


def _roots_mod(poly, ell):
    """The roots mod ell of the integer polynomial poly, ascending and
    lazily: each r in [0, ell) with poly(r) = 0 mod ell, found by trial
    evaluation, about ell * deg(poly) steps, which suits the small primes
    that membership reads.  A caller that asks whether there is a root
    compares `next(..., None)` with None: the root 0 is falsy."""
    reduced = [c % ell for c in poly]
    return (r for r in range(ell) if _peval(reduced, r, 0) % ell == 0)


def nonmembership_prime(q_int, nf, start=0, stop=SPLIT_PRIMES):
    """The first split prime of nf, from the start-th to the (stop-1)-th,
    at which the monic integer polynomial q_int, the integral model of a
    monic q, has no root (`_roots_mod` yields none), or None: an exact
    proof that q has no root in nf, read from `nf.split_primes()` only up
    to itself; None proves nothing."""
    split = itertools.islice(nf.split_primes(), start, stop)
    return next((ell for ell in split
                 if next(_roots_mod(q_int, ell), None) is None), None)


# ---------------------------------------------------------------------------
# lattice reduction (LLL) over the integers, used for reconstruction

def lll_reduce(basis):
    """LLL-reduce a list of linearly independent integer vectors (rows).
    Returns new rows spanning the same lattice.

    Exact integral LLL (Cohen, GTM 138, Alg. 2.6.7): the Gram-Schmidt data
    are kept as integers, d[i] the Gram determinant of the first i rows and
    lam[k][j] = d[j+1] * mu_kj, so nothing is rounded but the size-reduction
    multipliers.  The result is size-reduced (|mu_kj| <= 1/2) and satisfies
    the Lovasz condition with delta = 99/100.

    >>> lll_reduce([(1, 1, 1), (-1, 0, 2), (3, 5, 6)])
    [(0, 1, 0), (1, 0, 1), (-1, 0, 2)]
    """
    b = [list(v) for v in basis]
    n = len(b)
    delta = Fraction(99, 100)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def gram_schmidt(k):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise ValueError("lattice basis rows are linearly dependent")
            else:
                d[k + 1] = u

    def size_reduce(k, j):
        if 2 * abs(lam[k][j]) > d[j + 1]:
            r = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
            b[k] = [x - r * y for x, y in zip(b[k], b[j])]
            lam[k][j] -= r * d[j + 1]
            for i in range(j):
                lam[k][i] -= r * lam[j][i]

    gram_schmidt(0)
    k, k_max = 1, 0
    while k < n:
        if k > k_max:
            k_max = k
            gram_schmidt(k)
        size_reduce(k, k - 1)
        lk = lam[k][k - 1]
        if (delta.denominator * (d[k + 1] * d[k - 1] + lk * lk)
                < delta.numerator * d[k] * d[k]):
            # swap rows k-1, k; d[k] and the lam of later rows change
            b[k - 1], b[k] = b[k], b[k - 1]
            for j in range(k - 1):
                lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
            new_d = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, k_max + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (new_d * t + lk * lam[i][k]) // d[k + 1]
            d[k] = new_d
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
    return [tuple(v) for v in b]


# ---------------------------------------------------------------------------
# roots: isolated once at low precision, then refined by Newton's method
#
# Both run on Python integers.  A complex number is a fixed-point triple
# (x, y, b), the value (x + iy) / 2^b: its real and imaginary parts share
# the binary point b.  Newton's method sets b from the magnitude of each
# root, so that large and small roots alike carry the requested digits; the
# Aberth-Ehrlich iteration moves all roots together on one binary point,
# set below the smallest root.  A root becomes an mpmath number only where
# it leaves this layer (NumberField.roots).

ISOLATION_DIGITS = 20     # digits of the first isolation of a field's roots
ISOLATION_DOUBLINGS = 5   # re-isolations at doubled digits before giving up
NEWTON_STEPS = 64         # Newton steps allowed per root and refinement


def _bits(digits):
    """Binary digits that carry `digits` decimal digits, plus 16 guard
    bits."""
    return math.ceil(digits * math.log2(10)) + 16


def _shift(v, n):
    return v << n if n >= 0 else v >> -n


def _exponent(x, y, b):
    """The binary exponent of the fixed-point number (x, y, b): the least e
    with max(|x|, |y|) < 2^(b + e); 0 for zero."""
    return max(abs(x).bit_length(), abs(y).bit_length()) - b if x or y else 0


def _mpc(z):
    """The fixed-point number z as an mpmath number at the working
    precision."""
    x, y, b = z
    return mp.make_mpc((from_man_exp(x, -b, mp.prec, round_nearest),
                        from_man_exp(y, -b, mp.prec, round_nearest)))


def _horner(poly, x, y, b):
    """p(z) and p'(z), as (re p, im p, re p', im p') on the binary point b,
    at z = (x + iy) / 2^b for the integer polynomial p."""
    fr = fi = dr = di = 0
    for c in reversed(poly):
        dr, di = ((dr * x - di * y) >> b) + fr, ((dr * y + di * x) >> b) + fi
        fr, fi = ((fr * x - fi * y) >> b) + (c << b), (fr * y + fi * x) >> b
    return fr, fi, dr, di


def _cdiv(ar, ai, br, bi, b):
    """The quotient (ar + i ai) / (br + i bi) of two numbers on one binary
    point, on the binary point b."""
    n = br * br + bi * bi
    return ((ar * br + ai * bi) << b) // n, ((ai * br - ar * bi) << b) // n


def _isolate_roots(poly, digits):
    """Approximations of all roots of the integer poly to
    `digits` digits, as fixed-point triples, or None if they do not
    converge.

    The Aberth-Ehrlich iteration (Bini, Numer. Algorithms 13, 1996) moves
    each estimate z_i by w = N / (1 - N * sum_{j != i} 1/(z_i - z_j)),
    with N = p(z_i) / p'(z_i), and uses each new z_i at once.  A root is
    done when |w| <= 2^-_bits(digits) |z_i|; all must be done within 100
    sweeps.  The iteration works at twice the digits, on a binary point
    below Fujiwara's lower bound on the roots, and starts from points
    spread on the circle whose radius is the geometric mean of the root
    moduli.  A root 0 of poly is split off exactly, and parts below
    2^-_bits(digits) |z_i| are cleared, so that real and imaginary roots
    stay so under Newton's method."""
    n = next(k for k, c in enumerate(poly) if c)
    zeros, coeffs = [(0, 0, 0)] * n, poly[n:]
    d = len(coeffs) - 1
    if d == 0:
        return zeros
    logs = [math.log2(abs(c)) if c else None for c in coeffs]
    lower = -1 - max((logs[k] - logs[0]) / k
                     for k in range(1, d + 1) if logs[k] is not None)
    b = max(0, _bits(2 * digits) - math.floor(lower))
    # start on the circle |z| = |a_0 / a_d|^(1/d); r = log2(radius 2^b)
    r = (logs[0] - logs[d]) / d + b
    e = math.floor(r) - 52
    z = [(_shift(round(math.cos(a) * 2.0 ** (r - e)), e),
          _shift(round(math.sin(a) * 2.0 ** (r - e)), e))
         for a in (2 * math.pi * k / d + 0.4 for k in range(d))]
    t = 2 * _bits(digits)
    done = [False] * d
    for _ in range(100):
        for i, (x, y) in enumerate(z):
            if done[i]:
                continue
            fr, fi, dr, di = _horner(coeffs, x, y, b)
            if not (dr or di):
                return None
            nr, ni = _cdiv(fr, fi, dr, di, b)
            ar = ai = 0
            for j, (u, v) in enumerate(z):
                if j != i:
                    u, v = x - u, y - v
                    n = u * u + v * v
                    if not n:
                        return None
                    ar += (u << 2 * b) // n
                    ai -= (v << 2 * b) // n
            qr = (1 << b) - ((nr * ar - ni * ai) >> b)
            qi = -((nr * ai + ni * ar) >> b)
            if not (qr or qi):
                return None
            wr, wi = _cdiv(nr, ni, qr, qi, b)
            x, y = x - wr, y - wi
            z[i] = (x, y)
            done[i] = (wr * wr + wi * wi) << t <= x * x + y * y
        if all(done):
            break
    else:
        return None
    out = []
    for x, y in z:
        m = x * x + y * y
        if (y * y) << t <= m:
            y = 0
        elif (x * x) << t <= m:
            x = 0
        out.append((x, y, b))
    return zeros + out


def _newton_fixed(poly, z, start, target):
    """Refine a fixed-point triple z near a simple root of the integer
    poly by Newton's method to `target` digits.  The working precision
    starts at `start` digits and doubles each time a step falls below
    10^(-dps/2) relative to z, as z then has about dps correct digits.
    Each step works on the binary point that gives z `dps` digits and
    guard bits.  Returns the root and the last step as fixed-point
    triples; raises PrecisionExhausted after NEWTON_STEPS steps without
    convergence."""
    x, y, b = z
    dps = min(start, target)
    for _ in range(NEWTON_STEPS):
        nb = max(0, _bits(dps) - _exponent(x, y, b))
        x, y, b = _shift(x, nb - b), _shift(y, nb - b), nb
        fr, fi, dr, di = _horner(poly, x, y, b)
        if not (dr or di):
            break
        sr, si = _cdiv(fr, fi, dr, di, b)
        x, y = x - sr, y - si
        # |step| <= |z| 10^-(dps // 2)
        if (sr * sr + si * si) * 100 ** (dps // 2) <= x * x + y * y:
            if dps == target:
                return (x, y, b), (sr, si, b)
            dps = min(2 * dps, target)
    raise PrecisionExhausted(f"Newton's method did not converge to a root "
                             f"of [{', '.join(map(str, poly))}] at {dps} "
                             f"digits")


def _refine_roots(poly, guesses, start, target):
    """Newton-refine the estimates `guesses` of all d roots of poly to
    `target` digits, as fixed-point triples, or None if one does not
    converge or two are not separated.  Separated means that the disks of
    radius (d+1)*|last step| around the refined roots are pairwise
    disjoint: each disk holds a root of poly (one of radius d*|p/p'| around
    the point before the last step does), so disjoint disks hold d
    different roots.  The test is exact, with each |last step| rounded up."""
    d = len(poly) - 1
    try:
        refined = [_newton_fixed(poly, z, start, target) for z in guesses]
    except PrecisionExhausted:
        return None
    for ((x, y, b), (rx, ry, _)), ((u, v, c), (sx, sy, _)) in \
            itertools.combinations(refined, 2):
        e = max(b, c)
        dx, dy = (x << e - b) - (u << e - c), (y << e - b) - (v << e - c)
        radius = (d + 1) * (((math.isqrt(rx * rx + ry * ry) + 1) << e - b)
                            + ((math.isqrt(sx * sx + sy * sy) + 1) << e - c))
        if dx * dx + dy * dy <= radius * radius:
            return None
    return [z for z, _ in refined]


# ---------------------------------------------------------------------------

_ZERO = Fraction(0)


def _element(field, coeffs):
    """The element with coordinates `coeffs`, a tuple of field.degree
    Fractions, taken as it is: the constructor of arithmetic results."""
    el = object.__new__(FieldElement)
    el.field = field
    el.coeffs = coeffs
    return el


class FieldElement:
    """An element of a number field, stored as rational coordinates in the
    power basis 1, x, ..., x^(d-1) of the generator.

    A product forms the 2d-1 schoolbook slots of the two coordinate
    vectors, skipping zero coordinates, and folds slot d+k (k = 0..d-2)
    into the low d through the field's row x^(d+k) mod p, computed once
    per field; over Q it is one rational multiplication.  No product
    divides polynomials."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > field.degree:
            raise ValueError("coordinate vector longer than the field degree")
        coeffs += [Fraction(0)] * (field.degree - len(coeffs))
        self.field = field
        self.coeffs = tuple(coeffs)

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_one(self):
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if abs(c) != 1 else ("x" if c == 1 else "-x"))
            else:
                parts.append(f"{c}*x^{i}" if abs(c) != 1 else (f"x^{i}" if c == 1 else f"-x^{i}"))
        body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        return f"<{body}>"

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if type(other) is FieldElement and other.field is self.field:
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        if isinstance(other, FieldElement) and other.field == self.field:
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _element(self.field, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _element(self.field, tuple([a - b for a, b in zip(self.coeffs, other.coeffs)]))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _element(self.field, tuple([-a for a in self.coeffs]))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        field, a, b = self.field, self.coeffs, other.coeffs
        if field.degree == 1:
            return _element(field, (a[0] * b[0],))
        slots = [_ZERO] * (2 * field.degree - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        slots[i + j] += ai * bj
        out = slots[:field.degree]
        for top, row in zip(slots[field.degree:], field.reduction_rows):
            if top:
                for i, r in row:
                    out[i] += top * r
        return _element(field, tuple(out))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("cannot invert zero")
        field = self.field
        if field.degree == 1:
            return _element(field, (1 / self.coeffs[0],))
        # solve self * u = 1 in the power basis: column j is self * x^j
        columns = [self]
        for _ in range(field.degree - 1):
            columns.append(columns[-1] * field.gen)
        inv = _solve_rational(list(zip(*(c.coeffs for c in columns))),
                              [1] + [0] * (field.degree - 1))
        if inv is None:
            raise FieldError("defining polynomial is not irreducible: "
                             "multiplication by the element is singular")
        return _element(field, tuple(inv))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.field.one
        out = self
        for bit in bin(n)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    # -- exact invariants --------------------------------------------------

    def min_poly(self):
        """Monic minimal polynomial over Q, found from the first linear
        dependence among the powers 1, a, a^2, ... (exact rational solve)."""
        d = self.field.degree
        powers = [self.field.one]
        for _ in range(d):
            powers.append(powers[-1] * self)
        # find smallest k with a^k in span of lower powers
        for k in range(1, d + 1):
            # solve sum_{j<k} c_j a^j = a^k  (d equations, k unknowns)
            sol = _solve_rational([[powers[j].coeffs[i] for j in range(k)]
                                   for i in range(d)],
                                  [powers[k].coeffs[i] for i in range(d)])
            if sol is not None:
                return tuple([-c for c in sol] + [Fraction(1)])
        raise FieldError("minimal polynomial search failed")  # pragma: no cover

    def substitute(self, image):
        """The image of this element under the field endomorphism sending the
        generator to `image` (an element of the same field)."""
        return _peval(self.coeffs, image, self.field.zero)


def _solve_rational(rows, rhs):
    """Solve the (possibly overdetermined) system rows * c = rhs exactly,
    by fraction-free elimination (Bareiss, Math. Comp. 22, 1968) on the
    rows scaled to integers.  Returns the solution vector, or None if it is
    inconsistent or has a free column, which would make it non-unique."""
    m = [_integer(list(r) + [v])[1] for r, v in zip(rows, rhs)]
    nrows, ncols = len(m), len(m[0]) - 1
    prev = 1
    for col in range(ncols):
        piv = next((r for r in range(col, nrows) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        top = m[col]
        for r in range(col + 1, nrows):
            f = m[r][col]
            m[r] = [(top[col] * x - f * y) // prev for x, y in zip(m[r], top)]
        prev = top[col]
    if any(m[r][ncols] for r in range(ncols, nrows)):
        return None
    # prev, the determinant of the pivot rows, makes prev * c integral
    out = [0] * ncols
    for i in range(ncols - 1, -1, -1):
        out[i] = (prev * m[i][ncols] - sum(
            m[i][j] * out[j] for j in range(i + 1, ncols))) // m[i][i]
    return [Fraction(c, prev) for c in out]


class EmbeddingContext:
    """One complex embedding of a number field at a fixed decimal precision.

    Real embeddings come first (roots ascending), then one representative per
    conjugate pair (positive imaginary part, ordered by real part then
    imaginary part).
    """

    def __init__(self, field, root_index, precision):
        self.field = field
        self.root_index = root_index
        self.precision = precision

    @property
    def is_real(self):
        return self.root_index < self.field.signature[0]

    def root(self):
        return self.field.roots(self.precision)[self.root_index]

    def evaluate(self, a):
        """sigma(a) at the working precision, by Horner's rule at `root` on
        mpmath's integer-mantissa numbers: libmp rounds each coordinate
        and step to `working_bits` as a `working` context would, without
        entering one."""
        if a.field != self.field:
            raise FieldError("element belongs to a different field")
        wp = working_bits(self.precision)
        t = self.root()._mpc_
        acc = None
        for c in reversed(a.coeffs):
            c = mpf_div(from_int(c.numerator, wp, round_nearest),
                        from_int(c.denominator, wp, round_nearest), wp,
                        round_nearest)
            acc = (c, fzero) if acc is None else mpc_add_mpf(
                mpc_mul(acc, t, wp, round_nearest), c, wp, round_nearest)
        return mp.make_mpc(acc)


def _reduction_rows(p):
    """x^d, ..., x^(2d-2) mod the monic p of degree d, each row as the
    (index, coefficient) pairs of its nonzero coordinates."""
    d = len(p) - 1
    row = [-c for c in p[:-1]]
    rows = []
    for _ in range(d - 1):
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
        top = row[-1]
        row = [_ZERO] + row[:-1]
        if top:
            row = [c - top * q for c, q in zip(row, p)]
    return tuple(rows)


class NumberField:
    """The field Q[x]/(p(x)) for a squarefree rational polynomial p."""

    def __init__(self, coeffs):
        coeffs = _trim([Fraction(c) for c in coeffs])
        if len(coeffs) < 2:
            raise DegreeZero("defining polynomial must be nonconstant")
        lead = coeffs[-1]
        coeffs = tuple(c / lead for c in coeffs)
        self._den, self._model = integral_model(coeffs)
        chain, scales = _sturm_chain(self._model)
        r1 = _chain_real_roots(chain)
        # disc(p_D) O_F lies in Z[D alpha], so |disc(p_D)| clears the
        # denominators of the coordinates of every algebraic integer
        self.denominator_bound = abs(int(_chain_discriminant(chain, scales)))
        self.poly = coeffs
        self.degree = len(coeffs) - 1
        self.reduction_rows = _reduction_rows(coeffs)
        self._root_cache = {}
        self._refined = None     # (digits, roots): the most precise refinement
        self._split_primes = []  # split primes found so far, ascending
        self._split_search = (ell for ell in _primes()
                              if self.denominator_bound % ell
                              and next(_roots_mod(self._model, ell), None)
                              is not None)
        self.signature = (r1, (self.degree - r1) // 2)
        self.one = self.rational(1)
        self.zero = self.rational(0)
        self.gen = FieldElement(self, [0, 1] if self.degree > 1 else [-coeffs[0]])
        # derived values that other modules compute once per field, keyed
        # by what computed them (torsion.two_cos)
        self.memo = {}

    @functools.cached_property
    def torsion(self):
        """(m, w): the order of the roots of unity and a verified
        generator, detected on first use."""
        return detect_roots_of_unity(self)

    def split_primes(self):
        """The primes at which the integral model p_D of the defining
        polynomial is squarefree and has a root (`_roots_mod` yields one),
        ascending: a stream that finds each prime when it is first read
        and keeps it for every later reader.  As p_D is monic, it is
        squarefree mod l exactly when l does not divide disc(p_D), whose
        absolute value is `denominator_bound`.

        >>> list(itertools.islice(NumberField([-2, 0, 1]).split_primes(), 5))
        [7, 17, 23, 31, 41]
        """
        for i in itertools.count():
            if i == len(self._split_primes):
                self._split_primes.append(next(self._split_search))
            yield self._split_primes[i]

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        return f"NumberField({[str(c) for c in self.poly]})"

    def rational(self, q):
        return FieldElement(self, [Fraction(q)])

    def element(self, coeffs):
        return FieldElement(self, coeffs)

    # -- embeddings --------------------------------------------------------

    def roots(self, precision):
        """The r1 + r2 roots that define the embeddings, one per embedding,
        in the deterministic order, at the given precision.

        Newton's method refines the roots towards 2*precision + 40 digits;
        the field keeps its most precise refinement and rounds it for a
        request with no higher target.  The first request isolates the
        roots (the Aberth-Ehrlich iteration at ISOLATION_DIGITS digits).
        A refinement proves only that each returned root lies within
        (d+1)*|last Newton step| of a root of p_D, a different one for each
        (`_refine_roots`); roots in a tight cluster carry fewer digits than
        the target.  If those disks overlap, the roots are isolated again
        at doubled precision, up to ISOLATION_DOUBLINGS times, and then
        PrecisionExhausted is raised.  Order: the real roots ascending,
        then one representative per conjugate pair (positive imaginary
        part) by real part, then imaginary part.  Every root must leave a
        residue |p(z)| <= 10^-precision times the larger of 1 and the sum
        of the |a_i| |z|^i that p(z) adds up.  All of this runs on the
        fixed-point roots theta = D*alpha of p_D, divided by D at the end.
        """
        if precision in self._root_cache:
            return self._root_cache[precision]
        r1 = self.signature[0]
        target = 2 * precision + 40
        digits, raw = self._refined or (0, None)
        if digits < target:
            # roots correct to `digits` digits pass Newton's convergence
            # test at twice as many, so refinement may start there
            raw = raw and _refine_roots(self._model, raw, 2 * digits, target)
            for doublings in range(ISOLATION_DOUBLINGS + 1):
                if raw:
                    break
                isolation = ISOLATION_DIGITS << doublings
                guesses = _isolate_roots(self._model, isolation)
                raw = guesses and _refine_roots(self._model, guesses,
                                               isolation, target)
            if not raw:
                raise PrecisionExhausted(
                    f"roots of {self!r} not separated after isolation at "
                    f"{ISOLATION_DIGITS << ISOLATION_DOUBLINGS} digits")
            self._refined = (target, raw)
        # order and verify the roots on their finest binary point b
        b = max(c for _, _, c in raw)
        raw = sorted(((x << b - c, y << b - c) for x, y, c in raw),
                     key=lambda z: abs(z[1]))
        reals = sorted((x, 0) for x, _ in raw[:r1])
        # one representative per conjugate pair; real parts of alpha that
        # agree to `precision` digits count as equal, so that rounding
        # noise cannot reorder two pairs with the same real part
        unit = self._den << b
        scale, half = 10 ** precision, unit >> 1
        upper = sorted(((x, abs(y)) for x, y in raw[r1:]),
                       key=lambda z: ((z[0] * scale + half) // unit, z[1]))
        ordered = reals + upper[::2]
        # |p(alpha)| <= 10^-precision max(1, sum |a_i| |alpha|^i), with
        # p(alpha) = (fr + i fi) / (D^d 2^b) and the sum s / (D^d 2^b)
        one = self._den ** self.degree << b
        for x, y in ordered:
            fr, fi = _horner(self._model, x, y, b)[:2]
            r, s = math.isqrt(x * x + y * y) + 1, 0
            for c in reversed(self._model):
                s = (s * r >> b) + (abs(c) << b)
            if (fr * fr + fi * fi) * 100 ** precision > max(one, s) ** 2:
                raise PrecisionExhausted("root verification residue too large")
        with mp.workdps(target):
            ordered = [_mpc((x, y, b)) / self._den for x, y in ordered]
        self._root_cache[precision] = ordered
        return ordered

    def embeddings(self, precision):
        return [EmbeddingContext(self, i, precision)
                for i in range(self.signature[0] + self.signature[1])]


# ---------------------------------------------------------------------------
# membership: the sieve, then one l-adic lattice per root of q mod l

LIFT_BITS = 80     # bits of l^k at the first lattice reduction
READ_DIGITS = 50   # digits of every embedding read for an exact decision


def _hensel_lift(poly, r, ell, k):
    """The root mod ell^k of the integer poly above its simple root r mod
    ell: Newton's method doubles the exponent at each step (Hensel's
    lemma; Cohen, GTM 138, Sec. 3.5)."""
    deriv, modulus, target = _pderiv(poly), ell, ell ** k
    while modulus < target:
        modulus = min(modulus * modulus, target)
        r = (r - _peval(poly, r, 0)
             * pow(_peval(deriv, r, 0), -1, modulus)) % modulus
    return r


def reconstruct_at(nf, a, b, modulus, scale):
    """The candidate sum m_i theta^i / (s * scale) from the first vector
    (m, s) of the LLL-reduced lattice
    {(m, s) in Z^(d+1) : sum m_i a^i = s b (mod modulus)}, or None if
    s = 0; theta = D*alpha is the root of the field's integral model, a
    one of its roots and b one of q_E's mod `modulus` (element_in_field).
    The residue b, not a complex embedding, pins the candidate down (see
    `first_embedding_turn`).  Callers verify it exactly."""
    d = nf.degree
    # rows (modulus, 0), (-a^i, e_i) for 0 < i < d and (b, e_s)
    rows = [[-pow(a, i, modulus) if i else modulus]
            + [int(j == i) for j in range(1, d + 1)] for i in range(d + 1)]
    rows[d][0] = b
    *m, s = lll_reduce(rows)[0]
    if s == 0:
        return None
    return FieldElement(nf, [Fraction(c * nf._den ** i, s * scale)
                             for i, c in enumerate(m)])


def element_in_field(min_poly, nf):
    """A root in nf of the irreducible rational polynomial q = min_poly
    (dense, low to high), verified exactly (q(beta) = 0, so q is its
    minimal polynomial), or None, which proves that q has no root in nf.

    Notation: d = nf.degree, theta = D*alpha the root of the integral
    model p_D, Delta = nf.denominator_bound, q_E the integral model of q,
    with roots E*beta.  The route, on integers only: (1) the degree test
    and the first SIEVE_FIRST split primes; (2) at l, the first split
    prime not dividing disc(q_E), the least root a of p_D and every root
    b of q_E mod l, Hensel-lifted to l^k >= 2^LIFT_BITS; (3) per b, a
    candidate from `reconstruct_at`, verified exactly; (4) the split
    primes up to the SPLIT_PRIMES-th; (5) k doubled, repeating (2)-(3),
    until l^k > (2^(d/2+1) X^2 C)^d, with R = 1 + max|coeff of q_E|,
    C = sqrt(d) R_p^(d-1) for R_p the same bound for p_D, and
    X^2 = d^3 Delta C^(2d-2) R^2 + Delta^2, where a first vector that does
    not verify proves that no root of q lies over b.

    Proof.  Let beta in nf be a root of q with E*beta over b at the prime
    L = (l, theta - a) of degree one (every root in nf lies over some b).
    As Delta O_F lies in Z[theta], E*beta = sum c_i theta^i / Delta with
    c_i in Z, and (c, Delta) lies in the lattice.  By Cramer's rule on the
    Vandermonde matrix V of the conjugates of theta, |det V| = sqrt(Delta),
    expanded along the column of conjugates of E*beta (at most R, Cauchy)
    against minors of at most C^(d-1) (Hadamard),
    |c_i| <= d sqrt(Delta) R C^(d-1), so |(c, Delta)| <= X, and LLL
    (delta = 99/100) returns a first vector with |(m, s)| <= 2^(d/2) X.
    Then mu = s Delta E beta - Delta sum m_i theta^i is an algebraic
    integer in L^k, and |sigma mu| <= Delta (|s| R + |m| C)
    <= 2 X C 2^(d/2) X at every embedding sigma, as Delta <= X and
    Delta R <= X C (sqrt(Delta) <= C^d by Hadamard).  So mu = 0 or
    l^k <= |N mu| <= (2^(d/2+1) X^2 C)^d; past the bound mu = 0, s != 0
    and beta = sum m_i theta^i / (s E) is the candidate.

    The root returned depends on l and b, not on a complex embedding;
    `detect_roots_of_unity` and `torsion.two_cos` turn it into the
    conjugate whose image at the first embedding is e^(2 pi i/m), resp.
    2cos(2 pi/n) (`first_embedding_turn`).

    >>> element_in_field(cyclotomic(8), NumberField([1, 0, 0, 0, 1]))
    <x>
    >>> element_in_field([-3, 0, 1], NumberField([-2, 0, 1])) is None
    True
    """
    q = _trim([Fraction(c) for c in min_poly])
    if len(q) < 2:
        raise FieldError("minimal polynomial must be nonconstant")
    q = tuple(c / q[-1] for c in q)
    d, deg_q = nf.degree, len(q) - 1
    if d % deg_q != 0:
        return None
    if deg_q == 1:
        return nf.rational(-q[0])
    den, q_int = integral_model(q)
    if nonmembership_prime(q_int, nf, 0, SIEVE_FIRST) is not None:
        return None
    disc = discriminant(q_int)
    if disc == 0:
        raise FieldError("minimal polynomial has repeated roots")
    ell = next(ell for ell in nf.split_primes() if disc % ell)
    p_int, delta = nf._model, nf.denominator_bound
    # the bound of step 5, squared to stay in the integers: l^(2k) > bound
    c2 = d * (1 + max(map(abs, p_int))) ** (2 * d - 2)
    x2 = (d ** 3 * delta * c2 ** (d - 1) * (1 + max(map(abs, q_int))) ** 2
          + delta ** 2)
    bound = (2 ** (d + 2) * x2 * x2 * c2) ** d
    k_proof = math.ceil(bound.bit_length() / (2 * math.log2(ell)))
    while ell ** (2 * k_proof) <= bound:
        k_proof += 1
    a = next(_roots_mod(p_int, ell))
    over = list(_roots_mod(q_int, ell))

    def verified_root(k):
        modulus, a_k = ell ** k, _hensel_lift(p_int, a, ell, k)
        for b in over:
            beta = reconstruct_at(nf, a_k, _hensel_lift(q_int, b, ell, k),
                                  modulus, den)
            if beta is not None and _peval(q, beta, nf.zero).is_zero():
                return beta
        return None

    k = min(k_proof, math.ceil(LIFT_BITS / math.log2(ell)))
    found = verified_root(k)
    if found is None and k < k_proof and nonmembership_prime(
            q_int, nf, SIEVE_FIRST) is None:
        while found is None and k < k_proof:
            k = min(2 * k, k_proof)
            found = verified_root(k)
    return found


def first_embedding_turn(x, n, angle):
    """The h mod n with angle(sigma(x)) = 2 pi h / n at the first
    embedding sigma, read by one `nearest_integer` at READ_DIGITS digits,
    the CLI's default precision, or PrecisionExhausted.  For
    sigma(x) = e^(2 pi i h/n) (angle mp.arg), x^j with j = h^-1 mod n is
    the conjugate that sigma maps to e^(2 pi i/n)."""
    with working(READ_DIGITS):
        image = EmbeddingContext(x.field, 0, READ_DIGITS).evaluate(x)
        h = nearest_integer(angle(image) * n / (2 * mp.pi), READ_DIGITS)
    if h is None:
        raise PrecisionExhausted(f"the image of {x!r} at the first "
                                 f"embedding is no n-th turn for n = {n}")
    return h % n


def detect_roots_of_unity(nf):
    """The pair (m, w): m the order of the group of roots of unity of the
    field and w the generator whose image at the first embedding is
    e^(2 pi i/m), a root of the m-th cyclotomic polynomial, which
    certifies its order; every larger order is excluded exactly."""
    d = nf.degree
    for m in range(2 * d * d + 2, 2, -2):
        if euler_phi(m) <= d:
            w = element_in_field(cyclotomic(m), nf)
            if w is not None:
                return (m, w ** pow(first_embedding_turn(w, m, mp.arg),
                                    -1, m))
    return (2, nf.rational(-1))
