"""Flattenings, five-term relations and formal Bloch-type element algebra.

A flattening is a pair (e, f) of extension-group elements with
pi(e) + pi(f) = 1 and pi(e) outside {0, 1}, built from six edge labels by
`edge_flattening`.  Formal integer combinations of flattenings carry an extra
additive part tracked through the translation homomorphism chi: translating a
flattening by central elements (p, q) changes the combination by
chi(q*e - p*f + p*q), and chi kills even central elements.  Normalization
merges, per cross-ratio, all translates onto one base flattening and
accumulates the difference in the chi part, giving a deterministic normal form.

The PSL variant allows half-central translates; a PSL-level element lifts
if and only if an explicit field element is a square, which over a
saturated basis means all its exponents are even.
"""
from __future__ import annotations

from .extgroup import ExtElement, NotInSubgroup
from .field import FieldElement, _peval


class BlochError(Exception):
    pass


class DegenerateTuple(BlochError):
    pass


class NotAFlattening(BlochError):
    pass


class Flattening:
    """A pair (e, f) over one basis with pi(e) + pi(f) = 1 exactly and
    z = pi(e) outside {0, 1}.

    Each flattening is proven once.  Without z both components are
    projected and checked: for pairs from outside the library (a fixture's
    terms, a caller's Flattening(e, f)) and for edge labels (determinant
    and cyclic labels), where the check is the label identity, the
    Plucker relation or the cosine recurrence.  A flattening the library
    derives from proven data passes the image z of its cross-ratio and
    nothing is projected: translates and normal forms, the lifted
    five-term relation, Galois images, torsion-generator changes, the
    flattenings of a lifted cochain or of log symbols of z and 1 - z, and
    (log_lift(x), log_lift(1 - x)), whose projections log_lift proves.
    A wrong z is caught wherever the flattening is regulated:
    `reg_flattening` checks at every embedding that the lifts of e and f
    are logarithms of z and 1 - z."""

    __slots__ = ("e", "f", "z")

    def __init__(self, e, f, z=None):
        if e.basis is not f.basis:
            raise NotAFlattening("components over different bases")
        self.e = e
        self.f = f
        if z is None:
            z = e.pi()
            if z.is_zero() or z.is_one():
                raise NotAFlattening("cross-ratio must avoid 0 and 1")
            if not (z + f.pi()).is_one():
                raise NotAFlattening("pi(e) + pi(f) != 1")
        self.z = z

    @property
    def basis(self):
        return self.e.basis

    def translate(self, p, q):
        """The flattening shifted by p and q central units."""
        iota = self.basis.iota()
        return Flattening(self.e + p * iota, self.f + q * iota, self.z)

    def __eq__(self, other):
        return (isinstance(other, Flattening)
                and self.e == other.e and self.f == other.f)

    def __hash__(self):
        return hash((self.e, self.f))

    def sort_key(self):
        return (tuple(self.z.coeffs), self.e.sort_key(), self.f.sort_key())

    def __repr__(self):
        return f"Fl({self.e!r}, {self.f!r})"


EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def edge_flattening(c, z=None):
    """The flattening (c03 + c12 - c02 - c13, c01 + c23 - c02 - c13) of
    six edge labels c, keyed by EDGES; z as for Flattening."""
    c02_13 = c[(0, 2)] + c[(1, 3)]
    return Flattening(c[(0, 3)] + c[(1, 2)] - c02_13,
                      c[(0, 1)] + c[(2, 3)] - c02_13, z)


class ExtBlochSum:
    """A normalized formal combination of flattenings plus a chi part.

    The chi part is an extension element taken modulo twice the central
    generator (chi kills even central elements)."""

    def __init__(self, basis, terms=(), chi_part=None):
        self.basis = basis
        raw_chi = chi_part if chi_part is not None else ExtElement(basis, 0)
        merged = {}
        for n, fl in terms:
            if n == 0:
                continue
            if fl.basis is not basis:
                raise BlochError("terms over different bases")
            key = (fl.e.k % basis.m, fl.e.r, fl.f.k % basis.m, fl.f.r)
            merged.setdefault(key, []).append((int(n), fl))
        out = []
        for group in merged.values():
            any_fl = group[0][1]
            # canonical translate: central coordinates reduced to [0, m)
            base = Flattening(
                ExtElement(basis, any_fl.e.k % basis.m, any_fl.e.r),
                ExtElement(basis, any_fl.f.k % basis.m, any_fl.f.r),
                any_fl.z)
            total = 0
            for n, fl in group:
                p = (fl.e.k - base.e.k) // basis.m
                q = (fl.f.k - base.f.k) // basis.m
                if p or q:
                    shift = q * base.e - p * base.f + basis.iota(p * q)
                    raw_chi = raw_chi + n * shift
                total += n
            if total:
                out.append((total, base))
        out.sort(key=lambda t: t[1].sort_key())
        self.terms = tuple(out)
        self.chi_part = ExtElement(basis, raw_chi.k % (2 * basis.m),
                                   raw_chi.r)

    def __add__(self, other):
        if isinstance(other, ExtBlochSum) and other.basis is self.basis:
            return ExtBlochSum(self.basis, self.terms + other.terms,
                               self.chi_part + other.chi_part)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, ExtBlochSum) and other.basis is self.basis:
            return self + (-1) * other
        return NotImplemented

    def __mul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return ExtBlochSum(self.basis, [(n * c, fl) for c, fl in self.terms],
                           n * self.chi_part)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, ExtBlochSum) and other.basis is self.basis
                and self.terms == other.terms
                and self.chi_part == other.chi_part)

    def __hash__(self):
        return hash((id(self.basis), self.terms, self.chi_part))

    def is_zero(self):
        return not self.terms and self.chi_part.is_zero()

    def __repr__(self):
        body = " + ".join(f"{n}*{fl!r}" for n, fl in self.terms) or "0"
        return f"EBS({body}; chi={self.chi_part!r})"

    def nu_hat(self):
        """The wedge of the combination, as wedge_is_zero's terms (n, e, f);
        a chi term chi(e) contributes the wedge of e with the central
        generator (the difference of the wedges of its two defining
        flattenings)."""
        terms = [(n, fl.e, fl.f) for n, fl in self.terms]
        if not self.chi_part.is_zero():
            terms.append((1, self.chi_part, self.basis.iota()))
        return terms

    def is_in_Bhat(self):
        return self.basis.wedge_is_zero(self.nu_hat())

    def project(self):
        """The underlying plain combination of cross-ratios (chi terms have
        no cross-ratio image)."""
        field = self.basis.field
        return BlochSum(field, [(n, fl.z) for n, fl in self.terms])


class BlochSum:
    """A formal integer combination of field elements outside {0, 1}."""

    def __init__(self, field, terms):
        merged = {}
        for n, z in terms:
            if not isinstance(z, FieldElement):
                z = field.rational(z)
            if z.is_zero() or z.is_one():
                raise DegenerateTuple("entries must avoid 0 and 1")
            merged[z] = merged.get(z, 0) + int(n)
        self.field = field
        self.terms = tuple(sorted(((n, z) for z, n in merged.items() if n),
                                  key=lambda t: tuple(t[1].coeffs)))

    def __eq__(self, other):
        return (isinstance(other, BlochSum) and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field.poly, self.terms))

    def __repr__(self):
        return "BS(" + (" + ".join(f"{n}*[{z!r}]" for n, z in self.terms)
                        or "0") + ")"

    def nu_terms(self, basis):
        """Wedge data of z /\\ (1 - z) per term, in basis coordinates."""
        out = []
        for n, z in self.terms:
            out.append((n, basis.log_lift(z), basis.log_lift(self.field.one - z)))
        return out

    def is_in_B(self, basis):
        """Membership in the kernel of z |-> z /\\ (1-z) over F*, decided in
        coordinates where the torsion generator has order m."""
        return basis.fstar_wedge_is_zero(self.nu_terms(basis))


def chi(e):
    """The pure chi element of e: an empty combination with chi part e."""
    return ExtBlochSum(e.basis, (), e)


def normalize(basis, terms=(), chi_part=None):
    """Merge flattening translates per cross-ratio into the normal form."""
    return ExtBlochSum(basis, terms, chi_part)


def five_term(x, y):
    """The five cross-ratios (x, y, y/x, (1-1/x)/(1-1/y), (1-x)/(1-y)).

    x and y must avoid 0 and 1 and be distinct; then so do the other three:
    each is 0 only if y = 0 or x = 1, and 1 only if x = y."""
    field = x.field
    one = field.one
    for t in (x, y):
        if t.is_zero() or t.is_one():
            raise DegenerateTuple("x and y must avoid 0 and 1")
    if x == y:
        raise DegenerateTuple("x and y must be distinct")
    return (x, y, y / x,
            (one - x.inverse()) / (one - y.inverse()),
            (one - x) / (one - y))


def _five_term_equations(fl0, fl1, f2):
    """The coordinates (e2, e3, f3, e4, f4) that the defining linear
    equations of a lifted five-term relation give from the flattenings
    (e0, f0), (e1, f1) and the coordinate f2."""
    e0, f0, e1, f1 = fl0.e, fl0.f, fl1.e, fl1.f
    return (e1 - e0, e1 - e0 - f1 + f0, f2 - f1, f0 - f1, f2 - f1 + e0)


def is_lifted_five_term(terms):
    """Whether five signed flattenings form a lifted five-term relation:
    alternating signs and the defining linear equations."""
    if [s for s, _ in terms] != [1, -1, 1, -1, 1]:
        return False
    fl0, fl1, fl2, fl3, fl4 = [fl for _, fl in terms]
    return _five_term_equations(fl0, fl1, fl2.f) == \
        (fl2.e, fl3.e, fl3.f, fl4.e, fl4.f)


def lift_five_term(fl0, fl1):
    """Lift a five-term relation: from flattenings of x0 and x1 compute the
    remaining three flattenings by the defining linear equations, with the
    lift of 1 - x1/x0 in canonical coordinates over the basis.  As pi is a
    homomorphism, they project to the rest of five_term(x0, x1), and they
    carry those cross-ratios: x2 = x1/x0, x3 = x2*x4 and
    x4 = (1 - x0)/(1 - x1)."""
    basis = fl0.basis
    if fl1.basis is not basis:
        raise NotAFlattening("flattenings over different bases")
    if fl0.z == fl1.z:
        raise DegenerateTuple("x and y must be distinct")
    one = basis.field.one
    x2 = fl1.z / fl0.z
    try:
        f2 = basis.log_lift(one - x2)
    except NotInSubgroup as exc:
        raise NotAFlattening(str(exc)) from None
    x4 = (one - fl0.z) / (one - fl1.z)
    e2, e3, f3, e4, f4 = _five_term_equations(fl0, fl1, f2)
    return (fl0, fl1, Flattening(e2, f2, x2), Flattening(e3, f3, x2 * x4),
            Flattening(e4, f4, x4))


def rho_hat(lifted):
    """Alternating sum of a lifted five-term tuple as a raw term list."""
    return [((-1) ** i, fl) for i, fl in enumerate(lifted)]


# ---------------------------------------------------------------------------
# PSL variant

def psl_project(s):
    """Project an ExtBlochSum to the PSL level, as the comparable pair of
    its terms (n, 2e, 2f) in doubled coordinates, so that half-central
    translates stay integral, and its chi part with the central
    coefficient taken modulo the central generator (the transfer relation
    makes chi of the half-unit vanish, and doubling identifies chi(2e)
    with twice the PSL-level chi of e)."""
    chi_part = ExtElement(s.basis, s.chi_part.k % s.basis.m, s.chi_part.r)
    return tuple((n, 2 * fl.e, 2 * fl.f) for n, fl in s.terms), chi_part


def psl_lift_obstruction(x, basis):
    """Whether x is a square in F*: over a saturated basis, all free
    exponents even and the torsion exponent even (m is even, so an odd
    power of the torsion generator has no square root in F*)."""
    e = basis.log_lift(x)
    liftable = e.k % 2 == 0 and all(exp % 2 == 0 for _, exp in e.r)
    return basis._caveat(liftable, "non-square")


def change_torsion_generator(s, new_basis):
    """Transport an ExtBlochSum to a basis over a different torsion
    generator (same field, same free generators).

    If the new generator raised to a gives the old one, coordinates map by
    (k, r) -> (a*k, r); the chi part additionally picks up the factor a,
    because the covering takes the old central unit to a times the new one.
    The regulator vector is unchanged.  Both generators must have the same
    order m; otherwise the old central unit is not a times the new one.
    """
    old = s.basis
    if new_basis.field != old.field:
        raise BlochError("transport requires the same field")
    if new_basis.m != old.m:
        raise BlochError("transport requires torsion generators of the "
                         "same order")
    if [new_basis.gen_value(j) for j in range(new_basis.num_gens())] != \
            [old.gen_value(j) for j in range(old.num_gens())]:
        raise BlochError("transport requires identical free generators")
    a = new_basis.torsion_log(old.torsion_gen)
    if a is None:
        raise BlochError("new torsion generator does not reach the old one")

    def tr(e):
        return ExtElement(new_basis, a * e.k, dict(e.r))

    terms = [(n, Flattening(tr(fl.e), tr(fl.f), fl.z)) for n, fl in s.terms]
    return ExtBlochSum(new_basis, terms, a * tr(s.chi_part))


# ---------------------------------------------------------------------------
# Galois action

def galois_apply(tau, s):
    """Apply a field automorphism (given by the image of the generator)
    termwise.  For extension-level sums the coordinates are re-expressed by
    lifting the images of the basis generators over the same basis.  tau
    must be a root of the defining polynomial, so that it gives an
    automorphism; it then maps the torsion generator to a power of it."""
    if not isinstance(s, (BlochSum, ExtBlochSum)):
        raise BlochError("unsupported operand for the Galois action")
    field = s.field if isinstance(s, BlochSum) else s.basis.field
    if not _peval(field.poly, tau, field.zero).is_zero():
        raise BlochError("the image of the generator is not a root of the "
                         "defining polynomial")
    if isinstance(s, BlochSum):
        return BlochSum(field, [(n, z.substitute(tau)) for n, z in s.terms])
    basis = s.basis
    k_img = basis.torsion_log(basis.torsion_gen.substitute(tau))
    gen_imgs = {}

    def push(e):
        out = ExtElement(basis, e.k * k_img)
        for j, exp in e.r:
            if j not in gen_imgs:
                gen_imgs[j] = basis.log_lift(basis.gen_value(j).substitute(tau))
            out = out + exp * gen_imgs[j]
        return out

    terms = [(n, Flattening(push(fl.e), push(fl.f), fl.z.substitute(tau)))
             for n, fl in s.terms]
    return ExtBlochSum(basis, terms, push(s.chi_part))
