"""Triangulated 3-cycles, edge cochains and their flattening elements.

A 3-cycle is a set of ordered 4-vertex simplices with orientation signs,
glued along faces by vertex maps; the 1-cells are the union-find classes of
simplex edges.  An ideal cochain labels the 1-cells with nonzero field
values whose per-simplex ratios

    c03*c12 / (c02*c13) = z,     c01*c23 / (c02*c13) = 1 - z

reproduce a cross-ratio; a lifted cochain labels them with extension-group
elements instead.  The per-simplex flattening of a lift is

    (c~03 + c~12 - c~02 - c~13,  c~01 + c~23 - c~02 - c~13),

`bloch.edge_flattening` with the cochain's proven cross-ratio as z, and the
signed sum over simplices is the element of the cycle.  Edge conditions attach
log-parameters e, f - e, -f to the edge pairs {01,23}, {02,13}, {03,12} and
require the signed sum around every 1-cell to vanish.

The same routine drives two linear-group constructions, both through
`_determinant_flattening`, which keeps the projection check: from pairwise 2x2
determinants of vectors hit by SL(2) matrices, and from 3x3 determinants of
ordered bases of F^3 (with one basis vector swapped for its successor, and a
sign that depends on where the reference vector is inserted).  For the latter,
the boundary of a 5-tuple of bases decomposes termwise into six explicitly
recognizable lifted five-term relations, which certifies that it vanishes.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from mpmath import mp

from .field import (FieldElement, NumberField, is_small, nearest_integer,
                    working)
from .extgroup import SymbolicBasis, cover_to_C
from .bloch import (EDGES, ExtBlochSum, Flattening, chi, edge_flattening,
                    is_lifted_five_term, normalize)
from .regulator import bloch_wigner, reg_vector
from .torsion import _recurrence


class CochainError(Exception):
    pass


class NotIdeal(CochainError):
    pass


class NotACocycle(CochainError):
    pass


class NotGeneralPosition(CochainError):
    pass


class EdgeConditionFailed(CochainError):
    pass


def _determinant_flattening(basis, dets):
    """`edge_flattening` of the log symbols of six determinant labels,
    keyed by EDGES.  A zero label means that the vectors are not in general
    position.  Nonzero labels always give a flattening: z = 0 would need a
    zero label, and z = 1 would force d01*d23 = 0 through the Plucker
    relation that the projection check verifies, so a NotAFlattening from
    it is a bug, not a verdict on the vectors."""
    c = {}
    for edge in EDGES:
        if dets[edge].is_zero():
            raise NotGeneralPosition("a determinant of the chosen vectors "
                                     "vanishes")
        c[edge] = basis.symbol(dets[edge])
    return edge_flattening(c)


def face_vertices(face):
    """Vertices of the face opposite the given vertex, ascending."""
    return tuple(v for v in range(4) if v != face)


class Triangulated3Cycle:
    """Ordered simplices with orientation signs and face gluings.

    gluings: iterable of (t, face, t2, face2, vmap) where vmap lists the
    images in t2 of the ascending vertices of the face of t.  Inverse
    gluings are filled in automatically and must not conflict.
    """

    def __init__(self, num_simplices, gluings, orientations=None):
        self.num_simplices = int(num_simplices)
        if self.num_simplices < 1:
            raise CochainError("a cycle needs at least one simplex")
        if orientations is None:
            orientations = [1] * self.num_simplices
        self.orientations = tuple(int(s) for s in orientations)
        if len(self.orientations) != self.num_simplices or \
                any(s not in (-1, 1) for s in self.orientations):
            raise CochainError("orientations must be one sign per simplex")
        self.pairing = {}
        for t, f, t2, f2, vmap in gluings:
            vmap = tuple(int(v) for v in vmap)
            self._add_pairing((t, f), (t2, f2), vmap)
            inv = tuple(x for x, _ in sorted(zip(face_vertices(f), vmap),
                                             key=lambda p: p[1]))
            self._add_pairing((t2, f2), (t, f), inv)
        self._build_edges()

    def _add_pairing(self, a, b, vmap):
        t, f = a
        t2, f2 = b
        if not (0 <= t < self.num_simplices and 0 <= t2 < self.num_simplices
                and 0 <= f < 4 and 0 <= f2 < 4):
            raise CochainError("gluing indices out of range")
        if sorted(vmap) != list(face_vertices(f2)):
            raise CochainError("vertex map does not hit the target face")
        if a in self.pairing and self.pairing[a] != (t2, f2, vmap):
            raise CochainError(f"conflicting gluings at {a}")
        self.pairing[a] = (t2, f2, vmap)

    @property
    def closed(self):
        return len(self.pairing) == 4 * self.num_simplices

    @property
    def ordered(self):
        """Whether every gluing preserves the vertex orderings."""
        return all(vmap == face_vertices(f2)
                   for _, (_, f2, vmap) in self.pairing.items())

    def _build_edges(self):
        self._parent = {(t, e): (t, e)
                        for t in range(self.num_simplices) for e in EDGES}
        for (t, f), (t2, _f2, vmap) in self.pairing.items():
            fv = face_vertices(f)
            m = dict(zip(fv, vmap))
            for a, b in itertools.combinations(fv, 2):
                self._union((t, (a, b)),
                            (t2, tuple(sorted((m[a], m[b])))))

    def _find(self, x):
        while self._parent[x] != x:
            self._parent[x] = self._parent[self._parent[x]]
            x = self._parent[x]
        return x

    def _union(self, x, y):
        rx, ry = self._find(x), self._find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            self._parent[ry] = rx

    def edge_class(self, t, i, j):
        """Canonical representative of the 1-cell through edge (i, j)."""
        if i > j:
            i, j = j, i
        if (t, (i, j)) not in self._parent:
            raise CochainError(f"no edge ({i}, {j}) of simplex {t} in the "
                               "cycle")
        return self._find((t, (i, j)))

    def edge_classes(self):
        """Map from representative to the sorted list of member edges."""
        out = {}
        for key in self._parent:
            out.setdefault(self._find(key), []).append(key)
        return {rep: sorted(members) for rep, members in sorted(out.items())}


class IdealCochain:
    """Nonzero field values on the 1-cells, with per-simplex cross-ratios z
    proven by 1 - z, which keeps z out of {0, 1} (z = 1 needs c01 c23 = 0)."""

    def __init__(self, cycle, field, values):
        self.cycle = cycle
        self.field = field
        self.class_values = {}
        for key, value in values.items():
            rep = cycle.edge_class(key[0], *key[1])
            if not isinstance(value, FieldElement):
                value = field.rational(value)
            if value.is_zero():
                raise NotIdeal("1-cell labels must be nonzero")
            old = self.class_values.get(rep)
            if old is not None and old != value:
                raise NotIdeal(f"conflicting labels on the 1-cell {rep}")
            self.class_values[rep] = value
        missing = set(cycle.edge_classes()) - set(self.class_values)
        if missing:
            raise NotIdeal(f"unlabeled 1-cells: {sorted(missing)}")
        self.cross_ratios = tuple(self._cross_ratio(t)
                                  for t in range(cycle.num_simplices))

    def label(self, t, i, j):
        return self.class_values[self.cycle.edge_class(t, i, j)]

    def _cross_ratio(self, t):
        c = {e: self.label(t, *e) for e in EDGES}
        den = c[(0, 2)] * c[(1, 3)]
        z = c[(0, 3)] * c[(1, 2)] / den
        if c[(0, 1)] * c[(2, 3)] / den != self.field.one - z:
            raise NotIdeal("labels do not satisfy the complementary ratio")
        return z

    def twist(self, alpha):
        """The cochain multiplied by a sign per 1-cell."""
        return IdealCochain(self.cycle, self.field,
                            {rep: (v if alpha[rep] == 1 else -v)
                             for rep, v in self.class_values.items()})


class LiftedCochain:
    """Extension-group labels on the 1-cells, checked to project to an ideal
    cochain; by default shared log symbols per labeled value."""

    def __init__(self, cochain, basis=None, lifts=None):
        self.cochain = cochain
        self.cycle = cochain.cycle
        self.basis = basis if basis is not None \
            else SymbolicBasis(cochain.field)
        if lifts is None:
            self.class_lifts = {
                rep: self.basis.symbol(cochain.class_values[rep])
                for rep in sorted(cochain.class_values)}
        else:
            self.class_lifts = dict(lifts)
            odd = set(self.class_lifts) ^ set(cochain.class_values)
            if odd:
                raise NotIdeal("the lifts must label exactly the 1-cells; "
                               f"they differ at {sorted(odd, key=repr)}")
            for rep, value in cochain.class_values.items():
                if self.class_lifts[rep].pi() != value:
                    raise NotIdeal("lift does not project to the label "
                                   f"at {rep}")

    def label(self, t, i, j):
        return self.class_lifts[self.cycle.edge_class(t, i, j)]

    def flattening(self, t):
        return edge_flattening({e: self.label(t, *e) for e in EDGES},
                               self.cochain.cross_ratios[t])

    def shifted(self, rep, amount):
        """A lift with one 1-cell's label shifted by an integer multiple of
        the central unit."""
        lifts = dict(self.class_lifts)
        if rep not in lifts:
            raise NotIdeal(f"{rep!r} is no 1-cell of the cycle")
        lifts[rep] = lifts[rep] + self.basis.iota(amount)
        return LiftedCochain(self.cochain, self.basis, lifts)


def sigma_hat(lc):
    """The signed sum of per-simplex flattenings of a lifted cochain.  On a
    closed cycle the wedge must vanish, and this is verified."""
    cycle = lc.cycle
    if not cycle.ordered:
        raise CochainError("the flattening sum needs order-preserving "
                           "gluings")
    terms = [(cycle.orientations[t], lc.flattening(t))
             for t in range(cycle.num_simplices)]
    out = ExtBlochSum(lc.basis, terms)
    if cycle.closed and not out.is_in_Bhat():
        raise CochainError("closed cycle produced a nonzero wedge")
    return out


# ---------------------------------------------------------------------------
# Edge conditions

_EDGE_PARAM = {(0, 1): "e", (2, 3): "e",
               (0, 2): "g", (1, 3): "g",
               (0, 3): "f", (1, 2): "f"}


def _edge_sums(cycle, pairs, zero):
    """The signed sum around every 1-cell of the log-parameters of the
    pairs (e, f), one per simplex: each simplex contributes e at edges 01
    and 23, -f at 03 and 12, and f - e at 02 and 13, weighted by its
    orientation sign.  The sums start from `zero`."""
    sums = {}
    for t, (e, f) in enumerate(pairs):
        params = {"e": e, "f": -f, "g": f - e}
        sign = cycle.orientations[t]
        for edge, kind in _EDGE_PARAM.items():
            rep = cycle.edge_class(t, *edge)
            sums[rep] = sums.get(rep, zero) + sign * params[kind]
    return sums


# ---------------------------------------------------------------------------
# The sign-cocycle twist

@dataclass
class TwistResult:
    twisted: LiftedCochain
    class_bit: int
    difference: ExtBlochSum
    expected: ExtBlochSum

    @property
    def matches(self):
        return self.difference == self.expected


def z2_twist(lc, alpha):
    """Twist a lifted cochain by a sign-valued 1-cocycle.

    The twisted lift adds the half-unit on the 1-cells carrying -1.  The
    class bit is the signed count, mod 2, of simplices whose consecutive
    edge signs (01, 12, 23) are all -1; the difference of the two
    flattening sums must be chi of that count times the central unit.
    """
    cycle = lc.cycle
    basis = lc.basis
    signs = {}
    for key, s in alpha.items():
        rep = cycle.edge_class(key[0], *key[1])
        if s not in (-1, 1):
            raise NotACocycle("twist values must be signs")
        if signs.setdefault(rep, s) != s:
            raise NotACocycle(f"conflicting twist values at {rep}")
    if set(signs) != set(cycle.edge_classes()):
        raise NotACocycle("twist must assign a sign to every 1-cell")

    def sgn(t, i, j):
        return signs[cycle.edge_class(t, i, j)]

    for t in range(cycle.num_simplices):
        for i, j, k in itertools.combinations(range(4), 3):
            if sgn(t, i, j) * sgn(t, j, k) * sgn(t, i, k) != 1:
                raise NotACocycle(f"face ({i},{j},{k}) of simplex {t} "
                                  "violates the cocycle condition")

    twisted_values = lc.cochain.twist(signs)
    half = basis.half()
    lifts = {rep: (e + half if signs[rep] == -1 else e)
             for rep, e in lc.class_lifts.items()}
    twisted = LiftedCochain(twisted_values, basis, lifts)

    signed_count = sum(cycle.orientations[t]
                       for t in range(cycle.num_simplices)
                       if (sgn(t, 0, 1), sgn(t, 1, 2), sgn(t, 2, 3))
                       == (-1, -1, -1))
    difference = sigma_hat(twisted) - sigma_hat(lc)
    expected = chi(basis.iota(signed_count))
    return TwistResult(twisted=twisted, class_bit=signed_count % 2,
                       difference=difference, expected=expected)


# ---------------------------------------------------------------------------
# Cyclic fixture: n simplices around a common axis

def cyclic_cycle(n):
    """The closed ordered cycle with simplices (A, B, C_t, C_{t+1}),
    t mod n: the front face 2 of each simplex meets face 3 of the next,
    and face 0 meets face 1 of the previous one."""
    gluings = []
    for t in range(n):
        gluings.append((t, 2, (t + 1) % n, 3, (0, 1, 2)))
        gluings.append((t, 0, (t - 1) % n, 1, (0, 2, 3)))
    return Triangulated3Cycle(n, gluings)


def cyclic_cochain(field, c, n):
    """The determinant labels of the cyclic cycle driven by the recurrence
    b_0 = -1, b_1 = 1, b_{k+1} = c*b_k - b_{k-1}: simplex t carries
    c01 = 1, c23 = c + 2, c02 = c13 = b_t, c03 = b_{t+1}, c12 = b_{t-1}."""
    if not isinstance(c, FieldElement):
        c = field.rational(c)
    b = _recurrence(c, field.rational(-1), field.rational(1), n + 2)
    values = {}
    for t in range(n):
        values[(t, (0, 1))] = field.one
        values[(t, (2, 3))] = c + field.rational(2)
        values[(t, (0, 2))] = b[t]
        values[(t, (1, 3))] = b[t]
        values[(t, (0, 3))] = b[t + 1]
        values[(t, (1, 2))] = b[t - 1] if t else b[n - 1]
    cycle = cyclic_cycle(n)
    return IdealCochain(cycle, field, values)


# ---------------------------------------------------------------------------
# SL(2) orbits

def _det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _matvec(g, v):
    return (g[0][0] * v[0] + g[0][1] * v[1],
            g[1][0] * v[0] + g[1][1] * v[1])


def lambda_sl2(tuples, v):
    """The flattening sum of signed 4-tuples of 2x2 matrices acting on a
    base vector, via pairwise determinant labels."""
    basis = SymbolicBasis(v[0].field)
    terms = []
    for sign, gs in tuples:
        us = [_matvec(g, v) for g in gs]
        dets = {(i, j): _det2(us[i], us[j]) for i, j in EDGES}
        terms.append((sign, _determinant_flattening(basis, dets)))
    return normalize(basis, terms)


# ---------------------------------------------------------------------------
# Ordered bases of F^3

def _det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


class _Determinants:
    """Determinants and flattenings of labelled vectors of F^3, for one
    computation: each determinant is computed once per unordered triple of
    labels and each flattening once per input.  `vectors` maps sortable
    labels to vectors."""

    def __init__(self, basis, vectors):
        self.basis = basis
        self.vectors = vectors
        self._dets = {}
        self._flattenings = {}

    def det(self, labels):
        """The determinant of the labelled vectors in the given order: the
        one of the sorted labels, negated for an odd permutation of them."""
        key = tuple(sorted(labels))
        d = self._dets.get(key)
        if d is None:
            v = self.vectors
            d = self._dets[key] = _det3(v[key[0]], v[key[1]], v[key[2]])
        a, b, c = labels
        return -d if (a > b) ^ (a > c) ^ (b > c) else d

    def flattening(self, labels, ref, place):
        """Flattening of four labelled vectors v relative to the vector w
        labelled `ref`, inserted at `place`.  Edge (j, k) is labeled by
        det(w, v_j, v_k), negated when j < place <= k: the merged order
        (v_j, w, v_k) is one transposition away from it, and (v_j, v_k, w)
        is a cyclic shift."""
        key = (labels, ref, place)
        fl = self._flattenings.get(key)
        if fl is None:
            dets = {}
            for j, k in EDGES:
                d = self.det((ref, labels[j], labels[k]))
                dets[(j, k)] = -d if j < place <= k else d
            fl = self._flattenings[key] = _determinant_flattening(self.basis,
                                                                  dets)
        return fl


def _flag_determinants(bases, basis):
    """`_Determinants` of the leading and second vectors of ordered bases,
    labelled (basis t, slot s)."""
    if basis is None:
        basis = SymbolicBasis(bases[0][0][0].field)
    return _Determinants(basis, {(t, s): b[s] for t, b in enumerate(bases)
                                 for s in (0, 1)})


def flag_lambda(bases, basis=None):
    """The four-term flattening sum of a 4-tuple of ordered bases: term i
    swaps in the second vector of the i-th basis and uses its leading
    vector as the reference."""
    dets = _flag_determinants(bases, basis)
    return normalize(dets.basis, _flag_terms(dets, range(4), 1))


def _swapped(ts, i):
    """The labels of the leading vectors of the bases ts, with basis ts[i]'s
    second vector swapped in at place i."""
    labels = [(t, 0) for t in ts]
    labels[i] = (ts[i], 1)
    return tuple(labels)


def _flag_terms(dets, ts, sign):
    return [(sign, dets.flattening(_swapped(ts, i), (ts[i], 0), i))
            for i in range(4)]


def _partial_terms(dets, i):
    """The five alternating flattenings of the boundary of `_swapped`
    vectors of five bases, relative to basis i's leading vector; dropping
    vector j moves the insertion place i to i - (j < i)."""
    labels = _swapped(range(5), i)
    return [((-1) ** j,
             dets.flattening(labels[:j] + labels[j + 1:], (i, 0),
                             i - (j < i)))
            for j in range(5)]


@dataclass
class FlagBoundaryReport:
    partials_ok: tuple
    mixed_ok: bool
    identity_ok: bool

    @property
    def ok(self):
        return all(self.partials_ok) and self.mixed_ok and self.identity_ok


def flag_boundary_check(bases, basis=None):
    """Certify that the flattening sum of the boundary of a 5-tuple of
    ordered bases vanishes.

    The 20 boundary terms decompose, termwise, as the sum of the five
    boundaries that swap in one basis' second vector (reference = that
    basis' leading vector) minus the mixed boundary of the leading vectors.
    The mixed boundary is their diagonal: term j of the j-th drops the
    swapped vector, leaving the same four vectors, reference and place.
    Each of the six pieces is checked to be a lifted five-term relation
    by the defining equations, and the decomposition itself is checked as
    an exact equality of formal sums.  Term i of face j has the input of
    term j of the partial boundary of basis i, so the check computes 25
    flattenings over 30 determinants (`_Determinants`).
    """
    dets = _flag_determinants(bases, basis)
    lhs = []
    for j in range(5):
        lhs.extend(_flag_terms(dets, [t for t in range(5) if t != j],
                               (-1) ** j))
    partials = [_partial_terms(dets, i) for i in range(5)]
    mixed = [partials[j][j] for j in range(5)]
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


# ---------------------------------------------------------------------------
# Flattened triangulation files

SEARCH_BOUND = 4   # on each entry of searched translates


@dataclass
class ManifoldInvariant:
    element: ExtBlochSum
    flattenings: tuple
    translates: tuple   # the (p, q) pair of each simplex, supplied or searched
    regulator: list
    imaginary_parts: list
    dilogarithm_sums: list
    precision: int

    @property
    def matches(self):
        """Whether Im(regulator) equals the Bloch-Wigner sum at every
        embedding: their difference passes `field.is_small`."""
        return all(is_small(a - b, self.precision)
                   for a, b in zip(self.imaginary_parts,
                                   self.dilogarithm_sums))


def _translate_coefficients(cycle, reps):
    """Rows p_0, q_0, p_1, q_1, ...: the central units that one unit of
    each translate adds to the edge sum of each 1-cell in reps.  A unit of
    p on simplex t raises its e by the central unit, one of q its f; the
    sums follow by `_edge_sums`."""
    coeffs = []
    for t in range(cycle.num_simplices):
        for unit in ((1, 0), (0, 1)):
            pairs = [(0, 0)] * cycle.num_simplices
            pairs[t] = unit
            sums = _edge_sums(cycle, pairs, 0)
            coeffs.append([sums[rep] for rep in reps])
    return coeffs


def _edge_targets(basis, base, precision):
    """Targets of the edge conditions sum_j x_j * coeffs[j] == targets
    (`_translate_coefficients`), one per 1-cell of the edge sums `base` at
    zero translates, in sorted order.  Translates add only central units,
    and pi(iota) = 1, so each base sum must project to 1; its target is
    minus its logarithm over the central unit's, rounded at every
    embedding.  EdgeConditionFailed unless the roundings exist and agree.
    """
    reps = sorted(base)
    for rep in reps:
        value = base[rep].pi()
        if not value.is_one():
            raise EdgeConditionFailed(
                f"the shapes fail the gluing equation of the 1-cell {rep}: "
                f"the value projection of its edge sum is {value!r}, not 1")
    targets = None
    with working(precision):
        for ctx in basis.field.embeddings(precision):
            lift = cover_to_C(basis, ctx)
            unit = lift.lift(basis.iota())
            here = [nearest_integer(-lift.lift(base[rep]) / unit, precision)
                    for rep in reps]
            targets = targets or here
            for rep, k, target in zip(reps, here, targets):
                if k is None or k != target:
                    raise EdgeConditionFailed(
                        f"no integer translates cancel the edge sum of the "
                        f"1-cell {rep}: its logarithms at the embeddings are "
                        f"not one integer multiple of the central unit's")
    return targets


def _search_translates(coeffs, targets):
    """Lexicographically first translate pairs, each entry within
    SEARCH_BOUND, whose coefficient rows sum to the targets; None if there
    are none."""
    slots, nreps = len(coeffs), len(targets)
    # prune a branch when the remaining slots cannot reach the targets
    reach = [[0] * nreps for _ in range(slots + 1)]
    for j in range(slots - 1, -1, -1):
        for i in range(nreps):
            reach[j][i] = reach[j + 1][i] + SEARCH_BOUND * abs(coeffs[j][i])

    def dfs(j, partial):
        if j == slots:
            return [] if partial == targets else None
        for x in range(-SEARCH_BOUND, SEARCH_BOUND + 1):
            nxt = [partial[i] + x * coeffs[j][i] for i in range(nreps)]
            if all(abs(targets[i] - nxt[i]) <= reach[j + 1][i]
                   for i in range(nreps)):
                rest = dfs(j + 1, nxt)
                if rest is not None:
                    return [x] + rest
        return None

    flat = dfs(0, [0] * nreps)
    if flat is None:
        return None
    return tuple(zip(flat[0::2], flat[1::2]))


def manifold_invariant(data, precision=50):
    """Assemble the element of a flattened triangulation and evaluate its
    regulator.

    `data` is the object of a triangulation fixture: it supplies the shape
    field, the gluing combinatorics, one shape per simplex and optionally
    the integer translate pairs; missing translates are searched
    lexicographically, each entry within SEARCH_BOUND.  The edge
    conditions are the integer system whose targets `_edge_targets`
    rounds once: supplied translates must satisfy it exactly, searched
    ones solve it.

    Only Im(regulator) and `matches` are invariants: no cusp conditions
    are imposed, so Re(regulator) depends on the translates, and without
    `flattenings` it belongs to the lexicographically first ones found.
    """
    field = NumberField(data["field"])
    cycle = Triangulated3Cycle(data["tets"], data["gluings"],
                               data.get("orientations"))
    if not cycle.closed:
        raise CochainError("triangulation file does not describe a closed "
                           "cycle")
    for key in ("shapes", "flattenings"):
        if (key == "shapes" or data.get(key)) and \
                len(data[key]) != cycle.num_simplices:
            raise CochainError(f"'{key}' needs one entry per simplex")
    basis = SymbolicBasis(field)
    shapes = []
    for coeffs in data["shapes"]:
        z = field.element(coeffs)
        if z.is_zero() or z.is_one():
            raise NotIdeal("shape parameter hit 0 or 1")
        shapes.append(z)
    sz = [basis.symbol(z) for z in shapes]
    s1z = [basis.symbol(field.one - z) for z in shapes]
    base = _edge_sums(cycle, zip(sz, s1z), basis.element(0))
    targets = _edge_targets(basis, base, precision)
    reps = sorted(base)
    coeffs = _translate_coefficients(cycle, reps)
    if data.get("flattenings"):
        pqs = tuple(tuple(pq) for pq in data["flattenings"])
        flat = [x for pq in pqs for x in pq]
        violations = [rep for i, rep in enumerate(reps)
                      if sum(x * row[i] for x, row in zip(flat, coeffs))
                      != targets[i]]
        if violations:
            raise EdgeConditionFailed(
                f"edge sums do not vanish at {violations}")
    else:
        pqs = _search_translates(coeffs, targets)
        if pqs is None:
            raise EdgeConditionFailed("no translate assignment within the "
                                      "search bound satisfies the edge "
                                      "conditions")
    fls = tuple(Flattening(e + basis.iota(p), f + basis.iota(q), z)
                for e, f, z, (p, q) in zip(sz, s1z, shapes, pqs))
    element = normalize(basis, [(cycle.orientations[t], fls[t])
                                for t in range(cycle.num_simplices)])
    regulator = reg_vector(element, precision)
    dsums = []
    with working(precision):
        for ctx in field.embeddings(precision):
            dsum = mp.mpf(0)
            for t, z in enumerate(shapes):
                dsum += cycle.orientations[t] * \
                    bloch_wigner(ctx.evaluate(z), precision)
            dsums.append(+dsum)
    return ManifoldInvariant(element=element, flattenings=fls,
                             translates=pqs, regulator=regulator,
                             imaginary_parts=[mp.im(val.value)
                                              for val in regulator],
                             dilogarithm_sums=dsums, precision=precision)
