"""The four workloads.  Each one is a class with the same five steps:

    w = Workload(seed, root, workdir)   # seeded generator; no library use
    w.pass_inputs                # inputs 0 .. pass_inputs-1 make one pass
    w.raw(i)                     # the i-th input as plain data (JSON-able)
    state = w.setup(lib)         # fields, bases, elements: timed as set-up
    args = w.prepare(state, raw) # hand the input to the library (untimed)
    out = w.op(state, args)      # one operation: timed
    digits = w.check(raw, out)   # raises CheckFailed; digits or None

`lib` maps module names ('field', 'cli', ...) to freshly imported extbloch
modules.  Inputs depend only on the seed and the index, so the same seed
gives byte-identical inputs however many a run consumes.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from fractions import Fraction

from mpmath import mp

import oracles
from oracles import expect

FIXTURES = os.path.join("tests", "fixtures")


def _rng(name, seed, *index):
    return random.Random(":".join(map(str, (name, seed) + index)))


class FlagExact:
    name = "flag_exact"
    why = ("exact algebra only: flag_boundary_check over Q, entry height "
           "5 to 1e9; exercises field mul, pi, Flattening; bypasses numerics")
    # entries lie in [-h, h], h log-uniform on [5, 1e9]: input i draws h
    # from stratum i % STRATA of that range, so every run sees all heights
    STRATA = 8
    pass_inputs = 14 * STRATA

    def __init__(self, seed, root, workdir):
        self.seed = seed

    def raw(self, i):
        rng = _rng(self.name, self.seed, i)
        u = (i % self.STRATA + rng.random()) / self.STRATA
        h = round(5 * (2 * 10 ** 8) ** u)
        while True:
            bases = [[[rng.randint(-h, h) for _ in range(3)]
                      for _ in range(3)] for _ in range(5)]
            if oracles.flag_general_position(bases):
                return bases

    def setup(self, lib):
        return {"lib": lib, "Q": lib["field"].NumberField([0, 1])}

    def prepare(self, state, raw):
        q = state["Q"]
        return [tuple(tuple(q.rational(x) for x in v) for v in b)
                for b in raw]

    def op(self, state, bases):
        return state["lib"]["cochain"].flag_boundary_check(bases)

    def check(self, raw, report):
        # general position is certified exactly, so every boundary vanishes
        expect(report.ok, f"flag boundary not certified: {report}")
        return None


class FivetermQ40:
    name = "fiveterm_q40"
    why = ("mixed: lifted five-term relations over Q with the shared basis "
           "{2,3,5}; log_lift, normal forms, wedge, li2 at 40 digits")
    PRECISION = 40
    pass_inputs = 400

    def __init__(self, seed, root, workdir):
        pairs = oracles.s_unit_pairs()
        _rng(self.name, seed).shuffle(pairs)
        self.pairs = pairs

    def raw(self, i):
        x, y = self.pairs[i % len(self.pairs)]
        return [str(x), str(y)]

    def setup(self, lib):
        field = lib["field"].NumberField([0, 1])
        basis = lib["extgroup"].MultBasis(
            field, [field.rational(p) for p in (2, 3, 5)], saturated=True)
        return {"lib": lib, "Q": field, "basis": basis}

    def prepare(self, state, raw):
        return [state["Q"].rational(Fraction(v)) for v in raw]

    def op(self, state, args):
        bloch = state["lib"]["bloch"]
        basis, one = state["basis"], state["Q"].one
        fl0, fl1 = [bloch.Flattening(basis.log_lift(z),
                                     basis.log_lift(one - z)) for z in args]
        s = bloch.normalize(basis,
                            bloch.rho_hat(bloch.lift_five_term(fl0, fl1)))
        return s.is_in_Bhat(), state["lib"]["regulator"].reg_vector(
            s, self.PRECISION)

    def check(self, raw, out):
        in_bhat, vec = out
        expect(in_bhat, f"five-term relation {raw} has nonzero wedge")
        with mp.workdps(60):
            worst = max(oracles.distance_mod_4pi2(v.value) for v in vec)
            expect(worst < mp.mpf(10) ** -25,
                   f"five-term regulator {raw} is {worst} off 0 mod 4pi^2")
            return oracles.digits(worst, 60)


# Elements of regulator_nf200, in fixture coordinates (k, [[j, r], ...]):
# the basis data of criterion 05 and the fixture element alpha.
_SQRT2 = {"poly": [-2, 0, 1], "gens": [[0, 1], [-1, 1]], "torsion": [-1],
          "m": 2,
          # r - 1, -r - 1, 2, r over the generators r, r - 1
          "z": [[0, [[1, 1]]], [1, [[1, -1]]], [0, [[0, 2]]],
                [0, [[0, 1]]]]}
_QUARTIC = {"poly": [1, -2, 2, -1, 1], "gens": [[1, -2, 0, -1]],
            "torsion": [0, 1, 0, 1], "m": 6,
            "alpha": [[1, [0, [[0, 1]]], [4, [[0, 2]]]],
                      [2, [3, [[0, -2]]], [1, [[0, -3]]]]],
            "alpha_chi": [0, [[0, -3]]]}


class RegulatorNF200:
    name = "regulator_nf200"
    why = ("high-precision numerics: reg_vector and Bloch-Wigner sums at "
           "200 digits over Q(sqrt2) and the quartic; little exact work")
    PRECISION = 200
    # Every third element lies over Q(sqrt2): two of the four swapped pairs
    # of criterion 05, each of the six choices once, so that every seed
    # gets the same mix of work.  Those take about half as long as the
    # quartic elements, which keeps both latency percentiles inside the
    # quartic elements' range instead of on the boundary between the two.
    ELEMENTS = 18
    pass_inputs = 6 * ELEMENTS
    SQRT2_CHOICES = list(itertools.combinations(range(4), 2))

    def __init__(self, seed, root, workdir):
        self.seed = seed
        self.specs = [self._spec(j) for j in range(self.ELEMENTS)]
        self.refs = [self._reference(s) for s in self.specs]

    def _spec(self, j):
        rng = _rng(self.name, self.seed, j)
        if j % 3 == 0:
            # swapped pairs, nonzero multiplicities, a central chi part
            chosen = self.SQRT2_CHOICES[j // 3]
            return {"index": j, "field": "sqrt2",
                    "pairs": [[rng.choice([-3, -2, -1, 1, 2, 3]),
                               _SQRT2["z"][k]] for k in chosen],
                    "terms": [],
                    "chi": [rng.randint(-2, 2) * _SQRT2["m"], []]}
        # c * alpha over the quartic plus central chi parts, as criterion 05
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        k0, r0 = _QUARTIC["alpha_chi"]
        chi_k = (c * k0 + rng.randint(-2, 2) * _QUARTIC["m"]
                 + 2 * rng.randint(-2, 2))
        return {"index": j, "field": "quartic", "pairs": [],
                "terms": [[c * n, e, f] for n, e, f in _QUARTIC["alpha"]],
                "chi": [chi_k, [[j, c * r] for j, r in r0]]}

    def _reference(self, spec):
        data = _SQRT2 if spec["field"] == "sqrt2" else _QUARTIC
        terms = [(n, z, complement) for n, z in spec["pairs"]
                 for complement in (False, True)]
        terms += [(n, e, False) for n, e, _ in spec["terms"]]
        return oracles.bloch_wigner_sums(data["poly"], data["torsion"],
                                         data["gens"], terms,
                                         self.PRECISION + 20)

    def raw(self, i):
        return self.specs[i % len(self.specs)]

    def setup(self, lib):
        field_mod, ext, bloch = lib["field"], lib["extgroup"], lib["bloch"]
        bases = {}
        for key, data in (("sqrt2", _SQRT2), ("quartic", _QUARTIC)):
            f = field_mod.NumberField(data["poly"])
            bases[key] = ext.MultBasis(
                f, [f.element(c) for c in data["gens"]], saturated=True,
                torsion_gen=f.element(data["torsion"]))
        elements = []
        for spec in self.specs:
            basis = bases[spec["field"]]

            def lift(coords):
                k, pairs = coords
                return basis.element(k, {j: r for j, r in pairs})

            terms = []
            for n, coords in spec["pairs"]:
                e = lift(coords)
                f = basis.log_lift(basis.field.one - e.pi())
                terms += [(n, bloch.Flattening(e, f)),
                          (n, bloch.Flattening(f, e))]
            terms += [(n, bloch.Flattening(lift(e), lift(f)))
                      for n, e, f in spec["terms"]]
            elements.append(bloch.normalize(basis, terms, lift(spec["chi"])))
        return {"lib": lib, "elements": elements}

    def prepare(self, state, raw):
        return state["elements"][raw["index"]]

    def op(self, state, s):
        regulator = state["lib"]["regulator"]
        in_bhat = s.is_in_Bhat()
        vec = regulator.reg_vector(s, self.PRECISION)
        sums = []
        with mp.workdps(self.PRECISION + 40):
            for ctx in s.basis.field.embeddings(self.PRECISION):
                sums.append(sum(n * regulator.bloch_wigner(
                    ctx.evaluate(fl.z), self.PRECISION) for n, fl in s.terms))
        return in_bhat, vec, sums

    def check(self, raw, out):
        in_bhat, vec, sums = out
        ref = self.refs[raw["index"]]
        expect(in_bhat, "element has nonzero wedge")
        expect(len(vec) == len(ref) == len(sums),
               "wrong number of embeddings")
        with mp.workdps(self.PRECISION + 20):
            worst = max(abs(mp.im(mp.mpc(v.value)) - r)
                        for v, r in zip(vec, ref))
            expect(worst < mp.mpf(10) ** -150,
                   f"Im(regulator) misses the Bloch-Wigner sum by {worst}")
            off = max(abs(d - r) for d, r in zip(sums, ref))
            expect(off < mp.mpf(10) ** -150,
                   f"library Bloch-Wigner sum misses by {off}")
            return oracles.digits(worst, self.PRECISION + 20)


def _scaled(poly, c):
    """p(x/c) * c^d: the same field, coefficient height grown by c^d."""
    d = len(poly) - 1
    return [a * c ** (d - i) for i, a in enumerate(poly)]


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class CliFields:
    name = "cli_fields"
    why = ("in-process CLI calls on freshly built, rescaled fields of "
           "degree 1-4 and on the fixtures: root isolation, LLL, torsion")
    # base field, copies per round, largest scale c; each copy and round
    # takes one of four log-uniform strata of [1, c_max], and a seeded c in
    # it (the middle of it for the HEAVY fields, see _round)
    COPIES = [("Q", 2, 10 ** 8), ("sqrt2", 2, 10 ** 4), ("i", 2, 10 ** 4),
              ("sqrt-3", 2, 10 ** 4), ("quartic", 1, 20), ("x4+1", 1, 20)]
    HEAVY = {"quartic", "x4+1", "element_example.json"}
    FIXTURE_OPS = [(["bloch", "verify"], "element_example.json", []),
                   (["bloch", "regulator"], "element_example.json",
                    ["--symmetric-range"]),
                   (["fiveterm", "check"], "fiveterm_rational.json", []),
                   (["cycle", "invariant"], "figure_eight.json", [])]
    # Rescalings that the seed code answers wrongly (m or nu_p undercounted
    # after a failed reconstruction).  They are run once per run, outside
    # the timed loop, and reported; see known_defects.
    DEFECT_CASES = [("quartic", 1000), ("x4+1", 1000), ("i", 3 * 10 ** 7),
                    ("sqrt-3", 3 * 10 ** 7), ("sqrt2", 3 * 10 ** 7)]
    # documented regulator of the element fixture at its first embedding
    ELEMENT_REGULATOR = ("-7.4532295470253", "-2.3126354032530")

    def __init__(self, seed, root, workdir):
        self.seed = seed
        self.fixtures = os.path.join(root, FIXTURES)
        self.workdir = workdir
        self.rounds = {}
        self.roots = {}
        with open(os.path.join(self.fixtures, "element_example.json")) as fh:
            elem = json.load(fh)
        basis = elem["basis"]
        self.element_dsums = oracles.bloch_wigner_sums(
            elem["field"], basis["torsion_gen"], basis["free_gens"],
            [(n, e, False) for n, e, _ in elem["terms"]], 40)
        self.volume = oracles.figure_eight_volume(40)
        self.round_size = len(self._round(0))
        self.min_traced = self.round_size   # reach every command once
        # whole rounds, so a pass holds every command equally often
        self.pass_inputs = 3 * self.round_size

    # -- inputs ----------------------------------------------------------

    def _round(self, r):
        """One round of the schedule: every base field and fixture command,
        with heavy (degree-4) calls spread evenly among the light ones."""
        rng = _rng(self.name, self.seed, r)
        heavy, light = [], []
        for base, copies, cmax in self.COPIES:
            for copy in range(copies):
                stratum = (r + copy) % 4
                u = rng.random()
                if base in self.HEAVY:
                    # the middle of the stratum: these calls make up the
                    # tail, and a seeded c there moved p90 by 10-20%
                    # from seed to seed
                    u = 0.5
                c = max(1, round(cmax ** ((stratum + u) / 4)))
                prime = "2" if (r + copy) % 2 == 0 else "3"
                for argv in (["field", "info"], ["torsion", "table"],
                             ["torsion", "generators"],
                             ["torsion", "order", "--prime", prime]):
                    op = {"base": base, "c": c, "argv": argv}
                    (heavy if base in self.HEAVY else light).append(op)
        for argv, fixture, extra in self.FIXTURE_OPS:
            op = {"fixture": fixture, "argv": argv + extra}
            (heavy if fixture in self.HEAVY else light).append(op)
        rng.shuffle(heavy)
        rng.shuffle(light)
        keyed = [((k + 0.5) / len(group), op)
                 for group in (heavy, light) for k, op in enumerate(group)]
        return [op for _, op in sorted(keyed, key=lambda t: t[0])]

    def raw(self, i):
        r, j = divmod(i, self.round_size)
        if r not in self.rounds:
            self.rounds = {r: self._round(r)}
        return self.rounds[r][j]

    def _field_path(self, base, c):
        path = os.path.join(self.workdir, f"{base}_{c}.json")
        if not os.path.exists(path):
            with open(path, "w") as fh:
                json.dump({"field": _scaled(oracles.BASE_FIELDS[base]["poly"],
                                            c)}, fh)
        return path

    # -- library calls -----------------------------------------------------

    def setup(self, lib):
        return {"lib": lib}

    def prepare(self, state, raw):
        if "fixture" in raw:
            path = os.path.join(self.fixtures, raw["fixture"])
        else:
            path = self._field_path(raw["base"], raw["c"])
        return raw["argv"][:2] + [path] + raw["argv"][2:] + ["--json"]

    def op(self, state, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = state["lib"]["cli"].main(argv)
        return code, out.getvalue(), err.getvalue()

    # -- checks ------------------------------------------------------------

    def check(self, raw, out):
        code, stdout, stderr = out
        expect(code == 0, f"{raw['argv']} exited {code}: {stderr.strip()}")
        result = json.loads(stdout)["result"]
        if "fixture" in raw:
            return self._check_fixture(raw["argv"][:2], result)
        base = oracles.BASE_FIELDS[raw["base"]]
        poly = _scaled(base["poly"], raw["c"])
        nu = {p: base["nu"].get(p, 0) for p in (2, 3, 5, 7)}
        what = f"{raw['argv']} on {raw['base']} scaled by {raw['c']}"
        command = raw["argv"][1]
        with mp.workdps(40):
            if command == "info":
                self._check_info(result, base, poly, what)
            elif command == "table":
                self._check_table(result, base, nu, what)
            elif command == "generators":
                self._check_generators(result, poly, nu, what)
            else:
                p = int(raw["argv"][3])
                want = 2 ** (nu[2] + 1) if p == 2 else p ** nu[p]
                expect(result["order"] == want,
                       f"{what}: order {result['order']}, want {want}")
        return None

    def _embeddings(self, poly):
        key = tuple(poly)
        if key not in self.roots:
            self.roots[key] = oracles.embeddings(poly, 40)
        return self.roots[key]

    def _check_info(self, result, base, poly, what):
        roots, _ = self._embeddings(poly)
        m = base["m"]
        expect(result["degree"] == len(poly) - 1, f"{what}: degree")
        expect(result["signature"] == base["signature"], f"{what}: signature")
        expect(result["torsion_order"] == m,
               f"{what}: m = {result['torsion_order']}, want {m}")
        expect(result["automorphisms"] == base["aut"],
               f"{what}: {result['automorphisms']} automorphisms, "
               f"want {base['aut']}")
        coeffs = result["torsion_generator"].strip("[]").split(",")
        w = oracles.evaluate([Fraction(c) for c in coeffs], roots[0])
        expect(abs(w ** m - 1) < mp.mpf(10) ** -20,
               f"{what}: torsion generator is not an m-th root of unity")
        expect(all(abs(w ** (m // q) - 1) > 0.1
                   for q in (2, 3, 5, 7) if m % q == 0),
               f"{what}: torsion generator is not primitive")
        expect(len(result["embeddings"]) == len(roots),
               f"{what}: number of embeddings")
        for text, root in zip(result["embeddings"], roots):
            z = oracles.parse_complex(text)
            expect(abs(z - root) < mp.mpf(10) ** -20 * max(1, abs(root)),
                   f"{what}: embedding {text} != {root}")

    def _check_table(self, result, base, nu, what):
        m = base["m"]
        expect(result["m"] == m, f"{what}: m = {result['m']}, want {m}")
        listed = {int(p): v for p, v in result["nu"].items()}
        expect({2, 3} <= set(listed), f"{what}: primes 2 and 3 missing")
        for p, v in listed.items():
            expect(v == nu.get(p, 0),
                   f"{what}: nu_{p} = {v}, want {nu.get(p, 0)}")
            expect(result["nu_prime"][str(p)] == v - _valuation(m, p),
                   f"{what}: nu'_{p}")
        want_w = 2 * math.prod(p ** v for p, v in nu.items())
        expect(result["w"] == want_w, f"{what}: w = {result['w']}, "
               f"want {want_w}")

    def _check_generators(self, result, poly, nu, what):
        gens = result["generators"]
        want = {str(p) for p, v in nu.items() if v > 0}
        expect(set(gens) == want, f"{what}: generators for {sorted(gens)}, "
               f"want {sorted(want)}")
        roots, r1 = self._embeddings(poly)
        for p, text in gens.items():
            expect(text != "none", f"{what}: no generator at {p}")
            terms = oracles.parse_generator(text)
            # a torsion element has Bloch-Wigner sum 0 at every embedding
            for root in roots[r1:]:
                total = mp.mpf(0)
                for n, coeffs in terms:
                    expect(len(coeffs) == len(poly) - 1,
                           f"{what}: coordinate vector length")
                    total += n * oracles.bloch_wigner(
                        oracles.evaluate(coeffs, root))
                expect(abs(total) < mp.mpf(10) ** -20,
                       f"{what}: generator at {p} has D-sum {total}")

    def _check_fixture(self, command, result):
        with mp.workdps(40):
            if command == ["bloch", "verify"]:
                expect(result["in_B"] and result["in_Bhat"]
                       and result["caveats"] == [] and result["terms"] == 2,
                       f"bloch verify: {result}")
            elif command == ["bloch", "regulator"]:
                vals = [oracles.parse_complex(t) for t in result["regulator"]]
                want = mp.mpc(*map(mp.mpf, self.ELEMENT_REGULATOR))
                expect(abs(vals[0] - want) < mp.mpf(10) ** -12,
                       f"bloch regulator: {vals[0]}, want {want}")
                expect(len(vals) == len(self.element_dsums)
                       and all(abs(mp.im(v) - d) < mp.mpf(10) ** -20
                               for v, d in zip(vals, self.element_dsums)),
                       "bloch regulator: Im misses the Bloch-Wigner sum")
            elif command == ["fiveterm", "check"]:
                expect(result["wedge_zero"] and result["regulator_zero"],
                       f"fiveterm check: {result}")
                expect(all(oracles.distance_mod_4pi2(
                    oracles.parse_complex(t)) < mp.mpf(10) ** -20
                    for t in result["regulator"]),
                    "fiveterm check: regulator is not 0 mod 4pi^2")
            else:
                expect(result["matches"], f"cycle invariant: {result}")
                got = [mp.mpf(result["imaginary_parts"][0]),
                       mp.mpf(result["dilogarithm_sums"][0])]
                worst = max(abs(g - self.volume) for g in got)
                expect(worst < mp.mpf(10) ** -20,
                       f"cycle invariant: {got}, want {self.volume}")
                return oracles.digits(worst, 40)
        return None

    def known_defects(self, state):
        """Run `torsion table` on the rescalings the seed code gets wrong;
        returns one (case, reported (m, nu), true (m, nu)) per case."""
        out = []
        for base, c in self.DEFECT_CASES:
            truth = oracles.BASE_FIELDS[base]
            argv = ["torsion", "table", self._field_path(base, c), "--json"]
            code, stdout, _ = self.op(state, argv)
            got = None
            if code == 0:
                res = json.loads(stdout)["result"]
                got = [res["m"], {int(p): v for p, v in res["nu"].items()
                                  if p in ("2", "3")}]
            out.append((f"{base} x->x/{c}", got,
                        [truth["m"], truth["nu"]]))
        return out


WORKLOADS = {w.name: w for w in (FlagExact, FivetermQ40, RegulatorNF200,
                                 CliFields)}
