"""Span tracing of calls into extbloch's public functions, from outside.

The library itself carries no instrumentation.  `Tracer.install` replaces
each function named in SPANS by a recording wrapper, in every extbloch
module namespace and class dictionary that binds it (modules import each
other by name, so patching only the defining module would miss calls).
Spans are kept in memory as parallel arrays (name, start, end, parent),
written out by `dump`, and reduced to per-layer metrics by `summarize`.
"""
from __future__ import annotations

import json
import time
from array import array

# metric prefix -> (module, class or None, attribute); a prefix may name
# several functions whose calls it counts together.
SPANS = {
    "field.mul": [("field", "FieldElement", "__mul__")],
    "field.inverse": [("field", "FieldElement", "inverse")],
    "field.construct": [("field", "NumberField", "__init__")],
    "field.roots": [("field", "NumberField", "roots")],
    "field.reconstruct": [("field", None, "reconstruct_at")],
    "field.element_in_field": [("field", None, "element_in_field")],
    "extgroup.pi": [("extgroup", "_BasisCommon", "pi")],
    "extgroup.symbol": [("extgroup", "SymbolicBasis", "symbol")],
    "extgroup.log_lift": [("extgroup", "MultBasis", "log_lift")],
    "extgroup.wedge": [("extgroup", "_BasisCommon", "wedge_is_zero"),
                       ("extgroup", "MultBasis", "fstar_wedge_is_zero")],
    "extgroup.cover_to_C": [("extgroup", None, "cover_to_C")],
    "bloch.flattening": [("bloch", "Flattening", "__init__")],
    "bloch.normalize": [("bloch", None, "normalize")],
    "bloch.lift_five_term": [("bloch", None, "lift_five_term")],
    "regulator.li2": [("regulator", None, "li2")],
    "regulator.bloch_wigner": [("regulator", None, "bloch_wigner")],
    "regulator.reg_vector": [("regulator", None, "reg_vector")],
    "torsion.two_cos": [("torsion", None, "two_cos")],
    "torsion.torsion_profile": [("torsion", None, "torsion_profile")],
    "torsion.certify_order": [("torsion", None, "certify_order")],
    "cochain.flag_boundary_check": [("cochain", None, "flag_boundary_check")],
    "cochain.manifold_invariant": [("cochain", None, "manifold_invariant")],
    "cli.main": [("cli", None, "main")],
}

# Reported per-layer metrics: (name, span, statistic).  Statistics are
# per traced operation: calls, inclusive seconds (outermost spans only, so
# recursion is not counted twice), self seconds (minus child spans), and
# the ratios hit_ratio (share of calls returning an element) and
# distinct_ratio (distinct (z, precision) arguments over calls).
METRICS = [
    ("field.mul.calls", "field.mul", "calls"),
    ("field.mul.self_s", "field.mul", "self_s"),
    ("field.inverse.calls", "field.inverse", "calls"),
    ("field.inverse.self_s", "field.inverse", "self_s"),
    ("field.construct.calls", "field.construct", "calls"),
    ("field.construct.s", "field.construct", "s"),
    ("field.roots.calls", "field.roots", "calls"),
    ("field.roots.s", "field.roots", "s"),
    ("field.reconstruct.calls", "field.reconstruct", "calls"),
    ("field.reconstruct.s", "field.reconstruct", "s"),
    ("field.reconstruct.hit_ratio", "field.element_in_field", "hit_ratio"),
    ("extgroup.pi.calls", "extgroup.pi", "calls"),
    ("extgroup.pi.self_s", "extgroup.pi", "self_s"),
    ("extgroup.symbol.calls", "extgroup.symbol", "calls"),
    ("extgroup.log_lift.calls", "extgroup.log_lift", "calls"),
    ("extgroup.log_lift.s", "extgroup.log_lift", "s"),
    ("extgroup.wedge.calls", "extgroup.wedge", "calls"),
    ("extgroup.wedge.s", "extgroup.wedge", "s"),
    ("extgroup.cover_to_C.calls", "extgroup.cover_to_C", "calls"),
    ("extgroup.cover_to_C.s", "extgroup.cover_to_C", "s"),
    ("bloch.flattening.calls", "bloch.flattening", "calls"),
    ("bloch.flattening.self_s", "bloch.flattening", "self_s"),
    ("bloch.normalize.calls", "bloch.normalize", "calls"),
    ("bloch.normalize.s", "bloch.normalize", "s"),
    ("bloch.lift_five_term.calls", "bloch.lift_five_term", "calls"),
    ("regulator.li2.calls", "regulator.li2", "calls"),
    ("regulator.li2.s", "regulator.li2", "s"),
    ("regulator.li2.distinct_ratio", "regulator.li2", "distinct_ratio"),
    ("regulator.bloch_wigner.calls", "regulator.bloch_wigner", "calls"),
    ("regulator.bloch_wigner.s", "regulator.bloch_wigner", "s"),
    ("regulator.reg_vector.calls", "regulator.reg_vector", "calls"),
    ("regulator.reg_vector.s", "regulator.reg_vector", "s"),
    ("torsion.two_cos.calls", "torsion.two_cos", "calls"),
    ("torsion.two_cos.s", "torsion.two_cos", "s"),
    ("torsion.two_cos.hit_ratio", "torsion.two_cos", "hit_ratio"),
    ("torsion.torsion_profile.s", "torsion.torsion_profile", "s"),
    ("torsion.certify_order.s", "torsion.certify_order", "s"),
    ("cochain.flag_boundary_check.calls", "cochain.flag_boundary_check",
     "calls"),
    ("cochain.flag_boundary_check.self_s", "cochain.flag_boundary_check",
     "self_s"),
    ("cochain.manifold_invariant.s", "cochain.manifold_invariant", "s"),
    ("cli.main.calls", "cli.main", "calls"),
    ("cli.main.self_s", "cli.main", "self_s"),
]

UNITS = {"calls": "count/op", "s": "s/op", "self_s": "s/op",
         "hit_ratio": "ratio", "distinct_ratio": "ratio"}

# Spans whose results feed a ratio, and the span whose arguments do.
_HIT_SPANS = {"field.element_in_field", "torsion.two_cos"}
_ARG_SPAN = "regulator.li2"

# The workloads on which each span must record calls; a traced run that
# sees none of them fails its self-check.
EXPECTED = {
    "field.mul": ("flag_exact", "fiveterm_q40"),
    "field.inverse": ("flag_exact", "fiveterm_q40"),
    "field.construct": ("cli_fields",),
    "field.roots": ("cli_fields",),
    "field.reconstruct": ("cli_fields",),
    "field.element_in_field": ("cli_fields",),
    "extgroup.pi": ("flag_exact", "fiveterm_q40"),
    "extgroup.symbol": ("flag_exact",),
    "extgroup.log_lift": ("fiveterm_q40",),
    "extgroup.wedge": ("fiveterm_q40", "regulator_nf200"),
    "extgroup.cover_to_C": ("fiveterm_q40", "regulator_nf200"),
    "bloch.flattening": ("flag_exact", "fiveterm_q40"),
    "bloch.normalize": ("fiveterm_q40",),
    "bloch.lift_five_term": ("fiveterm_q40",),
    "regulator.li2": ("fiveterm_q40", "regulator_nf200"),
    "regulator.bloch_wigner": ("regulator_nf200",),
    "regulator.reg_vector": ("fiveterm_q40", "regulator_nf200"),
    "torsion.two_cos": ("cli_fields",),
    "torsion.torsion_profile": ("cli_fields",),
    "torsion.certify_order": ("cli_fields",),
    "cochain.flag_boundary_check": ("flag_exact",),
    "cochain.manifold_invariant": ("cli_fields",),
    "cli.main": ("cli_fields",),
}


class Tracer:
    """Records one span per call of a patched function."""

    def __init__(self):
        self.names = list(SPANS)
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.nested = array("b")   # an enclosing span has the same name
        self.hits = [0] * len(self.names)
        self.args = set()
        self._stack = []
        self._depth = [0] * len(self.names)
        self._patched = []

    # -- recording -----------------------------------------------------

    def _wrap(self, fn, sid):
        name = self.names[sid]
        counts_hits = name in _HIT_SPANS
        records_args = name == _ARG_SPAN
        stack, depth = self._stack, self._depth
        name_of, start, end = self.name_of, self.start, self.end
        parent, nested, clock = self.parent, self.nested, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(sid)
            parent.append(stack[-1] if stack else -1)
            nested.append(depth[sid] > 0)
            end.append(0.0)
            stack.append(idx)
            depth[sid] += 1
            if records_args:
                self.args.add((args[0], args[1] if len(args) > 1
                               else kwargs.get("precision")))
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[sid] -= 1
                stack.pop()
            if counts_hits and out is not None:
                self.hits[sid] += 1
            return out

        return wrapper

    def install(self, modules):
        """Patch every binding of every traced function.  `modules` maps
        short names ('field', 'cli', ...) to the imported extbloch modules."""
        for sid, name in enumerate(self.names):
            for mod_name, cls_name, attr in SPANS[name]:
                owner = modules[mod_name]
                if cls_name is None:
                    original = getattr(owner, attr)
                    wrapper = self._wrap(original, sid)
                    for mod in modules.values():
                        if getattr(mod, attr, None) is original:
                            self._set(mod, attr, wrapper)
                else:
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    wrapper = self._wrap(original, sid)
                    for key, value in list(cls.__dict__.items()):
                        if value is original:       # aliases: __rmul__
                            self._set(cls, key, wrapper)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reduction -----------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            sid = self.name_of[i]
            calls[sid] += 1
            self_s[sid] += dur[i] - child[i]
            if not self.nested[i]:
                incl[sid] += dur[i]
        return {name: {"calls": calls[sid], "s": incl[sid],
                       "self_s": self_s[sid]}
                for sid, name in enumerate(self.names)}

    def summarize(self, ops, workload):
        """Per-layer metrics per traced operation, as METRICS lists them,
        and the spans expected on this workload that recorded no call."""
        tot = self.totals()
        missing = [name for name, workloads in EXPECTED.items()
                   if workload in workloads and tot[name]["calls"] == 0]
        out = {}
        for metric, span, stat in METRICS:
            t = tot[span]
            if stat == "hit_ratio":
                sid = self.names.index(span)
                value = self.hits[sid] / t["calls"] if t["calls"] else 0.0
            elif stat == "distinct_ratio":
                value = len(self.args) / t["calls"] if t["calls"] else 0.0
            elif stat == "calls":
                value = t["calls"] / ops
            else:
                value = t[stat] / ops
            out[metric] = {"value": value, "unit": UNITS[stat]}
        return out, missing

    def dump(self, path):
        """Write all spans: a JSON header line, then the raw arrays in the
        order name (int32), parent (int32), start, end (float64 seconds of
        time.perf_counter)."""
        header = {"names": self.names, "spans": len(self.start),
                  "layout": ["name:i4", "parent:i4", "start:f8", "end:f8"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
