"""Command-line interface: batch access to the library over JSON fixtures.

Subcommands:
    field info FIELD.json
    bloch verify ELEMENT.json
    bloch regulator ELEMENT.json
    fiveterm check PAIR.json
    torsion table FIELD.json
    torsion generators FIELD.json [--prime P]
    torsion order FIELD.json --prime P
    cycle invariant TRIANGULATION.json

Only `torsion generators` (optionally) and `torsion order` (always) take
--prime P, a prime.  Common flags: --precision N (digits of embeddings,
regulators and certified orders, >= 20, default 50; a value that must
vanish passes at 10^(10 - N), so a tighter check asks for more digits),
--symmetric-range (display regulators with real part in [-2*pi^2, 2*pi^2)
instead of [0, 4*pi^2)), --json.

Exit codes: 0 success; 2 input error: a usage error (argparse exits with
SystemExit(2)) or an InputError, raised for an unreadable fixture, a
fixture key that is missing or has a value of the wrong shape, a constant
or repeated-root defining polynomial, or a --precision below 20; 3
mathematical failure; 4 precision exhausted (a numeric step did not
converge or kept too few digits; field membership is decided on integers
and never exits 4).  Any other exception propagates: it is a bug, not bad
input.  Output is deterministic for a fixed command line.

From Python, `main(argv)` runs one command line and returns its exit code
(usage errors and --help raise SystemExit).  The argparse tree is built on
the first call and reused by every later call in the process
(`build_parser`); each call still reads its own fixture, builds its own
field and renders its own output.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import warnings
from fractions import Fraction

from mpmath import mp

from .field import (PRIME_LIMIT, DegreeZero, NotSquarefree, NumberField,
                    PrecisionExhausted, is_prime, is_small, working)
from .extgroup import ExtGroupError, MultBasis, UnsaturatedBasis
from .bloch import (BlochError, ExtBlochSum, Flattening, lift_five_term,
                    normalize, rho_hat)
from .regulator import RegulatorError, reg_vector
from .torsion import (NotApplicable, TorsionError, beta_p, certify_order,
                      cosine_exponents, flattened_torsion, torsion_profile)
from .cochain import CochainError, manifold_invariant


class InputError(Exception):
    pass


def _load_fixture(path):
    """The JSON object in the fixture file, its decimals read as exact
    Fractions; a bare list is read as the defining polynomial of a field
    fixture."""
    try:
        with open(path) as fh:
            data = json.load(fh, parse_float=Fraction)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    if isinstance(data, list):
        data = {"field": data}
    if not isinstance(data, dict):
        raise InputError(f"{path} does not hold a JSON object")
    return data


# ---------------------------------------------------------------------------
# Fixture values, checked where a command reads them: a value of the wrong
# shape is an InputError naming its key.

def _bad(key, what):
    return InputError(f"fixture key {key!r}: {what}")


def _required(data, key):
    if key not in data:
        raise InputError(f"fixture lacks the key {key!r}")
    return data[key]


def _convert(kind, value, key):
    """kind(value) for a scalar of the fixture."""
    try:
        return kind(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise _bad(key, exc) from None


def _list(value, key, length=None):
    if not isinstance(value, list) or length not in (None, len(value)):
        raise _bad(key, "expected a list" if length is None
                   else f"expected a list of {length} entries")
    return value


def _ints(value, key, length=None):
    return [_convert(int, v, key) for v in _list(value, key, length)]


def _coeffs(value, key, degree=None):
    """A coefficient list, constant term first, of at most `degree`
    entries if given."""
    coeffs = [_convert(Fraction, c, key) for c in _list(value, key)]
    if degree is not None and len(coeffs) > degree:
        raise _bad(key, f"more than {degree} coordinates")
    return coeffs


@contextlib.contextmanager
def _defining_polynomial():
    """A constant or repeated-root defining polynomial, rejected where the
    fixture's field is built, as an InputError."""
    try:
        yield
    except (NotSquarefree, DegreeZero) as exc:
        raise _bad("field", exc) from None


def _field_of(data):
    coeffs = _coeffs(_required(data, "field"), "field")
    with _defining_polynomial():
        return NumberField(coeffs)


def _basis_of(field, data):
    desc = _required(data, "basis")
    if not isinstance(desc, dict):
        raise _bad("basis", "expected an object")
    gens = [field.element(_coeffs(c, "free_gens", field.degree))
            for c in _list(desc.get("free_gens", []), "free_gens")]
    torsion_gen = None
    if "torsion_gen" in desc:
        torsion_gen = field.element(
            _coeffs(desc["torsion_gen"], "torsion_gen", field.degree))
    return MultBasis(field, gens, saturated=bool(desc.get("saturated")),
                     torsion_gen=torsion_gen)


def _ext_element(basis, coords, key):
    """The element of E written [k, [[generator, exponent], ...]]."""
    k, pairs = _list(coords, key, 2)
    exponents = dict(_ints(pair, key, 2) for pair in _list(pairs, key))
    if not all(0 <= j < len(basis.free_gens) for j in exponents):
        raise _bad(key, "generator index out of range")
    return basis.element(_convert(int, k, key), exponents)


def _element_of(data):
    field = _field_of(data)
    basis = _basis_of(field, data)
    terms = []
    for term in _list(data.get("terms", []), "terms"):
        n, e, f = _list(term, "terms", 3)
        terms.append((_convert(int, n, "terms"),
                      Flattening(_ext_element(basis, e, "terms"),
                                 _ext_element(basis, f, "terms"))))
    chi_part = (_ext_element(basis, data["chi"], "chi") if "chi" in data
                else None)
    return ExtBlochSum(basis, terms, chi_part)


def _triangulation_of(data):
    """The triangulation keys with their values checked and converted."""
    field = _coeffs(_required(data, "field"), "field")
    degree = max((i for i, c in enumerate(field) if c), default=0)
    tets = _convert(int, _required(data, "tets"), "tets")
    if tets < 1:
        raise _bad("tets", "expected at least one simplex")
    gluings = []
    for g in _list(_required(data, "gluings"), "gluings"):
        t, f, t2, f2 = _ints(_list(g, "gluings", 5)[:4], "gluings")
        vmap = _ints(g[4], "gluings", 3)
        if min(t, f, t2, f2, *vmap) < 0 or max(t, t2) >= tets \
                or max(f, f2, *vmap) > 3:
            raise _bad("gluings", "simplex, face or vertex out of range")
        gluings.append([t, f, t2, f2, vmap])
    out = {"field": field, "tets": tets, "gluings": gluings,
           "shapes": [_coeffs(z, "shapes", degree) for z in
                      _list(_required(data, "shapes"), "shapes", tets)]}
    if data.get("orientations") is not None:
        out["orientations"] = _ints(data["orientations"], "orientations",
                                    tets)
        if any(s not in (-1, 1) for s in out["orientations"]):
            raise _bad("orientations", "expected signs 1 and -1")
    if data.get("flattenings"):
        out["flattenings"] = [_ints(pq, "flattenings", 2) for pq in
                              _list(data["flattenings"], "flattenings", tets)]
    return out


def _fmt_real(x, digits):
    return mp.nstr(x, digits, strip_zeros=False)


def _fmt_complex(z, digits):
    z = mp.mpc(z)
    re = _fmt_real(mp.re(z), digits)
    im = _fmt_real(abs(mp.im(z)), digits)
    sign = "-" if mp.im(z) < 0 else "+"
    return f"{re} {sign} {im}i"


def _reg_strings(vec, args):
    digits = min(args.precision, 30)
    out = []
    with working(args.precision):
        for v in vec:
            rep = v.symmetric() if args.symmetric_range else v.canonical()
            out.append(_fmt_complex(rep, digits))
    return out


def _poly_string(coeffs):
    return "[" + ", ".join(str(c) for c in coeffs) + "]"


# ---------------------------------------------------------------------------
# Commands: each takes the fixture's JSON object and the parsed arguments,
# and returns a payload dict; rendering is shared.

def cmd_field_info(data, args):
    field = _field_of(data)
    m, w = field.torsion
    # Defect: the automorphisms are the roots of p in the field, deg p only
    # for a normal field (1, not 3, for Q(2^(1/3)); 2, not 4, for the
    # quartic).  deg p is pinned by the strict xfail and test_field_info in
    # tests/test_cli.py, the golden file and aut = 4 in bench/oracles.py,
    # so a correct count waits for ROADMAP direction 1.
    autos = field.degree
    digits = min(args.precision, 30)
    with working(args.precision):
        table = [_fmt_complex(root, digits)
                 for root in field.roots(args.precision)]
    return {
        "poly": _poly_string(field.poly),
        "degree": field.degree,
        "signature": list(field.signature),
        "torsion_order": m,
        "torsion_generator": _poly_string(w.coeffs),
        "automorphisms": autos,
        "embeddings": table,
    }


def cmd_bloch_verify(data, args):
    s = _element_of(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        in_bhat = s.is_in_Bhat()
        projected = s.project()
        in_b = projected.is_in_B(s.basis)
        caveats = sorted({str(w.message) for w in caught
                          if issubclass(w.category, UnsaturatedBasis)})
    return {
        "terms": len(s.terms),
        "in_B": in_b,
        "in_Bhat": in_bhat,
        "caveats": caveats,
    }


def cmd_bloch_regulator(data, args):
    s = _element_of(data)
    vec = reg_vector(s, args.precision)
    return {"regulator": _reg_strings(vec, args)}


def cmd_fiveterm_check(data, args):
    field = _field_of(data)
    basis = _basis_of(field, data)
    x, y = (field.element(_coeffs(_required(data, key), key, field.degree))
            for key in ("x", "y"))
    fl0 = Flattening(basis.log_lift(x), basis.log_lift(field.one - x))
    fl1 = Flattening(basis.log_lift(y), basis.log_lift(field.one - y))
    s = normalize(basis, rho_hat(lift_five_term(fl0, fl1)))
    vec = reg_vector(s, args.precision)
    return {
        "wedge_zero": s.is_in_Bhat(),
        "regulator_zero": all(is_small(v.distance(0), args.precision)
                              for v in vec),
        "regulator": _reg_strings(vec, args),
    }


def cmd_torsion_table(data, args):
    field = _field_of(data)
    profile = torsion_profile(field)
    return {
        "m": profile.m,
        "w": profile.w,
        "nu": {str(p): nu for p, nu in profile.nu.items()},
        "nu_prime": {str(p): profile.nu_prime[p] for p in profile.nu},
    }


def cmd_torsion_generators(data, args):
    field = _field_of(data)
    primes = [args.prime] if args.prime else \
        [p for p, nu in cosine_exponents(field).items() if nu > 0]
    out = {}
    for p in primes:
        try:
            b = beta_p(field, p)
        except NotApplicable:
            out[str(p)] = "none"
            continue
        out[str(p)] = " + ".join(
            f"{n}*[{_poly_string(z.coeffs)}]" for n, z in b.terms)
    return {"generators": out}


def cmd_torsion_order(data, args):
    field = _field_of(data)
    s = flattened_torsion(field, args.prime)
    order = certify_order(s, args.precision)
    return {"prime": args.prime, "order": order}


def cmd_cycle_invariant(data, args):
    with _defining_polynomial():
        inv = manifold_invariant(_triangulation_of(data), args.precision)
    digits = min(args.precision, 30)
    with working(args.precision):
        im = [_fmt_real(x, digits) for x in inv.imaginary_parts]
        ds = [_fmt_real(x, digits) for x in inv.dilogarithm_sums]
    return {
        "terms": len(inv.element.terms),
        "regulator": _reg_strings(inv.regulator, args),
        "imaginary_parts": im,
        "dilogarithm_sums": ds,
        "matches": inv.matches,
    }


# ---------------------------------------------------------------------------

def _render(payload, args, stream):
    header = {"precision": args.precision,
              "range": "symmetric" if args.symmetric_range else "canonical"}
    if args.json:
        print(json.dumps({"config": header, "result": payload},
                         sort_keys=True, indent=1), file=stream)
        return
    print(" ".join(f"{k}={v}" for k, v in sorted(header.items())),
          file=stream)
    for key, value in payload.items():
        if isinstance(value, list):
            print(f"{key}:", file=stream)
            for i, item in enumerate(value):
                print(f"  [{i}] {item}", file=stream)
        elif isinstance(value, dict):
            print(f"{key}:", file=stream)
            for k in sorted(value):
                print(f"  {k}: {value[k]}", file=stream)
        else:
            print(f"{key}: {value}", file=stream)


def prime(text):
    """The argparse type of --prime: a prime integer below PRIME_LIMIT."""
    n = int(text)
    if n >= PRIME_LIMIT:
        raise argparse.ArgumentTypeError(
            f"{text} is not below {PRIME_LIMIT}, the limit of the primality "
            "test")
    if not is_prime(n):
        raise argparse.ArgumentTypeError(f"{text} is not prime")
    return n


def _add_common(parser):
    parser.add_argument("--precision", type=int, default=50,
                        help="working decimal digits (>= 20)")
    parser.add_argument("--symmetric-range", action="store_true",
                        dest="symmetric_range")
    parser.add_argument("--json", action="store_true")


# (group, command, handler, --prime: None, "optional" or "required"), in
# the order of the help listing
COMMANDS = (
    ("field", "info", cmd_field_info, None),
    ("bloch", "verify", cmd_bloch_verify, None),
    ("bloch", "regulator", cmd_bloch_regulator, None),
    ("fiveterm", "check", cmd_fiveterm_check, None),
    ("torsion", "table", cmd_torsion_table, None),
    ("torsion", "generators", cmd_torsion_generators, "optional"),
    ("torsion", "order", cmd_torsion_order, "required"),
    ("cycle", "invariant", cmd_cycle_invariant, None),
)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argparse tree of the CLI, built on the first call and shared by
    every later one; `main` keeps no other state between calls.  The
    handlers are bound into it when it is first built, from COMMANDS, so
    patching a `cmd_*` name does not reach `main`: to change what a command
    computes (in a test, say), patch the library function that its handler
    calls, such as `extbloch.cli.certify_order`."""
    parser = argparse.ArgumentParser(
        prog="extbloch",
        description="Extended Bloch group computations over number fields")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for group, name, handler, takes_prime in COMMANDS:
        if group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(
                dest="sub", required=True)
        p = groups[group].add_parser(name)
        p.add_argument("fixture")
        if takes_prime:
            p.add_argument("--prime", type=prime,
                           required=(takes_prime == "required"))
        _add_common(p)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.precision < 20:
            raise InputError("precision must be at least 20")
        payload = args.handler(_load_fixture(args.fixture), args)
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 4
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ExtGroupError, BlochError, RegulatorError, TorsionError,
            CochainError) as exc:
        print(f"math error: {exc}", file=sys.stderr)
        return 3
    _render(payload, args, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
