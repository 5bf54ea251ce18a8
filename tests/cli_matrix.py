"""Differential check of the CLI: a fixed matrix of command lines, run
in-process against the extbloch found on PYTHONPATH, recording the exit
code, standard output and standard error of each.

    PYTHONPATH=src python3 tests/cli_matrix.py --record OUT.json
    PYTHONPATH=src python3 tests/cli_matrix.py --compare OUT.json

Run from the root of a checkout (the fixture commands read
tests/fixtures).  --record stores the results; --compare runs the matrix
again, prints every command line whose result differs from OUT.json and
exits 1 if there is any.  To compare two versions of the library, record
with PYTHONPATH pointing at one and compare with it pointing at the other.

The matrix: `field info`, `torsion table`, `torsion generators` and
`torsion order --prime 2|3` on the six base fields of the benchmark
rescaled by c in {1, 2, 3, 7, 10, 1000, 3*10^7}, on x^3 - 2, x^3 - 3,
x^3 + x + 1, x^4 + 3x^2 + 1 and its shift by 7, on x^8 + 1 (Q(zeta_16),
where a product folds seven slots) and on a degree-9 field rescaled by
10^8; every fixture command; malformed fixtures for every
command; the glued figure-eight fixture with supplied translates that
meet the edge conditions, that break them, and that meet them for a shape
that fails a gluing equation; a valid `fiveterm check` over Q(sqrt2).
Each line runs with and without --json at
--precision 20, 30, 50 and 100, and each fixture command also at
--precision 200, where the printed digits are read from values carried
at 240.  An exception that escapes `main` is recorded as the exit code
"raised NAME" with its message on standard error.  pytest does not
collect this file; tests/test_cli_golden.py imports its base fields,
`scaled` and `run`, which it calls with strict=True.
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import time

from extbloch.cli import main

FIXTURES = "tests/fixtures"
PRECISIONS = ("20", "30", "50", "100")
SCALES = (1, 2, 3, 7, 10, 1000, 3 * 10 ** 7)
# the defining polynomials of Q, Q(sqrt2), Q(i), Q(sqrt-3), the quartic
# fixture and Q(zeta_8)
BASE_FIELDS = {
    "Q": [0, 1], "sqrt2": [-2, 0, 1], "i": [1, 0, 1], "sqrt-3": [1, 1, 1],
    "quartic": [1, -2, 2, -1, 1], "x4+1": [1, 0, 0, 0, 1],
}
OTHER_FIELDS = {
    "x3-2": [-2, 0, 0, 1], "x3-3": [-3, 0, 0, 1], "x3+x+1": [1, 1, 0, 1],
    "x4+3x2+1": [1, 0, 3, 0, 1],
    # (x - 7)^4 + 3 (x - 7)^2 + 1
    "x4+3x2+1@x-7": [2549, -1414, 297, -28, 1],
    "x8+1": [1, 0, 0, 0, 0, 0, 0, 0, 1],
    # rescaled by 10^8: its roots leave residues far above 10^-P
    "deg9@1e8": [907787 * 10 ** 72, 64169 * 10 ** 64, -549746 * 10 ** 56,
                 -921366 * 10 ** 48, -819756 * 10 ** 40, -90580 * 10 ** 32,
                 -123030 * 10 ** 24, -853503 * 10 ** 16, -495294 * 10 ** 8,
                 1],
}
FIELD_COMMANDS = [["field", "info"], ["torsion", "table"],
                  ["torsion", "generators"],
                  ["torsion", "order", "--prime", "2"],
                  ["torsion", "order", "--prime", "3"]]
FIXTURE_COMMANDS = [
    ["field", "info", "field_example.json"],
    ["bloch", "verify", "element_example.json"],
    ["bloch", "regulator", "element_example.json"],
    ["bloch", "regulator", "element_example.json", "--symmetric-range"],
    ["fiveterm", "check", "fiveterm_rational.json"],
    ["torsion", "table", "field_rationals.json"],
    ["torsion", "generators", "field_rationals.json", "--prime", "3"],
    ["torsion", "order", "field_sqrt2.json", "--prime", "2"],
    ["cycle", "invariant", "figure_eight.json"],
    ["cycle", "invariant", "figure_eight_glued.json"],
]
# (name, fixture text, commands it is given to)
MALFORMED = [
    ("number", "5", [["torsion", "table"]]),
    ("no-field", '{"poly": [-2, 0, 1]}', [["field", "info"]]),
    ("field-string", '{"field": "x"}', [["field", "info"]]),
    ("field-constant", '{"field": [3]}', [["torsion", "table"]]),
    ("field-square", '{"field": [1, 2, 1]}', [["torsion", "table"]]),
    ("no-basis", '{"field": [0, 1], "terms": []}',
     [["bloch", "verify"], ["fiveterm", "check"]]),
    ("basis-list", '{"field": [0, 1], "basis": [2]}', [["bloch", "verify"]]),
    ("gens-number", '{"field": [0, 1], "basis": {"free_gens": 2}}',
     [["bloch", "verify"]]),
    ("term-short", '{"field": [0, 1], "basis": {"free_gens": [[2]]},'
     ' "terms": [[1, [0, []]]]}', [["bloch", "verify"]]),
    ("chi-number", '{"field": [0, 1], "basis": {"free_gens": [[2]]},'
     ' "terms": [], "chi": 3}', [["bloch", "regulator"]]),
    ("no-x", '{"field": [0, 1], "basis": {"free_gens": [[2], [3]]},'
     ' "y": [9]}', [["fiveterm", "check"]]),
    ("y-string", '{"field": [0, 1], "basis": {"free_gens": [[2], [3]]},'
     ' "x": [3], "y": "9"}', [["fiveterm", "check"]]),
    ("no-tets", '{"field": [1, -1, 1], "gluings": [], "shapes": []}',
     [["cycle", "invariant"]]),
    ("shapes-number", '{"field": [1, -1, 1], "tets": 1, "gluings": [],'
     ' "shapes": 4}', [["cycle", "invariant"]]),
]

# figure_eight_glued.json with the second shape and supplied translates
GLUED = ('{{"field": [1, -1, 1], "tets": 2, "gluings": '
         '[[0, 0, 1, 0, [1, 3, 2]], [0, 1, 1, 1, [2, 0, 3]], '
         '[0, 2, 1, 2, [0, 3, 1]], [0, 3, 1, 3, [1, 0, 2]]], '
         '"shapes": [[0, 1], {}], "flattenings": {}}}')
SUPPLIED = [
    ("glued-valid", GLUED.format("[0, 1]", "[[-4, -4], [0, -3]]"),
     [["cycle", "invariant"]]),
    ("glued-violating", GLUED.format("[0, 1]", "[[-3, -4], [0, -3]]"),
     [["cycle", "invariant"]]),
    ("glued-shape-2", GLUED.format("[2]", "[[-4, -4], [0, -3]]"),
     [["cycle", "invariant"]]),
    # x = sqrt2 and y = -1 over the units {sqrt2, 1 + sqrt2}
    ("sqrt2-fiveterm", '{"field": [-2, 0, 1], "basis": {"free_gens": '
     '[[0, 1], [1, 1]], "saturated": true}, "x": [0, 1], "y": [-1]}',
     [["fiveterm", "check"]]),
]


def scaled(poly, c):
    """c^d p(x/c): the same field, generator multiplied by c."""
    d = len(poly) - 1
    return [a * c ** (d - k) for k, a in enumerate(poly)]


def matrix():
    """(id, argv, fixture text or None): FIELD in argv stands for a file
    holding the fixture text."""
    fields = {f"{name}@{c}": scaled(poly, c)
              for name, poly in BASE_FIELDS.items() for c in SCALES}
    fields.update(OTHER_FIELDS)
    lines = [(" ".join([*argv[:2], name, *argv[2:]]),
              argv[:2] + ["FIELD"] + argv[2:], json.dumps({"field": poly}))
             for name, poly in fields.items() for argv in FIELD_COMMANDS]
    fixtures = [(" ".join(argv), argv[:2] + [f"{FIXTURES}/{argv[2]}"]
                 + argv[3:], None) for argv in FIXTURE_COMMANDS]
    lines += fixtures
    lines += [(" ".join([*argv, name]), argv + ["FIELD"]
               + (["--prime", "2"] if argv[1] == "order" else []), text)
              for name, text, commands in MALFORMED + SUPPLIED
              for argv in commands]
    lines.append(("field info missing", ["field", "info", "FIELD"], ""))
    runs = [(line, p) for line in lines for p in PRECISIONS]
    runs += [(line, "200") for line in fixtures]
    return [(f"{ident} --precision {p}{mode}",
             argv + ["--precision", p] + flag, text)
            for (ident, argv, text), p in runs
            for mode, flag in (("", []), (" --json", ["--json"]))]


def run(argv, text, workdir, strict=False):
    """Exit code, standard output and standard error of the CLI on argv;
    the work directory reads as WORKDIR in the output.  With strict, an
    exception or SystemExit from `main` propagates, and the output is
    returned exactly as printed."""
    path = os.path.join(workdir, "fixture.json")
    if text is not None:
        if os.path.exists(path):
            os.remove(path)
        if text:
            with open(path, "w") as fh:
                fh.write(text)
    argv = [path if a == "FIELD" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            if strict:
                raise
            code = exc.code
        except Exception as exc:
            if strict:
                raise
            code = f"raised {type(exc).__name__}"
            print(exc, file=err)
    got = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if strict:
        return got
    return {name: value.replace(workdir, "WORKDIR") if isinstance(value, str)
            else value for name, value in got.items()}


def run_all():
    with tempfile.TemporaryDirectory() as workdir:
        return {ident: run(argv, text, workdir)
                for ident, argv, text in matrix()}


def compare(recorded, current):
    """The identifiers whose results differ, printing each difference."""
    differ = []
    for ident in sorted(set(recorded) | set(current)):
        old, new = recorded.get(ident), current.get(ident)
        if old == new:
            continue
        differ.append(ident)
        print(f"--- {ident}")
        for key in ("code", "stdout", "stderr"):
            if (old or {}).get(key) != (new or {}).get(key):
                print(f"  {key}: {(old or {}).get(key)!r}")
                print(f"  {' ' * len(key)}  -> {(new or {}).get(key)!r}")
    return differ


def _main(args):
    if len(args) != 2 or args[0] not in ("--record", "--compare"):
        sys.exit(__doc__)
    start = time.perf_counter()
    current = run_all()
    if args[0] == "--record":
        with open(args[1], "w") as fh:
            json.dump(current, fh, indent=1, sort_keys=True)
            fh.write("\n")
        differ = []
    else:
        with open(args[1]) as fh:
            differ = compare(json.load(fh), current)
    print(f"{len(current)} command lines, {len(differ)} differ, "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
