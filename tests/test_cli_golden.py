"""Byte-identity of the CLI: every command line of a fixed corpus must print
exactly the recorded output (tests/fixtures/golden_cli.json).

The corpus is every fixture command plus `field info`, `torsion table`,
`torsion generators` and `torsion order --prime 2` on six base fields at the
rescalings c = 1 and c = 1000, and at c = 1000 once more with --precision 20,
each with and without --json.  The low-precision lines pin that membership
decisions (roots of unity, cosines, automorphisms) do not depend on
--precision.  A change that is meant to alter output re-records the file:

    PYTHONPATH=src python3 tests/test_cli_golden.py --record

run from the root of a checkout of the code whose output is the reference.
"""
import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

import pytest

from extbloch.cli import main

FIXTURES = "tests/fixtures"
GOLDEN = os.path.join(FIXTURES, "golden_cli.json")

# base fields: the defining polynomials of Q, Q(sqrt2), Q(i), Q(sqrt-3), the
# quartic fixture and Q(zeta_8)
BASE_FIELDS = {
    "Q": [0, 1], "sqrt2": [-2, 0, 1], "i": [1, 0, 1], "sqrt-3": [1, 1, 1],
    "quartic": [1, -2, 2, -1, 1], "x4+1": [1, 0, 0, 0, 1],
}
# (rescaling c, extra flags) of the field command lines
FIELD_RUNS = ((1, []), (1000, []), (1000, ["--precision", "20"]))

FIXTURE_COMMANDS = [
    ["field", "info", f"{FIXTURES}/field_example.json"],
    ["bloch", "verify", f"{FIXTURES}/element_example.json"],
    ["bloch", "regulator", f"{FIXTURES}/element_example.json"],
    ["bloch", "regulator", f"{FIXTURES}/element_example.json",
     "--precision", "30", "--symmetric-range"],
    ["fiveterm", "check", f"{FIXTURES}/fiveterm_rational.json"],
    ["torsion", "table", f"{FIXTURES}/field_rationals.json"],
    ["torsion", "generators", f"{FIXTURES}/field_rationals.json",
     "--prime", "3"],
    ["torsion", "order", f"{FIXTURES}/field_sqrt2.json", "--prime", "2"],
    ["cycle", "invariant", f"{FIXTURES}/figure_eight.json"],
]
FIELD_COMMANDS = [["field", "info"], ["torsion", "table"],
                  ["torsion", "generators"], ["torsion", "order"]]


def scaled(poly, c):
    """c^d p(x/c): the same field, generator multiplied by c."""
    d = len(poly) - 1
    return [int(Fraction(a) * c ** (d - i)) for i, a in enumerate(poly)]


def corpus():
    """(id, argv, field polynomial or None): the argv of a field command
    names the fixture as FIELD, to be replaced by a file holding it."""
    lines = [(" ".join(argv[:2] + [os.path.basename(argv[2])] + argv[3:]),
              argv, None) for argv in FIXTURE_COMMANDS]
    for name, poly in BASE_FIELDS.items():
        for c, extra in FIELD_RUNS:
            for command in FIELD_COMMANDS:
                prime = ["--prime", "2"] if command[1] == "order" else []
                lines.append((" ".join([*command, f"{name}@{c}", *extra]),
                              command + ["FIELD"] + prime + extra,
                              scaled(poly, c)))
    return [(f"{ident}{mode}", argv + flag, poly)
            for ident, argv, poly in lines
            for mode, flag in (("", []), (" --json", ["--json"]))]


def run(argv, poly, workdir):
    """Exit code and standard output of the CLI on argv."""
    if poly is not None:
        path = os.path.join(workdir, "field.json")
        with open(path, "w") as fh:
            json.dump({"field": poly}, fh)
        argv = [path if a == "FIELD" else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


CORPUS = corpus()


@pytest.mark.parametrize("ident, argv, poly", CORPUS,
                         ids=[ident for ident, _, _ in CORPUS])
def test_output_matches_the_recording(ident, argv, poly, tmp_path):
    want = _golden()[ident]
    code, out = run(argv, poly, str(tmp_path))
    assert (code, out) == (want["code"], want["stdout"])


def test_recording_covers_the_corpus():
    assert sorted(_golden()) == sorted(ident for ident, _, _ in CORPUS)


def record(workdir):
    golden = {}
    for ident, argv, poly in CORPUS:
        code, out = run(argv, poly, workdir)
        golden[ident] = {"code": code, "stdout": out}
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
