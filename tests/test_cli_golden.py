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
The base fields, their rescaling and the in-process runner are those of
tests/cli_matrix.py; the runner is strict here, so an exception from the
CLI fails the test with its traceback and the output is compared exactly
as printed.
"""
import json
import os
import sys
import tempfile

import pytest

from cli_matrix import BASE_FIELDS, FIXTURES, run, scaled

GOLDEN = os.path.join(FIXTURES, "golden_cli.json")

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


def corpus():
    """(id, argv, fixture text or None): the argv of a field command names
    the fixture as FIELD, to be replaced by a file holding the text."""
    lines = [(" ".join(argv[:2] + [os.path.basename(argv[2])] + argv[3:]),
              argv, None) for argv in FIXTURE_COMMANDS]
    for name, poly in BASE_FIELDS.items():
        for c, extra in FIELD_RUNS:
            for command in FIELD_COMMANDS:
                prime = ["--prime", "2"] if command[1] == "order" else []
                lines.append((" ".join([*command, f"{name}@{c}", *extra]),
                              command + ["FIELD"] + prime + extra,
                              json.dumps({"field": scaled(poly, c)})))
    return [(f"{ident}{mode}", argv + flag, text)
            for ident, argv, text in lines
            for mode, flag in (("", []), (" --json", ["--json"]))]


def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


CORPUS = corpus()


@pytest.mark.parametrize("ident, argv, text", CORPUS,
                         ids=[ident for ident, _, _ in CORPUS])
def test_output_matches_the_recording(ident, argv, text, tmp_path):
    want = _golden()[ident]
    got = run(argv, text, str(tmp_path), strict=True)
    assert (got["code"], got["stdout"]) == (want["code"], want["stdout"])


def test_recording_covers_the_corpus():
    assert sorted(_golden()) == sorted(ident for ident, _, _ in CORPUS)


def record(workdir):
    golden = {}
    for ident, argv, text in CORPUS:
        got = run(argv, text, workdir, strict=True)
        golden[ident] = {"code": got["code"], "stdout": got["stdout"]}
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
