import argparse
import json
import time

import pytest
from mpmath import mp

import test_cli_golden
from test_cochain import _cyclic_triangulation_data
from extbloch.cli import _fmt, build_parser, main
from extbloch.extgroup import MultBasis
from extbloch.field import PRIME_LIMIT, DivisionByZero, NumberField, working
from extbloch.regulator import RegulatorValue

FIXTURES = "tests/fixtures"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_info(capsys):
    code, out, _ = run(capsys, ["field", "info",
                                f"{FIXTURES}/field_example.json",
                                "--precision", "30"])
    assert code == 0
    assert "degree: 4" in out
    assert "torsion_order: 6" in out
    assert "torsion_generator: [1, -1, 0, -1]" in out
    assert "automorphisms: 4" in out
    assert "-0.1217444141248" in out and "1.3066224027501" in out


def test_torsion_table(capsys):
    code, out, _ = run(capsys, ["torsion", "table",
                                f"{FIXTURES}/field_rationals.json"])
    assert code == 0
    assert "w: 24" in out
    assert "2: 2" in out and "3: 1" in out and "5: 0" in out


def test_torsion_generators(capsys):
    code, out, _ = run(capsys, ["torsion", "generators",
                                f"{FIXTURES}/field_rationals.json",
                                "--prime", "3"])
    assert code == 0
    assert "2*[[-2]] + 1*[[1/4]]" in out


def test_torsion_order(capsys):
    code, out, _ = run(capsys, ["torsion", "order",
                                f"{FIXTURES}/field_sqrt2.json",
                                "--prime", "2"])
    assert code == 0
    assert "order: 16" in out


def test_bloch_verify(capsys):
    code, out, _ = run(capsys, ["bloch", "verify",
                                f"{FIXTURES}/element_example.json"])
    assert code == 0
    assert "in_B: True" in out
    assert "in_Bhat: True" in out


def test_bloch_verify_reads_in_b_off_the_flattenings(capsys, monkeypatch):
    # the element's own coordinates decide B(F): no cross-ratio is lifted
    # again (each is a numeric exponent recovery over the quartic)
    calls = []
    log_lift = MultBasis.log_lift
    monkeypatch.setattr(MultBasis, "log_lift",
                        lambda self, z: calls.append(z) or log_lift(self, z))
    code, out, _ = run(capsys, ["bloch", "verify",
                                f"{FIXTURES}/element_example.json"])
    assert code == 0 and "in_B: True" in out
    assert calls == []


@pytest.mark.parametrize("saturated", [False, True])
def test_bloch_verify_caveat_over_an_unsaturated_basis(capsys, tmp_path,
                                                       saturated):
    # the flattening (2, -1) over {2, 3}: both verdicts are negative, which
    # only an unsaturated basis qualifies
    fixture = tmp_path / "element.json"
    fixture.write_text(json.dumps({
        "field": [0, 1],
        "basis": {"free_gens": [[2], [3]], "saturated": saturated},
        "terms": [[1, [0, [[0, 1]]], [1, []]]]}))
    code, out, _ = run(capsys, ["bloch", "verify", str(fixture), "--json"])
    assert code == 0
    assert json.loads(out)["result"] == {
        "terms": 1, "in_B": False, "in_Bhat": False,
        "caveats": [] if saturated else
        ["nonzero wedge verdict over an unsaturated basis"]}


def test_bloch_regulator_symmetric(capsys):
    code, out, _ = run(capsys, ["bloch", "regulator",
                                f"{FIXTURES}/element_example.json",
                                "--precision", "30", "--symmetric-range"])
    assert code == 0
    assert "range=symmetric" in out
    assert "-7.4532295470253" in out
    assert "- 2.3126354032530" in out


def test_fiveterm_check(capsys):
    code, out, _ = run(capsys, ["fiveterm", "check",
                                f"{FIXTURES}/fiveterm_rational.json",
                                "--precision", "30"])
    assert code == 0
    assert "wedge_zero: True" in out
    assert "regulator_zero: True" in out


def test_cancelled_log_lift_exits_4(capsys, tmp_path):
    # x = (1 + sqrt2)^80 is a power of the one generator, but its two
    # terms cancel at the embedding -sqrt2 to about 10^-31
    a, b = 1, 0
    for _ in range(80):
        a, b = a + 2 * b, a + b
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"field": [-2, 0, 1],
                                "basis": {"free_gens": [[1, 1]]},
                                "x": [a, b], "y": [3]}))
    code, out, err = run(capsys, ["fiveterm", "check", str(path)])
    assert code == 4 and out == ""
    assert err.startswith("precision exhausted: log_lift: the terms of the "
                          "element cancel at an embedding")


def test_failed_covering_rounding_exits_4(capsys, monkeypatch):
    # a k_unit that does not round is a numeric failure, not a math error
    monkeypatch.setattr("extbloch.extgroup.nearest_integer",
                        lambda x, precision: None)
    code, out, err = run(capsys, ["bloch", "regulator",
                                  f"{FIXTURES}/element_example.json"])
    assert code == 4 and out == ""
    assert err.startswith("precision exhausted: ")


def test_default_torsion_order_refines_the_roots_once(capsys, monkeypatch):
    # the conjugate of 2cos(2pi/n) is read at the default precision, so
    # the roots it needs are the ones the regulator needs
    import extbloch.field as field
    calls = []
    real = field._refine_roots

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(field, "_refine_roots", spy)
    code, out, _ = run(capsys, ["torsion", "order",
                                f"{FIXTURES}/field_sqrt2.json",
                                "--prime", "2"])
    assert code == 0 and "order: 16" in out
    assert len(calls) == 1


def test_cycle_invariant(capsys):
    code, out, _ = run(capsys, ["cycle", "invariant",
                                f"{FIXTURES}/figure_eight.json",
                                "--precision", "30"])
    assert code == 0
    assert "2.0298832128193" in out
    assert "matches: True" in out


@pytest.mark.parametrize("precision", [20, 50, 200])
def test_printing_reads_values_as_they_are(precision):
    # values made at the working precision print the same in the caller's
    # context and under mpmath's default 15 digits
    args = argparse.Namespace(precision=precision)
    root = NumberField([1, -2, 2, -1, 1]).roots(precision)[-1]
    with working(precision):
        value = RegulatorValue(mp.mpc(5 * mp.pi ** 2, -mp.pi / 3), precision)
        real = mp.sqrt(2)
    values = [root, value.canonical(), value.symmetric(), real, -real]
    with working(precision):
        want = [_fmt(x, args) for x in values]
    with mp.workdps(15):
        assert [_fmt(x, args) for x in values] == want
    with mp.workdps(60):
        digits = min(precision, 30)
        assert want[1].endswith(
            f" - {mp.nstr(mp.pi / 3, digits, strip_zeros=False)}i")
        assert want[3] == mp.nstr(mp.sqrt(2), digits, strip_zeros=False)


def test_output_is_deterministic(capsys):
    argv = ["bloch", "regulator", f"{FIXTURES}/element_example.json",
            "--precision", "30"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_json_output(capsys):
    code, out, _ = run(capsys, ["torsion", "table",
                                f"{FIXTURES}/field_rationals.json",
                                "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["w"] == 24
    assert payload["config"]["precision"] == 50
    assert out == json.dumps(payload, sort_keys=True, indent=1) + "\n"


SUBCOMMANDS = [["field", "info"], ["bloch", "verify"], ["bloch", "regulator"],
               ["fiveterm", "check"], ["torsion", "table"],
               ["torsion", "generators"], ["torsion", "order"],
               ["cycle", "invariant"]]


@pytest.mark.parametrize("command", SUBCOMMANDS, ids="-".join)
def test_missing_file_is_input_error(capsys, command):
    prime = ["--prime", "2"] if command == ["torsion", "order"] else []
    code, _, err = run(capsys, command + ["/no/such/file.json"] + prime)
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("content", ["5", '{"poly": [-2, 0, 1]}', "{"],
                         ids=["number", "poly-key", "bad-json"])
def test_malformed_fixture_is_input_error(capsys, tmp_path, content):
    fixture = tmp_path / "fixture.json"
    fixture.write_text(content)
    code, _, err = run(capsys, ["torsion", "table", str(fixture)])
    assert code == 2
    assert "input error" in err


def test_bare_list_is_a_field_fixture(capsys, tmp_path):
    fixture = tmp_path / "sqrt2.json"
    fixture.write_text("[-2, 0, 1]")
    code, out, _ = run(capsys, ["torsion", "table", str(fixture)])
    assert code == 0
    assert "w: 48" in out


def test_decimals_in_a_fixture_are_read_exactly(capsys, tmp_path):
    fixture = tmp_path / "decimal.json"
    fixture.write_text('{"field": [-0.1, 0, 1]}')
    code, out, _ = run(capsys, ["field", "info", str(fixture)])
    assert code == 0
    assert "poly: [-1/10, 0, 1]" in out


def test_low_precision_rejected(capsys):
    code, _, err = run(capsys, ["field", "info",
                                f"{FIXTURES}/field_rationals.json",
                                "--precision", "5"])
    assert code == 2
    assert "precision" in err


def test_math_error_exit_code(capsys):
    code, _, err = run(capsys, ["torsion", "order",
                                f"{FIXTURES}/field_rationals.json",
                                "--prime", "7"])
    assert code == 3
    assert "math error" in err


@pytest.mark.xfail(strict=True, reason="field info counts the roots of p at "
                   "every embedding, so it reports deg p automorphisms for "
                   "every field (3 for Q(2^(1/3)))")
def test_field_info_automorphisms_of_a_non_galois_field(capsys, tmp_path):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    # the automorphisms of Q(a) are the roots of the minimal polynomial of
    # a in Q(a): the linear factors of x^3 - 2 over Q(2^(1/3))
    factors = sympy.factor_list(x ** 3 - 2, extension=sympy.root(2, 3))[1]
    expected = sum(1 for f, _ in factors if sympy.degree(f, x) == 1)
    fixture = tmp_path / "cube_root_2.json"
    fixture.write_text(json.dumps({"field": [-2, 0, 0, 1]}))
    code, out, _ = run(capsys, ["field", "info", str(fixture), "--json"])
    assert code == 0
    assert json.loads(out)["result"]["automorphisms"] == expected


def test_tolerance_is_no_option(capsys):
    # a tighter check asks for more digits: the bound of a value that must
    # vanish is 10^(10 - N) at --precision N
    with pytest.raises(SystemExit) as exc:
        main(["torsion", "order", f"{FIXTURES}/field_sqrt2.json",
              "--prime", "2", "--tolerance", "-45"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance -45" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command", [["torsion", "generators"],
                                     ["torsion", "order"]], ids="-".join)
@pytest.mark.parametrize("prime", ["4", "1", "0", "-3"])
def test_non_prime_is_usage_error(capsys, command, prime):
    with pytest.raises(SystemExit) as exc:
        main(command + [f"{FIXTURES}/field_sqrt2.json", "--prime", prime])
    assert exc.value.code == 2
    assert f"argument --prime: {prime} is not prime" in capsys.readouterr().err


MERSENNE_61 = str(2 ** 61 - 1)


def test_large_prime_answers_from_the_degree(capsys):
    field = f"{FIXTURES}/field_sqrt2.json"
    start = time.perf_counter()
    code, _, err = run(capsys, ["torsion", "order", field,
                                "--prime", MERSENNE_61])
    assert code == 3 and "nu = 0" in err
    code, out, _ = run(capsys, ["torsion", "generators", field,
                                "--prime", MERSENNE_61])
    assert code == 0 and f"{MERSENNE_61}: none" in out
    assert time.perf_counter() - start < 2


def test_prime_beyond_the_primality_proof_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["torsion", "generators", f"{FIXTURES}/field_sqrt2.json",
              "--prime", str(PRIME_LIMIT + 2)])
    assert exc.value.code == 2
    assert f"is not below {PRIME_LIMIT}" in capsys.readouterr().err


def test_torsion_table_takes_no_prime(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["torsion", "table", f"{FIXTURES}/field_sqrt2.json",
              "--prime", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --prime 3" in capsys.readouterr().err


def _fixture(name):
    with open(f"{FIXTURES}/{name}") as fh:
        return json.load(fh)


def _changed(name, **changes):
    """The fixture with keys replaced, or removed where the value is
    None."""
    data = dict(_fixture(name), **changes)
    return {k: v for k, v in data.items() if v is not None}


def _with_basis(**changes):
    return _changed("element_example.json",
                    basis=dict(_fixture("element_example.json")["basis"],
                               **changes))


# (command, fixture, the key the error must name)
MALFORMED_KEYS = {
    "field-string": (["torsion", "table"], {"field": "x"}, "field"),
    "field-entry": (["field", "info"], {"field": [1, None, 1]}, "field"),
    "field-constant": (["torsion", "table"], {"field": [3]}, "field"),
    "field-repeated-root": (["torsion", "table"], {"field": [1, 2, 1]},
                            "field"),
    "basis-missing": (["bloch", "verify"],
                      _changed("element_example.json", basis=None), "basis"),
    "basis-list": (["bloch", "verify"],
                   _changed("element_example.json", basis=[2]), "basis"),
    "free-gens-number": (["bloch", "verify"], _with_basis(free_gens=2),
                         "free_gens"),
    "free-gens-too-long": (["bloch", "verify"],
                           _with_basis(free_gens=[[1, 2, 3, 4, 5]]),
                           "free_gens"),
    "torsion-gen-string": (["bloch", "verify"], _with_basis(torsion_gen="w"),
                           "torsion_gen"),
    "terms-number": (["bloch", "verify"],
                     _changed("element_example.json", terms=5), "terms"),
    "term-short": (["bloch", "verify"],
                   _changed("element_example.json", terms=[[1, [0, []]]]),
                   "terms"),
    "term-generator": (["bloch", "verify"],
                       _changed("element_example.json",
                                terms=[[1, [0, [[5, 1]]], [0, [[0, 1]]]]]),
                       "terms"),
    "chi-number": (["bloch", "regulator"],
                   _changed("element_example.json", chi=3), "chi"),
    "chi-repeated-generator": (["bloch", "regulator"],
                               _changed("element_example.json",
                                        chi=[0, [[0, -3], [0, 0]]]), "chi"),
    "x-missing": (["fiveterm", "check"],
                  _changed("fiveterm_rational.json", x=None), "x"),
    "y-string": (["fiveterm", "check"],
                 _changed("fiveterm_rational.json", y="9"), "y"),
    "tets-missing": (["cycle", "invariant"],
                     _changed("figure_eight.json", tets=None), "tets"),
    "tets-string": (["cycle", "invariant"],
                    _changed("figure_eight.json", tets="two"), "tets"),
    "tets-zero": (["cycle", "invariant"],
                  _changed("figure_eight.json", tets=0, gluings=[],
                           shapes=[]), "tets"),
    "tets-negative": (["cycle", "invariant"],
                      _changed("figure_eight.json", tets=-1), "tets"),
    "gluing-simplex": (["cycle", "invariant"],
                       _changed("figure_eight.json",
                                gluings=[[0, 0, 2, 0, [1, 2, 3]]]),
                       "gluings"),
    "gluing-negative-simplex": (["cycle", "invariant"],
                                _changed("figure_eight.json",
                                         gluings=[[-1, 0, 1, 0, [1, 2, 3]]]),
                                "gluings"),
    "gluing-face": (["cycle", "invariant"],
                    _changed("figure_eight.json",
                             gluings=[[0, 4, 1, 0, [1, 2, 3]]]), "gluings"),
    "gluing-vertex": (["cycle", "invariant"],
                      _changed("figure_eight.json",
                               gluings=[[0, 0, 1, 0, [1, 2, 4]]]), "gluings"),
    "gluing-short": (["cycle", "invariant"],
                     _changed("figure_eight.json", gluings=[[0, 0, 1, 0]]),
                     "gluings"),
    "shapes-count": (["cycle", "invariant"],
                     _changed("figure_eight.json", shapes=[[0, 1]]),
                     "shapes"),
    "orientations-signs": (["cycle", "invariant"],
                           _changed("figure_eight.json",
                                    orientations=["+", "-"]),
                           "orientations"),
    "orientations-not-signs": (["cycle", "invariant"],
                               _changed("figure_eight.json",
                                        orientations=[1, 2]),
                               "orientations"),
    "orientations-length": (["cycle", "invariant"],
                            _changed("figure_eight.json", orientations=[1]),
                            "orientations"),
    "flattenings-pair": (["cycle", "invariant"],
                         _changed("figure_eight.json",
                                  flattenings=[[0], [0, 0]]),
                         "flattenings"),
    "triangulation-field": (["cycle", "invariant"],
                            _changed("figure_eight.json", field=[1, 2, 1]),
                            "field"),
    # integers are not truncated and booleans are not numbers
    "tets-fraction": (["cycle", "invariant"],
                      _changed("figure_eight.json", tets=2.5), "tets"),
    "gluing-vertex-fraction": (["cycle", "invariant"],
                               _changed("figure_eight.json", gluings=[
                                   [0, 0, 1, 0, [1.5, 2, 3]],
                                   *_fixture("figure_eight.json")["gluings"]
                                   [1:]]),
                               "gluings"),
    "term-multiplicity-fraction": (["bloch", "verify"],
                                   _changed("element_example.json", terms=[
                                       [1.5, *_fixture("element_example.json")
                                        ["terms"][0][1:]],
                                       *_fixture("element_example.json")
                                       ["terms"][1:]]),
                                   "terms"),
    "chi-exponent-fraction": (["bloch", "regulator"],
                              _changed("element_example.json",
                                       chi=[0, [[0, 1.5]]]), "chi"),
    "field-boolean": (["field", "info"], {"field": [True, 0, 1]}, "field"),
    "tets-digits": (["cycle", "invariant"],
                    _changed("figure_eight.json", tets="2"), "tets"),
}


@pytest.mark.parametrize("case", MALFORMED_KEYS)
def test_malformed_key_is_input_error_naming_it(capsys, tmp_path, case):
    command, data, key = MALFORMED_KEYS[case]
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps(data))
    code, out, err = run(capsys, command + [str(fixture)])
    assert code == 2 and out == ""
    assert err.startswith("input error") and repr(key) in err


# triangulations of the right shape that describe no closed cycle
TRIANGULATION_MATH_ERRORS = {
    "vertex-map-misses-face": {"gluings": [[0, 0, 1, 0, [0, 1, 2]]]},
    "conflicting-gluings": {"gluings": [[0, 0, 1, 0, [1, 2, 3]],
                                        [0, 0, 1, 1, [0, 2, 3]]]},
    "open-cycle": {"gluings": []},
}


@pytest.mark.parametrize("case", TRIANGULATION_MATH_ERRORS)
def test_triangulation_without_a_closed_cycle_is_math_error(capsys, tmp_path,
                                                            case):
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps(_changed(
        "figure_eight.json", **TRIANGULATION_MATH_ERRORS[case])))
    code, out, err = run(capsys, ["cycle", "invariant", str(fixture)])
    assert code == 3 and out == "" and err.startswith("math error")


def test_failed_gluing_equation_is_math_error(capsys, tmp_path):
    cyclic = _cyclic_triangulation_data()
    cyclic["shapes"][0] = [3]
    glued = _changed("figure_eight_glued.json", shapes=[[0, 1], [2]])
    # supplied translates meet the same gluing-equation check first
    supplied = dict(glued, flattenings=[[-4, -4], [0, -3]])
    for data in (cyclic, glued, supplied):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(data))
        code, out, err = run(capsys, ["cycle", "invariant", str(fixture)])
        assert code == 3 and out == ""
        assert err.startswith("math error")
        assert "gluing equation of the 1-cell (0, (0, 1))" in err


@pytest.mark.parametrize("error", [KeyError("m"), ValueError("bug"),
                                   TypeError("bug"),
                                   DivisionByZero("cannot invert zero")],
                         ids=lambda e: type(e).__name__)
def test_library_exception_in_a_handler_propagates(monkeypatch, error):
    # only InputError means bad input; anything else is a bug and surfaces
    def broken(field):
        raise error

    monkeypatch.setattr("extbloch.cli.torsion_profile", broken)
    with pytest.raises(type(error)):
        main(["torsion", "table", f"{FIXTURES}/field_sqrt2.json"])


@pytest.fixture
def fresh_parser():
    """An empty parser cache before and after the test."""
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


def test_consecutive_calls_build_the_parser_once(capsys, monkeypatch,
                                                 fresh_parser):
    built = []
    original = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    argv = ["torsion", "table", f"{FIXTURES}/field_sqrt2.json"]
    first = run(capsys, argv)
    # the program, five command groups and eight commands
    assert first[0] == 0 and len(built) == 14
    for _ in range(4):
        assert run(capsys, argv) == first
    assert len(built) == 14


def test_shared_parser_keeps_every_answer(capsys, tmp_path, fresh_parser):
    field = f"{FIXTURES}/field_sqrt2.json"
    assert run(capsys, ["torsion", "table", field])[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["torsion", "order", field, "--prime", "4"])
    assert exc.value.code == 2
    assert "--prime: 4 is not prime" in capsys.readouterr().err
    assert run(capsys, ["torsion", "order", field, "--prime", "2"])[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "usage: extbloch" in capsys.readouterr().out
    assert run(capsys, ["field", "info", field])[0] == 0
    code, _, err = run(capsys, ["field", "info", "/no/such/file.json"])
    assert code == 2 and "input error" in err
    golden = test_cli_golden._golden()
    for _ in range(2):
        for ident, argv, text in test_cli_golden.CORPUS:
            got = test_cli_golden.run(argv, text, str(tmp_path))
            assert {"code": got["code"], "stdout": got["stdout"]} == \
                golden[ident], ident


def test_field_with_large_root_residues(capsys, tmp_path):
    # a degree-9 polynomial rescaled by 10^8: |p(z)| at its correct roots
    # is far above 10^-P, within 10^-P of the terms of p(z)
    poly = [907787, 64169, -549746, -921366, -819756, -90580, -123030,
            -853503, -495294, 1]
    fixture = tmp_path / "large.json"
    fixture.write_text(json.dumps(
        {"field": [a * 10 ** (8 * (9 - k)) for k, a in enumerate(poly)]}))
    for command in (["field", "info"], ["torsion", "table"]):
        code, out, err = run(capsys, command + [str(fixture), "--json"])
        assert code == 0, err
    assert json.loads(out)["result"]["m"] == 2
