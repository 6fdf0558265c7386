import argparse
import inspect
import json
import os
import random
import resource
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import prehomog
from conftest import chain_expanded, random_chain_list
from prehomog import fixtures
from prehomog.cli import _build_parser, main, run
from prehomog.fixtures import fixture_names, get_fixture, star_chain
from prehomog.geometry import OrderForm
from prehomog.polyring import MultiPoly, Spectrum, UniPoly


def nc2_record():
    """The generator file of the fixture nc-2."""
    return {"n": 2, "variables": ["x1", "x2"],
            "generators": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestSources:
    def test_missing_source(self):
        code, text = run(["classify"])
        assert code == 1
        assert "source is required" in text

    def test_both_sources(self, tmp_path):
        path = write_json(tmp_path, "g.json", {})
        code, text = run(["classify", "--fixture", "nc-2", "--input", path])
        assert code == 1

    def test_unknown_fixture(self):
        code, text = run(["classify", "--fixture", "nope"])
        assert code == 1
        assert "error" in text

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["transmogrify"])
        assert exc.value.code == 2

    def test_generator_file(self, tmp_path):
        obj = nc2_record()
        path = write_json(tmp_path, "g.json", obj)
        code, text = run(["bfunction", "--input", path])
        assert code == 0
        assert "b(s)" in text

    def test_quiver_file(self):
        code, text = run(["classify", "--input", str(Path(__file__).parent / QUIVER_FILE)])
        assert code == 0
        assert "linear-free-divisor" in text

    def test_reductive_passthrough(self, tmp_path):
        obj = nc2_record()
        obj["reductive"] = True
        path = write_json(tmp_path, "g.json", obj)
        code, text = run(["classify", "--input", path])
        assert "reductive (asserted): yes" in text

    @pytest.mark.parametrize("flag", ["no", 0, 1, None, []])
    def test_reductive_must_be_a_boolean(self, flag, tmp_path):
        obj = nc2_record()
        obj["reductive"] = flag
        path = write_json(tmp_path, "g.json", obj)
        code, text = run(["classify", "--input", path])
        assert code == 1
        assert text.startswith("error:") and "reductive" in text

    def test_reductive_false_and_absent(self, tmp_path):
        obj = nc2_record()
        for flag, shown in ((False, "no"), (None, "unknown")):
            if flag is None:
                obj.pop("reductive")
            else:
                obj["reductive"] = flag
            path = write_json(tmp_path, "g.json", obj)
            code, text = run(["classify", "--input", path])
            assert code == 0
            assert f"reductive (asserted): {shown}" in text

    @pytest.mark.parametrize("variables", [["x", "x"], ["", "y"]])
    def test_variable_names_distinct_and_nonempty(self, variables, tmp_path):
        obj = nc2_record()
        obj["variables"] = variables
        path = write_json(tmp_path, "g.json", obj)
        code, text = run(["classify", "--input", path])
        assert code == 1
        assert text == "error: variable names must be distinct and nonempty"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, text = run(["classify", "--input", str(path)])
        assert code == 1

    def test_wrong_shape(self, tmp_path):
        path = write_json(tmp_path, "bad.json", {"foo": 1})
        code, text = run(["classify", "--input", str(path)])
        assert code == 1


class TestOneElimination:
    """`linalg.echelon` runs once per generator set a command reads from a
    file (its independence proof, whose rows the closure check and the
    character reuse) and never on a cached fixture; euler adds the one
    rref of `point_context`, and microlocal with a covector one more, the
    solve of `conormal_order`."""

    @pytest.mark.parametrize("argv, count", [
        (["classify", "--fixture", "star-2111"], 0),
        (["bfunction", "--fixture", "star-2111"], 0),
        (["classify", "--input", "g.json"], 1),
        (["bfunction", "--input", "g.json"], 1),
        (["classify", "--input", "star-quiver.json"], 1),
        (["euler", "--fixture", "star-2111", "--point", "1,0,0,1,1,1"], 1),
        (["euler", "--input", "g.json", "--point", "1,0,0,1,1,1"], 2),
        (["microlocal", "--fixture", "star-2111", "--point", "1,0,0,1,0,1",
          "--covector", "1"], 2),
        (["microlocal", "--input", "g.json", "--point", "1,0,0,1,0,1",
          "--covector", "1"], 3)])
    def test_echelon_calls(self, argv, count, tmp_path, monkeypatch):
        g = get_fixture("star-2111").generators()      # fills the cache
        path = write_json(tmp_path, "g.json", {
            "variables": list(g.variables),
            "generators": [[[str(v) for v in row] for row in m] for m in g.matrices()]})
        calls = []
        echelon = prehomog.linalg.echelon

        def counted(rows):
            calls.append(1)
            return echelon(rows)

        monkeypatch.setattr(prehomog.linalg, "echelon", counted)
        files = {"g.json": path, "star-quiver.json": str(Path(__file__).parent / QUIVER_FILE)}
        code, _ = run([files.get(a, a) for a in argv])
        assert (code, len(calls)) == (0, count)


class TestCommands:
    def test_classify_text(self):
        code, text = run(["classify", "--fixture", "star-2111"])
        assert code == 0
        assert "kind: linear-free-divisor" in text
        assert "special: yes" in text

    def test_bfunction_text(self):
        code, text = run(["bfunction", "--fixture", "nc-3"])
        assert code == 0
        assert "functional equation: held" in text

    def test_bfunction_failure_exit_code(self):
        code, text = run(["bfunction", "--fixture", "bilinear-cone-4"])
        assert code == 2
        assert "functional equation does not hold" in text

    def test_symmetry_poly(self):
        code, text = run(["symmetry", "--poly", "(s+1)^2"])
        assert code == 0
        assert "symmetric about -1: yes" in text

    def test_symmetry_no_is_success(self):
        code, text = run(["symmetry", "--poly", "(s+1)(s+2)"])
        assert code == 0
        assert "symmetric about -1: no" in text

    def test_euler_witness(self):
        code, text = run(["euler", "--fixture", "nc-3", "--point", "1,0,0"])
        assert code == 0
        assert "[0, 1, 0]" in text

    def test_euler_inconclusive(self):
        code, text = run(["euler", "--fixture", "nc-3", "--point", "1,1,1"])
        assert code == 0
        assert "inconclusive" in text

    def test_euler_needs_point(self):
        code, text = run(["euler", "--fixture", "nc-3"])
        assert code == 1
        assert "--point" in text

    def test_microlocal(self):
        code, text = run(["microlocal", "--fixture", "nc-2",
                          "--point", "1,0", "--covector", "1"])
        assert code == 0
        assert "ord f^s" in text

    def test_microlocal_needs_covector(self):
        code, text = run(["microlocal", "--fixture", "nc-2", "--point", "0,0"])
        assert code == 1
        assert text == ("error: --covector is required here: the normal space "
                        "has dimension 2")
        # an open orbit has a zero normal space, so no covector is needed
        code, text = run(["microlocal", "--fixture", "nc-2", "--point", "1,1"])
        assert code == 0
        assert "normal space dimension: 0" in text

    def test_microlocal_bad_covector(self):
        code, text = run(["microlocal", "--fixture", "nc-2",
                          "--point", "0,0", "--covector", "1,0"])
        assert code == 2
        assert "mathematical failure" in text

    def test_chain(self):
        code, text = run(["chain", "s+1", "s+1", "(3s+2)(3s+3)(3s+4)", "s+1"])
        assert code == 0
        assert "assembled monic polynomial" in text

    def test_chain_parse_error(self):
        code, text = run(["chain", "s+%"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["chain", "s+1 "], ["chain", "s+1", "(3s+2)(3s+3)\t"],
        ["symmetry", "--poly", "(s+1)^2 \n"], ["symmetry", "--poly", " s+2 \t\n", "--json"],
    ])
    def test_trailing_whitespace(self, argv, capsys):
        # the output is byte-identical to that of the text without it
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert main([a.rstrip() for a in argv]) == 0
        assert capsys.readouterr().out == out


class TestChainFactors:
    def test_against_expanded_route(self):
        # `chain` on its arguments' factors prints what the expanded
        # product printed: roots, residual and errors alike
        rng = random.Random(32)
        for _ in range(300):
            texts, _ = random_chain_list(rng)
            assert run(["chain", "--json", "--"] + texts) == chain_expanded(texts), texts


class TestJsonOutput:
    def test_round_trip_bytes(self):
        code, text = run(["bfunction", "--fixture", "nc-2", "--json"])
        assert code == 0
        assert json.dumps(json.loads(text), indent=2) == text

    def test_reruns_identical(self):
        argv = ["classify", "--fixture", "binary-cubic", "--json"]
        assert run(argv) == run(argv)

    def test_failure_record(self):
        code, text = run(["bfunction", "--fixture", "bilinear-cone-4", "--json"])
        assert code == 2
        obj = json.loads(text)
        assert obj["result"]["functional_equation_held"] is False

    def test_classify_record(self):
        code, text = run(["classify", "--fixture", "det22-squared", "--json"])
        obj = json.loads(text)
        assert obj["classification"]["reduced"] is False
        assert obj["discriminant"]["variables"] == ["x11", "x12", "x21", "x22"]

    @pytest.mark.parametrize("argv", [
        ["classify", "--fixture", "star-2111"], ["bfunction", "--fixture", "star-2111"],
        ["bfunction", "--fixture", "bilinear-cone-4"], ["symmetry", "--poly", "(s+1)^2"],
        ["symmetry", "--fixture", "bilinear-cone-4"], ["chain", "s+1", "(2s+3)"],
        ["euler", "--fixture", "star-2111", "--point", "1,0,0,1,1,1"]])
    def test_no_text_under_json(self, argv, monkeypatch):
        # the text lines, str(f) among them, are built only for text output
        def no_text(self):
            raise AssertionError("text built under --json")

        for cls in (MultiPoly, UniPoly, Spectrum, OrderForm):
            monkeypatch.setattr(cls, "__str__", no_text)
        assert json.loads(run(argv + ["--json"])[1])["command"] == argv[0]


class TestMain:
    def test_main_exit_code(self, capsys):
        assert main(["symmetry", "--poly", "(s+1)^2"]) == 0
        out = capsys.readouterr().out
        assert "symmetric" in out

    def test_main_math_failure(self, capsys):
        assert main(["bfunction", "--fixture", "bilinear-cone-4"]) == 2

    def test_main_chain(self, capsys):
        assert main(["chain", "s+1", "s+1"]) == 0
        assert "spectrum" in capsys.readouterr().out

    def test_no_command_takes_seed_or_trials(self, capsys):
        # the squarefree test has no knobs, so no command has these options
        for command in ("classify", "bfunction", "symmetry", "euler",
                        "microlocal", "chain"):
            argv = ["s+1"] if command == "chain" else ["--fixture", "binary-cubic"]
            for flag in (["--seed", "3"], ["--trials", "2"]):
                with pytest.raises(SystemExit) as exc:
                    main([command] + argv + flag)
                assert exc.value.code == 2
                assert f"unrecognized arguments: {' '.join(flag)}" in \
                    capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["symmetry", "--poly=--"],
        ["classify", "--fixture=--"],
        ["classify", "--input=--"],
        ["euler", "--fixture", "nc-2", "--point=--"],
        ["microlocal", "--fixture", "nc-2", "--point", "1,1", "--covector=--"],
    ])
    def test_dash_dash_value_is_a_usage_error(self, argv, capsys):
        # argparse reads --NAME=-- as an empty list, not as a value
        flag = next(a for a in argv if a.endswith("=--")).removesuffix("=--")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected one argument" in err
        assert "Traceback" not in err

    def test_parser_state_does_not_leak(self):
        parse = _build_parser().parse_args
        argv = ["classify", "--fixture", "nc-2"]
        jobs = [parse(argv + ["--json"]), parse(["classify"])]
        assert [(j.fixture, j.json_output) for j in jobs] == \
            [("nc-2", True), (None, False)]
        with pytest.raises(SystemExit):
            parse(argv + ["--json=x"])
        job = parse(["chain", "s+1"])
        assert (job.command, job.factors, job.handler.__name__) == \
            ("chain", ["s+1"], "_cmd_chain")
        assert "fixture" not in vars(job)


class TestBadInput:
    """Malformed numbers and quivers end in an `error:` line, exit code 1."""

    def run_main(self, argv, capsys, reason=""):
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert out.startswith("error:") and reason in out

    @pytest.mark.parametrize("argv", [
        ["euler", "--fixture", "nc-3", "--point", "1/0,0,0"],
        ["chain", "s+1/0"],
        ["symmetry", "--poly", "(s+1)^1/0"],
    ])
    def test_zero_denominator(self, argv, capsys):
        self.run_main(argv, capsys, "zero denominator")

    @pytest.mark.parametrize("argv", [
        ["symmetry", "--poly", ""], ["chain", "s+"], ["chain", "("], ["chain", "2*"],
    ])
    def test_unexpected_end(self, argv, capsys):
        self.run_main(argv, capsys, "unexpected end of polynomial string")

    @pytest.mark.parametrize("source", [["--fixture", "nc-2"], ["--input", "g.json"]])
    def test_poly_with_a_source(self, source, capsys):
        self.run_main(["symmetry", "--poly", "s+1"] + source, capsys, "not both")

    @pytest.mark.parametrize("flag, reason", [("--fixture", "unknown fixture"),
                                              ("--input", "cannot read")])
    def test_empty_source_name(self, flag, reason, capsys):
        self.run_main(["classify", flag, ""], capsys, reason)

    @pytest.mark.parametrize("argv", [
        ["symmetry", "--poly", "(" * 400 + "s+1" + ")" * 400],
        ["chain", "s+2", "(" * 400 + "s+1" + ")" * 400],
    ])
    def test_deep_nesting(self, argv, capsys):
        self.run_main(argv, capsys, "nested deeper")

    def test_prime_end_term_fails_fast(self):
        # 2^64 - 59 is prime: trial division up to its square root would run
        # for minutes, so the root search refuses it at its divisor limit.
        # A degree-1 factor never reaches the search, so s^2 - p carries it:
        # its sign change leaves Descartes' rule a positive root to look for
        env = {**os.environ, "PYTHONPATH": str(Path(prehomog.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "prehomog.cli", "chain", "(s^2-18446744073709551557)"],
            capture_output=True, text=True, env=env, timeout=10)
        assert done.returncode == 1
        assert done.stdout.startswith("error:") and "trial-division limit" in done.stdout

    @pytest.mark.parametrize("text, position", [
        ("1" * 40 + "x", 40),
        ("12 3456 7/89  " * 7143 + "%", 7143 * 14 - 2),
        ("1" + " " * 100000 + "%", 1),
    ], ids=["digit-run", "digits-and-spaces", "space-run"])
    def test_tokenizer_fails_fast(self, text, position):
        # the token scan is linear: a long run of digits or spaces before a
        # bad character fails at once, at the end of the last token
        env = {**os.environ, "PYTHONPATH": str(Path(prehomog.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "prehomog.cli", "symmetry", "--poly", text],
            capture_output=True, text=True, env=env, timeout=10)
        assert done.returncode == 1
        assert done.stdout.startswith(f"error: bad character in polynomial at "
                                      f"position {position}:")

    def test_divisor_pairs_fail_fast(self):
        # every prime factor of M = (7...7)^2 (7...7 of 60 digits) is
        # squared: its divisor list would triple per prime, so the root
        # search refuses it by the count.  The child's address space is
        # capped at 1 GiB, so a search that lists the divisors fails there
        # instead of filling the memory.  s^2 - M is searched, as a
        # degree-1 factor such as (s + 7...7)^2 is not
        env = {**os.environ, "PYTHONPATH": str(Path(prehomog.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "prehomog.cli", "chain",
             f"(s^2-{int('7' * 60) ** 2})"],
            capture_output=True, text=True, env=env, timeout=10,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (1 << 30, 1 << 30)))
        assert done.returncode == 1
        assert done.stdout.startswith("error:") and "divisor pairs" in done.stdout

    @pytest.mark.parametrize("factors, roots", [
        (["s+18446744073709551557"], [(-(2**64 - 59), 1)]),
        (["(s+" + "7" * 60 + ")^2"], [(-int("7" * 60), 2)]),
        ([f"({k}s+{k + 1})" for k in range(2, 26)],
         [(Fraction(-k - 1, k), 1) for k in range(2, 26)]),
    ], ids=["prime", "squared-primes", "24-factors"])
    def test_linear_end_terms(self, factors, roots):
        # end terms the search refuses, but only on degree-1 factors,
        # whose roots are read off directly: roots known by construction
        code, text = run(["chain", "--json"] + factors)
        assert code == 0
        got = json.loads(text)
        want = sorted(roots)
        assert got["roots"] == [[str(r), m] for r, m in want]
        monic = UniPoly.one()
        for r, m in want:
            for _ in range(m):
                monic = monic * UniPoly([-r, 1])
        assert got["monic_coefficients"] == [str(c) for c in monic.coeffs]
        assert got["residual"] == ["1"]

    # [A1, A2] leaves the span of A1, A2, A3, though f is a semi-invariant
    # of each A_k (not a squarefree one, as Saito's criterion requires)
    NOT_CLOSED = {"n": 3, "generators": [[[0, 1, 0], [0, 0, 0], [0, 0, 1]],
                                         [[2, 0, 1], [0, -1, 0], [0, 0, 0]],
                                         [[0, 2, 0], [0, 0, 0], [0, 0, 0]]]}
    # E11 and E12 close, but both images lie on the first axis: f = 0
    ZERO_F = {"n": 2, "generators": [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]}

    @pytest.mark.parametrize("argv", [
        ["classify"], ["bfunction"], ["euler", "--point=1,0,0"],
        ["microlocal", "--point=1,0,0"],
    ], ids=["classify", "bfunction", "euler", "microlocal"])
    def test_span_not_closed(self, argv, tmp_path, capsys):
        # every command that reads the character checks closure first
        path = write_json(tmp_path, "g.json", self.NOT_CLOSED)
        self.run_main(argv + ["--input", path], capsys,
                      "bracket [A1, A2] is outside the generator span")

    @pytest.mark.parametrize("command", ["euler", "microlocal"])
    def test_zero_discriminant(self, command, tmp_path, capsys):
        path = write_json(tmp_path, "g.json", self.ZERO_F)
        self.run_main([command, "--input", path, "--point=1,0"], capsys,
                      "discriminant vanishes; not prehomogeneous")

    # past Python's limit of 4300 digits for int() on a string
    BIG = "7" * 5000

    @pytest.mark.parametrize("argv", [
        ["euler", "--fixture", "nc-3", "--point", f"{BIG},0,0"],
        ["microlocal", "--fixture", "nc-2", "--point", "1,0", "--covector", BIG],
        ["symmetry", "--poly", f"(s+{BIG})^2"],
        ["chain", "s+1", f"s+1/{BIG}"],
        ["bfunction", "--fixture", f"nc-{BIG}"],
    ], ids=["point", "covector", "poly", "chain", "fixture"])
    def test_oversized_literal(self, argv, capsys):
        self.run_main(argv, capsys, "too long")

    def test_oversized_literal_in_json(self, tmp_path, capsys):
        path = write_json(tmp_path, "g.json", {"generators": [[[f"{self.BIG}/2"]]]})
        self.run_main(["classify", "--input", path], capsys, "too long")
        path = tmp_path / "n.json"
        path.write_text('{"generators": [[[' + self.BIG + ']]]}', encoding="utf-8")
        self.run_main(["classify", "--input", str(path)], capsys, "malformed JSON")

    def test_zero_denominator_in_generators(self, tmp_path, capsys):
        path = write_json(tmp_path, "g.json", {"generators": [[["1/0"]]]})
        self.run_main(["bfunction", "--input", path], capsys, "zero denominator")

    @pytest.mark.parametrize("dims", [
        {"c": 1.7, "s": 1}, {"c": True, "s": 1}, {"c": "x", "s": 1}, "x",
    ])
    def test_quiver_dimensions(self, dims, tmp_path, capsys):
        obj = {"vertices": ["c", "s"], "edges": [["s", "c"]], "dimensions": dims}
        path = write_json(tmp_path, "q.json", obj)
        self.run_main(["classify", "--input", path], capsys, "integer")

    @pytest.mark.parametrize("edge", [["s", "c", "z"], ["s"], "sc"])
    def test_quiver_edge_not_a_pair(self, edge, tmp_path, capsys):
        obj = {"vertices": ["s", "c", "z"], "edges": [edge],
               "dimensions": {"s": 1, "c": 1, "z": 1}}
        path = write_json(tmp_path, "q.json", obj)
        self.run_main(["classify", "--input", path], capsys, "pair")

    @pytest.mark.parametrize("n", [True, 1.0])
    def test_declared_n_not_an_integer(self, n, tmp_path, capsys):
        path = write_json(tmp_path, "g.json", {"n": n, "generators": [[[1]]]})
        self.run_main(["classify", "--input", path], capsys,
                      f'"n" must be an integer, got {n!r}')

    def test_declared_n_integer(self, tmp_path):
        path = write_json(tmp_path, "g.json", {"n": 1, "generators": [[[1]]]})
        code, text = run(["classify", "--input", path])
        assert code == 0 and "kind: linear-free-divisor" in text

    @pytest.mark.parametrize("variables", [5, "xy", [1, 2], {"x": 1}])
    def test_bad_variables(self, variables, tmp_path, capsys):
        obj = nc2_record()
        obj["variables"] = variables
        path = write_json(tmp_path, "g.json", obj)
        self.run_main(["classify", "--input", path], capsys, "variables")

    def test_vertices_not_a_list(self, tmp_path, capsys):
        obj = {"vertices": "cs", "edges": [["s", "c"]],
               "dimensions": {"c": 1, "s": 1}}
        path = write_json(tmp_path, "q.json", obj)
        self.run_main(["classify", "--input", path], capsys, "vertices")

    def test_polynomial_degree_cap(self, capsys):
        self.run_main(["symmetry", "--poly", "(s+1/3)^1000000"], capsys,
                      "exceeds")


GOLDEN = Path(__file__).parent / "golden"
# the non-special fixtures, whose functional equation fails (exit 2)
FAILING = {"quadric-cone-3", "quadric-cone-4", "bilinear-cone-4", "cubic-chain-4"}


def coords(v):
    return ",".join(map(str, v))


def geometry_runs():
    """(golden file stem, argv) of the recorded `euler` and `microlocal`
    runs, with the stem as test id: the star chain as --json and as text
    (stem suffix .txt), each microlocal run with its covector, and the
    origin and e_1 of three more fixtures."""
    runs = []
    for p in star_chain():
        at = ["--fixture", "star-2111", "--point", coords(p.x0)]
        cov = [] if p.y0 is None else ["--covector", coords(p.y0)]
        for suffix, flag in (("", ["--json"]), (".txt", [])):
            runs.append((f"euler/star-2111-{p.label}{suffix}", ["euler"] + at + flag))
            runs.append((f"microlocal/star-2111-{p.label}{suffix}",
                         ["microlocal"] + at + flag + cov))
    for name in ("dtilde3-22111", "binary-cubic", "det22-squared"):
        n = get_fixture(name).generators().n
        for label, x0 in (("origin", [0] * n), ("e1", [1] + [0] * (n - 1))):
            runs.append((f"euler/{name}-{label}",
                         ["euler", "--fixture", name, "--point", coords(x0), "--json"]))
    return [pytest.param(stem, argv, id=stem) for stem, argv in runs]


# factor lists of the recorded `chain` and `symmetry --poly` runs
POLY_INPUTS = {
    "star-edges": ["s+1", "s+1", "(3s+2)(3s+3)(3s+4)", "s+1"],
    "star-roots": ["(s+2/3)(s+1)^5(s+4/3)(s+2)"],
    "leading-minus": ["-(3s+2)(s+1)^2"],
    "constant-factor": ["5(s+1)^2"],
    "residual": ["(s^2+1)(2s+1)"],
    "non-symmetric": ["(2s+1)^2", "(s+3)(3s+5)", "7s+2"],
}


def poly_runs():
    """(golden file stem, argv) of `chain` on each factor list and of
    `symmetry --poly` on their product, as text and as --json.  "--" and
    "--poly=" keep a leading minus from reading as an option."""
    runs = []
    for name, factors in POLY_INPUTS.items():
        poly = factors[0] if len(factors) == 1 else \
            "".join(f"({t})" for t in factors)
        for form, flag in (("txt", []), ("json", ["--json"])):
            runs.append((f"chain/{name}.{form}", ["chain"] + flag + ["--"] + factors))
            runs.append((f"symmetry/{name}.{form}",
                         ["symmetry", f"--poly={poly}"] + flag))
    return [pytest.param(stem, argv, id=stem) for stem, argv in runs]


# a star quiver as an --input file, named relative to tests/ so that the
# echoed source is the same in every checkout
QUIVER_FILE = "data/star-quiver.json"


def classify_runs():
    """(golden file stem, argv) of `classify` on every fixture and of
    `classify` and `bfunction` on QUIVER_FILE, as text and as --json."""
    runs = []
    for form, flag in (("txt", []), ("json", ["--json"])):
        for name in fixture_names():
            runs.append((f"classify/{name}.{form}",
                         ["classify", "--fixture", name] + flag))
        for command in ("classify", "bfunction"):
            runs.append((f"{command}/star-quiver-file.{form}",
                         [command, "--input", QUIVER_FILE] + flag))
    return [pytest.param(stem, argv, id=stem) for stem, argv in runs]


# the fixtures of the recorded `symmetry --fixture` runs
SYMMETRY_SOURCES = ["star-2111", "bilinear-cone-4"]


def test_every_command_has_golden_bytes():
    commands, = [a.choices for a in _build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    assert len(commands) == 6
    assert [c for c in commands if not any((GOLDEN / c).glob("*.out"))] == []


class TestGoldenBytes:
    """`prehomog bfunction --fixture NAME --json`, the `euler` and
    `microlocal` runs of `geometry_runs`, the `chain` and `symmetry` runs
    of `poly_runs`, `symmetry` on two fixtures and the `classify` runs of
    `classify_runs`, against recorded stdout."""

    @pytest.mark.parametrize("name", fixture_names())
    def test_bfunction_json(self, name, capsys):
        code = main(["bfunction", "--fixture", name, "--json"])
        assert code == (2 if name in FAILING else 0)
        out = capsys.readouterr().out.encode("utf-8")
        assert out == (GOLDEN / "bfunction" / f"{name}.out").read_bytes()

    @pytest.mark.parametrize("stem, argv", geometry_runs())
    def test_geometry_json(self, stem, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert out == (GOLDEN / f"{stem}.out").read_bytes()

    @pytest.mark.parametrize("stem, argv", poly_runs())
    def test_poly_bytes(self, stem, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert out == (GOLDEN / f"{stem}.out").read_bytes()

    @pytest.mark.parametrize("name", SYMMETRY_SOURCES)
    @pytest.mark.parametrize("form, flag", [("txt", []), ("json", ["--json"])])
    def test_symmetry_source_bytes(self, name, form, flag, capsys):
        code = main(["symmetry", "--fixture", name] + flag)
        assert code == (2 if name in FAILING else 0)
        out = capsys.readouterr().out.encode("utf-8")
        assert out == (GOLDEN / "symmetry" / f"{name}.{form}.out").read_bytes()

    @pytest.mark.parametrize("stem, argv", classify_runs())
    def test_classify_bytes(self, stem, argv, capsys, monkeypatch):
        monkeypatch.chdir(Path(__file__).parent)
        assert main(argv) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert out == (GOLDEN / f"{stem}.out").read_bytes()


def golden_argvs():
    """Every argv of TestGoldenBytes, in its order."""
    runs = [["bfunction", "--fixture", name, "--json"] for name in fixture_names()]
    runs += [p.values[1] for p in geometry_runs() + poly_runs()]
    runs += [["symmetry", "--fixture", name] + flag
             for name in SYMMETRY_SOURCES for flag in ([], ["--json"])]
    return runs + [p.values[1] for p in classify_runs()]


def error_argvs(path):
    """The argv lists TestBadInput's tests are parametrized by;
    test_span_not_closed's read the generator file at path."""
    runs = []
    for name, test in vars(TestBadInput).items():
        for mark in getattr(test, "pytestmark", ()):
            if mark.name == "parametrize" and mark.args[0] == "argv":
                extra = ["--input", path] if name == "test_span_not_closed" else []
                runs += [argv + extra for argv in mark.args[1]]
    return runs


def src_functions():
    """(file, qualified name) of every function and method of src/prehomog,
    nested ones included: the code objects of each module, compiled under
    its file name, as its frames report it."""
    out = set()

    def walk(code):
        for c in code.co_consts:
            if isinstance(c, types.CodeType):
                # a class body has no locals of its own; lambdas and
                # comprehensions are parts of their function
                if c.co_flags & inspect.CO_NEWLOCALS and not c.co_name.startswith("<"):
                    out.add((c.co_filename, c.co_qualname))
                walk(c)

    for path in sorted(Path(prehomog.__file__).parent.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
    return out


# src functions that no golden or error run calls, and why each stays
UNCALLED = {
    # the full-state reference route, the oracle of the pointwise route;
    # benchmark/spans.py wraps apply_operator and extract_cofactor by name
    "bernstein.py": {"apply_operator", "extract_cofactor",
                     "SPowerExpression.__init__", "SPowerExpression.is_zero"},
    # the validating constructor, its exponent check (shared with
    # SPowerExpression's) and a test of the input: the product builds
    # every MultiPoly from integer forms, through `_form`
    "polyring.py": {"MultiPoly.__init__", "_monomial", "MultiPoly.is_homogeneous",
                    # value equality and hashing, for callers and tests
                    "_Value.__eq__", "MultiPoly.__hash__", "UniPoly.__hash__",
                    # benchmark/spans.py rebinds it to count evaluations
                    "UniPoly.evaluate"},
    # GeneratorSet.__eq__ is value equality; the benchmark workloads read
    # the rational matrices
    "liealg.py": {"GeneratorSet.__eq__", "GeneratorSet.matrix",
                  "GeneratorSet.matrices"},
}


def test_every_src_function_is_called(tmp_path, monkeypatch, capsys):
    """Reach, not names: the golden runs and the error runs, traced from
    empty fixture caches, call every function of src/prehomog but those
    of UNCALLED and the __repr__ (display) and __setattr__ (the
    immutability guard) methods.  So a function only tests call does not
    linger in src, and UNCALLED holds only uncalled functions."""
    monkeypatch.chdir(Path(__file__).parent)
    for fixture in fixtures._STATIC.values():
        monkeypatch.setattr(fixture, "_cache", None)
    monkeypatch.setattr(fixtures, "_FAMILY", {})
    _build_parser.cache_clear()
    path = write_json(tmp_path, "g.json", TestBadInput.NOT_CLOSED)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in golden_argvs() + error_argvs(path):
            main(argv)
    finally:
        sys.setprofile(outer)
    capsys.readouterr()
    defined = src_functions()
    reached = {(c.co_filename, c.co_qualname) for c in called}
    uncalled = {(Path(f).name, q) for f, q in defined - reached}
    listed = {(name, q) for name, qs in UNCALLED.items() for q in qs}
    assert len(defined) > 150
    assert sorted(u for u in uncalled - listed
                  if not u[1].endswith((".__repr__", ".__setattr__"))) == []
    assert listed <= uncalled
