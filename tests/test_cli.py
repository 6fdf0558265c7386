import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prehomog
from prehomog.cli import JobSpec, main, run
from prehomog.fixtures import fixture_names, get_fixture, star_chain
from prehomog.quiver import star_quiver
from prehomog.serialize import generatorset_to_json, quiver_to_json


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestSources:
    def test_missing_source(self):
        code, text = run(JobSpec("classify"))
        assert code == 1
        assert "source is required" in text

    def test_both_sources(self, tmp_path):
        path = write_json(tmp_path, "g.json", {})
        code, text = run(JobSpec("classify", fixture="nc-2", input_path=path))
        assert code == 1

    def test_unknown_fixture(self):
        code, text = run(JobSpec("classify", fixture="nope"))
        assert code == 1
        assert "error" in text

    def test_unknown_command(self):
        code, text = run(JobSpec("transmogrify"))
        assert code == 1

    def test_generator_file(self, tmp_path):
        obj = generatorset_to_json(get_fixture("nc-2").generators())
        path = write_json(tmp_path, "g.json", obj)
        code, text = run(JobSpec("bfunction", input_path=path))
        assert code == 0
        assert "b(s)" in text

    def test_quiver_file(self, tmp_path):
        qv, d = star_quiver()
        path = write_json(tmp_path, "q.json", quiver_to_json(qv, d))
        code, text = run(JobSpec("classify", input_path=path))
        assert code == 0
        assert "linear-free-divisor" in text

    def test_reductive_passthrough(self, tmp_path):
        obj = generatorset_to_json(get_fixture("nc-2").generators())
        obj["reductive"] = True
        path = write_json(tmp_path, "g.json", obj)
        code, text = run(JobSpec("classify", input_path=path))
        assert "reductive (asserted): yes" in text

    @pytest.mark.parametrize("flag", ["no", 0, 1, None, []])
    def test_reductive_must_be_a_boolean(self, flag, tmp_path):
        obj = generatorset_to_json(get_fixture("nc-2").generators())
        obj["reductive"] = flag
        path = write_json(tmp_path, "g.json", obj)
        code, text = run(JobSpec("classify", input_path=path))
        assert code == 1
        assert text.startswith("error:") and "reductive" in text

    def test_reductive_false_and_absent(self, tmp_path):
        obj = generatorset_to_json(get_fixture("nc-2").generators())
        for flag, shown in ((False, "no"), (None, "unknown")):
            if flag is None:
                obj.pop("reductive")
            else:
                obj["reductive"] = flag
            path = write_json(tmp_path, "g.json", obj)
            code, text = run(JobSpec("classify", input_path=path))
            assert code == 0
            assert f"reductive (asserted): {shown}" in text

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, text = run(JobSpec("classify", input_path=str(path)))
        assert code == 1

    def test_wrong_shape(self, tmp_path):
        path = write_json(tmp_path, "bad.json", {"foo": 1})
        code, text = run(JobSpec("classify", input_path=str(path)))
        assert code == 1


class TestCommands:
    def test_classify_text(self):
        code, text = run(JobSpec("classify", fixture="star-2111"))
        assert code == 0
        assert "kind: linear-free-divisor" in text
        assert "special: yes" in text

    def test_bfunction_text(self):
        code, text = run(JobSpec("bfunction", fixture="nc-3"))
        assert code == 0
        assert "functional equation: held" in text

    def test_bfunction_failure_exit_code(self):
        code, text = run(JobSpec("bfunction", fixture="bilinear-cone-4"))
        assert code == 2
        assert "functional equation does not hold" in text

    def test_symmetry_poly(self):
        code, text = run(JobSpec("symmetry", poly="(s+1)^2"))
        assert code == 0
        assert "symmetric about -1: yes" in text

    def test_symmetry_no_is_success(self):
        code, text = run(JobSpec("symmetry", poly="(s+1)(s+2)"))
        assert code == 0
        assert "symmetric about -1: no" in text

    def test_euler_witness(self):
        code, text = run(JobSpec("euler", fixture="nc-3", point="1,0,0"))
        assert code == 0
        assert "[0, 1, 0]" in text

    def test_euler_inconclusive(self):
        code, text = run(JobSpec("euler", fixture="nc-3", point="1,1,1"))
        assert code == 0
        assert "inconclusive" in text

    def test_euler_needs_point(self):
        code, text = run(JobSpec("euler", fixture="nc-3"))
        assert code == 1
        assert "--point" in text

    def test_microlocal(self):
        code, text = run(JobSpec("microlocal", fixture="nc-2",
                                 point="1,0", covector="1"))
        assert code == 0
        assert "ord f^s" in text

    def test_microlocal_bad_covector(self):
        code, text = run(JobSpec("microlocal", fixture="nc-2",
                                 point="0,0", covector="1,0"))
        assert code == 2
        assert "mathematical failure" in text

    def test_chain(self):
        code, text = run(JobSpec("chain",
                                 factors=["s+1", "s+1", "(3s+2)(3s+3)(3s+4)",
                                          "s+1"]))
        assert code == 0
        assert "assembled monic polynomial" in text

    def test_chain_parse_error(self):
        code, text = run(JobSpec("chain", factors=["s+%"]))
        assert code == 1


class TestJsonOutput:
    def test_round_trip_bytes(self):
        code, text = run(JobSpec("bfunction", fixture="nc-2",
                                 json_output=True))
        assert code == 0
        assert json.dumps(json.loads(text), indent=2) == text

    def test_reruns_identical(self):
        job = JobSpec("classify", fixture="binary-cubic", json_output=True)
        assert run(job) == run(job)

    def test_failure_record(self):
        code, text = run(JobSpec("bfunction", fixture="bilinear-cone-4",
                                 json_output=True))
        assert code == 2
        obj = json.loads(text)
        assert obj["result"]["functional_equation_held"] is False

    def test_classify_record(self):
        code, text = run(JobSpec("classify", fixture="det22-squared",
                                 json_output=True))
        obj = json.loads(text)
        assert obj["classification"]["reduced"] is False
        assert obj["discriminant"]["variables"] == ["x11", "x12", "x21", "x22"]


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

    def test_seed_and_trials_only_on_classify(self, capsys):
        argv = ["--fixture", "binary-cubic", "--json"]
        assert main(["classify", "--seed", "3", "--trials", "2"] + argv) == 0
        for command in ("bfunction", "symmetry", "euler", "microlocal"):
            for flag in ("--seed", "--trials"):
                with pytest.raises(SystemExit) as exc:
                    main([command, flag, "3"] + argv)
                assert exc.value.code == 2
        with pytest.raises(SystemExit):
            main(["chain", "--seed", "3", "s+1"])


    def test_parser_state_does_not_leak(self, monkeypatch, capsys):
        jobs = []
        monkeypatch.setattr("prehomog.cli.run",
                            lambda job: jobs.append(job) or (0, ""))
        argv = ["classify", "--fixture", "nc-2"]
        main(argv + ["--seed", "3", "--trials", "2", "--json"])
        main(argv)
        assert [(j.seed, j.trials, j.json_output) for j in jobs] == \
            [(3, 2, True), (0, 8, False)]
        with pytest.raises(SystemExit):
            main(argv + ["--seed", "x"])
        assert main(["chain", "s+1"]) == 0
        assert (jobs[-1].command, jobs[-1].factors, jobs[-1].seed) == \
            ("chain", ["s+1"], 0)


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
        ["symmetry", "--poly", "(" * 400 + "s+1" + ")" * 400],
        ["chain", "s+2", "(" * 400 + "s+1" + ")" * 400],
    ])
    def test_deep_nesting(self, argv, capsys):
        self.run_main(argv, capsys, "nested deeper")

    def test_prime_end_term_fails_fast(self):
        # 2^64 - 59 is prime: trial division up to its square root would run
        # for minutes, so the root search refuses it at its divisor limit
        env = {**os.environ, "PYTHONPATH": str(Path(prehomog.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "prehomog.cli", "chain", "s+18446744073709551557"],
            capture_output=True, text=True, env=env, timeout=10)
        assert done.returncode == 1
        assert done.stdout.startswith("error:") and "trial-division limit" in done.stdout

    def test_squarefree_trials_capped(self):
        # a squarefree line costs about a millisecond on dtilde3-22111, so an
        # unbounded --trials could run for hours; the line count is capped
        env = {**os.environ, "PYTHONPATH": str(Path(prehomog.__file__).parents[1])}

        def classify(fixture, trials):
            return subprocess.run(
                [sys.executable, "-m", "prehomog.cli", "classify", "--fixture", fixture,
                 "--trials", str(trials)], capture_output=True, text=True, env=env, timeout=10)

        done = classify("dtilde3-22111", 1001)
        assert done.returncode == 1
        assert done.stdout.startswith("error:") and "exceeds the limit 1000" in done.stdout
        assert classify("nc-1", 1000).returncode == 0

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

    @pytest.mark.parametrize("variables", [5, "xy", [1, 2], {"x": 1}])
    def test_bad_variables(self, variables, tmp_path, capsys):
        obj = generatorset_to_json(get_fixture("nc-2").generators())
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
    runs, with the stem as test id: the star chain, each microlocal run
    with its covector, and the origin and e_1 of three more fixtures."""
    runs = []
    for p in star_chain():
        at = ["--fixture", "star-2111", "--point", coords(p.x0), "--json"]
        runs.append((f"euler/star-2111-{p.label}", ["euler"] + at))
        cov = [] if p.y0 is None else ["--covector", coords(p.y0)]
        runs.append((f"microlocal/star-2111-{p.label}", ["microlocal"] + at + cov))
    for name in ("dtilde3-22111", "binary-cubic", "det22-squared"):
        n = get_fixture(name).generators().n
        for label, x0 in (("origin", [0] * n), ("e1", [1] + [0] * (n - 1))):
            runs.append((f"euler/{name}-{label}",
                         ["euler", "--fixture", name, "--point", coords(x0), "--json"]))
    return [pytest.param(stem, argv, id=stem) for stem, argv in runs]


class TestGoldenBytes:
    """`prehomog bfunction --fixture NAME --json`, and the `euler` and
    `microlocal` runs of `geometry_runs`, against recorded stdout."""

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
