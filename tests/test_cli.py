import json
from pathlib import Path

import pytest

from prehomog.cli import JobSpec, main, run
from prehomog.fixtures import fixture_names, get_fixture
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


GOLDEN = Path(__file__).parent / "golden" / "bfunction"
# the non-special fixtures, whose functional equation fails (exit 2)
FAILING = {"quadric-cone-3", "quadric-cone-4", "bilinear-cone-4", "cubic-chain-4"}


class TestGoldenBytes:
    """`prehomog bfunction --fixture NAME --json` against recorded stdout.

    The ten-variable dtilde3-22111 is left out for its run time; criterion
    05 covers its b.
    """

    @pytest.mark.parametrize(
        "name", [n for n in fixture_names() if n != "dtilde3-22111"])
    def test_bfunction_json(self, name, capsys):
        code = main(["bfunction", "--fixture", name, "--json"])
        assert code == (2 if name in FAILING else 0)
        out = capsys.readouterr().out.encode("utf-8")
        assert out == (GOLDEN / f"{name}.out").read_bytes()
