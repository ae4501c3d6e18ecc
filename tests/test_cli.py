"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from eprjoint import QuadDistribution
from eprjoint.cli import SAMPLE_CHUNK, _sample_counts, main
from eprjoint.construction import SWEEP_MAX_CELLS
from helpers import P_SINGLET_HIGH, P_SINGLET_LOW, TSIRELSON

S = 1.0 / math.sqrt(2.0)

SINGLET_STATE = {
    "state": "singlet",
    "settings": {
        "n_A": [0.0, 0.0, 1.0],
        "n_A'": [1.0, 0.0, 0.0],
        "n_B": [S, 0.0, S],
        "n_B'": [-S, 0.0, S],
    },
}

UNIFORM_PROBS = {
    "singles": {"A": 0.5, "A'": 0.5, "B": 0.5, "B'": 0.5},
    "doubles": {"AB": 0.25, "AB'": 0.25, "A'B": 0.25, "A'B'": 0.25},
}

SINGLET_PROBS = {
    "singles": {"A": 0.5, "A'": 0.5, "B": 0.5, "B'": 0.5},
    "doubles": {
        "AB": P_SINGLET_LOW,
        "AB'": P_SINGLET_LOW,
        "A'B": P_SINGLET_LOW,
        "A'B'": P_SINGLET_HIGH,
    },
}

SINGLET_PROBS_3 = {
    "singles": SINGLET_PROBS["singles"],
    "doubles": {k: v for k, v in SINGLET_PROBS["doubles"].items() if k != "A'B'"},
}

DET_PROBS = {
    "singles": {"A": 1.0, "A'": 1.0, "B": 1.0, "B'": 1.0},
    "doubles": {"AB": 1.0, "AB'": 1.0, "A'B": 1.0, "A'B'": 1.0},
}


@pytest.fixture
def write_json(tmp_path):
    def _write(name: str, payload) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProbsMode:
    def test_singlet_optimal(self, write_json, capsys):
        path = write_json("singlet.json", SINGLET_STATE)
        code, out, _ = run_cli(capsys, "--mode", "probs", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert report["chsh"]["violated"] is True
        assert report["chsh"]["max_s_value"] == pytest.approx(TSIRELSON, abs=1e-9)
        assert report["probs"]["doubles"]["AB"] == pytest.approx(P_SINGLET_LOW, abs=1e-12)
        assert report["correlations"]["A'B'"] == pytest.approx(S, abs=1e-12)

    def test_mixed_state(self, write_json, capsys):
        path = write_json(
            "mixed.json",
            {"state": "mixed", "settings": SINGLET_STATE["settings"]},
        )
        code, out, _ = run_cli(capsys, "--mode", "probs", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert report["chsh"]["satisfied"] is True
        assert all(
            v == pytest.approx(0.25, abs=1e-12)
            for v in report["probs"]["doubles"].values()
        )

    def test_malformed_direction(self, write_json, capsys):
        bad = {
            "state": "singlet",
            "settings": {**SINGLET_STATE["settings"], "n_B": [0.25, 0.0, 0.25]},
        }
        path = write_json("bad.json", bad)
        code, _, err = run_cli(capsys, "--mode", "probs", "--input", path)
        assert code == 2
        assert "n_B" in err

    def test_named_states(self, write_json, capsys):
        for state in ("werner:0.5", "ket:00"):
            path = write_json("st.json", {"state": state, "settings": SINGLET_STATE["settings"]})
            code, _, _ = run_cli(capsys, "--mode", "probs", "--input", path)
            assert code == 0

    def test_matrix_state(self, write_json, capsys):
        entries = [[0.0, 0.0]] * 16
        for i in (0,):
            entries[i] = [1.0, 0.0]
        path = write_json("m.json", {"state": entries, "settings": SINGLET_STATE["settings"]})
        code, out, _ = run_cli(capsys, "--mode", "probs", "--input", path)
        assert code == 0
        assert json.loads(out)["probs"]["singles"]["A"] == pytest.approx(1.0, abs=1e-12)


class TestConstructModes:
    def test_construct4_uniform(self, write_json, capsys):
        path = write_json("u.json", UNIFORM_PROBS)
        code, out, _ = run_cli(capsys, "--mode", "construct4", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert all(
            v == pytest.approx(0.0625, abs=1e-13)
            for v in report["distribution"].values()
        )
        assert report["marginal_check"]["max_residual"] < 1e-12
        assert report["intervals"]["P(..++)"] == [0.0, 0.5]

    def test_construct4_chsh_violation(self, write_json, capsys):
        path = write_json("s.json", SINGLET_PROBS)
        code, _, err = run_cli(capsys, "--mode", "construct4", "--input", path)
        assert code == 3
        error = json.loads(err)
        assert error["error"] == "ChshViolationError"
        slacks = error["chsh"]["slacks"]
        assert len(slacks) == 4
        assert slacks["AA'B'B"]["upper"] < 0

    def test_construct3_singlet(self, write_json, capsys):
        path = write_json("s3.json", SINGLET_PROBS_3)
        code, out, _ = run_cli(capsys, "--mode", "construct3", "--input", path)
        assert code == 0
        report = json.loads(out)
        chosen = report["chosen_aprime_bprime"]
        assert abs(chosen - P_SINGLET_HIGH) > 1e-6
        assert report["marginal_check"]["max_residual"] < 1e-10
        assert "P(A'B')" in report["intervals"]

    def test_construct3_ignores_measured_fourth(self, write_json, capsys):
        path = write_json("s4.json", SINGLET_PROBS)
        code, out, _ = run_cli(capsys, "--mode", "construct3", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert report["note"]["measured_aprime_bprime_ignored"] == pytest.approx(
            P_SINGLET_HIGH
        )

    def test_construct_from_state_file(self, write_json, capsys):
        path = write_json("st.json", {"state": "mixed", "settings": SINGLET_STATE["settings"]})
        code, out, _ = run_cli(capsys, "--mode", "construct4", "--input", path)
        assert code == 0

    def test_params_applied(self, write_json, capsys):
        path = write_json("u.json", UNIFORM_PROBS)
        params = write_json("p.json", {"t": {"dotdot": 0.0}})
        code, out, _ = run_cli(capsys, "--mode", "construct4", "--input", path,
                               "--params", params)
        assert code == 0
        assert json.loads(out)["chosen"]["P(..++)"] == 0.0

    def test_inconsistent_input_exit_4(self, write_json, capsys):
        # a tolerance loose enough to admit this Fréchet excess is refused,
        # so validated input never reaches exit 4
        payload = {
            "singles": {"A": 0.5, "A'": 0.5, "B": 0.5, "B'": 0.5},
            "doubles": {"AB": 0.5, "AB'": 0.5, "A'B": 0.55},
        }
        path = write_json("inc.json", payload)
        code, _, err = run_cli(capsys, "--mode", "construct3", "--input", path,
                               "--tolerance", "0.1")
        assert code == 2
        assert "atol" in json.loads(err)["message"]

    def test_frechet_violation_exit_2_at_default_tolerance(self, write_json, capsys):
        payload = {
            "singles": {"A": 0.5, "A'": 0.5, "B": 0.5, "B'": 0.5},
            "doubles": {"AB": 0.5, "AB'": 0.5, "A'B": 0.55},
        }
        path = write_json("inc.json", payload)
        code, _, err = run_cli(capsys, "--mode", "construct3", "--input", path)
        assert code == 2


class TestOracleMode:
    def test_uniform(self, write_json, capsys):
        path = write_json("u.json", UNIFORM_PROBS)
        code, out, _ = run_cli(capsys, "--mode", "oracle", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert report["feasible"] is True
        assert report["max_min_entry"] == pytest.approx(1 / 16, abs=1e-12)
        assert report["witness"]["++++"] == pytest.approx(1 / 16, abs=1e-12)

    def test_singlet_infeasible_reported(self, write_json, capsys):
        path = write_json("s.json", SINGLET_PROBS)
        code, out, _ = run_cli(capsys, "--mode", "oracle", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert report["feasible"] is False
        assert report["max_min_entry"] < -1e-3
        assert report["witness"] is None
        assert len(report["dual_certificate"]) == 9


class TestChshMode:
    def test_probs_file(self, write_json, capsys):
        path = write_json("u.json", UNIFORM_PROBS)
        code, out, _ = run_cli(capsys, "--mode", "chsh", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert report["chsh"]["satisfied"] is True
        assert report["chsh"]["margin"] == pytest.approx(0.5)


class TestSweepMode:
    def test_uniform_grid3(self, write_json, capsys):
        path = write_json("u.json", UNIFORM_PROBS)
        code, out, _ = run_cli(capsys, "--mode", "sweep", "--input", path, "--grid", "3")
        assert code == 0
        report = json.loads(out)
        assert report["grid"]["total_points"] == 3**7
        assert report["failures"] == 0 and report["all_valid"] is True
        assert report["most_interior_min_entry"] == pytest.approx(1 / 16, abs=1e-12)

    def test_deterministic_grid(self, write_json, capsys):
        path = write_json("d.json", DET_PROBS)
        code, out, _ = run_cli(capsys, "--mode", "sweep", "--input", path, "--grid", "2")
        assert code == 0
        report = json.loads(out)
        assert report["all_valid"] is True
        assert report["min_entry_distribution"]["++++"] == 1.0
        assert report["most_interior_distribution"]["++++"] == 1.0

    def test_violation_exits_3(self, write_json, capsys):
        path = write_json("s.json", SINGLET_PROBS)
        code, _, err = run_cli(capsys, "--mode", "sweep", "--input", path, "--grid", "2")
        assert code == 3

    def test_explicit_axis(self, write_json, capsys):
        path = write_json("u.json", UNIFORM_PROBS)
        code, out, _ = run_cli(capsys, "--mode", "sweep", "--input", path,
                               "--grid", "0,0.5,1")
        assert code == 0
        assert json.loads(out)["grid"]["axis"] == [0.0, 0.5, 1.0]

    def test_bad_grid(self, write_json, capsys):
        path = write_json("u.json", UNIFORM_PROBS)
        code, _, err = run_cli(capsys, "--mode", "sweep", "--input", path, "--grid", "x")
        assert code == 2

    @pytest.mark.parametrize("grid, field", [
        ("1000000000000", "--grid = 1000000000000:"),
        (",".join(["0.5"] * 46), "--grid list length = 46:"),
    ])
    def test_oversized_grid_exits_2_at_once(self, write_json, capsys, grid, field):
        path = write_json("u.json", UNIFORM_PROBS)
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "--mode", "sweep", "--input", path, "--grid", grid)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        error = json.loads(err)
        assert error["error"] == "UsageError"
        assert field in error["message"] and str(SWEEP_MAX_CELLS) in error["message"]

    def test_three_experiment_params_reproduce_tables(self, write_json, capsys):
        # the reported fractions, P(A'B') first, rebuild the reported tables
        path = write_json("s3.json", SINGLET_PROBS_3)
        code, out, _ = run_cli(capsys, "--mode", "sweep", "--input", path, "--grid", "3")
        assert code == 0
        report = json.loads(out)
        assert report["grid"]["axes"] == 8
        for key in ("min_entry", "most_interior"):
            t = report[f"{key}_params_t"]
            assert len(t) == 8
            params = write_json("p.json", {"t": {
                "aprime_bprime": t[0], "dotdot": t[1], "a_plus": t[2],
                "aprime_plus": t[3], "bb": t[4:8],
            }})
            code, out, _ = run_cli(capsys, "--mode", "construct3", "--input", path,
                                   "--params", params)
            assert code == 0
            assert json.loads(out)["distribution"] == report[f"{key}_distribution"]


class TestMcVerifyMode:
    def test_uniform_within_5_sigma(self, write_json, capsys):
        path = write_json("u.json", UNIFORM_PROBS)
        code, out, _ = run_cli(capsys, "--mode", "mc-verify", "--input", path,
                               "--samples", "200000", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["within_5_sigma"] is True
        assert report["generator"] == "PCG64"
        cell = report["experiments"]["AB"]["cells"]["++"]
        assert cell["expected"] == pytest.approx(0.25, abs=1e-12)
        assert abs(cell["empirical"] - 0.25) < 5 * cell["std_error"]

    def test_point_mass_exact(self, write_json, capsys):
        path = write_json("d.json", DET_PROBS)
        code, out, _ = run_cli(capsys, "--mode", "mc-verify", "--input", path,
                               "--samples", "1000")
        assert code == 0
        report = json.loads(out)
        assert report["max_abs_z"] == 0.0
        cell = report["experiments"]["AB"]["cells"]["++"]
        assert cell["empirical"] == 1.0 and cell["std_error"] == 0.0

    def test_denormal_cell_gives_finite_z(self, write_json, capsys):
        # expected * (1 - expected) / samples underflows to 0 for this cell
        path = write_json("t.json", {
            "singles": {"A": 1.7556027711577845e-102, "A'": 0.0, "B": 0.0, "B'": 1.0},
            "doubles": {"AB": 0.0, "AB'": 3.5e-323, "A'B": 0.0, "A'B'": 0.0},
        })
        code, out, _ = run_cli(capsys, "--mode", "mc-verify", "--input", path,
                               "--samples", "2000")
        assert code == 0
        report = json.loads(out, parse_constant=lambda name: pytest.fail(name))
        assert report["within_5_sigma"] is True and report["max_abs_z"] < 1e-40

    def test_three_experiment_mode(self, write_json, capsys):
        path = write_json("s3.json", SINGLET_PROBS_3)
        code, out, _ = run_cli(capsys, "--mode", "mc-verify", "--input", path,
                               "--samples", "50000", "--seed", "3")
        assert code == 0
        report = json.loads(out)
        assert report["arity"] == 3
        assert report["experiments"]["A'B'"]["constructed"] is True
        assert report["within_5_sigma"] is True

    def test_byte_identical_reruns(self, write_json, capsys):
        path = write_json("u.json", UNIFORM_PROBS)
        argv = ("--mode", "mc-verify", "--input", path, "--samples", "50000",
                "--seed", "123")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_chunked_counts_match_one_shot_draw(self):
        quad = QuadDistribution(tuple([1 / 16] * 16))
        samples = 2 * SAMPLE_CHUNK + 12_345
        rng = np.random.Generator(np.random.PCG64(99))
        cdf = np.cumsum(quad.entries)
        cdf[-1] = 1.0
        draws = np.searchsorted(cdf, rng.random(samples), side="right")
        expected = np.bincount(draws, minlength=16)
        assert np.array_equal(_sample_counts(quad, samples, seed=99), expected)

    def test_bad_samples(self, write_json, capsys):
        path = write_json("u.json", UNIFORM_PROBS)
        for samples in ("0", "1000000000000"):
            start = time.perf_counter()
            code, _, err = run_cli(capsys, "--mode", "mc-verify", "--input", path,
                                   "--samples", samples)
            assert code == 2
            assert time.perf_counter() - start < 1.0
        # the bound is a constant; the error names the field, value and bound
        assert "samples = 1000000000000" in err and "MAX_SAMPLES = 100000000" in err


class TestInputHandling:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "--mode", "chsh", "--input", "/nonexistent.json")
        assert code == 2

    def test_malformed_json_names_line(self, write_json, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"singles": {\n  "A": oops\n}}')
        code, _, err = run_cli(capsys, "--mode", "chsh", "--input", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_field(self, write_json, capsys):
        path = write_json("x.json", {"singles": {"A": 0.5}})
        code, _, err = run_cli(capsys, "--mode", "chsh", "--input", path)
        assert code == 2
        assert "missing" in err

    def test_output_file(self, write_json, capsys, tmp_path):
        path = write_json("u.json", UNIFORM_PROBS)
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "--mode", "chsh", "--input", path,
                               "--output", str(out_path))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["chsh"]["satisfied"] is True


class TestParseBoundary:
    @pytest.mark.parametrize("tolerance, probs", [
        ("nan", False), ("inf", False), ("-1", False), ("0", False), ("1e-5", False),
        ("1", True),
    ])
    def test_tolerance_range(self, write_json, capsys, tolerance, probs):
        # checked for every input; P(A) = 1.4 is not rescued by a loose tolerance
        payload = {**UNIFORM_PROBS, "singles": {**UNIFORM_PROBS["singles"], "A": 1.4}}
        path = write_json("in.json", payload if probs else SINGLET_STATE)
        code, _, err = run_cli(capsys, "--mode", "construct3", "--input", path,
                               "--tolerance", tolerance)
        assert code == 2
        assert "atol" in json.loads(err)["message"]

    @pytest.mark.parametrize("case, field", [
        ("werner_nan", "state"),
        ("settings_string", "n_A'"),
        ("settings_nan", "n_A'"),
        ("settings_huge", "n_A'"),
        ("state_huge", "state"),
        ("probs_numeric", "'A'"),
        ("probs_bool", "'A'"),
        ("probs_huge", "'A'"),
        ("bb_string", "t.bb"),
        ("bb_bool", "t.bb"),
        ("dotdot_huge", "t.dotdot"),
        ("unwritable_output", "--output"),
    ])
    def test_bad_field_exits_2(self, write_json, capsys, tmp_path, case, field):
        # JSON numbers only: no strings (numeric ones included), no booleans,
        # no integers beyond the float range
        bad = {"string": "x", "nan": float("nan"), "huge": 10**400, "numeric": "0.5",
               "bool": True}.get(case.rsplit("_", 1)[-1])
        state = dict(SINGLET_STATE)
        argv = ["--mode", "construct3"]
        if case == "werner_nan":
            state["state"] = "werner:NaN"
        elif case.startswith("settings"):
            state["settings"] = {**state["settings"], "n_A'": [bad, 0.0, 1.0]}
        elif case == "state_huge":
            state["state"] = [[bad, 0.0], *([[0.0, 0.0]] * 15)]
        elif case.startswith("probs"):
            state = {**UNIFORM_PROBS, "singles": {**UNIFORM_PROBS["singles"], "A": bad}}
        elif case.startswith("bb"):
            argv += ["--params", write_json("p.json", {"t": {"bb": [0.5, bad, 0.5, 0.5]}})]
        elif case == "dotdot_huge":
            argv += ["--params", write_json("p.json", {"t": {"dotdot": bad}})]
        else:
            argv += ["--output", str(tmp_path / "missing" / "report.json")]
        argv += ["--input", write_json("in.json", state)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert field in json.loads(err)["message"]

    @pytest.mark.parametrize("text", [
        '{"singles": {"A": 1' + "0" * 5000 + "}}",  # above Python's int digit limit
        "[" * 100_000 + "]" * 100_000,  # above the parser's nesting limit
    ], ids=["digits", "nesting"])
    def test_unparsable_json_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "in.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "--mode", "chsh", "--input", str(path))
        assert (code, out) == (2, "")
        assert "in.json" in json.loads(err)["message"]
