"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from eprjoint import (
    AnalyzerSettings, DensityMatrix, ExperimentalProbs, QuadDistribution, construct_trace,
)
from eprjoint.cli import MAX_SAMPLES, _sample_counts, main
from eprjoint.construction import SWEEP_MAX_CELLS
from helpers import (
    P_SINGLET_HIGH, P_SINGLET_LOW, TSIRELSON, reference_sample_counts, trace_probs,
)

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

# diag(3/4, 1/2, -1/4, 0): unit trace, not positive semidefinite
DIAG_STATE = [[0.0, 0.0]] * 16
DIAG_STATE[0], DIAG_STATE[5], DIAG_STATE[10] = [0.75, 0.0], [0.5, 0.0], [-0.25, 0.0]

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
        error = json.loads(err)
        assert (error["field"], error["value"], error["bound"]) == ("n_B", math.sqrt(0.125), 1.0)

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

    @pytest.mark.parametrize("flags, field", [
        (["--tolerance", "0.1"], "atol"),
        ([], "A'B"),
    ], ids=["loose_tolerance", "default_tolerance"])
    def test_frechet_violation_exit_2(self, write_json, capsys, flags, field):
        # a Fréchet excess is refused at the default tolerance, and a
        # tolerance loose enough to admit it is refused too
        payload = {
            "singles": {"A": 0.5, "A'": 0.5, "B": 0.5, "B'": 0.5},
            "doubles": {"AB": 0.5, "AB'": 0.5, "A'B": 0.55},
        }
        path = write_json("inc.json", payload)
        code, _, err = run_cli(capsys, "--mode", "construct3", "--input", path, *flags)
        assert code == 2
        assert json.loads(err)["field"] == field


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
        assert error["error"] == "ValidationError"
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

    def test_bad_samples(self, write_json, capsys):
        path = write_json("u.json", UNIFORM_PROBS)
        for samples in ("0", "1000000000000"):
            start = time.perf_counter()
            code, _, err = run_cli(capsys, "--mode", "mc-verify", "--input", path,
                                   "--samples", samples)
            assert code == 2
            assert time.perf_counter() - start < 1.0
        # the bound is a constant; the error names the field, value and bound
        assert "samples = 1000000000000 is outside [1, 100000000]" in err


def referee_tables() -> list[tuple[str, np.ndarray]]:
    """Named tables with zero cells (a zero last cell among them), point
    masses, and entries near the float limits."""
    rng = np.random.Generator(np.random.PCG64(2006))
    tables = []
    for i in range(210):
        entries = rng.random(16) * (rng.random(16) < rng.uniform(0.05, 1.0))
        entries[rng.integers(16)] += 0.01  # never all zero
        tables.append((f"sparse{i}", entries / entries.sum()))
    for cell in (0, 7, 15):
        tables.append((f"point{cell}", np.eye(16)[cell]))
    tables.append(("tiny", np.array([2.0**-20] * 15 + [1.0 - 15 * 2.0**-20])))
    denormal = ExperimentalProbs(1.7556027711577845e-102, 0.0, 0.0, 1.0, 0.0, 3.5e-323, 0.0, 0.0)
    tables.append(("denormal", np.array(construct_trace(denormal).quad.entries)))
    overshoot = np.array([1 / 11] * 11 + [0.0] * 5)
    assert np.cumsum(overshoot)[-2] > 1.0  # the first 15 sum past 1, within numpy's 1e-12
    tables.append(("overshoot", overshoot))
    return tables


def sparse_from_raw_tables(count: int) -> list[tuple[str, np.ndarray]]:
    """Seeded from_raw tables with many zero cells; every other one has a
    zero last cell."""
    rng = np.random.Generator(np.random.PCG64(17))
    tables = []
    for i in range(count):
        raw = rng.random(16) * (rng.random(16) < rng.uniform(0.05, 0.5))
        raw[rng.integers(15)] += 0.01  # never all zero
        if i % 2:
            raw[15] = 0.0
        tables.append((f"from_raw{i}", np.array(QuadDistribution.from_raw(raw).entries)))
    return tables


class TestSampleCounts:
    @pytest.mark.parametrize("samples", (1, 1000, 10**6, MAX_SAMPLES))
    def test_counts_sum_to_n_and_zero_cells_stay_zero(self, samples):
        tables = referee_tables() + sparse_from_raw_tables(1000)
        assert sum(entries[-1] == 0.0 for _, entries in tables) > 500
        for i, (name, entries) in enumerate(tables):
            quad = QuadDistribution(tuple(entries))
            for seed in (i, 2**64 - 1 - i):
                counts = _sample_counts(quad, samples, seed)
                assert counts.sum() == samples, name
                assert not counts[entries == 0.0].any(), name

    def test_same_seed_same_counts(self):
        for name, entries in referee_tables():
            quad = QuadDistribution(tuple(entries))
            first = _sample_counts(quad, 10**6, 2006)
            assert np.array_equal(first, _sample_counts(quad, 10**6, 2006)), name
        uniform = QuadDistribution(tuple([1 / 16] * 16))
        assert not np.array_equal(_sample_counts(uniform, 10**6, 1),
                                  _sample_counts(uniform, 10**6, 2))

    def test_law_equals_one_search_per_draw(self):
        # over many seeds, each cell's z has mean 0 and standard deviation 1
        # for both samplers; shifting one cell's share by 1/136 moves its
        # mean z by more than 2
        p = np.arange(1, 17) / 136
        quad = QuadDistribution(tuple(p))
        samples, seeds = 10_000, 2_000
        for sampler in (_sample_counts, reference_sample_counts):
            counts = np.array([sampler(quad, samples, seed) for seed in range(seeds)])
            z = (counts - samples * p) / np.sqrt(samples * p * (1 - p))
            assert np.abs(z.mean(axis=0)).max() < 5 / math.sqrt(seeds), sampler
            assert np.abs(z.std(axis=0) - 1).max() < 5 / math.sqrt(2 * seeds), sampler

    def test_memory_does_not_grow_with_samples(self):
        quad = QuadDistribution(tuple([1 / 16] * 16))
        _sample_counts(quad, 2**16, 1)  # warm-up: numpy's lazy state

        def traced_peak(samples: int) -> int:
            tracemalloc.start()
            try:
                _sample_counts(quad, samples, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = traced_peak(4 * 2**16), traced_peak(40 * 2**16)
        assert large - small <= 64 * 1024
        assert large < 4 * 1024 * 1024


class TestStructuredErrors:
    """Errors that check one input against a bound name the field, the value
    and the bound in the error JSON."""

    def error_of(self, capsys, *argv: str) -> dict:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        return json.loads(err)

    @pytest.mark.parametrize("samples, bound", [(10 * MAX_SAMPLES, MAX_SAMPLES), (0, 1)])
    def test_samples_outside_bounds(self, write_json, capsys, samples, bound):
        path = write_json("u.json", UNIFORM_PROBS)
        error = self.error_of(capsys, "--mode", "mc-verify", "--input", path,
                              "--samples", str(samples))
        assert (error["field"], error["value"], error["bound"]) == ("samples", samples, bound)

    def test_sweep_budget(self, write_json, capsys):
        path = write_json("u.json", UNIFORM_PROBS)
        error = self.error_of(capsys, "--mode", "sweep", "--input", path, "--grid", "46")
        # seven axes: 4 * 45**4 block cells fit in SWEEP_MAX_CELLS, 4 * 46**4 do not
        assert 4 * 45**4 <= SWEEP_MAX_CELLS < 4 * 46**4
        assert (error["field"], error["value"], error["bound"]) == ("--grid", 46, 45)
        assert "at most 45 points per axis" in error["message"]

    def test_number_outside_float_range(self, write_json, capsys):
        huge = {**UNIFORM_PROBS, "singles": {**UNIFORM_PROBS["singles"], "A'": 10**400}}
        error = self.error_of(capsys, "--mode", "chsh", "--input", write_json("h.json", huge))
        assert (error["field"], error["value"], error["bound"]) == (
            "A'", 10**400, 1.7976931348623157e308)
        # a value JSON cannot hold is given as its repr, and no bound applies
        nan = {**UNIFORM_PROBS, "singles": {**UNIFORM_PROBS["singles"], "A'": float("nan")}}
        error = self.error_of(capsys, "--mode", "chsh", "--input", write_json("n.json", nan))
        assert (error["field"], error["value"], "bound" in error) == ("A'", "nan", False)

    @pytest.mark.parametrize("field, value, bound", [("B", 1.25, 1.0), ("AB'", 0.75, 0.5)])
    def test_probability_outside_domain(self, write_json, capsys, field, value, bound):
        group = "singles" if len(field) == 1 else "doubles"
        probs = {**UNIFORM_PROBS, group: {**UNIFORM_PROBS[group], field: value}}
        error = self.error_of(capsys, "--mode", "chsh", "--input", write_json("p.json", probs))
        assert (error["field"], error["value"], error["bound"]) == (field, value, bound)
        assert f"P({field}) = {value!r}" in error["message"]

    @pytest.mark.parametrize("state, settings, field, value, bound", [
        ([[1.0, 0.0]] * 16, {}, "state", 4.0, 1.0),
        (DIAG_STATE, {}, "state", -0.25, 0.0),
        ("singlet", {"n_A'": [0.0, 1.0]}, "n_A'", 2, 3),
        ("singlet", {"n_A'": "x"}, "n_A'", "'x'", 3),
        ([[0.25, 0.0]] * 15, {}, "state", 15, 16),
        ([[1, 2, 3]] + [[0.25, 0.0]] * 15, {}, "state", 3, 2),
        ([0.25] + [[0.25, 0.0]] * 15, {}, "state", "0.25", 2),
    ], ids=["trace", "psd", "length", "not_a_list", "entries", "triple_entry", "number_entry"])
    def test_state_and_settings_errors(self, write_json, capsys, state, settings, field, value,
                                       bound):
        payload = {"state": state, "settings": {**SINGLET_STATE["settings"], **settings}}
        error = self.error_of(capsys, "--mode", "probs", "--input", write_json("s.json", payload))
        assert (error["field"], error["value"], error["bound"]) == (field, value, bound)

    @pytest.mark.parametrize("t, field, value, bound", [
        ({"dotdot": 1.5}, "t_dotdot", 1.5, 1.0),
        ({"bb": [0.5, -0.25, 0.5, 0.5]}, "t_bb[1]", -0.25, 0.0),
    ])
    def test_params_outside_unit_interval(self, write_json, capsys, t, field, value, bound):
        path = write_json("u.json", UNIFORM_PROBS)
        params = write_json("t.json", {"t": t})
        error = self.error_of(capsys, "--mode", "construct4", "--input", path, "--params", params)
        assert (error["field"], error["value"], error["bound"]) == (field, value, bound)

    @pytest.mark.parametrize("tolerance, code", [("1e-12", 2), ("1e-9", 0)])
    def test_state_file_decided_at_tolerance(self, write_json, capsys, tolerance, code):
        # diag(1 + 5e-10, -5e-10, 0, 0) passes the density-matrix checks at
        # 1e-9; with n_B = z it gives P(B) = 1 + 5e-10, as does a probability
        # file of the same numbers
        entries = [[0.0, 0.0]] * 16
        entries[0], entries[5] = [1.0 + 5e-10, 0.0], [-5e-10, 0.0]
        settings = {"n_A": [0.0, 0.0, 1.0], "n_A'": [1.0, 0.0, 0.0],
                    "n_B": [0.0, 0.0, 1.0], "n_B'": [1.0, 0.0, 0.0]}
        rho = DensityMatrix(np.array([complex(*e) for e in entries]).reshape(4, 4))
        values = [p.real for p in trace_probs(rho, AnalyzerSettings(*settings.values()))]
        probs = {"singles": dict(zip(("A", "A'", "B", "B'"), values[:4])),
                 "doubles": dict(zip(("AB", "AB'", "A'B", "A'B'"), values[4:]))}
        runs = [run_cli(capsys, "--mode", "chsh", "--input", path, "--tolerance", tolerance)
                for path in (write_json("s.json", {"state": entries, "settings": settings}),
                             write_json("p.json", probs))]
        assert [c for c, _, _ in runs] == [code, code]
        if code:
            fields = [json.loads(err)["field"] for _, _, err in runs]
            bounds = [json.loads(err)["bound"] for _, _, err in runs]
            assert (fields, bounds) == (["B", "B"], [1.0, 1.0])
        else:
            singles = [json.loads(out)["probs"]["singles"] for _, out, _ in runs]
            assert singles[0]["B"] == singles[1]["B"] == 1.0

    def test_errors_without_a_bound_add_no_keys(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{")
        error = self.error_of(capsys, "--mode", "chsh", "--input", str(path))
        assert set(error) == {"error", "message"}

    @pytest.mark.parametrize("mode, payload, flags, field, value", [
        ("probs", {**SINGLET_STATE, "state": "bogus"}, {}, "state", "bogus"),
        ("probs", {**SINGLET_STATE, "state": "ket:2"}, {}, "state", "2"),
        ("probs", {**SINGLET_STATE, "state": 5}, {}, "state", "5"),
        ("construct4", UNIFORM_PROBS, {"--params": {"t": [0.5]}}, "t", "[0.5]"),
        ("construct4", UNIFORM_PROBS, {"--params": {"t": {"dotdott": 0.0}}}, "t.dotdott", None),
        ("sweep", UNIFORM_PROBS, {"--grid": "abc"}, "--grid", "abc"),
        ("sweep", UNIFORM_PROBS, {"--grid": "0"}, "--grid", "0"),
        ("construct4", SINGLET_PROBS_3, {}, "A'B'", None),
    ], ids=["unknown_state", "unsupported_ket", "state_not_name_or_list", "t_not_object",
            "unknown_t_key", "grid_not_parsed", "grid_zero_points", "missing_aprime_bprime"])
    def test_field_without_a_bound(self, write_json, capsys, mode, payload, flags, field, value):
        argv = ["--mode", mode, "--input", write_json("in.json", payload)]
        for flag, arg in flags.items():
            argv += [flag, write_json("t.json", arg) if flag == "--params" else arg]
        error = self.error_of(capsys, *argv)
        assert (error["field"], error.get("value"), "bound" in error) == (field, value, False)

    @pytest.mark.parametrize("flag, text, kind", [
        ("--samples", "abc", "int"), ("--seed", "x", "int"), ("--tolerance", "abc", "float"),
        ("--samples", "1.5", "int"), ("--seed", "", "int"),
    ])
    def test_flag_value_argparse_cannot_convert(self, write_json, capsys, flag, text, kind):
        path = write_json("u.json", UNIFORM_PROBS)
        error = self.error_of(capsys, "--mode", "mc-verify", "--input", path, flag, text)
        assert (error["error"], error["field"], error["value"]) == ("ValidationError", flag, text)
        assert error["message"] == f"argument {flag}: invalid {kind} value: {text!r}"

    @pytest.mark.parametrize("argv", [
        ("--input", "x.json"), ("--mode", "nope", "--input", "x.json"),
        ("--mode", "chsh", "--input", "x.json", "--extra"), ("--mode", "chsh", "--input"),
    ])
    def test_usage_errors_are_json(self, capsys, argv):
        error = self.error_of(capsys, *argv)
        assert error["error"] == "ValidationError" and "usage" not in error["message"]

    @pytest.mark.parametrize("seed, bound", [(-1, 0), (2**64, 2**64 - 1)])
    def test_seed_outside_64_bits(self, write_json, capsys, seed, bound):
        path = write_json("u.json", UNIFORM_PROBS)
        error = self.error_of(capsys, "--mode", "chsh", "--input", path, "--seed", str(seed))
        assert (error["field"], error["value"], error["bound"]) == ("seed", seed, bound)
        assert error["message"] == f"seed = {seed} is outside [0, {2**64 - 1}]"

    @pytest.mark.parametrize("tolerance, value, bound", [
        ("1e-13", 1e-13, 1e-12), ("0.1", 0.1, 1e-6), ("inf", "inf", 1e-6), ("nan", "nan", None),
    ])
    def test_atol_outside_range(self, write_json, capsys, tolerance, value, bound):
        path = write_json("u.json", UNIFORM_PROBS)
        error = self.error_of(capsys, "--mode", "chsh", "--input", path, "--tolerance", tolerance)
        assert (error["field"], error["value"], error.get("bound")) == ("atol", value, bound)

    def test_missing_field_is_named(self, write_json, capsys):
        probs = {**UNIFORM_PROBS, "doubles": {"AB": 0.25}}
        error = self.error_of(capsys, "--mode", "chsh", "--input", write_json("m.json", probs))
        assert (error["field"], "value" in error, "bound" in error) == ("AB'", False, False)
        assert error["message"] == "probability file: missing required field \"AB'\""

    @pytest.mark.parametrize("bb, value", [([0.5] * 3, 3), ([0.5] * 5, 5), (0.5, "0.5")])
    def test_bb_length(self, write_json, capsys, bb, value):
        path = write_json("u.json", UNIFORM_PROBS)
        params = write_json("t.json", {"t": {"bb": bb}})
        error = self.error_of(capsys, "--mode", "construct4", "--input", path, "--params", params)
        assert (error["field"], error["value"], error["bound"]) == ("t.bb", value, 4)

    @pytest.mark.parametrize("grid, value, bound", [
        ("0,1.5", 1.5, 1.0), ("-0.25,1", -0.25, 0.0), ("0,nan", "nan", None),
    ])
    def test_grid_fraction_outside_unit_interval(self, write_json, capsys, grid, value, bound):
        path = write_json("u.json", UNIFORM_PROBS)
        error = self.error_of(capsys, "--mode", "sweep", "--input", path, f"--grid={grid}")
        assert (error["field"], error["value"], error.get("bound")) == ("--grid", value, bound)
        assert error["message"].endswith("is outside [0.0, 1.0]")


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


    @pytest.mark.parametrize("mode", ["chsh", "construct4", "construct3", "oracle", "sweep"])
    def test_negative_zero_input_prints_no_negative_zero(self, tmp_path, capsys, mode):
        path = tmp_path / "negzero.json"
        path.write_text(json.dumps({
            "singles": {"A": -0.0, "A'": 1.0, "B": 1.0, "B'": -0.0},
            "doubles": {"AB": -0.0, "AB'": -0.0, "A'B": 1.0, "A'B'": -0.0},
        }))
        assert path.read_text().count("-0.0") == 5
        code, out, _ = run_cli(capsys, "--mode", mode, "--input", str(path))
        assert code == 0
        assert "-0.0" not in out


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
