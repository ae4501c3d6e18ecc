"""The package's import graph: which modules each CLI mode loads, which
paths load numpy, dataclasses and inspect, which modules the LP oracle may
read, the public names that resolve on first access, the names the benchmark
reads, and the immutable records."""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eprjoint
from eprjoint import ValidationError, cli
from helpers import P_SINGLET_HIGH, P_SINGLET_LOW, uniform_probs

SRC = Path(eprjoint.__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent.parent / "bench"

# The 32 public names, by the module that defines them.
EXPORTS = {
    "chsh": ("ChshReport", "chsh_probability_form"),
    "construction": ("ConstructionTrace", "FamilyParams", "Interval", "SweepResult",
                     "construct_3exp", "construct_4exp", "construct_trace",
                     "interval_p_aprime_bprime", "invert_params", "marginal_residuals"),
    "errors": ("ChshViolationError", "EprJointError", "InternalInvariantError",
               "ValidationError"),
    "experiments": ("ExperimentalProbs", "QuadDistribution", "frechet_bounds"),
    "oracle": ("FeasibilityResult", "MarginalSystem", "build_system", "solve_system"),
    "quantum": ("AnalyzerSettings", "DensityMatrix", "chsh_optimal_settings",
                "experimental_probs", "ket_state", "maximally_mixed", "singlet", "werner"),
    "sweep": ("sweep_grid",),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]
# Every public name resolves on first access.
LAZY = [name for _, name in NAMES]

# Imports eprjoint, then, when argv[1] (a JSON list of (mode, input, output))
# names runs, eprjoint.cli, and runs cli.main once per triple; then prints the
# exit codes and the watched modules that were ever imported.
RUN_CLI = """
import json, sys
import eprjoint
runs = json.loads(sys.argv[1])
if runs:
    import eprjoint.cli
codes = [eprjoint.cli.main(["--mode", mode, "--input", path, "--output", out])
         for mode, path, out in runs]
print(json.dumps({"codes": codes, "loaded": sorted(
    name for name in sys.modules if name.startswith("eprjoint.")
    or name in ("numpy", "fractions", "dataclasses", "inspect"))}))
"""

SINGLES = {"A": 0.5, "A'": 0.5, "B": 0.5, "B'": 0.5}
UNIFORM = {"singles": SINGLES, "doubles": {"AB": 0.25, "AB'": 0.25, "A'B": 0.25, "A'B'": 0.25}}
THREE = {"singles": SINGLES, "doubles": {"AB": 0.25, "AB'": 0.25, "A'B": 0.25}}
VIOLATING = {"singles": SINGLES, "doubles": {"AB": P_SINGLET_LOW, "AB'": P_SINGLET_LOW,
                                             "A'B": P_SINGLET_LOW, "A'B'": P_SINGLET_HIGH}}
STATE = {"state": "werner:0.5", "settings": {"n_A": [0, 0, 1], "n_A'": [1, 0, 0],
                                             "n_B": [0, 0, 1], "n_B'": [1, 0, 0]}}
MATRIX_STATE = {**STATE, "state": [[0.25 if k % 5 == 0 else 0.0, 0.0] for k in range(16)]}

# Each scalar child: its runs, their exit codes, and the modules it may not
# load besides numpy, dataclasses and inspect (records are NamedTuples).
SCALAR_CHILDREN = {
    "probs-chsh": ([("probs", STATE), ("probs", MATRIX_STATE), ("chsh", STATE),
                    ("chsh", VIOLATING)], [0, 0, 0, 0],
                   {"eprjoint.construction", "eprjoint.oracle"}),
    "construct": ([("construct4", UNIFORM), ("construct4", VIOLATING), ("construct3", THREE),
                   ("construct4", STATE), ("construct3", MATRIX_STATE)], [0, 3, 0, 0, 0],
                  {"eprjoint.oracle", "fractions"}),
    "oracle": ([("oracle", UNIFORM), ("oracle", VIOLATING), ("oracle", STATE)], [0, 0, 0],
               {"eprjoint.construction", "eprjoint.chsh"}),
}


def child_env() -> dict:
    """The environment of a fresh child that imports the package from SRC."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def run_cli(tmp_path, runs) -> dict:
    """Exit codes and the watched modules loaded after the runs in one
    fresh process."""
    argv = []
    for k, (mode, payload) in enumerate(runs):
        path = tmp_path / f"in{k}.json"
        path.write_text(json.dumps(payload))
        argv.append([mode, str(path), str(tmp_path / f"out{k}.json")])
    done = subprocess.run([sys.executable, "-c", RUN_CLI, json.dumps(argv)],
                          capture_output=True, text=True, env=child_env(), timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestNumpyLoadsOnlyWhereArraysAreUsed:
    def test_import_loads_no_submodule(self, tmp_path):
        assert run_cli(tmp_path, []) == {"codes": [], "loaded": []}

    def test_scalar_modes_never_import_numpy(self, tmp_path):
        for child, (runs, codes, barred) in SCALAR_CHILDREN.items():
            loaded = run_cli(tmp_path, runs)
            assert loaded["codes"] == codes, child
            assert "eprjoint.cli" in loaded["loaded"], child  # the guard sees what runs load
            barred = barred | {"numpy", "dataclasses", "inspect"}
            assert barred.isdisjoint(loaded["loaded"]), (child, loaded["loaded"])

    def test_sweep_imports_numpy(self, tmp_path):
        # the guard sees numpy when a path does load it
        loaded = run_cli(tmp_path, [("sweep", STATE)])
        assert loaded["codes"] == [0]
        assert {"numpy", "eprjoint.sweep"} <= set(loaded["loaded"])


# Builds the family workload's probability records in a fresh process and
# prints the package modules (and numpy) it loaded.
BUILD_PROBS = """
import json, sys
import eprjoint
eprjoint.ExperimentalProbs(0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25).without_aprime_bprime()
print(json.dumps(sorted(name for name in sys.modules
                        if name.startswith("eprjoint.") or name == "numpy")))
"""


def test_probability_records_load_only_their_modules():
    # the benchmark's timed set-up imports eprjoint and builds these records;
    # a module or an import added to their path lands in that time
    done = subprocess.run([sys.executable, "-c", BUILD_PROBS], capture_output=True, text=True,
                          env=child_env(), timeout=60, check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == ["eprjoint.errors", "eprjoint.experiments", "eprjoint.indexing"]


def test_no_module_imports_dataclasses_or_inspect():
    imported = set()
    for path in sorted((SRC / "eprjoint").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert {"itertools", "typing", "numpy"} <= imported  # the walk finds imports
    assert imported.isdisjoint({"dataclasses", "inspect"})


def package_imports(module: str) -> set[str]:
    """The eprjoint modules that `module` imports, directly or through
    others, at any depth of its code."""
    seen, todo = set(), [module]
    while todo:
        tree = ast.parse((SRC / "eprjoint" / f"{todo.pop()}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for name in [node.module] if node.module else [a.name for a in node.names]:
                    if name not in seen:
                        seen.add(name)
                        todo.append(name)
    return seen


def test_oracle_reads_no_other_route():
    # the LP is an independent route: it may not import the construction,
    # the CHSH test or the sweep, even through another module (the first two
    # asserts show that the walk finds imports)
    assert "experiments" in package_imports("oracle")
    assert "construction" in package_imports("sweep")
    assert package_imports("oracle").isdisjoint({"construction", "chsh", "sweep"})


class TestPublicNames:
    def test_export_count(self):
        assert sorted(eprjoint.__all__) == sorted(name for _, name in NAMES)
        assert len(eprjoint.__all__) == 32

    @pytest.mark.parametrize("module, name", NAMES)
    def test_name_resolves_to_its_module_object(self, module, name):
        defined = getattr(importlib.import_module(f"eprjoint.{module}"), name)
        assert getattr(eprjoint, name) is defined
        namespace: dict = {}
        exec(f"from eprjoint import {name}", namespace)
        assert namespace[name] is defined
        assert name in dir(eprjoint)

    @pytest.mark.parametrize("name", LAZY)
    def test_first_access_loads_and_caches(self, monkeypatch, name):
        monkeypatch.delitem(vars(eprjoint), name, raising=False)
        value = getattr(eprjoint, name)
        assert vars(eprjoint)[name] is value

    def test_star_import_gives_every_name(self):
        namespace: dict = {}
        exec("from eprjoint import *", namespace)
        for _, name in NAMES:
            assert namespace[name] is getattr(eprjoint, name)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="module 'eprjoint' has no attribute 'no_such_name'"):
            eprjoint.no_such_name

    def test_bench_reads_only_existing_names(self):
        # the benchmark reaches the library as `ej`; a name it reads that the
        # package lost would otherwise show only as a failed benchmark run
        read = {node.attr for path in sorted(BENCH.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "ej"}
        assert {"construct_4exp", "invert_params", "sweep_grid"} <= read  # the scan finds reads
        assert [name for name in sorted(read) if not hasattr(eprjoint, name)] == []


def record_instances() -> dict[str, object]:
    """One instance of each public record, by class name."""
    probs = uniform_probs()
    trace = eprjoint.construct_trace(probs)
    system = eprjoint.build_system(probs)
    return {type(record).__name__: record for record in (
        probs, trace, trace.params, trace.quad, trace.intervals["P(..++)"],
        eprjoint.sweep_grid(probs, [0.5]), system, eprjoint.solve_system(system),
        eprjoint.chsh_probability_form(probs), cli.RunConfig("chsh", "in.json"),
        eprjoint.chsh_optimal_settings(), eprjoint.singlet(),
    )}


RECORDS = ("AnalyzerSettings", "ChshReport", "ConstructionTrace", "DensityMatrix",
           "ExperimentalProbs", "FamilyParams", "FeasibilityResult", "Interval",
           "MarginalSystem", "QuadDistribution", "RunConfig", "SweepResult")
# A value its checks refuse, for one field of each record that validates.
BAD_FIELDS = {"AnalyzerSettings": ("n_a", (2.0, 0.0, 0.0)),
              "DensityMatrix": ("matrix", ((1.0,) * 4,) * 4), "ExperimentalProbs": ("p_a", 5.0),
              "FamilyParams": ("t_dotdot", 2.0), "MarginalSystem": ("rhs", (1.0,) * 8),
              "QuadDistribution": ("entries", (1.0,) * 16), "RunConfig": ("samples", 0)}


class TestRecordsAreImmutable:
    def test_one_instance_per_record(self):
        assert sorted(record_instances()) == list(RECORDS)

    @pytest.mark.parametrize("name", RECORDS)
    def test_fields_cannot_be_assigned(self, name):
        record = record_instances()[name]
        for field in record._fields:
            before = getattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert getattr(record, field) is before
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.extra = None

    def test_bad_fields_cover_every_validating_record(self):
        # a validating record subclasses a private field base, not tuple itself
        validating = {name for name, record in record_instances().items()
                      if isinstance(record, tuple) and tuple not in type(record).__bases__}
        assert validating == set(BAD_FIELDS)

    @pytest.mark.parametrize("name", sorted(BAD_FIELDS))
    def test_replace_and_make_run_the_checks(self, name):
        record = record_instances()[name]
        field, bad = BAD_FIELDS[name]
        assert record._replace() == record
        with pytest.raises(ValidationError):
            record._replace(**{field: bad})
        with pytest.raises(ValidationError):
            type(record)._make(bad if f == field else getattr(record, f) for f in record._fields)
