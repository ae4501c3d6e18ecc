"""The package's import graph: which paths load numpy, which modules the LP
oracle may read, and the public names that resolve on first access."""

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
from helpers import P_SINGLET_HIGH, P_SINGLET_LOW

SRC = Path(eprjoint.__file__).resolve().parent.parent

# The 40 public names, by the module that defines them.
EXPORTS = {
    "chsh": ("ChshReport", "CVariant", "c_function", "chsh_probability_form"),
    "construction": ("ConstructionTrace", "FamilyParams", "Interval", "SweepResult",
                     "construct_3exp", "construct_4exp", "construct_trace",
                     "interval_p_aprime_bprime", "interval_p_dotdot", "interval_p_plusplus",
                     "interval_p_pp_bb", "invert_params", "marginal_residuals",
                     "step1_triples", "step2_quadruple"),
    "errors": ("ChshViolationError", "EprJointError", "InternalInvariantError",
               "ValidationError"),
    "experiments": ("ExperimentalProbs", "QuadDistribution", "correlations_of", "frechet_bounds"),
    "oracle": ("FeasibilityResult", "MarginalSystem", "build_system", "solve_system"),
    "quantum": ("AnalyzerSettings", "DensityMatrix", "chsh_optimal_settings",
                "experimental_probs", "ket_state", "maximally_mixed", "singlet", "werner"),
    "sweep": ("sweep_grid",),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]
# Names of the modules that import numpy, loaded on first access.
LAZY = [name for module in ("quantum", "sweep") for name in EXPORTS[module]]

# Runs cli.main once per (mode, input) pair given as a JSON list in argv[1],
# then prints the exit codes and whether numpy was ever imported.
RUN_CLI = """
import json, sys
import eprjoint, eprjoint.cli
runs = json.loads(sys.argv[1])
codes = [eprjoint.cli.main(["--mode", mode, "--input", path, "--output", out])
         for mode, path, out in runs]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""

SINGLES = {"A": 0.5, "A'": 0.5, "B": 0.5, "B'": 0.5}
UNIFORM = {"singles": SINGLES, "doubles": {"AB": 0.25, "AB'": 0.25, "A'B": 0.25, "A'B'": 0.25}}
THREE = {"singles": SINGLES, "doubles": {"AB": 0.25, "AB'": 0.25, "A'B": 0.25}}
VIOLATING = {"singles": SINGLES, "doubles": {"AB": P_SINGLET_LOW, "AB'": P_SINGLET_LOW,
                                             "A'B": P_SINGLET_LOW, "A'B'": P_SINGLET_HIGH}}
STATE = {"state": "werner:0.5", "settings": {"n_A": [0, 0, 1], "n_A'": [1, 0, 0],
                                             "n_B": [0, 0, 1], "n_B'": [1, 0, 0]}}


def run_cli(tmp_path, runs) -> dict:
    """Exit codes and numpy's presence after the runs in one fresh process."""
    argv = []
    for k, (mode, payload) in enumerate(runs):
        path = tmp_path / f"in{k}.json"
        path.write_text(json.dumps(payload))
        argv.append([mode, str(path), str(tmp_path / f"out{k}.json")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", RUN_CLI, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestNumpyLoadsOnlyWhereArraysAreUsed:
    def test_scalar_modes_never_import_numpy(self, tmp_path):
        runs = [("chsh", VIOLATING), ("construct4", UNIFORM), ("construct4", VIOLATING),
                ("construct3", THREE), ("oracle", UNIFORM)]
        assert run_cli(tmp_path, runs) == {"codes": [0, 0, 3, 0, 0], "numpy": False}

    def test_state_file_imports_numpy(self, tmp_path):
        # the guard sees numpy when a path does load it
        assert run_cli(tmp_path, [("probs", STATE)]) == {"codes": [0], "numpy": True}


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
        assert len(eprjoint.__all__) == 40

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
