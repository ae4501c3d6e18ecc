"""Property test of the command line over its JSON input schemas.

Valid probability, state and parameter files are generated and then
mutated: fields deleted, replaced by values of the wrong type or by
non-finite numbers, and extra keys added.  Each file is fed to every mode
through the in-process entry point, with flag values that are valid, out
of range, or text argparse cannot convert.  Every run must exit with a documented
code (0, 2 or 3, never 5 or a traceback) and write a strict JSON
report: the result on success, the error otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from eprjoint.cli import MODES, main

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -0.0, 1.5]),
    st.sampled_from([10**400, "0.5"]),
    st.text(max_size=4),
    st.lists(st.floats(0.0, 1.0), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=2),
)
FRACTION = st.floats(0.0, 1.0)
SINGLES = ("A", "A'", "B", "B'")
PAIRS = (("A", "B"), ("A", "B'"), ("A'", "B"), ("A'", "B'"))
LOW, HIGH = (2.0 - 2.0**0.5) / 8.0, (2.0 + 2.0**0.5) / 8.0
# The CHSH-optimal singlet probabilities: violating with A'B', feasible without.
SINGLET = {
    "singles": dict.fromkeys(SINGLES, 0.5),
    "doubles": {"AB": LOW, "AB'": LOW, "A'B": LOW, "A'B'": HIGH},
}


@st.composite
def probs_files(draw) -> dict:
    """Singles, and doubles inside their Fréchet bounds; A'B' sometimes left out."""
    if draw(st.integers(0, 4)) == 0:
        doc = copy.deepcopy(SINGLET)
    else:
        p = {k: draw(FRACTION) for k in SINGLES}
        doubles = {}
        for x, y in PAIRS:
            lo, hi = max(0.0, p[x] + p[y] - 1.0), min(p[x], p[y])
            doubles[x + y] = lo + draw(FRACTION) * (hi - lo)
        doc = {"singles": p, "doubles": doubles}
    if draw(st.booleans()):
        del doc["doubles"]["A'B'"]
    return doc


UNIT = st.sampled_from([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.6, 0.0, 0.8], [0.0, -0.8, -0.6]])
STATE_FILES = st.fixed_dictionaries({
    "state": st.one_of(
        st.sampled_from(["singlet", "mixed", "ket:00", "ket:10"]),
        st.builds(lambda p: f"werner:{p!r}", FRACTION),
        st.just([[0.25, 0.0] if i % 5 == 0 else [0.0, 0.0] for i in range(16)]),
    ),
    "settings": st.fixed_dictionaries({f"n_{k}": UNIT for k in SINGLES}),
})
T_FILES = st.fixed_dictionaries({"t": st.fixed_dictionaries(
    {"dotdot": FRACTION, "bb": st.lists(FRACTION, min_size=4, max_size=4)},
    optional={"a_plus": FRACTION, "aprime_plus": FRACTION, "aprime_bprime": FRACTION},
)})


def _slots(doc) -> list:
    """Every (container, key) inside a JSON document, parents first."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    slots = []
    for key, value in items:
        slots.append((doc, key))
        slots.extend(_slots(value))
    return slots


@st.composite
def mutated(draw, documents):
    """A valid document with up to three values replaced by junk, keys
    deleted or keys added; the replaced value may be the whole document."""
    holder = [copy.deepcopy(draw(documents))]  # strategies may share list objects
    for _ in range(draw(st.integers(0, 3))):
        # leaves first, the root last: the simplest draw damages one value
        container, key = draw(st.sampled_from(_slots(holder)[::-1]))
        action = draw(st.sampled_from(["replace", "extra", "delete"]))
        if action == "replace":
            container[key] = draw(JUNK)
        elif action == "extra" and isinstance(container, dict):
            container[draw(st.text(max_size=3))] = draw(JUNK)
        elif action == "delete" and container is not holder:
            del container[key]
    return holder[0]


# Flag text with no decimal digit, so it never names a large valid grid or
# sample count; a leading "-" makes argparse read it as a flag.
JUNK_TEXT = st.one_of(
    st.sampled_from(["abc", "", " ", "-", "--", "-h", "--x", "0x10", "1e3", "1.5", "inf"]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=4),
)
GRIDS = st.one_of(
    st.sampled_from(["1", "2", "3", "0,1", "1,0,0.5"]),
    st.sampled_from(["0", "-1", "x", "0.5,2", "nan", "46", "0,nan", "-0.5,1"]),
    JUNK_TEXT,
)
TOLERANCES = st.one_of(
    st.none(), st.sampled_from(["1e-9", "1e-12", "1e-6"]), st.sampled_from(["0.1", "nan", "0"]),
    JUNK_TEXT,
)
SAMPLES = st.one_of(
    st.sampled_from(["2000", "1", "0", "-3", "100000001", "9" * 30]), JUNK_TEXT
)
SEEDS = st.one_of(
    st.none(), st.sampled_from(["0", "7", "-1", str(2**64), "9" * 30]), JUNK_TEXT
)


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which JSON does not have."""
    def reject(constant: str):
        raise ValueError(f"non-JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(
    mode=st.sampled_from(MODES),
    data=st.one_of(mutated(probs_files()), mutated(STATE_FILES)),
    params=st.one_of(st.none(), mutated(T_FILES)),
    grid=GRIDS,
    tolerance=TOLERANCES,
    samples=SAMPLES,
    seed=SEEDS,
)
def test_every_input_exits_documented_code_with_json(mode, data, params, grid, tolerance,
                                                     samples, seed):
    with tempfile.TemporaryDirectory() as folder:
        input_path = Path(folder, "input.json")
        input_path.write_text(json.dumps(data))
        argv = ["--mode", mode, "--input", str(input_path), "--grid", grid, "--samples", samples]
        if params is not None:
            params_path = Path(folder, "params.json")
            params_path.write_text(json.dumps(params))
            argv += ["--params", str(params_path)]
        if tolerance is not None:
            argv += ["--tolerance", tolerance]
        if seed is not None:
            argv += ["--seed", seed]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print outside the JSON report
            code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        assert strict_json(out.getvalue())["mode"] == mode
    else:
        assert "error" in strict_json(err.getvalue())
