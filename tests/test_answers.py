"""The answer record: fresh runs compared with their recorded bundles.

``tests/answers/`` holds the JSON bundle of each preset, of each
``docs/examples/*.json`` solve and of each single-fracture oracle case (three
laws at three mesh sizes, the cases of the benchmark's oracle workload),
without ``timing_seconds``. The test runs each again and compares it with the
record. Strings, ints, bools, None, labels, and the keys and lengths of every
object and list must match exactly. A float must match to within 1e-12 times
the largest magnitude among the floats of the list or object that holds it.

A change that moves answers rewrites the record and names each moved entry::

    PYTHONPATH=src python tests/test_answers.py           # list the differences
    PYTHONPATH=src python tests/test_answers.py --write   # rewrite the record
"""

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import pytest

from dfnflow.config import load_config
from dfnflow.presets import (
    PRESET_NAMES,
    darcy_forchheimer_pair,
    darcy_pair,
    run_case,
    run_preset,
    run_spec,
    single_fracture_network,
)

RECORD = Path(__file__).resolve().parent / "answers"
EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "docs" / "examples").glob("*.json"))
RELATIVE_BOUND = 1e-12

ORACLE_LAWS = {
    "darcy-down": lambda: darcy_pair(1.0, 10.0),
    "darcy-up": lambda: darcy_pair(1.0, 0.5625),
    "forchheimer": darcy_forchheimer_pair,
}
ORACLE_H = (0.05, 0.02, 0.01)


def _example(path):
    return run_spec(load_config(path))


def _oracle_case(name, law, h):
    return run_case(name, single_fracture_network(), law(), h=h)


RUNS = {
    **{f"preset-{name}": functools.partial(run_preset, name) for name in PRESET_NAMES},
    **{f"example-{path.stem}": functools.partial(_example, path) for path in EXAMPLES},
    **{
        f"oracle-{law}-h{h}": functools.partial(_oracle_case, f"{law}-h{h}", make_law, h)
        for law, make_law in ORACLE_LAWS.items()
        for h in ORACLE_H
    },
}


def fresh_answer(entry: str) -> dict:
    """The bundle of a fresh run of ``entry`` as its JSON export reads back, untimed."""
    doc = json.loads(json.dumps(RUNS[entry]().to_dict()))
    del doc["timing_seconds"]
    return doc


def _same_leaf(recorded, fresh) -> bool:
    if type(recorded) is not type(fresh):
        return False
    return recorded == fresh or (recorded != recorded and fresh != fresh)  # NaN is NaN


def differences(recorded, fresh, path: str = "") -> list[str]:
    """Every entry of ``fresh`` that departs from ``recorded``, by key path."""
    if isinstance(recorded, dict):
        if not isinstance(fresh, dict) or fresh.keys() != recorded.keys():
            keys = sorted(fresh) if isinstance(fresh, dict) else type(fresh).__name__
            return [f"{path or '.'}: keys {keys} != recorded {sorted(recorded)}"]
        items = [(f"{path}.{key}", recorded[key], fresh[key]) for key in recorded]
    elif isinstance(recorded, list):
        if not isinstance(fresh, list) or len(fresh) != len(recorded):
            length = len(fresh) if isinstance(fresh, list) else type(fresh).__name__
            return [f"{path}: length {length} != recorded {len(recorded)}"]
        items = [(f"{path}[{i}]", r, f) for i, (r, f) in enumerate(zip(recorded, fresh))]
    else:
        same = _same_leaf(recorded, fresh)
        return [] if same else [f"{path}: {fresh!r} != recorded {recorded!r}"]
    floats = [abs(r) for _, r, _ in items if type(r) is float and math.isfinite(r)]
    bound = RELATIVE_BOUND * max(floats, default=0.0)
    found = []
    for at, r, f in items:
        if type(r) is float and math.isfinite(r) and type(f) is float:
            if not abs(f - r) <= bound:
                found.append(f"{at}: {f!r} != recorded {r!r} (bound {bound:.3g})")
        else:
            found += differences(r, f, at)
    return found


def test_the_record_holds_every_run():
    assert sorted(path.stem for path in RECORD.glob("*.json")) == sorted(RUNS)


@pytest.mark.parametrize("entry", sorted(RUNS))
def test_a_fresh_run_matches_the_answer_record(entry):
    recorded = json.loads((RECORD / f"{entry}.json").read_text())
    found = differences(recorded, fresh_answer(entry))
    assert not found, f"{entry}: {len(found)} entries moved:\n" + "\n".join(found[:20])


def test_a_move_past_the_bound_is_named_by_its_key_path():
    recorded = {"final": {"flux": {"f": {"value": [0.5, -2.0, 1.0]}}}, "status": "converged"}
    fresh = json.loads(json.dumps(recorded))
    fresh["final"]["flux"]["f"]["value"][2] *= 1.0 + 1e-13
    assert differences(recorded, fresh) == []
    fresh["final"]["flux"]["f"]["value"][2] = 1.0 * (1.0 + 1e-10)
    fresh["status"] = "oscillating"
    assert [line.split(":")[0] for line in differences(recorded, fresh)] == [
        ".final.flux.f.value[2]",
        ".status",
    ]
    assert differences([1, True, None], [1.0, 1, None]) == [
        "[0]: 1.0 != recorded 1",
        "[1]: 1 != recorded True",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare fresh runs with the answer record.")
    parser.add_argument("--write", action="store_true", help="rewrite the record instead")
    args = parser.parse_args(argv)
    if args.write:
        RECORD.mkdir(exist_ok=True)
        for path in RECORD.glob("*.json"):
            path.unlink()
        for entry in sorted(RUNS):
            (RECORD / f"{entry}.json").write_text(json.dumps(fresh_answer(entry)) + "\n")
        print(f"wrote {len(RUNS)} bundles to {RECORD}")
        return 0
    moved = 0
    for entry in sorted(RUNS):
        found = differences(json.loads((RECORD / f"{entry}.json").read_text()), fresh_answer(entry))
        moved += bool(found)
        print(*(f"{entry}: {line}" for line in found), sep="\n", end="\n" if found else "")
    print(f"{moved} of {len(RUNS)} bundles moved")
    return int(moved > 0)


if __name__ == "__main__":
    sys.exit(main())
