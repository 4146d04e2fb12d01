import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dfnflow.config import ProblemSpec, parse_config
from dfnflow.export import export_bundle, load_bundle
import dfnflow.export
import dfnflow.presets
from dfnflow.picard import PicardSettings
from dfnflow.presets import (
    PRESET_NAMES,
    darcy_forchheimer_pair,
    darcy_pair,
    oscillation_variant_network,
    run_case,
    run_k2_sweep,
    run_preset,
    run_spec,
    single_fracture_network,
    sweep_k2,
)
from dfnflow.tracker import TrackerSettings

from oracles import per_branch_fields, per_branch_regimes
from test_config import MINIMAL

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from lattice import lattice_network  # noqa: E402


@pytest.fixture(scope="module")
def case1_traced():
    return run_preset("case1-linear", trace=True)


def test_case1_linear_bundle_shape(case1_traced):
    bundle = case1_traced
    assert bundle.status == "converged"
    assert bundle.schema_version == 3
    assert len(bundle.snapshots) == bundle.outer_iterations
    assert len(bundle.inner_iteration_counts) == bundle.outer_iterations
    assert bundle.inner_converged == [True] * bundle.outer_iterations
    assert len(bundle.mixed) == len(bundle.distances) == bundle.outer_iterations
    # the energy minimizer is the uniform high state: no interfaces, and the
    # flux is the lifted field shifted by alpha*
    assert bundle.final["interfaces"] == []
    assert bundle.energy["fem_offset_spread"] <= 1e-8
    assert abs(bundle.energy["fem_offset_mean"] - bundle.energy["alpha_star"]) <= 1e-6


def test_json_round_trip_is_bit_exact(tmp_path, case1_traced):
    paths = export_bundle(case1_traced, tmp_path, "json")
    assert len(paths) == 1
    loaded = load_bundle(paths[0])
    assert loaded == case1_traced
    # fields compare equal entry by entry, including float payloads
    assert loaded.to_dict() == case1_traced.to_dict()


def test_bundle_reports_capped_inner_solves(tmp_path):
    # two inner cycles cannot meet 1e-12 once the Forchheimer branch is active
    bundle = run_case(
        "case1-nonlinear",
        single_fracture_network(),
        darcy_forchheimer_pair(),
        picard=PicardSettings(tolerance=1e-12, max_iterations=2),
    )
    assert bundle.inner_iteration_counts[1:] == [2] * (bundle.outer_iterations - 1)
    assert bundle.inner_converged == [True] + [False] * (bundle.outer_iterations - 1)
    (path,) = export_bundle(bundle, tmp_path, "json")
    assert load_bundle(path).inner_converged == bundle.inner_converged


def test_bundle_reports_mixed_outer_iterations(tmp_path):
    # the first two outer iterations cannot mix: mixing needs two residuals
    bundle = run_preset("case1-nonlinear")
    assert bundle.status == "converged"
    assert bundle.outer_iterations == 5
    assert bundle.mixed == [False, False, False, True, True]
    assert bundle.distances[-1] <= 1e-8
    (path,) = export_bundle(bundle, tmp_path, "json")
    assert load_bundle(path).mixed == bundle.mixed


def test_json_handles_infinite_distances(tmp_path, case1_traced):
    assert math.isinf(case1_traced.distances[0])
    (path,) = export_bundle(case1_traced, tmp_path / "inf", "json")
    loaded = load_bundle(path)
    assert math.isinf(loaded.distances[0])


def test_csv_rows_sorted_by_branch_and_arc(tmp_path):
    bundle = run_preset("case2-linear", trace=True)
    paths = export_bundle(bundle, tmp_path, "csv")
    flux_files = [p for p in paths if p.name.startswith("flux_")]
    assert flux_files
    for path in flux_files:
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "branch,arc,value"
        keys = []
        for line in rows[1:]:
            branch, arc, _ = line.split(",")
            keys.append((branch, float(arc)))
        assert keys == sorted(keys)


def test_csv_without_trace_writes_final_state_only(tmp_path):
    bundle = run_preset("case1-linear")
    paths = export_bundle(bundle, tmp_path, "csv")
    names = {p.name for p in paths}
    assert "flux_final.csv" in names
    assert not any(n.startswith("flux_it") for n in names)
    assert "report.json" in names


def test_presets_are_reproducible():
    a = run_preset("case1-nonlinear")
    b = run_preset("case1-nonlinear")
    assert a == b  # timing excluded from comparison
    da, db = a.to_dict(), b.to_dict()
    da.pop("timing_seconds")
    db.pop("timing_seconds")
    assert da == db


def test_k2_sweep_records_status_per_member():
    bundle = run_preset("k2-sweep")
    rows = bundle.extras["sweep"]
    by_k2 = {row["k2"]: row for row in rows}
    assert by_k2[0.5625]["status"] == "oscillating"
    assert by_k2[0.5625]["period"] == 2
    for k2 in (1.0, 2.0, 4.0, 10.0, 16.0):
        assert by_k2[k2]["status"] == "converged"
    oscillating = [r for r in rows if r["status"] == "oscillating"]
    assert all(r["k2"] < 1.0 for r in oscillating)


def test_k2_sweep_bundle_is_its_last_members_run(monkeypatch):
    # every member converges in 2 outer iterations, so a cap of 1 stops them
    # all; the bundle must report that capped run, not a fresh uncapped one
    calls = []
    track = dfnflow.presets.track

    def counting_track(*args, **kwargs):
        calls.append(args[1])
        return track(*args, **kwargs)

    monkeypatch.setattr(dfnflow.presets, "track", counting_track)
    capped = ProblemSpec(
        oscillation_variant_network(), darcy_pair(), tracker=TrackerSettings(max_outer=1)
    )
    bundle = sweep_k2("k2-sweep", capped, [0.5625, 4.0])
    assert len(calls) == 2
    last = bundle.extras["sweep"][-1]
    assert bundle.status == last["status"] == "max-iterations"
    member = run_case(
        "member",
        oscillation_variant_network(),
        darcy_pair(k2=last["k2"]),
        tracker=TrackerSettings(max_outer=1),
    )
    assert bundle.final == member.final
    assert bundle.distances == member.distances


def test_k2_sweep_with_every_member_failing_raises():
    with pytest.raises(RuntimeError, match="every sweep member failed: "):
        run_k2_sweep(values=[-1.0, 0.0])


@pytest.mark.parametrize("values", [[], iter(())], ids=["list", "iterator"])
def test_k2_sweep_without_values_raises_before_meshing(monkeypatch, values):
    def no_mesh(*args, **kwargs):
        raise AssertionError("meshed an empty sweep")

    monkeypatch.setattr(dfnflow.presets, "build_mesh", no_mesh)
    with pytest.raises(ValueError, match="the k2 sweep needs at least one k2 value"):
        run_k2_sweep(values=values)


def test_nl_tolerance_table_monotonicity():
    bundle = run_preset("nl-tolerance-table")
    rows = bundle.extras["table"]
    eps = [r["eps_nl"] for r in rows]
    assert eps == sorted(eps, reverse=True)
    inner = [r["inner_last"] for r in rows]
    assert inner == sorted(inner)
    errors_p = [r["err_p"] for r in rows[:-1]]  # reference row is zero
    assert all(a > b for a, b in zip(errors_p, errors_p[1:]))


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        run_preset("case9-spherical")


def test_all_presets_run_and_export(tmp_path):
    # smoke coverage for the full preset surface at a coarse mesh
    for name in PRESET_NAMES:
        bundle = run_preset(name, h=0.1)
        paths = export_bundle(bundle, tmp_path / name, "json")
        assert paths[0].exists()


def test_run_spec_matches_preset_pipeline():
    doc = json.loads(json.dumps(MINIMAL))
    doc["network"]["sources"] = {
        "scalar": [{"branch": "f", "breakpoints": [0.3, 0.7], "values": [1, -1, 1]}],
        "force": [0.05, 0.0],
    }
    spec = parse_config(doc)
    bundle = run_spec(spec)
    reference = run_preset("case1-linear")
    assert bundle.status == reference.status
    assert bundle.outer_iterations == reference.outer_iterations
    assert bundle.final["interfaces"] == reference.final["interfaces"]
    assert bundle.config is not None


def test_bundle_config_round_trip(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    spec = parse_config(doc)
    bundle = run_spec(spec)
    (path,) = export_bundle(bundle, tmp_path, "json")
    loaded = load_bundle(path)
    assert parse_config(loaded.config) == spec


@pytest.mark.parametrize("name", ["case3-nonlinear", "case1-nonlinear"])
def test_running_and_exporting_a_preset_loads_no_scipy_and_no_numpy_submodule(tmp_path, name):
    # scipy is a test dependency only: importing it at run time would cost
    # more start-up time and memory than the solve it was once used for.
    # Some numpy submodules load lazily in numpy 2.x: numpy.ma on the first
    # np.unique call (about 10 ms inside the run), numpy.polynomial on first
    # use (9 modules, about 0.9 MB and 3 ms). The run path uses only what
    # `import numpy` loads itself; numpy 1.x loads both with numpy.
    # case1-nonlinear is a single fracture, so its run builds the energy block.
    code = (
        "import sys\n"
        "import numpy\n"
        "with_numpy = set(sys.modules)\n"
        "import dfnflow\n"
        "from dfnflow.export import export_bundle\n"
        "from dfnflow.presets import run_preset\n"
        f"export_bundle(run_preset({name!r}), {str(tmp_path)!r}, 'json')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(sorted(m for m in set(sys.modules) - with_numpy if m.split('.')[0] == 'numpy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    scipy_modules, lazy_numpy_modules = result.stdout.splitlines()
    assert scipy_modules == "[]"
    assert lazy_numpy_modules == "[]", f"running and exporting {name} imported {lazy_numpy_modules}"
    assert [p.name for p in tmp_path.iterdir()] == [f"{name}.json"]


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_preset("case3-nonlinear", trace=True),
        lambda: run_case(
            "lattice",
            lattice_network(1, 4),
            darcy_pair(1.0, 10.0),
            h=0.05,
            tracker=TrackerSettings(max_outer=4),
            trace=True,
        ),
    ],
    ids=["case3-nonlinear", "lattice"],
)
def test_bundle_json_matches_the_per_branch_fields(monkeypatch, run):
    # the fields are sliced from one list per flat array; the document must
    # come out byte for byte as when every branch is converted on its own
    def document():
        bundle = run()
        bundle.timing_seconds = 0.0
        return json.dumps(bundle.to_dict())

    flat = document()
    monkeypatch.setattr(dfnflow.export, "solution_fields", per_branch_fields)
    monkeypatch.setattr(dfnflow.export, "_regime_block", per_branch_regimes)
    assert document() == flat
