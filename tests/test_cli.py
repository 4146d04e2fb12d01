import csv
import json

import pytest

import dfnflow.config
import dfnflow.meshing
import dfnflow.presets
from dfnflow.cli import main
from dfnflow.config import load_config, spec_to_dict
from dfnflow.export import load_bundle
from dfnflow.presets import PRESET_NAMES, run_preset

from test_config import EXAMPLES, MINIMAL, floating_documents
from test_network import count_checks


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def case1_document():
    doc = json.loads(json.dumps(MINIMAL))
    doc["network"]["sources"] = {
        "scalar": [{"branch": "f", "breakpoints": [0.3, 0.7], "values": [1, -1, 1]}],
        "force": [0.05, 0.0],
    }
    return doc


def oscillating_document():
    doc = json.loads(json.dumps(MINIMAL))
    doc["network"]["boundary"]["conditions"][1]["value"] = 0.2
    doc["law"]["high"] = {"type": "constant", "value": 1.0 / 0.5625}
    return doc


def test_solve_converged_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, case1_document())
    code = main(["solve", str(config), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "converged" in out
    assert (tmp_path / "out" / "solve.json").exists()


def test_solve_oscillating_exit_code(tmp_path):
    config = write_config(tmp_path, oscillating_document())
    assert main(["solve", str(config), "--out", str(tmp_path / "out")]) == 2


def test_solve_max_iterations_exit_code(tmp_path):
    config = write_config(tmp_path, case1_document())
    code = main(
        [
            "solve",
            str(config),
            "--eps-omega",
            "1e-15",
            "--max-outer",
            "2",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 3


def test_capped_inner_solve_exits_four(tmp_path):
    doc = case1_document()
    doc["law"]["high"] = {"type": "affine", "intercept": 0.01, "slope": 3.0}
    config = write_config(tmp_path, doc)
    assert main(["solve", str(config), "--out", str(tmp_path / "default")]) == 0
    doc["solver"] = {"max_inner": 1}
    config = write_config(tmp_path, doc, "capped.json")
    out = tmp_path / "capped"
    assert main(["solve", str(config), "--out", str(out)]) == 4
    bundle = json.loads((out / "solve.json").read_text())
    assert bundle["inner_converged"][0] and not all(bundle["inner_converged"])


def test_bad_config_exits_one(tmp_path, capsys):
    doc = case1_document()
    doc["law"]["thresholdd"] = 1.0
    config = write_config(tmp_path, doc)
    assert main(["solve", str(config)]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_missing_file_exits_one(tmp_path):
    assert main(["solve", str(tmp_path / "nope.json")]) == 1


def test_preset_command(tmp_path, capsys):
    code = main(["preset", "case1-linear", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "case1-linear.json").exists()


def test_preset_h_flag_sets_the_mesh_size(tmp_path):
    assert main(["preset", "case1-linear", "--h", "0.25", "--out", str(tmp_path)]) == 0
    bundle = load_bundle(tmp_path / "case1-linear.json")
    assert bundle.final == run_preset("case1-linear", h=0.25).final
    assert bundle.final != run_preset("case1-linear").final


def test_preset_csv_format(tmp_path):
    code = main(
        ["preset", "case1-linear", "--trace", "--format", "csv", "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "report.json").exists()
    assert any(p.name.startswith("flux_it") for p in tmp_path.iterdir())


def test_flag_overrides_reach_the_solver(tmp_path):
    config = write_config(tmp_path, case1_document())
    out = tmp_path / "out"
    assert main(["solve", str(config), "--h", "0.1", "--out", str(out)]) == 0
    bundle = json.loads((out / "solve.json").read_text())
    assert bundle["config"]["solver"]["h"] == 0.1


def test_flag_overrides_are_recorded_in_the_config_block(tmp_path):
    example = EXAMPLES / "mean-anchored.json"
    out = tmp_path / "out"
    flags = ["--max-outer", "3", "--eps-nl", "1e-6"]
    assert main(["solve", str(example), *flags, "--out", str(out)]) == 0
    expected = spec_to_dict(load_config(example))
    expected["solver"].update(max_outer=3, eps_nl=1e-6)
    assert json.loads((out / "solve.json").read_text())["config"] == expected


def test_sweep_k2_runs_grid(tmp_path, capsys):
    config = write_config(tmp_path, oscillating_document())
    code = main(
        [
            "sweep-k2",
            str(config),
            "--k2-values",
            "0.5625,1.0,4.0",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "k2=0.5625: oscillating" in out
    assert "k2=1: converged" in out or "k2=1.0: converged" in out
    bundle = json.loads((tmp_path / "out" / "sweep-k2.json").read_text())
    assert len(bundle["extras"]["sweep"]) == 3


def test_sweep_k2_with_capped_inner_solves_exits_four(tmp_path, capsys):
    doc = oscillating_document()
    doc["law"]["low"] = {"type": "affine", "intercept": 1.0, "slope": 3.0}
    doc["solver"] = {"max_inner": 1}
    config = write_config(tmp_path, doc)
    out = tmp_path / "out"
    code = main(["sweep-k2", str(config), "--k2-values", "1,4", "--out", str(out)])
    assert code == 4
    rows = json.loads((out / "sweep-k2.json").read_text())["extras"]["sweep"]
    assert [row["inner_converged"] for row in rows] == [False, False]


def test_sweep_k2_requires_constant_high_law(tmp_path, capsys):
    doc = oscillating_document()
    doc["law"]["high"] = {"type": "affine", "intercept": 0.01, "slope": 3.0}
    config = write_config(tmp_path, doc)
    assert main(["sweep-k2", str(config)]) == 1
    assert "constant high-regime law" in capsys.readouterr().err


def test_sweep_k2_with_every_member_failing_exits_1(tmp_path, capsys):
    config = write_config(tmp_path, oscillating_document())
    code = main(
        ["sweep-k2", str(config), "--k2-values=-1,0", "--out", str(tmp_path / "out")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: every sweep member failed: ")
    assert not (tmp_path / "out").exists()


def test_sweep_k2_records_invalid_k2_values_and_keeps_sweeping(tmp_path, capsys):
    config = write_config(tmp_path, oscillating_document())
    out = tmp_path / "out"
    code = main(["sweep-k2", str(config), "--k2-values", "1,-2,0,4", "--out", str(out)])
    assert code == 0
    rows = json.loads((out / "sweep-k2.json").read_text())["extras"]["sweep"]
    assert [row["k2"] for row in rows] == [1.0, -2.0, 0.0, 4.0]
    assert [row["status"] for row in rows] == ["converged", "error", "error", "converged"]
    assert [row["lambda2"] for row in rows] == [1.0, None, None, 0.25]
    assert "must be positive" in rows[1]["message"]
    assert "division by zero" in rows[2]["message"]


def test_sweep_k2_records_a_nan_k2_as_a_failed_member_before_any_solve(tmp_path, monkeypatch):
    # NaN used to pass the law's checks and fail inside the solve
    solves = []
    track = dfnflow.presets.track

    def counting_track(mesh, law, **kwargs):
        solves.append(law.lambda2)
        return track(mesh, law, **kwargs)

    monkeypatch.setattr(dfnflow.presets, "track", counting_track)
    out = tmp_path / "out"
    config = EXAMPLES / "mean-anchored-darcy.json"
    assert main(["sweep-k2", str(config), "--k2-values=nan,2", "--out", str(out)]) == 0
    failed, ran = json.loads((out / "sweep-k2.json").read_text())["extras"]["sweep"]
    assert failed["status"] == "error" and failed["lambda2"] is None
    assert failed["message"].startswith("law branch needs finite parameters; got (nan, 0.0)")
    assert ran["status"] == "converged" and solves == [ran["lambda2"]]


@pytest.mark.parametrize(
    "flag", [["--eps-nl", "1e-6"], ["--eps-omega", "1e-3"], ["--max-outer", "1"],
             ["--init", "high"]],
    ids=lambda flag: flag[0],
)
def test_preset_rejects_solver_flags_it_cannot_apply(tmp_path, flag):
    # a preset fixes its solver settings; a flag it ignored would go unnoticed
    assert main(["preset", "case1-linear", *flag, "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    # exit code 2 means "oscillating", so a usage error must not return it
    assert main(["preset", "nosuch"]) == 1
    assert main(["sweep-k2"]) == 1
    assert main(["--help"]) == 0
    assert main(["solve", "--help"]) == 0


def test_sweep_k2_trace_writes_snapshots(tmp_path):
    config = write_config(tmp_path, oscillating_document())
    out = tmp_path / "out"
    code = main(["sweep-k2", str(config), "--k2-values", "0.5625,4", "--trace", "--out", str(out)])
    assert code == 0
    bundle = json.loads((out / "sweep-k2.json").read_text())
    last = bundle["extras"]["sweep"][-1]
    assert last["status"] == "converged"
    assert len(bundle["snapshots"]) == bundle["outer_iterations"] == last["outer_iterations"]


def test_sweep_k2_starts_members_from_init_labels(tmp_path):
    # with these labels the solve needs 13 outer iterations, from uniform low 17
    doc = case1_document()
    doc["solver"] = {"h": 0.25, "init_labels": {"f": [0, 1, 1, 0, 0, 1]}}
    config = write_config(tmp_path, doc)
    assert main(["solve", str(config), "--out", str(tmp_path / "solve")]) == 0
    # the config's high coefficient is 0.1, so k2 = 10 is the same law
    code = main(["sweep-k2", str(config), "--k2-values", "10", "--out", str(tmp_path / "sweep")])
    assert code == 0
    solved = json.loads((tmp_path / "solve" / "solve.json").read_text())
    swept = json.loads((tmp_path / "sweep" / "sweep-k2.json").read_text())
    assert swept["outer_iterations"] == solved["outer_iterations"] == 13
    for key in ("distances", "inner_iteration_counts", "final"):
        assert swept[key] == solved[key]


@pytest.mark.parametrize("values", ["-1,1,4", "1,-1"])
def test_sweep_k2_csv_keeps_the_columns_of_every_row(tmp_path, values):
    # a failed member adds a message column that the other rows leave empty,
    # whichever row comes first
    config = write_config(tmp_path, oscillating_document())
    out = tmp_path / "out"
    code = main(["sweep-k2", str(config), f"--k2-values={values}", "--format", "csv",
                 "--out", str(out)])
    assert code == 0
    with open(out / "sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [float(row["k2"]) for row in rows] == [float(v) for v in values.split(",")]
    for row in rows:
        failed = float(row["k2"]) < 0
        assert row["status"] == ("error" if failed else "converged")
        assert ("must be positive" in row["message"]) if failed else row["message"] == ""
        assert None not in row  # no row has more cells than the header


def test_nl_tolerance_table_csv_matches_the_report(tmp_path):
    out = tmp_path / "out"
    assert main(["preset", "nl-tolerance-table", "--format", "csv", "--out", str(out)]) == 0
    table = json.loads((out / "report.json").read_text())["extras"]["table"]
    with open(out / "table.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [{k: float(v) for k, v in row.items()} for row in rows] == table


def _no_solve(*args, **kwargs):
    raise AssertionError("a run started")


@pytest.mark.parametrize("command", ["solve", "sweep-k2"])
def test_init_labels_of_the_wrong_length_are_a_config_error_before_any_solve(
    tmp_path, capsys, monkeypatch, command
):
    # h = 0.25 gives the unit fracture 4 elements; the list holds 2 labels
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = {"h": 0.25, "init_labels": {"f": [0, 1]}}
    config = write_config(tmp_path, doc)
    monkeypatch.setattr(dfnflow.presets, "track", _no_solve)
    assert main([command, str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: solver.init_labels ")
    assert "on branch 'f': 2 values for its 4 elements at h = 0.25" in err
    # the labels are checked against the mesh of the overridden h
    monkeypatch.undo()
    assert main([command, str(config), "--h", "0.5", "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["solve", "sweep-k2"])
def test_init_labels_for_an_unknown_branch_are_a_config_error_before_any_solve(
    tmp_path, capsys, monkeypatch, command
):
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = {"h": 0.25, "init_labels": {"f": [0, 1, 1, 0], "nosuch": [1]}}
    config = write_config(tmp_path, doc)
    monkeypatch.setattr(dfnflow.presets, "track", _no_solve)
    assert main([command, str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: solver.init_labels ")
    assert "it has no branch 'nosuch'" in err


@pytest.mark.parametrize("command", ["solve", "sweep-k2"])
@pytest.mark.parametrize(
    "flag, value", [("--eps-nl", "-1"), ("--eps-omega", "0"), ("--max-outer", "0"), ("--h", "0")]
)
def test_solver_flags_are_checked_as_the_config_keys_they_override(
    tmp_path, capsys, monkeypatch, command, flag, value
):
    config = write_config(tmp_path, MINIMAL)
    monkeypatch.setattr(dfnflow.presets, "track", _no_solve)
    out = tmp_path / "out"
    assert main([command, str(config), flag, value, "--out", str(out)]) == 1
    key = flag[2:].replace("-", "_")
    assert capsys.readouterr().err.startswith(f"configuration error: solver.{key} ")
    assert not out.exists()


def test_a_zero_intercept_is_a_config_error_before_any_solve(tmp_path, capsys, monkeypatch):
    # the mean-anchored Darcy example with an affine high law through the origin
    doc = json.loads((EXAMPLES / "mean-anchored-darcy.json").read_text())
    doc["law"]["high"] = {"type": "affine", "intercept": 0, "slope": 3}
    config = write_config(tmp_path, doc)
    monkeypatch.setattr(dfnflow.presets, "track", _no_solve)
    assert main(["solve", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "configuration error: law.high.: law branch intercept must be positive and slope "
        "non-negative; got (0.0, 3.0)\n"
    )


def test_an_overflowing_normalized_branch_is_a_config_error_before_any_solve(
    tmp_path, capsys, monkeypatch
):
    # the slope times the threshold overflows to inf in the normalized high branch
    doc = json.loads((EXAMPLES / "mean-anchored-darcy.json").read_text())
    doc["law"]["high"] = {"type": "affine", "intercept": 0.01, "slope": 1e300}
    doc["law"]["threshold"] = 1e10
    config = write_config(tmp_path, doc)
    monkeypatch.setattr(dfnflow.presets, "track", _no_solve)
    assert main(["solve", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "configuration error: law.high.: law branch needs finite parameters; "
        "got (0.01, inf) once normalized by the threshold\n"
    )


def test_mean_pressure_beside_a_pressure_condition_is_a_config_error(tmp_path, capsys):
    doc = json.loads(json.dumps(MINIMAL))
    doc["network"]["boundary"]["conditions"][1]["value"] = 0.2
    doc["network"]["boundary"]["mean_pressure"] = 5.0
    config = write_config(tmp_path, doc)
    assert main(["solve", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "configuration error: invalid network:\n[pressure-level] mean_pressure is set, "
        "but a pressure condition fixes the level\n"
    )


@pytest.mark.parametrize("kind", ["velocity-only-part", "mean-unconnected"])
def test_a_floating_part_is_a_config_error_before_any_solve(tmp_path, capsys, monkeypatch, kind):
    doc, message = floating_documents()[kind]
    config = write_config(tmp_path, doc)
    monkeypatch.setattr(dfnflow.presets, "track", _no_solve)
    assert main(["solve", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: invalid network:\n[pressure-level] ")
    assert message in err


def chain_document(second_id):
    """Branches a, b, c end to end, p = 1 at the start of a and p = 0 at the end of c."""
    doc = json.loads(json.dumps(MINIMAL))
    doc["network"] = {
        "branches": [
            {"id": bid, "start": [k, 0.0], "end": [k + 1.0, 0.0]}
            for k, bid in enumerate("abc")
        ],
        "intersections": [
            {"id": "J", "point": [1.0, 0.0], "incident": [["a", "end"], ["b", "start"]]},
            {"id": second_id, "point": [2.0, 0.0], "incident": [["b", "end"], ["c", "start"]]},
        ],
        "boundary": {
            "conditions": [
                {"branch": "a", "end": "start", "type": "pressure", "value": 1.0},
                {"branch": "c", "end": "end", "type": "pressure", "value": 0.0},
            ]
        },
    }
    return doc


def test_duplicate_intersection_ids_are_a_config_error_before_any_solve(
    tmp_path, capsys, monkeypatch
):
    # under one id the junction pressures 2/3 and 1/3 would share one bundle key
    config = write_config(tmp_path, chain_document("J"))
    monkeypatch.setattr(dfnflow.presets, "track", _no_solve)
    assert main(["solve", str(config), "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err == (
        "configuration error: invalid network:\n"
        "[duplicate-intersection] intersection id 'J' appears more than once\n"
    )
    monkeypatch.undo()
    out = tmp_path / "out"
    config = write_config(tmp_path, chain_document("K"), "chain.json")
    assert main(["solve", str(config), "--out", str(out)]) == 0
    pressures = load_bundle(out / "solve.json").final["junction_pressure"]
    assert pressures == pytest.approx({"J": 2.0 / 3.0, "K": 1.0 / 3.0}, abs=1e-12)


def test_the_mean_anchored_darcy_example_sweeps_from_a_negative_k2(tmp_path, capsys):
    # a list starting with a negative value needs the = form
    example = str(EXAMPLES / "mean-anchored-darcy.json")
    out = tmp_path / "out"
    assert main(["sweep-k2", example, "--k2-values", "-1,0.5,2", "--out", str(out)]) == 1
    assert main(["sweep-k2", example, "--k2-values=-1,0.5,2", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith(
        "k2=-1: error\nk2=0.5: converged\nk2=2: converged\n"
    )


def test_preset_h_flag_is_checked_by_the_config_rule(tmp_path, capsys):
    assert main(["preset", "case1-linear", "--h", "0", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "configuration error: --h must be positive, got 0.0\n"


def test_solve_parses_and_validates_the_config_once(tmp_path, monkeypatch):
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = {"h": 0.25, "init_labels": {"f": [0, 1, 1, 0]}}
    config = write_config(tmp_path, doc)
    calls = []
    validate = dfnflow.config.validate_network
    monkeypatch.setattr(
        dfnflow.config, "validate_network", lambda net: calls.append(net) or validate(net)
    )
    assert main(["solve", str(config), "--max-outer", "5", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["solve", "sweep-k2"])
def test_a_run_with_init_labels_builds_its_mesh_once(tmp_path, monkeypatch, command):
    # the labels are checked against the mesh the run then tracks on
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = {"h": 0.25, "init_labels": {"f": [0, 1, 1, 0]}}
    config = write_config(tmp_path, doc)
    built = []
    build = dfnflow.meshing.build_mesh
    for module in (dfnflow.config, dfnflow.presets):
        if hasattr(module, "build_mesh"):
            monkeypatch.setattr(
                module, "build_mesh", lambda net, h: built.append(h) or build(net, h)
            )
    argv = [command, str(config), "--max-outer", "5", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert built == [0.25]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_preset_run_builds_its_base_mesh_once(monkeypatch, name):
    built = []
    build = dfnflow.presets.build_mesh
    monkeypatch.setattr(
        dfnflow.presets, "build_mesh", lambda net, h: built.append(h) or build(net, h)
    )
    run_preset(name)
    assert len(built) == 1


def count_label_walks(monkeypatch) -> list:
    """Record every ``Mesh.flat_elements`` call on values that are no view on the mesh."""
    walked = []
    flat = dfnflow.meshing.Mesh.flat_elements

    def counting(mesh, values, what):
        if getattr(values, "offset", None) is not mesh.element_offset:
            walked.append(what)
        return flat(mesh, values, what)

    monkeypatch.setattr(dfnflow.meshing.Mesh, "flat_elements", counting)
    return walked


def test_a_solve_walks_its_init_labels_once(tmp_path, monkeypatch):
    # the labels checked against the mesh reach the tracker as a view on it
    walked = count_label_walks(monkeypatch)
    argv = ["solve", str(EXAMPLES / "init-labels.json"), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert walked == ["solver.init_labels"]


def test_a_sweep_walks_its_init_labels_once_for_all_members(monkeypatch):
    doc = json.loads((EXAMPLES / "init-labels.json").read_text())
    doc["law"]["high"] = {"type": "constant", "value": 0.1}
    spec = dfnflow.config.parse_config(doc)
    walked = count_label_walks(monkeypatch)
    bundle = dfnflow.presets.sweep_k2("sweep-k2", spec, [0.5, 1.0, 2.0, 4.0, 10.0])
    assert all(row["status"] != "error" for row in bundle.extras["sweep"])
    assert walked == ["solver.init_labels"]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{config}"],
        ["sweep-k2", "{config}", "--k2-values=0.5,2"],
        ["preset", "nl-tolerance-table"],
    ],
    ids=["solve", "sweep-k2", "nl-tolerance-table"],
)
def test_each_command_checks_each_network_once(tmp_path, monkeypatch, argv):
    # parsing validates the network, and so does every mesh build of it
    config = write_config(tmp_path, {**MINIMAL, "solver": {"h": 0.25}})
    calls = count_checks(monkeypatch)
    argv = [arg.format(config=config) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("doc", [[], {**MINIMAL, "solver": []}, {**MINIMAL, "output": 3}])
def test_a_document_or_block_that_is_no_object_is_a_config_error_with_flags_given(
    tmp_path, capsys, doc
):
    config = write_config(tmp_path, doc)
    argv = ["solve", str(config), "--h", "0.5", "--trace", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("configuration error: ")


@pytest.mark.parametrize("file_flag, code", [(True, 0), ("yes", 1)])
def test_solve_reads_a_network_file_beside_the_config(tmp_path, capsys, file_flag, code):
    network = {"network": MINIMAL["network"], "approximate": file_flag}
    (tmp_path / "net.json").write_text(json.dumps(network))
    config = write_config(tmp_path, {"network_file": "net.json", "law": MINIMAL["law"]})
    out = tmp_path / "out"
    assert main(["solve", str(config), "--h", "0.5", "--out", str(out)]) == code
    if code:
        assert capsys.readouterr().err.startswith("configuration error: net.json:approximate ")
    else:
        assert json.loads((out / "solve.json").read_text())["config"]["approximate"] is True
