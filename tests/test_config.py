import dataclasses
import json
import re
from importlib import resources
from pathlib import Path

import pytest

import dfnflow.presets
from dfnflow.config import (
    SOLVER_KEYS,
    ConfigError,
    load_config,
    network_from_dict,
    parse_config,
    read_network_file,
    spec_to_dict,
)
from dfnflow.laws import LawBranch
from dfnflow.meshing import build_mesh
from dfnflow.network import validate_network
from dfnflow.picard import PicardSettings
from dfnflow.presets import (
    darcy_pair,
    run_case,
    run_k2_sweep,
    run_spec,
    single_fracture_network,
)
from dfnflow.tracker import TrackerSettings, track

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "config-schema.md"
EXAMPLES = SCHEMA.parent / "examples"

MINIMAL = {
    "network": {
        "branches": [{"id": "f", "start": [0.0, 0.0], "end": [1.0, 0.0]}],
        "boundary": {
            "conditions": [
                {"branch": "f", "end": "start", "type": "pressure", "value": 0.0},
                {"branch": "f", "end": "end", "type": "pressure", "value": 0.0},
            ]
        },
    },
    "law": {
        "low": {"type": "constant", "value": 1.0},
        "high": {"type": "constant", "value": 0.1},
        "threshold": 0.15,
    },
}


def test_minimal_document_gets_defaults():
    spec = parse_config(MINIMAL)
    assert spec.h == 0.05
    assert spec.picard.tolerance == 1e-4
    assert spec.picard.max_iterations == 50
    assert spec.tracker.eps_omega == 1e-8
    assert parse_config({**MINIMAL, "solver": {"eps_omega": None}}).tracker == spec.tracker
    assert spec_to_dict(spec)["solver"]["eps_omega"] == 1e-8
    assert spec.tracker.max_outer == 50
    assert spec.init == "low"
    assert spec.init_labels is None
    assert spec.output.format == "json"
    assert not spec.approximate


def test_unknown_key_is_an_error_with_its_path():
    doc = json.loads(json.dumps(MINIMAL))
    doc["law"]["thresholdd"] = 0.2
    with pytest.raises(ConfigError, match="thresholdd"):
        parse_config(doc)


def test_unknown_solver_key_reports_section():
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = {"eps_nll": 1.0}
    with pytest.raises(ConfigError, match="solver.*eps_nll"):
        parse_config(doc)


def test_schema_doc_lists_exactly_the_solver_settings():
    # the json block of the doc's solver section, without its // comments
    section = SCHEMA.read_text().split("## `solver`", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    documented = json.loads(re.sub(r"//.*", "", block))
    assert tuple(documented) == SOLVER_KEYS
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = documented
    labels = {b: tuple(v) for b, v in documented["init_labels"].items()}
    # the documented values are the defaults
    assert parse_config(doc) == dataclasses.replace(parse_config(MINIMAL), init_labels=labels)


def test_removed_interface_tolerance_is_an_unknown_key():
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = {"eps_gamma": 1e-10}
    with pytest.raises(ConfigError, match=r"unknown key solver\.'eps_gamma'"):
        parse_config(doc)


def test_undetermined_pressure_level_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["network"]["boundary"]["conditions"] = [
        {"branch": "f", "end": "start", "type": "velocity", "value": 0.0},
        {"branch": "f", "end": "end", "type": "velocity", "value": 0.0},
    ]
    with pytest.raises(ConfigError, match="pressure level of the part .* 'f' is undetermined"):
        parse_config(doc)


def floating_documents():
    # a fracture with only velocity conditions beside a pressure-anchored one,
    # and two unconnected fractures under the mean anchor
    doc = json.loads(json.dumps(MINIMAL))
    doc["network"]["branches"].append({"id": "g", "start": [0.0, 1.0], "end": [1.0, 1.0]})
    doc["network"]["boundary"]["conditions"] += [
        {"branch": "g", "end": "start", "type": "velocity", "value": -0.5},
        {"branch": "g", "end": "end", "type": "velocity", "value": 0.5},
    ]
    mean = json.loads(json.dumps(doc))
    for condition in mean["network"]["boundary"]["conditions"][:2]:
        condition.update(type="velocity", value=0.0)
    mean["network"]["boundary"]["mean_pressure"] = 0.0
    return {
        "velocity-only-part": (doc, "'g' is undetermined: it has no pressure condition"),
        "mean-unconnected": (mean, "'f' is undetermined: the mean-pressure constraint"),
    }


@pytest.mark.parametrize("kind", ["velocity-only-part", "mean-unconnected"])
def test_a_floating_part_is_rejected_before_any_solve(kind):
    doc, message = floating_documents()[kind]
    network = network_from_dict(doc["network"])
    (violation,) = validate_network(network).violations
    assert violation.code == "pressure-level" and message in violation.message
    with pytest.raises(ValueError, match=r"\[pressure-level\]"):
        build_mesh(network, 0.25)
    with pytest.raises(ConfigError, match=r"invalid network:\n\[pressure-level\] .*" + message):
        parse_config(doc)


def test_solver_defaults_are_the_loops_own(monkeypatch):
    spec = dataclasses.replace(parse_config(MINIMAL), h=0.25)
    assert (spec.picard, spec.tracker) == (PicardSettings(), TrackerSettings())
    seen = []

    def capture(mesh, law, picard_settings, settings, **kwargs):
        seen.append((picard_settings, settings))
        return track(mesh, law, picard_settings, settings, **kwargs)

    monkeypatch.setattr(dfnflow.presets, "track", capture)
    run_spec(spec)
    assert seen[0][0] is spec.picard and seen[0][1] is spec.tracker
    run_case("defaults", single_fracture_network(), darcy_pair(), h=0.25)
    run_k2_sweep(values=[2.0], h=0.25)
    assert seen == [(PicardSettings(), TrackerSettings())] * 3


def test_a_spec_whose_mixing_depth_no_document_records_fails_before_any_solve(monkeypatch):
    # no config key sets PicardSettings.depth, so its document would read back as 5
    spec = dataclasses.replace(parse_config(MINIMAL), h=0.25, picard=PicardSettings(depth=0))

    def no_run(*args, **kwargs):
        raise AssertionError("run_case was called")

    monkeypatch.setattr(dfnflow.presets, "run_case", no_run)
    with pytest.raises(ValueError, match="mixing depth 0"):
        run_spec(spec)
    with pytest.raises(ValueError, match="mixing depth 0"):
        spec_to_dict(spec)


def test_mean_pressure_anchors_velocity_only_problem():
    doc = json.loads(json.dumps(MINIMAL))
    doc["network"]["boundary"]["conditions"] = [
        {"branch": "f", "end": "start", "type": "velocity", "value": 0.0},
        {"branch": "f", "end": "end", "type": "velocity", "value": 0.0},
    ]
    doc["network"]["boundary"]["mean_pressure"] = 0.7
    spec = parse_config(doc)
    assert spec.network.boundary.mean_pressure == 0.7


def test_affine_law_block():
    doc = json.loads(json.dumps(MINIMAL))
    doc["law"]["high"] = {"type": "affine", "intercept": 0.01, "slope": 3.0}
    spec = parse_config(doc)
    assert spec.law.high == LawBranch(0.01, 3.0)


def test_bad_law_type_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["law"]["low"] = {"type": "cubic", "value": 1.0}
    with pytest.raises(ConfigError, match="constant.*affine"):
        parse_config(doc)


def test_invalid_law_parameters_surface_as_config_errors():
    doc = json.loads(json.dumps(MINIMAL))
    doc["law"]["threshold"] = -1.0
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_duplicate_boundary_condition_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["network"]["boundary"]["conditions"].append(
        {"branch": "f", "end": "start", "type": "pressure", "value": 1.0}
    )
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(doc)


def test_duplicate_scalar_source_rejected():
    # a second entry for one branch used to replace the first without a word
    doc = json.loads(json.dumps(MINIMAL))
    doc["network"]["sources"] = {
        "scalar": [{"branch": "f", "values": [1.0]}, {"branch": "f", "values": [-1.0]}]
    }
    with pytest.raises(
        ConfigError, match=r"^network\.sources\.scalar\[1\]: duplicate source on branch 'f'$"
    ):
        parse_config(doc)


def test_round_trip_preserves_the_spec():
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = {"h": 0.1, "eps_nl": 1e-6, "init": "high"}
    doc["output"] = {"trace": True, "format": "csv"}
    doc["approximate"] = True
    # the mean-anchored example writes the optional mean_pressure and eps_omega
    mean = json.loads((EXAMPLES / "mean-anchored.json").read_text())
    mean["solver"] = {"eps_omega": 1e-3}
    for doc in (doc, mean):
        spec = parse_config(doc)
        rebuilt = parse_config(spec_to_dict(spec))
        assert rebuilt == spec
        assert spec_to_dict(rebuilt) == spec_to_dict(spec)
    assert spec_to_dict(spec)["network"]["boundary"]["mean_pressure"] == 0.0
    assert spec_to_dict(spec)["solver"]["eps_omega"] == 1e-3


def test_network_and_network_file_are_mutually_exclusive():
    doc = json.loads(json.dumps(MINIMAL))
    doc["network_file"] = "somewhere.json"
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(doc)
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config({"law": MINIMAL["law"]})


def test_network_file_reference(tmp_path):
    network_doc = {"network": MINIMAL["network"], "approximate": True}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network_doc))
    doc = {"network_file": "net.json", "law": MINIMAL["law"]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    spec = load_config(config_path)
    assert spec.network.branch_ids == ("f",)


def test_malformed_network_file_reference_is_a_config_error(tmp_path):
    (tmp_path / "net.json").write_text("{not json")
    with pytest.raises(ConfigError, match="net.json is not valid JSON"):
        parse_config({"network_file": "net.json", "law": MINIMAL["law"]}, base_dir=tmp_path)
    with pytest.raises(ConfigError, match="network_file must be a path string"):
        parse_config({"network_file": 5, "law": MINIMAL["law"]})


def test_packaged_network_file_loads_through_network_file():
    # the packaged file carries the optional "notes" key of the format; the
    # example config points at it relative to its own directory
    from dfnflow.presets import benchmark_network, darcy_forchheimer_pair

    spec = load_config(EXAMPLES / "case3-network-file.json")
    network, payload = benchmark_network()
    assert "notes" in payload
    assert spec.network == network
    assert spec.law == darcy_forchheimer_pair(intercept=0.01, slope=0.25)
    assert spec.approximate


@pytest.mark.parametrize("own_flag", [None, False, True])
def test_a_network_files_approximate_flag_carries_into_the_spec(own_flag):
    # the packaged case3 network is read off a figure and says so itself
    packaged = resources.files("dfnflow") / "data" / "case3_network.json"
    doc = {"network_file": str(packaged), "law": MINIMAL["law"]}
    if own_flag is not None:
        doc["approximate"] = own_flag
    spec = parse_config(doc)
    assert spec.approximate
    assert parse_config(spec_to_dict(spec)) == spec


@pytest.mark.parametrize("file_flag", [None, False])
def test_a_network_file_without_the_flag_leaves_the_document_to_decide(tmp_path, file_flag):
    network_doc = {"network": MINIMAL["network"]}
    if file_flag is not None:
        network_doc["approximate"] = file_flag
    (tmp_path / "net.json").write_text(json.dumps(network_doc))
    doc = {"network_file": "net.json", "law": MINIMAL["law"]}
    assert not parse_config(doc, base_dir=tmp_path).approximate
    doc["approximate"] = True
    assert parse_config(doc, base_dir=tmp_path).approximate


def test_a_network_files_flag_is_checked_with_its_key_path(tmp_path):
    network_doc = {"network": MINIMAL["network"], "approximate": "yes"}
    (tmp_path / "net.json").write_text(json.dumps(network_doc))
    doc = {"network_file": "net.json", "law": MINIMAL["law"]}
    with pytest.raises(ConfigError, match="net.json:approximate must be true or false"):
        parse_config(doc, base_dir=tmp_path)


def test_the_network_file_reader_leaves_validation_to_the_caller(tmp_path):
    network_doc = json.loads(json.dumps(MINIMAL["network"]))
    del network_doc["boundary"]["conditions"][1]
    (tmp_path / "net.json").write_text(json.dumps({"network": network_doc, "notes": "open"}))
    network, payload = read_network_file(tmp_path / "net.json")
    assert payload["notes"] == "open" and network.branch_ids == ("f",)
    assert "violations" not in vars(network)
    doc = {"network_file": "net.json", "law": MINIMAL["law"]}
    with pytest.raises(ConfigError, match=r"invalid network:\n\[unclosed-boundary\] "):
        parse_config(doc, base_dir=tmp_path)


def test_the_presets_read_the_packaged_network_file_through_the_config_reader(monkeypatch):
    read = []

    def reader(path):
        read.append(path)
        return read_network_file(path)

    monkeypatch.setattr(dfnflow.presets, "read_network_file", reader)
    network, payload = dfnflow.presets.benchmark_network()
    assert [path.name for path in read] == ["case3_network.json"]
    assert "violations" not in vars(network) and payload["approximate"] is True


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


MALFORMED = [
    (("solver", "h"), "abc", r"solver\.h must be a finite number, got 'abc'"),
    (("solver", "eps_omega"), "x", r"solver\.eps_omega must be a finite number"),
    (("solver", "h"), True, r"solver\.h must be a finite number, got True"),
    (("solver", "eps_nl"), float("nan"), r"solver\.eps_nl must be a finite number"),
    (("solver", "max_outer"), 2.7, r"solver\.max_outer must be an integer, got 2\.7"),
    (("solver", "max_inner"), "5", r"solver\.max_inner must be an integer"),
    (("solver", "init_labels"), {"f": ["a"]}, r"solver\.init_labels\.f\[0\] must be an integer"),
    (("solver", "init_labels"), [0, 1], r"solver\.init_labels must be an object"),
    (("solver", "init_labels"), {"f": [0, 2]}, r"solver\.init_labels\.f must hold 0 \(low\) or 1"),
    (("output", "trace"), "no", r"output\.trace must be true or false, got 'no'"),
    (("approximate",), 1, r"approximate must be true or false"),
    (
        ("network", "boundary", "conditions", 0, "value"),
        "p",
        r"network\.boundary\.conditions\[0\]\.value must be a finite number",
    ),
    (("network", "boundary", "mean_pressure"), "0", r"network\.boundary\.mean_pressure"),
    (
        ("network", "branches", 0, "start"),
        ["a", 0],
        r"network\.branches\[0\]\.start\[0\] must be a finite number, got 'a'",
    ),
    (("network", "branches"), {"id": "f"}, r"network\.branches must be a list"),
    (("network", "branches", 0), "f", r"network\.branches\[0\] must be an object"),
    (
        ("network", "sources"),
        {"scalar": [{"branch": "f", "values": ["1"]}]},
        r"network\.sources\.scalar\[0\]\.values\[0\] must be a finite number",
    ),
    (("law", "low", "value"), "1", r"law\.low\.value must be a finite number"),
    (("law", "threshold"), None, r"law\.threshold must be a finite number"),
    (("solver",), [], r"solver must be an object"),
    (
        ("law",),
        {"low": {"type": "constant", "value": 1.0}, "high": {"type": "constant", "value": 1.0}},
        r"missing key law\.'threshold'",
    ),
    (("network", "branches", 0, "end"), [1.0], r"network\.branches\[0\]\.end must be a pair"),
    (
        ("law", "low"),
        {"type": "affine", "intercept": 0.0, "slope": 0.0},
        r"law\.low\.: .*must be positive",
    ),
    # a zero intercept used to pass and fail in the second outer iteration's solve
    (
        ("law", "high"),
        {"type": "affine", "intercept": 0, "slope": 3.0},
        r"^law\.high\.: law branch intercept must be positive",
    ),
    (
        ("law", "high"),
        {"type": "constant", "value": -1.0},
        r"^law\.high\.: law branch intercept must be positive .*; got \(-1\.0, 0\.0\)$",
    ),
    (
        ("law", "low"),
        {"type": "affine", "intercept": 0.01, "slope": -3.0},
        r"^law\.low\.: .*slope non-negative; got \(0\.01, -3\.0\)$",
    ),
    (
        ("network", "sources"),
        {"scalar": [{"branch": "f", "breakpoints": [0.7, 0.3], "values": [1, -1, 1]}]},
        r"network\.sources\.scalar\[0\]\.: breakpoints must be strictly increasing",
    ),
    (
        ("network", "intersections"),
        [{"id": "J", "point": [1.0, 0.0], "incident": [["f", "middle"]]}],
        r"network\.intersections\[0\]\.incident entries must be \[branch, 'start'\|'end'\]",
    ),
    (
        ("network", "boundary", "conditions", 0, "end"),
        "left",
        r"network\.boundary\.conditions\[0\]\.end must be 'start' or 'end'",
    ),
    (
        ("network", "boundary", "conditions", 0, "type"),
        "flux",
        r"network\.boundary\.conditions\[0\]\.type must be 'pressure' or 'velocity'",
    ),
    (("solver", "init"), "mixed", r"solver\.init must be 'low' or 'high'"),
    (("solver", "max_outer"), 0, r"solver\.max_outer must be at least 1, got 0"),
    (("solver", "max_inner"), -2, r"solver\.max_inner must be at least 1, got -2"),
    (("output", "format"), "xml", r"output\.format must be 'json' or 'csv'"),
    # ids are not coerced: null is no branch "None", and 1 no branch "1"
    (
        ("network", "branches", 0, "id"),
        None,
        r"network\.branches\[0\]\.id must be a string, got None",
    ),
    (("network", "branches", 0, "id"), 1, r"network\.branches\[0\]\.id must be a string, got 1"),
    (
        ("network", "boundary", "conditions", 0, "branch"),
        1,
        r"network\.boundary\.conditions\[0\]\.branch must be a string, got 1",
    ),
    (
        ("network", "sources"),
        {"scalar": [{"branch": None, "values": [1.0]}]},
        r"network\.sources\.scalar\[0\]\.branch must be a string, got None",
    ),
    (
        ("network", "intersections"),
        [{"id": 7, "point": [1.0, 0.0], "incident": [["f", "end"]]}],
        r"network\.intersections\[0\]\.id must be a string, got 7",
    ),
    (
        ("network", "intersections"),
        [{"id": "J", "point": [1.0, 0.0], "incident": [[0, "end"]]}],
        r"network\.intersections\[0\]\.incident\[0\]\[0\] must be a string, got 0",
    ),
]


@pytest.mark.parametrize(
    "path, value, message",
    MALFORMED,
    ids=[f"{'.'.join(map(str, path))}={value!r}" for path, value, _ in MALFORMED],
)
def test_malformed_values_are_config_errors_with_their_key_path(path, value, message):
    doc = json.loads(json.dumps(MINIMAL))
    doc.setdefault("solver", {})
    doc.setdefault("output", {})
    _set(doc, path, value)
    with pytest.raises(ConfigError, match=message):
        parse_config(doc)


def test_unreadable_files_are_config_errors_with_their_path(tmp_path):
    with pytest.raises(ConfigError, match=r"cannot read network file .*missing\.json"):
        parse_config({"network_file": "missing.json", "law": MINIMAL["law"]}, base_dir=tmp_path)
    (tmp_path / "config.json").write_text("{not json")
    with pytest.raises(ConfigError, match=r"config .*config\.json is not valid JSON"):
        load_config(tmp_path / "config.json")


def test_sources_block_parsed():
    doc = json.loads(json.dumps(MINIMAL))
    doc["network"]["sources"] = {
        "scalar": [{"branch": "f", "breakpoints": [0.3, 0.7], "values": [1, -1, 1]}],
        "force": [0.05, 0.0],
    }
    spec = parse_config(doc)
    src = spec.network.sources.scalar_for("f")
    assert src.breakpoints == (0.3, 0.7)
    assert spec.network.sources.force == (0.05, 0.0)


def test_an_invalid_network_fails_parsing_and_meshing_on_one_report():
    doc = json.loads(json.dumps(MINIMAL))
    del doc["network"]["boundary"]["conditions"][1]
    with pytest.raises(ConfigError) as parsed:
        parse_config(doc)
    network = network_from_dict(doc["network"])
    report = str(validate_network(network))
    assert report.startswith("[unclosed-boundary] ")
    assert str(parsed.value) == f"invalid network:\n{report}"
    for h in (0.25, 0.25, 0.1):
        with pytest.raises(ValueError) as meshed:
            build_mesh(network, h)
        assert str(meshed.value) == f"cannot mesh an invalid network:\n{report}"


def test_packaged_benchmark_network_parses_and_validates():
    from dfnflow.presets import benchmark_network
    from dfnflow.network import validate_network

    net, payload = benchmark_network()
    assert payload["approximate"] is True
    assert validate_network(net).ok
    assert len(net.branches) == 18
    assert len(net.intersections) == 9


def test_init_labels_round_trip():
    doc = json.loads(json.dumps(MINIMAL))
    doc["solver"] = {"init_labels": {"f": [0, 1, 1, 0]}}
    spec = parse_config(doc)
    assert spec.init_labels == {"f": (0, 1, 1, 0)}
    assert parse_config(spec_to_dict(spec)) == spec
