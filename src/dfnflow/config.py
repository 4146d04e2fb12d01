"""Strict parsing of problem configuration documents.

A configuration is a JSON-compatible mapping with a network block (or a
reference to a separate network file), a law block, solver settings and
output settings. Unknown keys anywhere are errors, and so are values of the
wrong type; error messages carry the offending key path. See
docs/config-schema.md for the full format.

The ``solver`` block parses into the loops' own settings, and only this
module knows its names for them: ``eps_nl`` and ``max_inner`` set
``PicardSettings``, ``eps_omega`` and ``max_outer`` ``TrackerSettings``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .fem import RegimeField
from .laws import AdaptiveLaw, LawBranch, NormalizedBranchError
from .meshing import Mesh
from .network import (
    END,
    START,
    BoundarySpec,
    Branch,
    FractureNetwork,
    Intersection,
    PiecewiseSource,
    PressureBC,
    SourceSpec,
    VelocityBC,
    validate_network,
)
from .picard import PicardSettings
from .tracker import TrackerSettings


class ConfigError(ValueError):
    """Configuration document is malformed or inconsistent."""


DEFAULT_H = 0.05

# The keys of the ``solver`` block, in the order ``spec_to_dict`` writes them.
SOLVER_KEYS = ("h", "eps_nl", "eps_omega", "max_outer", "max_inner", "init", "init_labels")


@dataclass(frozen=True)
class OutputSettings:
    trace: bool = False
    format: str = "json"


@dataclass(frozen=True)
class ProblemSpec:
    """A problem, its mesh size and loop settings, and its output.

    The tracker starts from the uniform regime ``init``, or from the label
    of every element in ``init_labels`` when that is set (``initial_on``).
    """

    network: FractureNetwork
    law: AdaptiveLaw
    h: float = DEFAULT_H
    picard: PicardSettings = field(default_factory=PicardSettings)
    tracker: TrackerSettings = field(default_factory=TrackerSettings)
    init: str = "low"
    init_labels: Mapping[str, tuple[int, ...]] | None = None
    output: OutputSettings = field(default_factory=OutputSettings)
    approximate: bool = False

    def initial_on(self, mesh: Mesh) -> str | RegimeField:
        """The tracker's start on ``mesh``, the mesh at ``h``.

        Raises ``ConfigError`` when ``init_labels`` do not match the mesh: its
        branches and elements; else returns them checked, as a view on ``mesh``.
        """
        if self.init_labels is None:
            return self.init
        try:
            labels = mesh.flat_elements(self.init_labels, "solver.init_labels")
        except ValueError as exc:
            raise ConfigError(f"{exc} at h = {self.h}") from None
        return RegimeField(mesh.per_element(labels.astype(np.int8)))


# The type checks below try the concrete types a JSON document holds (dict,
# float, int) before the abstract ones, which are much slower to test.


def _require_keys(section: Mapping, allowed: set[str], path: str) -> None:
    if not isinstance(section, (dict, Mapping)):
        raise ConfigError(f"{path.rstrip('.:') or 'the configuration'} must be an object")
    if not section.keys() <= allowed:
        key = next(key for key in section if key not in allowed)
        raise ConfigError(f"unknown key {path}{key!r}")


def _get(section: Mapping, key: str, path: str):
    if key not in section:
        raise ConfigError(f"missing key {path}{key!r}")
    return section[key]


def _number(value, path: str, index: int | None = None) -> float:
    """``value`` as a float; the error names ``path``, or entry ``index`` of it."""
    real = value.__class__ is float or (
        not isinstance(value, bool) and isinstance(value, (int, numbers.Real))
    )
    if not (real and -math.inf < value < math.inf):
        at = path if index is None else f"{path}[{index}]"
        raise ConfigError(f"{at} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return int(value)


def _cap(value, path: str) -> int:
    v = _integer(value, path)
    if v < 1:
        raise ConfigError(f"{path} must be at least 1, got {v}")
    return v


def _string(value, path: str) -> str:
    if value.__class__ is not str and not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {value!r}")
    return value


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be true or false, got {value!r}")
    return value


def _list(value, path: str) -> list | tuple:
    if value.__class__ is not list and not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path} must be a list, got {value!r}")
    return value


def _numbers(value, path: str) -> tuple[float, ...]:
    return tuple([_number(x, path, i) for i, x in enumerate(_list(value, path))])


def _as_point(value, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path} must be a pair of coordinates")
    return (_number(value[0], path, 0), _number(value[1], path, 1))


def positive(value, path: str) -> float:
    v = _number(value, path)
    if v <= 0:
        raise ConfigError(f"{path} must be positive, got {v}")
    return v


def law_branch_from_dict(doc: Mapping, path: str) -> LawBranch:
    _require_keys(doc, {"type", "value", "intercept", "slope"}, path)
    kind = _get(doc, "type", path)

    def number(key: str) -> float:
        return _number(_get(doc, key, path), path + key)

    if kind == "constant":
        params = (number("value"),)
    elif kind == "affine":
        params = (number("intercept"), number("slope"))
    else:
        raise ConfigError(f"{path}type must be 'constant' or 'affine', got {kind!r}")
    try:
        return LawBranch(*params)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def law_from_dict(doc: Mapping, path: str = "law.") -> AdaptiveLaw:
    _require_keys(doc, {"low", "high", "threshold"}, path)
    try:
        return AdaptiveLaw(
            low=law_branch_from_dict(_get(doc, "low", path), path + "low."),
            high=law_branch_from_dict(_get(doc, "high", path), path + "high."),
            threshold=positive(_get(doc, "threshold", path), path + "threshold"),
        )
    except NormalizedBranchError as exc:
        raise ConfigError(f"{path}{exc.branch}.: {exc}") from exc


def network_from_dict(doc: Mapping, path: str = "network.") -> FractureNetwork:
    _require_keys(doc, {"branches", "intersections", "boundary", "sources"}, path)

    branches = []
    for k, item in enumerate(_list(_get(doc, "branches", path), path + "branches")):
        p = f"{path}branches[{k}]."
        _require_keys(item, {"id", "start", "end"}, p)
        branches.append(
            Branch(
                id=_string(_get(item, "id", p), p + "id"),
                start=_as_point(_get(item, "start", p), p + "start"),
                end=_as_point(_get(item, "end", p), p + "end"),
            )
        )

    intersections = []
    for k, item in enumerate(_list(doc.get("intersections", []), path + "intersections")):
        p = f"{path}intersections[{k}]."
        _require_keys(item, {"id", "point", "incident"}, p)
        incident = []
        for j, pair in enumerate(_list(_get(item, "incident", p), p + "incident")):
            pair = _list(pair, f"{p}incident[{j}]")
            if len(pair) != 2 or pair[1] not in (START, END):
                raise ConfigError(f"{p}incident entries must be [branch, 'start'|'end']")
            incident.append((_string(pair[0], f"{p}incident[{j}][0]"), pair[1]))
        intersections.append(
            Intersection(
                id=_string(_get(item, "id", p), p + "id"),
                point=_as_point(_get(item, "point", p), p + "point"),
                incident=tuple(incident),
            )
        )

    boundary_doc = doc.get("boundary", {})
    _require_keys(boundary_doc, {"conditions", "mean_pressure"}, path + "boundary.")
    conditions = {}
    conditions_doc = _list(boundary_doc.get("conditions", []), path + "boundary.conditions")
    for k, item in enumerate(conditions_doc):
        p = f"{path}boundary.conditions[{k}]."
        _require_keys(item, {"branch", "end", "type", "value"}, p)
        end = _get(item, "end", p)
        if end not in (START, END):
            raise ConfigError(f"{p}end must be 'start' or 'end'")
        kind = _get(item, "type", p)
        value = _number(_get(item, "value", p), p + "value")
        key = (_string(_get(item, "branch", p), p + "branch"), end)
        if key in conditions:
            raise ConfigError(f"{p}: duplicate condition on end {key}")
        if kind == "pressure":
            conditions[key] = PressureBC(value)
        elif kind == "velocity":
            conditions[key] = VelocityBC(value)
        else:
            raise ConfigError(f"{p}type must be 'pressure' or 'velocity'")
    mean_pressure = boundary_doc.get("mean_pressure")
    if mean_pressure is not None:
        mean_pressure = _number(mean_pressure, path + "boundary.mean_pressure")
    boundary = BoundarySpec(conditions=conditions, mean_pressure=mean_pressure)

    sources_doc = doc.get("sources", {})
    _require_keys(sources_doc, {"scalar", "force"}, path + "sources.")
    scalar = {}
    for k, item in enumerate(_list(sources_doc.get("scalar", []), path + "sources.scalar")):
        p = f"{path}sources.scalar[{k}]."
        _require_keys(item, {"branch", "breakpoints", "values"}, p)
        breakpoints = _numbers(item.get("breakpoints", []), p + "breakpoints")
        pieces = _numbers(_get(item, "values", p), p + "values")
        try:
            source = PiecewiseSource(breakpoints=breakpoints, pieces=pieces)
        except ValueError as exc:
            raise ConfigError(f"{p}: {exc}") from exc
        branch = _string(_get(item, "branch", p), p + "branch")
        if branch in scalar:
            raise ConfigError(f"{p.rstrip('.')}: duplicate source on branch {branch!r}")
        scalar[branch] = source
    force_doc = sources_doc.get("force", [0.0, 0.0])
    sources = SourceSpec(scalar=scalar, force=_as_point(force_doc, path + "sources.force"))

    return FractureNetwork(
        branches=tuple(branches),
        intersections=tuple(intersections),
        boundary=boundary,
        sources=sources,
    )


def _init_labels(doc) -> dict[str, tuple[int, ...]]:
    if not isinstance(doc, Mapping):
        raise ConfigError("solver.init_labels must be an object")
    init_labels = {}
    for b, labels in doc.items():
        p = f"solver.init_labels.{b}"
        labels = tuple(_integer(v, f"{p}[{i}]") for i, v in enumerate(_list(labels, p)))
        if not set(labels) <= {0, 1}:
            raise ConfigError(f"{p} must hold 0 (low) or 1 (high), got {list(labels)}")
        init_labels[str(b)] = labels
    return init_labels


def parse_config(document: Mapping, base_dir: Path | None = None) -> ProblemSpec:
    """Validate a configuration mapping and build a problem specification.

    Applies the solver defaults, enforces strict keys, and validates the
    network; a connected part of it whose pressure level is undetermined (no
    pressure condition, and no ``mean_pressure`` that can fix it), and a
    ``mean_pressure`` beside a pressure condition, are rejected here. The
    verdict stays with the spec's network object (see ``validate_network``),
    so meshing it later does not re-check it.
    """
    _require_keys(
        document,
        {"network", "network_file", "law", "solver", "output", "approximate"},
        "",
    )

    if ("network" in document) == ("network_file" in document):
        raise ConfigError("provide exactly one of 'network' or 'network_file'")
    approximate = _flag(document.get("approximate", False), "approximate")
    if "network" in document:
        network_doc = document["network"]
    else:
        if not isinstance(document["network_file"], str):
            raise ConfigError("network_file must be a path string")
        ref = Path(document["network_file"])
        if base_dir is not None and not ref.is_absolute():
            ref = base_dir / ref
        try:
            payload = json.loads(ref.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read network file {ref}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"network file {ref} is not valid JSON: {exc}") from exc
        _require_keys(payload, {"network", "approximate", "notes"}, f"{ref.name}:")
        network_doc = _get(payload, "network", f"{ref.name}:")
        # geometry read off a figure stays approximate in every config using it
        file_flag = _flag(payload.get("approximate", False), f"{ref.name}:approximate")
        approximate = approximate or file_flag
    network = network_from_dict(network_doc)

    report = validate_network(network)
    if not report.ok:
        raise ConfigError(f"invalid network:\n{report}")

    law = law_from_dict(_get(document, "law", ""))

    solver = document.get("solver", {})
    _require_keys(solver, set(SOLVER_KEYS), "solver.")
    init = solver.get("init", ProblemSpec.init)
    if init not in ("low", "high"):
        raise ConfigError("solver.init must be 'low' or 'high'")
    init_labels = solver.get("init_labels")
    if init_labels is not None:
        init_labels = _init_labels(init_labels)
    h = positive(solver.get("h", DEFAULT_H), "solver.h")
    eps_nl = positive(solver.get("eps_nl", PicardSettings.tolerance), "solver.eps_nl")
    eps_omega = solver.get("eps_omega")  # null reads as the default, like an absent key
    if eps_omega is None:
        eps_omega = TrackerSettings.eps_omega
    eps_omega = positive(eps_omega, "solver.eps_omega")
    max_outer = _cap(solver.get("max_outer", TrackerSettings.max_outer), "solver.max_outer")
    max_inner = _cap(solver.get("max_inner", PicardSettings.max_iterations), "solver.max_inner")

    output_doc = document.get("output", {})
    _require_keys(output_doc, {"trace", "format"}, "output.")
    fmt = output_doc.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError("output.format must be 'json' or 'csv'")
    trace = _flag(output_doc.get("trace", False), "output.trace")
    output = OutputSettings(trace=trace, format=fmt)

    return ProblemSpec(
        network=network,
        law=law,
        h=h,
        picard=PicardSettings(tolerance=eps_nl, max_iterations=max_inner),
        tracker=TrackerSettings(eps_omega=eps_omega, max_outer=max_outer),
        init=init,
        init_labels=init_labels,
        output=output,
        approximate=approximate,
    )


def load_document(path: Path) -> Any:
    """The JSON document of a config file, not yet checked."""
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def load_config(path: str | Path) -> ProblemSpec:
    path = Path(path)
    return parse_config(load_document(path), base_dir=path.parent)


def network_to_dict(network: FractureNetwork) -> dict:
    return {
        "branches": [
            {"id": b.id, "start": list(b.start), "end": list(b.end)}
            for b in network.branches
        ],
        "intersections": [
            {
                "id": i.id,
                "point": list(i.point),
                "incident": [[bid, which] for bid, which in i.incident],
            }
            for i in network.intersections
        ],
        "boundary": {
            "conditions": [
                {
                    "branch": bid,
                    "end": which,
                    "type": "pressure" if isinstance(bc, PressureBC) else "velocity",
                    "value": bc.pressure if isinstance(bc, PressureBC) else bc.outflux,
                }
                for (bid, which), bc in sorted(network.boundary.conditions.items())
            ],
            **(
                {"mean_pressure": network.boundary.mean_pressure}
                if network.boundary.mean_pressure is not None
                else {}
            ),
        },
        "sources": {
            "scalar": [
                {
                    "branch": bid,
                    "breakpoints": list(src.breakpoints),
                    "values": list(src.pieces),
                }
                for bid, src in sorted(network.sources.scalar.items())
            ],
            "force": list(network.sources.force),
        },
    }


def law_branch_to_dict(branch: LawBranch) -> dict:
    if branch.slope == 0:
        return {"type": "constant", "value": branch.intercept}
    return {"type": "affine", "intercept": branch.intercept, "slope": branch.slope}


def spec_to_dict(spec: ProblemSpec) -> dict:
    """The configuration document that ``parse_config`` reads back to ``spec``.

    No document key sets ``PicardSettings.depth``, so a spec with a
    non-default mixing depth has no document and raises ``ValueError``.
    """
    if spec.picard.depth != PicardSettings.depth:
        raise ValueError(
            f"a config document cannot record the Picard mixing depth {spec.picard.depth}; "
            f"it always reads back as {PicardSettings.depth}"
        )
    doc: dict[str, Any] = {
        "network": network_to_dict(spec.network),
        "law": {
            "low": law_branch_to_dict(spec.law.low),
            "high": law_branch_to_dict(spec.law.high),
            "threshold": spec.law.threshold,
        },
        "solver": {
            "h": spec.h,
            "eps_nl": spec.picard.tolerance,
            "eps_omega": spec.tracker.eps_omega,
            "max_outer": spec.tracker.max_outer,
            "max_inner": spec.picard.max_iterations,
            "init": spec.init,
        },
        "output": {"trace": spec.output.trace, "format": spec.output.format},
    }
    if spec.init_labels is not None:
        doc["solver"]["init_labels"] = {b: list(v) for b, v in spec.init_labels.items()}
    if spec.approximate:
        doc["approximate"] = True
    return doc
