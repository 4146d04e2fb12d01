"""Result bundles and flat-file export.

A bundle is a plain-data record of one run (or one sweep): tracker outcome,
final fields, optional per-iteration snapshots and preset-specific extras.
JSON export writes the bundle as one compact document with full float
precision, so importing it back still reproduces it bit for bit; CSV export
writes one file per field per iteration with (branch, arc, value) rows
sorted by branch and arc.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .fem import Solution
from .meshing import BranchArrays
from .tracker import Configuration, TrackerReport, TrackerStatus

SCHEMA_VERSION = 3


def _branch_lists(values: BranchArrays) -> dict[str, list]:
    """Every branch's slice of the flat array as a list, from one ``tolist`` of it."""
    flat, offset = values.array.tolist(), values.offset.tolist()
    return {b: flat[offset[k] : offset[k + 1]] for b, k in values.index.items()}


def _regime_block(regimes) -> dict:
    """The labels of every branch, by branch id; tracked labels are views of one array."""
    return dict(sorted(_branch_lists(regimes.labels).items()))


def solution_fields(solution: Solution) -> dict:
    mesh = solution.mesh
    arc = _branch_lists(mesh.nodes)
    flux = _branch_lists(solution.flux)
    midpoint = _branch_lists(mesh.per_element(mesh.midpoints))
    pressure = _branch_lists(solution.pressure)
    return {
        "flux": {b: {"arc": arc[b], "value": flux[b]} for b in mesh.branch_ids},
        "pressure": {b: {"arc": midpoint[b], "value": pressure[b]} for b in mesh.branch_ids},
        "junction_pressure": dict(sorted(solution.junction_pressure.items())),
    }


@dataclass
class ResultBundle:
    """Plain-data result of one pipeline run, JSON-serializable as is.

    ``inner_converged[k]`` tells whether the inner solve of outer iteration
    k + 1 met its tolerance; ``inner_iteration_counts[k]`` is its solve count.
    ``distances[k]`` is how far the interfaces that iteration classified lie
    from those it solved on, the fixed-point residual of the outer loop, and
    ``mixed[k]`` tells whether the configuration it solved on came from an
    Anderson mixing step rather than from the previous classification.
    """

    name: str
    status: str
    period: int | None
    outer_iterations: int
    inner_iteration_counts: list[int]
    inner_converged: list[bool]
    distances: list[float]
    mixed: list[bool]
    final: dict
    snapshots: list[dict] | None = None
    energy: dict | None = None
    extras: dict | None = None
    config: dict | None = None
    schema_version: int = SCHEMA_VERSION
    timing_seconds: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        """The fields by name; the values are shared, not copied."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @staticmethod
    def from_dict(doc: dict) -> "ResultBundle":
        return ResultBundle(**doc)


def _state_block(configuration: Configuration, solution: Solution) -> dict:
    """Interfaces, labels and fields of one configuration and its solve."""
    return {
        "interfaces": [[b, float(x)] for b, x in configuration.interfaces],
        "regimes": _regime_block(configuration.regimes),
        **solution_fields(solution),
    }


def bundle_from_report(
    name: str,
    report: TrackerReport,
    energy: dict | None = None,
    extras: dict | None = None,
    timing_seconds: float = 0.0,
) -> ResultBundle:
    """The bundle of a tracker run; ``config`` is left for the caller to set."""
    snapshots = None
    if report.snapshots is not None:
        snapshots = [
            {
                "iteration": i,
                "distance": float(entry.distance),
                "inner_iterations": entry.inner_iterations,
                **_state_block(entry.configuration, solution),
            }
            for i, (entry, solution) in enumerate(zip(report.history, report.snapshots), 1)
        ]
    return ResultBundle(
        name=name,
        status=report.status.value,
        period=report.period,
        outer_iterations=report.outer_iterations,
        inner_iteration_counts=list(report.inner_iteration_counts),
        inner_converged=[e.inner_converged for e in report.history],
        distances=[float(e.distance) for e in report.history],
        mixed=[e.mixed for e in report.history],
        final=_state_block(report.final_configuration, report.final_solution),
        snapshots=snapshots,
        energy=energy,
        extras=extras,
        timing_seconds=timing_seconds,
    )


STATUS_EXIT_CODES = {
    TrackerStatus.CONVERGED.value: 0,
    TrackerStatus.OSCILLATING.value: 2,
    TrackerStatus.MAX_ITERATIONS.value: 3,
}
# A capped inner solve outranks every tracker status.
INNER_CAP_EXIT_CODE = 4


def exit_code(bundle: ResultBundle) -> int:
    """Exit code of a run: 4 when an inner solve hit its cap, else its status's.

    A sweep exits 4 when an inner solve of any member hit its cap, else 0.
    """
    sweep = (bundle.extras or {}).get("sweep")
    if sweep is not None:
        capped = any(row["inner_converged"] is False for row in sweep)
        return INNER_CAP_EXIT_CODE if capped else 0
    if not all(bundle.inner_converged):
        return INNER_CAP_EXIT_CODE
    return STATUS_EXIT_CODES[bundle.status]


def _write_csv(path: Path, rows: list[tuple], header: tuple[str, ...]) -> None:
    # the csv module quotes a cell holding a comma, such as an error message;
    # it is imported here so that a JSON-only run does not load it
    import csv

    with path.open("w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else str(v) for v in row] for row in rows)


def _snapshot_rows(block: dict) -> dict[str, list[tuple]]:
    out: dict[str, list[tuple]] = {}
    for name in ("flux", "pressure"):
        out[name] = []
        for b, values in sorted(block[name].items()):
            out[name] += sorted(zip([b] * len(values["arc"]), values["arc"], values["value"]))
    regime_rows = []
    for b in sorted(block["regimes"]):
        labels = block["regimes"][b]
        # element index stands in for arc position of the label
        regime_rows += [(b, float(k), int(v)) for k, v in enumerate(labels)]
    out["regimes"] = regime_rows
    out["interfaces"] = sorted(
        (b, float(x), 1) for b, x in block.get("interfaces", [])
    )
    return out


def export_bundle(bundle: ResultBundle, out_dir: str | Path, format: str = "json") -> list[Path]:
    """Write a bundle to disk; returns the created paths.

    JSON: a single ``<name>.json`` document. CSV: one file per field per
    iteration (final state only when tracing was off) plus ``report.json``
    with the non-field payload.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    created: list[Path] = []
    if format == "json":
        path = out / f"{bundle.name}.json"
        path.write_text(json.dumps(bundle.to_dict()))
        created.append(path)
        return created
    if format != "csv":
        raise ValueError(f"unknown export format {format!r}")

    blocks: list[tuple[str, dict]] = []
    if bundle.snapshots:
        blocks = [(f"it{s['iteration']:03d}", s) for s in bundle.snapshots]
    blocks.append(("final", bundle.final))
    for tag, block in blocks:
        for fieldname, rows in _snapshot_rows(block).items():
            path = out / f"{fieldname}_{tag}.csv"
            _write_csv(path, rows, ("branch", "arc", "value"))
            created.append(path)

    if bundle.extras:
        for key, value in bundle.extras.items():
            if isinstance(value, list) and value and isinstance(value[0], dict):
                # rows may differ in keys: a failed sweep member adds a message
                header = tuple(dict.fromkeys(k for row in value for k in row))
                rows = [tuple(row.get(k, "") for k in header) for row in value]
                path = out / f"{key}.csv"
                _write_csv(path, rows, header)
                created.append(path)

    report = {
        k: v
        for k, v in bundle.to_dict().items()
        if k not in ("final", "snapshots")
    }
    path = out / "report.json"
    path.write_text(json.dumps(report))
    created.append(path)
    return created


def load_bundle(path: str | Path) -> ResultBundle:
    return ResultBundle.from_dict(json.loads(Path(path).read_text()))
