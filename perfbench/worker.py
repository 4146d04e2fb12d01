"""One repetition of a workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --mode plain|traced|scaling

The process imports ``dfnflow`` from ``src/`` of the checkout, builds the
workload's inputs, runs its cases and checks them, and prints one JSON line:
set-up time, wall time, peak resident memory and the per-case outcomes.
``traced`` adds the per-layer metrics from the span tracer, in total and
per case, and writes the spans to ``perfbench/out/``; ``scaling`` runs the
scaling-table cases instead of the workload, traced, and reports one row
per case.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from tracing import ROOT_SPAN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

COUNTERS = {
    "fem.assemble": lambda system, *a, **k: {"unknowns": system.size},
    "picard.solve": lambda result, *a, **k: {
        "solves": result.iterations,
        "unconverged": int(not result.converged),
    },
    "tracker.track": lambda report, mesh, *a, **k: {
        "outer": report.outer_iterations,
        "interfaces": len(report.final_configuration.interfaces),
        "status": report.status.value,
        "elements": mesh.total_elements,
        "branches": len(mesh.branch_ids),
    },
    # One scan array holds (elements x grid points) float64 values.
    "energy.reduce": lambda result, mesh, *a, **k: {
        "cells": len(result.alphas) * mesh.total_elements,
    },
    "export.write": lambda paths, *a, **k: {
        "bytes": sum(p.stat().st_size for p in paths)
    },
}

TRACKER_STATUSES = ("converged", "oscillating", "max-iterations")


def layer_metrics(tracer, run_id: int | None = None) -> dict[str, float]:
    """Per-layer self times and counts, over one run id or all spans."""
    spans = [s for s in tracer.spans if run_id is None or s.run_id == run_id]
    self_s = tracer.self_times(run_id)

    def calls(name):
        return [s for s in spans if s.name == name]

    def total(name, key):
        return sum(s.counts[key] for s in calls(name))

    statuses = [s.counts["status"] for s in calls("tracker.track")]
    cells = [s.counts["cells"] for s in calls("energy.reduce")]
    metrics = {
        "network.validate_s": self_s.get("network.validate", 0.0),
        "meshing.build_mesh_s": self_s.get("meshing.build_mesh", 0.0),
        "meshing.build_mesh_calls": len(calls("meshing.build_mesh")),
        "meshing.split_s": self_s.get("meshing.split", 0.0),
        "meshing.split_calls": len(calls("meshing.split")),
        "fem.assemble_s": self_s.get("fem.assemble", 0.0),
        "fem.assemble_calls": len(calls("fem.assemble")),
        "fem.unknowns_assembled": total("fem.assemble", "unknowns"),
        "fem.solve_self_s": self_s.get("fem.solve", 0.0),
        "fem.solve_calls": len(calls("fem.solve")),
        "fem.junction_diag_s": self_s.get("fem.junction_diag", 0.0),
        "fem.junction_diag_calls": len(calls("fem.junction_diag")),
        "picard.solves": total("picard.solve", "solves"),
        "picard.unconverged": total("picard.solve", "unconverged"),
        "picard.self_s": self_s.get("picard.solve", 0.0),
        "tracker.self_s": self_s.get("tracker.track", 0.0),
        "tracker.outer_iterations": total("tracker.track", "outer"),
        "tracker.interfaces_final": total("tracker.track", "interfaces"),
        **{
            f"tracker.status_counts.{status}": statuses.count(status)
            for status in TRACKER_STATUSES
        },
        "energy.reduce_s": self_s.get("energy.reduce", 0.0),
        "energy.reduce_calls": len(cells),
        "energy.scan_cells": sum(cells),
        "energy.scan_bytes": 8 * max(cells, default=0),
        "energy.energy_of_s": self_s.get("energy.energy_of", 0.0),
        "energy.block_s": self_s.get("energy.block", 0.0),
        "export.bundle_s": self_s.get("export.bundle", 0.0),
        "export.write_s": self_s.get("export.write", 0.0),
        "export.bytes": total("export.write", "bytes"),
        "presets.run_case_s": self_s.get("presets.run_case", 0.0),
    }
    roots = calls(ROOT_SPAN)
    if roots:
        wall = sum(s.end - s.start for s in roots)
        metrics["trace.wall_s"] = wall
        metrics["trace.uncovered_frac"] = self_s.get(ROOT_SPAN, 0.0) / wall
    return metrics


def case_row(tracer, run_id: int, name: str) -> dict:
    """Size of one case and its per-layer metrics.

    A case whose tracker raised has no size; it reads as zero, and the case
    is reported as failed.
    """
    sizes = [
        s.counts
        for s in tracer.spans
        if s.run_id == run_id and s.name == "tracker.track" and s.counts
    ]
    size = sizes[0] if sizes else {"branches": 0, "elements": 0}
    return {
        "case": name,
        "branches": size["branches"],
        "elements": size["elements"],
        **layer_metrics(tracer, run_id),
    }


def case_record(case, out) -> dict:
    return {
        "name": out.name,
        "failures": out.failures,
        "info": out.info,
        "expect": {"energy": case.energy, "junctions": case.junctions, "linear": case.linear},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "scaling"), default="plain")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.mode == "scaling":
        cases = workloads.scaling_cases(args.seed)
    else:
        cases = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - start

    bundle_dir = OUT / "bundles" / f"{args.workload}-{args.mode}"
    OUT.mkdir(parents=True, exist_ok=True)
    result: dict = {"setup_s": setup_s}
    if args.mode == "plain":
        outcomes, wall_s = workloads.execute(cases, bundle_dir)
    else:
        tracer = Tracer(counters=COUNTERS)
        tracer.install()
        try:
            with tracer.span(ROOT_SPAN):
                outcomes, wall_s = workloads.execute(
                    cases, bundle_dir, on_case=lambda i: setattr(tracer, "run_id", i)
                )
        finally:
            tracer.uninstall()
        result["rows"] = [case_row(tracer, i, case.name) for i, case in enumerate(cases)]
        if args.mode == "traced":
            result["layers"] = layer_metrics(tracer)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(
                json.dumps(
                    {
                        "fields": ["name", "start", "end", "parent", "run_id"],
                        "spans": tracer.to_records(),
                    }
                )
            )
            result["spans_file"] = str(spans_path.relative_to(ROOT))
    workloads.check_outcomes(cases, outcomes)
    result["wall_s"] = wall_s
    # ru_maxrss is in kilobytes on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["cases"] = [case_record(case, out) for case, out in zip(cases, outcomes)]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
