"""dfnflow benchmark: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``dfnflow`` is imported from
``src/``. Workloads: ``dfn-networks`` and ``single-fracture-oracle`` (see
``workloads.py``).

``--trace 0`` repeats the workload, each repetition in a fresh process
(``worker.py``), until ``--seconds`` are used up (at least three
repetitions), and reports the medians of ``wall_s``, ``setup_s`` and
``peak_rss_mb``. ``--trace 1`` runs the workload untraced and traced, twice
each, reports the per-layer metrics and the tracing overhead, prints the
per-case layer table and the per-layer scaling table, and runs the hook
self-test.

Every case is checked for correctness; the failure rate is printed, and the
exit code is 1 when any check fails. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Full results, stamped with the run environment, are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SOURCE = ROOT / "src" / "dfnflow"

WORKLOADS = ("dfn-networks", "single-fracture-oracle")
MIN_REPS = 3
TRACED_REPS = 2
WORKER_TIMEOUT_S = 150.0
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
# Share of the traced wall time the layer self times must cover.
COVERAGE_TOL = 0.02


class WorkerError(RuntimeError):
    pass


def units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_worker(workload: str, seed: int, mode: str) -> dict:
    """Run one repetition in a fresh process and return its JSON result."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
    ]
    env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SOURCE).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": SINGLE_THREAD,
    }


def failed_cases(results: list[dict]) -> list[str]:
    return [
        f"{c['name']}: {'; '.join(c['failures'])}"
        for r in results
        for c in r["cases"]
        if c["failures"]
    ]


def case_count(results: list[dict]) -> int:
    return sum(len(r["cases"]) for r in results)


def measure(args) -> tuple[dict, list[dict]]:
    """Repeat the workload until the time is used; medians of the repetitions."""
    start = time.perf_counter()
    reps: list[dict] = []
    while True:
        reps.append(run_worker(args.workload, args.seed, "plain"))
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed * (1 + 1 / len(reps)) > args.seconds:
            break
    metrics = {
        name: (unit, statistics.median(r[name] for r in reps))
        for name, unit in units("end_to_end").items()
    }
    return metrics, reps


def case_self_test(row: dict, expect: dict) -> list[str]:
    """Check that every layer's hooks fired where one case must reach it."""
    problems = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"hook self-test, {row['case']}: {what}")

    need(row["meshing.build_mesh_calls"] == 1, "one mesh build")
    statuses = sum(v for k, v in row.items() if k.startswith("tracker.status_counts."))
    need(statuses == 1, "one tracker status")
    need(
        row["fem.assemble_calls"] == row["fem.solve_calls"] == row["picard.solves"] > 0,
        "one assemble and one solve per Picard iteration",
    )
    need(
        row["meshing.split_calls"] == 2 * row["tracker.outer_iterations"] > 0,
        "two mesh splits per outer iteration",
    )
    need(row["export.bytes"] > 0 and row["export.write_s"] > 0, "bundle exported")
    need(row["network.validate_s"] > 0, "network validated")
    if expect["energy"]:
        need(row["energy.reduce_calls"] == 1, "one energy reduction")
        need(row["energy.block_s"] > 0 and row["energy.energy_of_s"] > 0, "energy block")
    else:
        need(all(v == 0 for k, v in row.items() if k.startswith("energy.")), "no energy layer")
    diag = row["fem.junction_diag_calls"]
    if expect["junctions"]:
        need(diag == row["fem.solve_calls"], "junction diagnostics on every solve")
    else:
        need(diag == 0, "no junction diagnostics without junctions")
    solves, outer = row["picard.solves"], row["tracker.outer_iterations"]
    if expect["linear"]:
        need(solves == outer, "one Picard solve per outer iteration")
    else:
        need(solves > outer, "more Picard solves than outer iterations")
    return problems


def self_test(rep: dict, layers: dict) -> list[str]:
    """Per-case hook checks of one traced repetition, then the coverage check."""
    problems = []
    for row, case in zip(rep["rows"], rep["cases"]):
        problems += case_self_test(row, case["expect"])
    covered = sum(
        v for k, v in layers.items() if k.endswith("_s") and not k.startswith("trace.")
    )
    share = abs(covered - layers["trace.wall_s"]) / layers["trace.wall_s"]
    if share > COVERAGE_TOL:
        problems.append(
            f"hook self-test: layer self times miss {share:.2%} of the traced wall "
            f"time (> {COVERAGE_TOL:.0%})"
        )
    return problems


LAYER_COLUMNS = (
    ("network.validate_s", "validate"),
    ("meshing.build_mesh_s", "mesh"),
    ("meshing.split_s", "split"),
    ("fem.assemble_s", "assemble"),
    ("fem.solve_self_s", "solve"),
    ("fem.junction_diag_s", "jdiag"),
    ("picard.self_s", "picard"),
    ("tracker.self_s", "tracker"),
    ("energy.reduce_s", "energy"),
    ("export.write_s", "export"),
)


def print_layer_table(title: str, rows: list[dict]) -> None:
    print(f"{title} (self time in s, traced):")
    header = f"  {'case':<20}{'branches':>9}{'elements':>9}{'solves':>7}{'outer':>6}"
    header += "".join(f"{label:>10}" for _, label in LAYER_COLUMNS)
    print(header)
    for row in rows:
        line = f"  {row['case']:<20}{row['branches']:>9}{row['elements']:>9}"
        line += f"{row['picard.solves']:>7}{row['tracker.outer_iterations']:>6}"
        line += "".join(f"{row[key]:>10.4f}" for key, _ in LAYER_COLUMNS)
        print(line)


def traced(args, env: dict) -> tuple[dict, list[dict], list[str]]:
    """Untraced and traced repetitions, alternating, then the scaling cases.

    Times are the medians of the traced repetitions; counts must agree
    between them. The overhead compares the medians of the traced and the
    untraced wall times.
    """
    plain, traced_reps = [], []
    for _ in range(TRACED_REPS):
        plain.append(run_worker(args.workload, args.seed, "plain"))
        traced_reps.append(run_worker(args.workload, args.seed, "traced"))
    scaling = run_worker(args.workload, args.seed, "scaling")
    wall = statistics.median(r["wall_s"] for r in plain)
    wall_traced = statistics.median(r["wall_s"] for r in traced_reps)
    for r in traced_reps:
        r["layers"]["trace.overhead_frac"] = (wall_traced - wall) / wall
    declared = units("per_layer")
    missing = sorted(set(declared) - set(traced_reps[0]["layers"]))
    if missing:
        raise WorkerError(f"traced run reported no {', '.join(missing)}")
    problems = []
    metrics = {}
    for name, unit in declared.items():
        values = [r["layers"][name] for r in traced_reps]
        if unit == "count" and len(set(values)) > 1:
            problems.append(f"count {name} differs between traced runs: {values}")
        metrics[name] = (unit, values[0] if unit == "count" else statistics.median(values))
    print_layer_table("per-case layers", traced_reps[-1]["rows"])
    print_layer_table("per-layer scaling", scaling["rows"])
    spans_path = ROOT / traced_reps[-1]["spans_file"]
    spans = json.loads(spans_path.read_text())
    spans_path.write_text(json.dumps({"environment": env, **spans}))
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    layers = {name: value for name, (_, value) in metrics.items()}
    problems += self_test(traced_reps[0], layers)
    return metrics, plain + traced_reps + [scaling], problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills and reaps
    # the running worker before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SOURCE / "__init__.py").is_file():
        print(f"error: no dfnflow sources at {SOURCE.relative_to(ROOT)}", file=sys.stderr)
        return 2

    env = environment(args)
    print("environment: " + json.dumps(env))
    try:
        if args.trace:
            metrics, results, problems = traced(args, env)
        else:
            metrics, results = measure(args)
            problems = []
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lines = [
        f"case {case['name']}: " + ", ".join(f"{k}={v}" for k, v in case["info"].items())
        for result in results
        for case in result["cases"]
    ]
    for line in dict.fromkeys(lines):
        print(line)
    failures = failed_cases(results) + problems
    attempted = case_count(results)
    failed = len(failed_cases(results))
    for line in failures:
        print(f"FAILED {line}")
    for name, (unit, value) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(
        f"{args.workload} failure_rate = {failed / attempted:.6g} ratio "
        f"({failed}/{attempted} cases)"
    )

    correct = not failures
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "environment": env,
                "correct": correct,
                "failures": failures,
                "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
                "failure_rate": failed / attempted,
                "repetitions": results,
            },
            indent=1,
        )
    )
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
