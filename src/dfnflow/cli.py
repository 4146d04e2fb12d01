"""Command-line entry point.

Subcommands:

* ``solve <config>``: run the full pipeline on a configuration file.
* ``preset <name>``: run one of the packaged experiment presets.
* ``sweep-k2 <config>``: sweep the high-regime permeability of a config
  whose high law is constant, keeping everything else fixed.

The exit code reports the tracker outcome: 0 converged, 2 oscillating,
3 iteration cap reached, 4 when the inner solve of some outer iteration hit
its cap (whatever the tracker outcome), 1 on any error. Sweeps exit 4 when
an inner solve of some member hit its cap, else 0 when at least one member
ran (individual member failures are recorded in the output) and 1 when
every member failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

import numpy as np

from .config import ConfigError, load_config
from .export import bundle_from_report, exit_code, export_bundle
from .laws import AdaptiveLaw, ConstantLaw
from .picard import PicardSettings
from .presets import PRESET_NAMES, run_preset, run_spec
from .tracker import TrackerSettings, track


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--h", type=float, default=None, help="target mesh size")
    parser.add_argument("--eps-nl", type=float, default=None, help="inner solver tolerance")
    parser.add_argument("--eps-gamma", type=float, default=None, help="interface location tolerance")
    parser.add_argument("--eps-omega", type=float, default=None, help="configuration distance tolerance")
    parser.add_argument("--max-outer", type=int, default=None, help="outer iteration cap")
    parser.add_argument("--init", choices=("low", "high"), default=None, help="initial configuration")
    parser.add_argument("--trace", action="store_true", help="record per-iteration snapshots")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="export format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfnflow",
        description="Adaptive-law flow on 1D fracture networks with interface tracking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a configuration file")
    p_solve.add_argument("config")
    _add_common_flags(p_solve)

    p_preset = sub.add_parser("preset", help="run a packaged preset")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    _add_common_flags(p_preset)

    p_sweep = sub.add_parser("sweep-k2", help="sweep the high-regime permeability")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--k2-values", default=None,
                         help="comma-separated permeabilities (default: geometric grid)")
    _add_common_flags(p_sweep)
    return parser


def _apply_overrides(spec, args):
    solver = spec.solver
    replacements = {}
    if args.h is not None:
        replacements["h"] = args.h
    if args.eps_nl is not None:
        replacements["eps_nl"] = args.eps_nl
    if args.eps_gamma is not None:
        replacements["eps_gamma"] = args.eps_gamma
    if args.eps_omega is not None:
        replacements["eps_omega"] = args.eps_omega
    if args.max_outer is not None:
        replacements["max_outer"] = args.max_outer
    if args.init is not None:
        replacements["init"] = args.init
    if replacements:
        solver = dataclasses.replace(solver, **replacements)
    output = spec.output
    if args.trace:
        output = dataclasses.replace(output, trace=True)
    if args.format is not None:
        output = dataclasses.replace(output, format=args.format)
    return dataclasses.replace(spec, solver=solver, output=output)


def _cmd_solve(args) -> int:
    spec = _apply_overrides(load_config(args.config), args)
    bundle = run_spec(spec)
    paths = export_bundle(bundle, args.out, spec.output.format)
    print(f"{bundle.status} after {bundle.outer_iterations} outer iterations")
    for path in paths:
        print(f"wrote {path}")
    return exit_code(bundle)


def _cmd_preset(args) -> int:
    kwargs = {}
    if args.h is not None:
        kwargs["h"] = args.h
    bundle = run_preset(args.name, trace=args.trace, **kwargs)
    paths = export_bundle(bundle, args.out, args.format or "json")
    print(f"{bundle.name}: {bundle.status} after {bundle.outer_iterations} outer iterations")
    for path in paths:
        print(f"wrote {path}")
    return exit_code(bundle)


def _cmd_sweep(args) -> int:
    spec = _apply_overrides(load_config(args.config), args)
    if not isinstance(spec.law.high, ConstantLaw):
        print("sweep-k2 needs a constant high-regime law", file=sys.stderr)
        return 1
    if args.k2_values is not None:
        values = [float(v) for v in args.k2_values.split(",")]
    else:
        values = list(np.geomspace(0.25, 16.0, 13))

    start = time.perf_counter()
    mesh = spec.build_mesh()
    rows = []
    last_report = None
    for k2 in values:
        law = AdaptiveLaw(
            low=spec.law.low, high=ConstantLaw(1.0 / k2), threshold=spec.law.threshold
        )
        try:
            report = track(
                mesh,
                law,
                picard_settings=PicardSettings(
                    tolerance=spec.solver.eps_nl, max_iterations=spec.solver.max_inner
                ),
                settings=TrackerSettings(
                    eps_gamma=spec.solver.eps_gamma,
                    eps_omega=spec.solver.eps_omega,
                    max_outer=spec.solver.max_outer,
                ),
                initial=spec.solver.init,
            )
            rows.append(
                {
                    "k2": k2,
                    "status": report.status.value,
                    "period": report.period or 0,
                    "outer_iterations": report.outer_iterations,
                    "inner_converged": all(e.inner_converged for e in report.history),
                }
            )
            last_report = report
        except Exception as exc:
            rows.append({"k2": k2, "status": "error", "period": 0,
                         "outer_iterations": 0, "inner_converged": None,
                         "message": str(exc)})
    if last_report is None:
        raise RuntimeError(f"every sweep member failed: {rows[0]['message']}")
    bundle = bundle_from_report(
        "sweep-k2",
        last_report,
        extras={"sweep": rows},
        timing_seconds=time.perf_counter() - start,
    )
    paths = export_bundle(bundle, args.out, spec.output.format)
    for row in rows:
        print(f"k2={row['k2']:g}: {row['status']}")
    for path in paths:
        print(f"wrote {path}")
    return exit_code(bundle)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "preset":
            return _cmd_preset(args)
        if args.command == "sweep-k2":
            return _cmd_sweep(args)
        raise AssertionError(args.command)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
