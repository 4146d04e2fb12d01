"""Command-line entry point.

Subcommands:

* ``solve <config>``: run the full pipeline on a configuration file.
* ``preset <name>``: run one of the packaged experiment presets.
* ``sweep-k2 <config>``: sweep the high-regime permeability of a config
  whose high law is constant, keeping everything else fixed. Without
  ``--k2-values`` it runs ``presets.k2_grid()``; a list that starts with a
  negative value needs the ``=`` form, ``--k2-values=-1,0.5,2``, or
  argparse reads it as an option. ``--trace`` and the config's
  ``solver.init_labels`` apply to every member.

Every subcommand takes ``--h``, ``--trace``, ``--out`` and ``--format``;
``solve`` and ``sweep-k2`` also take the solver overrides ``--eps-nl``,
``--eps-omega``, ``--max-outer`` and ``--init``. There each flag given is
written into the config's document and checked as the key it overrides.

The exit code reports the tracker outcome: 0 converged, 2 oscillating,
3 iteration cap reached, 4 when the inner solve of some outer iteration hit
its cap (whatever the tracker outcome), 1 on any error, a usage error
included. Sweeps exit 4 when an inner solve of some member hit its cap,
else 0 when at least one member ran (individual member failures are
recorded in the output) and 1 when every member failed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, check_init_labels, load_document, parse_config, positive
from .export import exit_code, export_bundle
from .presets import PRESET_NAMES, k2_grid, run_preset, run_spec, sweep_k2


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--h", type=float, default=None, help="target mesh size")
    parser.add_argument("--trace", action="store_true", help="record per-iteration snapshots")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="export format")


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps-nl", type=float, default=None, help="inner solver tolerance")
    parser.add_argument("--eps-omega", type=float, default=None, help="configuration distance tolerance")
    parser.add_argument("--max-outer", type=int, default=None, help="outer iteration cap")
    parser.add_argument("--init", choices=("low", "high"), default=None, help="initial configuration")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfnflow",
        description="Adaptive-law flow on 1D fracture networks with interface tracking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a configuration file")
    p_solve.add_argument("config")
    _add_run_flags(p_solve)
    _add_solver_flags(p_solve)

    p_preset = sub.add_parser("preset", help="run a packaged preset")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    _add_run_flags(p_preset)

    p_sweep = sub.add_parser("sweep-k2", help="sweep the high-regime permeability")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--k2-values", default=None,
                         help="comma-separated permeabilities (default: k2_grid()); a list "
                              "starting with a negative value needs the = form: "
                              "--k2-values=-1,0.5,2")
    _add_run_flags(p_sweep)
    _add_solver_flags(p_sweep)
    return parser


def _load_spec(args):
    """The config with each flag given written into its document, parsed once."""
    path = Path(args.config)
    doc = load_document(path)
    given = {
        "solver": {k: getattr(args, k) for k in ("h", "eps_nl", "eps_omega", "max_outer", "init")},
        "output": {"format": args.format, "trace": args.trace or None},
    }
    for block, flags in given.items():
        flags = {k: v for k, v in flags.items() if v is not None}
        # a document or block that is not an object is left for the parser to reject
        if flags and isinstance(doc, dict) and isinstance(doc.setdefault(block, {}), dict):
            doc[block].update(flags)
    spec = parse_config(doc, base_dir=path.parent)
    check_init_labels(spec)
    return spec


def _export(bundle, out: str, format: str, summary: list[str]) -> int:
    """Export the bundle, print the summary and the written paths, return the exit code."""
    paths = export_bundle(bundle, out, format)
    for line in [*summary, *(f"wrote {path}" for path in paths)]:
        print(line)
    return exit_code(bundle)


def _cmd_solve(args) -> int:
    spec = _load_spec(args)
    bundle = run_spec(spec)
    summary = f"{bundle.status} after {bundle.outer_iterations} outer iterations"
    return _export(bundle, args.out, spec.output.format, [summary])


def _cmd_preset(args) -> int:
    h = None if args.h is None else positive(args.h, "--h")
    bundle = run_preset(args.name, h=h, trace=args.trace)
    summary = f"{bundle.name}: {bundle.status} after {bundle.outer_iterations} outer iterations"
    return _export(bundle, args.out, args.format or "json", [summary])


def _cmd_sweep(args) -> int:
    spec = _load_spec(args)
    if args.k2_values is not None:
        values = [float(v) for v in args.k2_values.split(",")]
    else:
        values = k2_grid()
    bundle = sweep_k2("sweep-k2", spec, values)
    rows = [f"k2={row['k2']:g}: {row['status']}" for row in bundle.extras["sweep"]]
    return _export(bundle, args.out, spec.output.format, rows)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
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
