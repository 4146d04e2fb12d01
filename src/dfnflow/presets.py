"""Ready-made experiment setups: single fracture, crossing fractures, a
six-fracture network, a permeability sweep and a nonlinear-tolerance study.

All presets share the threshold speed 0.15, the mesh size ``DEFAULT_H`` and
the defaults of ``PicardSettings`` and ``TrackerSettings``; every knob can
be overridden per run. Presets are deterministic: rerunning one on the same
machine reproduces the bundle bit for bit. A parsed configuration, a
``ProblemSpec``, runs through ``run_spec`` or, once per k2, ``sweep_k2``;
both hand its loop settings to the tracker as they are.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from typing import Iterable

import numpy as np

from .config import DEFAULT_H, OutputSettings, ProblemSpec, network_from_dict, spec_to_dict
from .energy import build_energy_block
from .export import ResultBundle, bundle_from_report
from .fem import RegimeField
from .laws import AdaptiveLaw, LawBranch
from .meshing import build_mesh
from .network import (
    BoundarySpec,
    Branch,
    FractureNetwork,
    Intersection,
    PiecewiseSource,
    PressureBC,
    SourceSpec,
)
from .picard import PicardSettings
from .tracker import TrackerSettings, track

THRESHOLD = 0.15


def alternating_source() -> PiecewiseSource:
    """Unit injection on the outer thirds, unit extraction in between."""
    return PiecewiseSource(breakpoints=(0.3, 0.7), pieces=(1.0, -1.0, 1.0))


def single_fracture_network(
    force: tuple[float, float] = (0.05, 0.0),
    p_left: float = 0.0,
    p_right: float = 0.0,
    with_source: bool = True,
) -> FractureNetwork:
    """Unit fracture with pressure data at both ends and the standard source."""
    branch = Branch(id="f", start=(0.0, 0.5), end=(1.0, 0.5))
    scalar = {"f": alternating_source()} if with_source else {}
    return FractureNetwork(
        branches=(branch,),
        boundary=BoundarySpec(
            conditions={
                ("f", "start"): PressureBC(p_left),
                ("f", "end"): PressureBC(p_right),
            }
        ),
        sources=SourceSpec(scalar=scalar, force=force),
    )


def crossing_network() -> FractureNetwork:
    """Two unit fractures crossing at the domain center.

    Each fracture is pre-split at the crossing, giving four branches meeting
    at one intersection; the alternating source pattern of each fracture is
    carried over to its two halves in branch-local arc coordinates.
    """
    branches = (
        Branch("h-west", (0.0, 0.5), (0.5, 0.5)),
        Branch("h-east", (0.5, 0.5), (1.0, 0.5)),
        Branch("v-south", (0.5, 0.0), (0.5, 0.5)),
        Branch("v-north", (0.5, 0.5), (0.5, 1.0)),
    )
    cross = Intersection(
        id="cross",
        point=(0.5, 0.5),
        incident=(
            ("h-west", "end"),
            ("h-east", "start"),
            ("v-south", "end"),
            ("v-north", "start"),
        ),
    )
    first_half = PiecewiseSource(breakpoints=(0.3,), pieces=(1.0, -1.0))
    second_half = PiecewiseSource(breakpoints=(0.2,), pieces=(-1.0, 1.0))
    return FractureNetwork(
        branches=branches,
        intersections=(cross,),
        boundary=BoundarySpec(
            conditions={
                ("h-west", "start"): PressureBC(0.0),
                ("h-east", "end"): PressureBC(0.1),
                ("v-south", "start"): PressureBC(0.1),
                ("v-north", "end"): PressureBC(0.1),
            }
        ),
        sources=SourceSpec(
            scalar={
                "h-west": first_half,
                "h-east": second_half,
                "v-south": first_half,
                "v-north": second_half,
            },
            force=(0.0, 0.0),
        ),
    )


def benchmark_network() -> tuple[FractureNetwork, dict]:
    """Six-fracture benchmark-style network from the packaged data file.

    The geometry is approximate (see the data file notes); returns the
    network and the raw document including its provenance notes.
    """
    # data/ is package data beside this module; opening it directly skips
    # the reader objects of importlib.resources, most of the cost of a cold load
    with open(os.path.join(os.path.dirname(__file__), "data", "case3_network.json")) as f:
        payload = json.load(f)
    return network_from_dict(payload["network"]), payload


def darcy_pair(k1: float = 1.0, k2: float = 10.0, threshold: float = THRESHOLD) -> AdaptiveLaw:
    """Two constant-permeability laws; coefficients are inverse permeabilities."""
    return AdaptiveLaw(low=LawBranch(1.0 / k1), high=LawBranch(1.0 / k2), threshold=threshold)


def darcy_forchheimer_pair(
    intercept: float = 0.01, slope: float = 3.0, threshold: float = THRESHOLD
) -> AdaptiveLaw:
    """Unit Darcy law below the threshold, affine-in-speed law above it."""
    return AdaptiveLaw(
        low=LawBranch(1.0),
        high=LawBranch(intercept, slope),
        threshold=threshold,
    )


def run_case(
    name: str,
    network: FractureNetwork,
    law: AdaptiveLaw,
    h: float = DEFAULT_H,
    picard: PicardSettings = PicardSettings(),
    tracker: TrackerSettings = TrackerSettings(),
    initial: str | RegimeField = "low",
    trace: bool = False,
) -> ResultBundle:
    """Track one problem and wrap the outcome in a result bundle.

    ``picard`` and ``tracker`` set the inner and the outer loop, for example
    ``picard=PicardSettings(tolerance=1e-8)``; left unset they are the
    loops' defaults. A single-fracture problem also gets the energy
    oracle's block.
    """
    start = time.perf_counter()
    return _run_on(name, build_mesh(network, h), law, picard, tracker, initial, trace, start)


def _run_on(name, mesh, law, picard, tracker, initial, trace, start) -> ResultBundle:
    """``run_case`` on the mesh it built; ``start`` is when the case started."""
    report = track(
        mesh,
        law,
        picard_settings=picard,
        settings=tracker,
        initial=initial,
        trace=trace,
    )
    energy = None
    if len(mesh.network.branches) == 1:
        energy = build_energy_block(report.final_solution, law)
    return bundle_from_report(
        name,
        report,
        energy=energy,
        timing_seconds=time.perf_counter() - start,
    )


def k2_grid() -> np.ndarray:
    """Geometric grid of high-regime permeabilities around [0.25, 16]."""
    grid = set(np.geomspace(0.25, 16.0, 13).round(6)) | {0.5625, 1.0, 2.0, 4.0, 10.0}
    return np.array(sorted(grid))


def oscillation_variant_network() -> FractureNetwork:
    """Source-free unit fracture driven only by an end pressure of 0.2.

    On this data every configuration without interfaces produces a uniform
    velocity, so the regime pattern either freezes or flips wholesale; which
    of the two happens depends on the high-regime permeability.
    """
    return single_fracture_network(
        force=(0.0, 0.0), p_left=0.0, p_right=0.2, with_source=False
    )


def sweep_k2(name: str, spec: ProblemSpec, values: Iterable[float]) -> ResultBundle:
    """Track the problem of ``spec`` once per high-regime permeability k2 in ``values``.

    Each member replaces the constant high branch of ``spec.law`` by
    ``1 / k2`` and keeps the rest of the problem and the settings. Its row
    records the tracker status and whether every inner solve met its
    tolerance. A member that fails, a k2 that gives no valid law included
    (its ``lambda2`` is then None), is recorded without aborting the sweep; a
    sweep whose members all fail raises, and so does one without values,
    before meshing, and one whose ``init_labels`` do not match the mesh,
    before any member. The bundle reports the last member that ran, with the
    rows in its extras.
    """
    if spec.law.high.slope != 0:
        raise ValueError("the k2 sweep needs a constant high-regime law")
    values = [float(k2) for k2 in values]
    if not values:
        raise ValueError("the k2 sweep needs at least one k2 value")
    start = time.perf_counter()
    mesh = build_mesh(spec.network, spec.h)
    initial = spec.initial_on(mesh)
    rows = []
    last = None
    for k2 in values:
        row = {"k2": k2, "lambda2": None}
        try:
            member = dataclasses.replace(spec.law, high=LawBranch(1.0 / k2))
            row["lambda2"] = member.lambda2
            report = track(
                mesh,
                member,
                picard_settings=spec.picard,
                settings=spec.tracker,
                initial=initial,
                trace=spec.output.trace,
            )
        except Exception as exc:  # keep sweeping; record the failure
            row.update(
                status="error",
                period=0,
                outer_iterations=0,
                inner_converged=None,
                message=str(exc),
            )
        else:
            row.update(
                status=report.status.value,
                period=report.period or 0,
                outer_iterations=report.outer_iterations,
                inner_converged=all(e.inner_converged for e in report.history),
            )
            last = report
        rows.append(row)
    if last is None:
        raise RuntimeError(f"every sweep member failed: {rows[0]['message']}")
    return bundle_from_report(
        name, last, extras={"sweep": rows}, timing_seconds=time.perf_counter() - start
    )


def run_k2_sweep(
    values: Iterable[float] | None = None, h: float = DEFAULT_H, trace: bool = False
) -> ResultBundle:
    """Sweep the high-regime permeability on the source-free variant.

    The driving is the end pressure of 0.2 alone; the low-regime permeability
    stays 1. ``values`` defaults to ``k2_grid()``.
    """
    spec = ProblemSpec(
        oscillation_variant_network(), darcy_pair(), h=h, output=OutputSettings(trace=trace)
    )
    return sweep_k2("k2-sweep", spec, k2_grid() if values is None else values)


NL_TOLERANCES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-8)
NL_REFERENCE_TOLERANCE = 1e-12


def run_nl_tolerance_table(h: float = DEFAULT_H, trace: bool = False) -> ResultBundle:
    """Rerun the nonlinear single-fracture case across solver tolerances.

    The table's runs stop once the interfaces move less than the mesh size
    h, which on this data happens after the second outer step at every
    tolerance; because the first outer step solves a linear problem, all runs
    then share the configuration sequence and the final working mesh, so the
    solution vectors are directly comparable against the tightest-tolerance
    reference. Under the default fixed-point tolerance the runs would stop
    after 5 to 7 outer steps depending on the solver tolerance, mixing
    configuration error into the solver error the table measures. The bundle
    itself is the default-settings run at the default tolerance, tracked on
    the base mesh the table's runs share, so the fracture is meshed once.

    The table studies how plain Picard iteration's error follows its
    tolerance, so its runs use ``depth=0``. Anderson mixing converges in a
    handful of solves whose residuals fall by orders of magnitude per step:
    at the default depth the rows at 1e-2 and 1e-3 stop after the same four
    solves and report the same error.
    """
    start = time.perf_counter()
    law = darcy_forchheimer_pair()
    mesh = build_mesh(single_fracture_network(), h)

    def run(eps: float):
        picard = PicardSettings(tolerance=eps, depth=0)
        return track(mesh, law, picard_settings=picard, settings=TrackerSettings(eps_omega=mesh.h))

    reference = run(NL_REFERENCE_TOLERANCE)
    ref_flux = reference.final_solution.flux.array
    ref_pressure = reference.final_solution.pressure.array

    rows = []
    for eps in NL_TOLERANCES + (NL_REFERENCE_TOLERANCE,):
        report = run(eps) if eps != NL_REFERENCE_TOLERANCE else reference
        flux = report.final_solution.flux.array
        pressure = report.final_solution.pressure.array
        if flux.shape != ref_flux.shape:
            raise RuntimeError(
                "configuration sequence changed with the tolerance; "
                "solution vectors are not comparable"
            )
        rows.append(
            {
                "eps_nl": eps,
                "outer_iterations": report.outer_iterations,
                "inner_last": report.inner_iteration_counts[-1],
                "inner_total": sum(report.inner_iteration_counts),
                "err_p": float(
                    np.linalg.norm(ref_pressure - pressure) / np.linalg.norm(ref_pressure)
                ),
                "err_u": float(np.linalg.norm(ref_flux - flux) / np.linalg.norm(ref_flux)),
            }
        )
    bundle = _run_on(
        "nl-tolerance-table", mesh, law, PicardSettings(), TrackerSettings(), "low", trace, start
    )
    bundle.extras = {"table": rows}
    return bundle


# The network and law factories of every preset that tracks one problem.
_CASES = {
    "case1-linear": (single_fracture_network, darcy_pair),
    "case1-nonlinear": (single_fracture_network, darcy_forchheimer_pair),
    "case2-linear": (crossing_network, darcy_pair),
    "case2-nonlinear": (crossing_network, darcy_forchheimer_pair),
    "case3-linear": (lambda: benchmark_network()[0], darcy_pair),
    "case3-nonlinear": (
        lambda: benchmark_network()[0],
        functools.partial(darcy_forchheimer_pair, intercept=0.01, slope=0.25),
    ),
}

PRESET_NAMES = (*_CASES, "k2-sweep", "nl-tolerance-table")


def run_preset(name: str, h: float | None = None, trace: bool = False) -> ResultBundle:
    """Run a named preset; see ``PRESET_NAMES`` for the choices."""
    h = DEFAULT_H if h is None else h
    if name in _CASES:
        network, law = _CASES[name]
        return run_case(name, network(), law(), h=h, trace=trace)
    if name == "k2-sweep":
        return run_k2_sweep(h=h, trace=trace)
    if name == "nl-tolerance-table":
        return run_nl_tolerance_table(h=h, trace=trace)
    raise ValueError(f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}")


def run_spec(spec: ProblemSpec) -> ResultBundle:
    """Run the full pipeline described by a parsed configuration.

    The bundle records ``spec_to_dict(spec)``, built before the run, so a
    spec without a document fails before any solve, and so do ``init_labels``
    that do not match the mesh, which is built once.
    """
    config = spec_to_dict(spec)
    start = time.perf_counter()
    mesh = build_mesh(spec.network, spec.h)
    bundle = _run_on(
        "solve", mesh, spec.law, spec.picard, spec.tracker, spec.initial_on(mesh),
        spec.output.trace, start,
    )
    bundle.config = config
    return bundle
