"""Ready-made experiment setups: single fracture, crossing fractures, a
six-fracture network, a permeability sweep and a nonlinear-tolerance study.

All presets share the threshold speed 0.15 and the default tolerances
(h = 0.05, interface tolerance 1e-10, configuration tolerance 1e-8, iteration
caps 50); every knob can be overridden per run. Presets are deterministic:
rerunning one on the same machine reproduces the bundle bit for bit.
"""

from __future__ import annotations

import json
import time
from importlib import resources
from typing import Iterable

import numpy as np

from .config import ProblemSpec, network_from_dict, parse_config
from .energy import build_energy_block
from .export import ResultBundle, bundle_from_report
from .laws import AdaptiveLaw, AffineSpeedLaw, ConstantLaw
from .meshing import build_mesh
from .network import (
    BoundarySpec,
    Branch,
    FractureNetwork,
    Intersection,
    PiecewiseSource,
    PressureBC,
    SourceSpec,
    VelocityBC,
)
from .picard import PicardSettings
from .tracker import TrackerSettings, track

THRESHOLD = 0.15
DEFAULT_H = 0.05

PRESET_NAMES = (
    "case1-linear",
    "case1-nonlinear",
    "case2-linear",
    "case2-nonlinear",
    "case3-linear",
    "case3-nonlinear",
    "k2-sweep",
    "nl-tolerance-table",
)


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
    payload = json.loads(
        resources.files("dfnflow.data").joinpath("case3_network.json").read_text()
    )
    return network_from_dict(payload["network"]), payload


def darcy_pair(k1: float = 1.0, k2: float = 10.0, threshold: float = THRESHOLD) -> AdaptiveLaw:
    """Two constant-permeability laws; coefficients are inverse permeabilities."""
    return AdaptiveLaw(
        low=ConstantLaw(1.0 / k1), high=ConstantLaw(1.0 / k2), threshold=threshold
    )


def darcy_forchheimer_pair(
    intercept: float = 0.01, slope: float = 3.0, threshold: float = THRESHOLD
) -> AdaptiveLaw:
    """Unit Darcy law below the threshold, affine-in-speed law above it."""
    return AdaptiveLaw(
        low=ConstantLaw(1.0),
        high=AffineSpeedLaw(intercept, slope),
        threshold=threshold,
    )


def run_case(
    name: str,
    network: FractureNetwork,
    law: AdaptiveLaw,
    h: float = DEFAULT_H,
    eps_nl: float = 1e-4,
    max_inner: int = 50,
    tracker: TrackerSettings | None = None,
    initial: str = "low",
    trace: bool = False,
    with_energy: bool = True,
) -> ResultBundle:
    """Track one problem and wrap the outcome in a result bundle."""
    start = time.perf_counter()
    mesh = build_mesh(network, h)
    report = track(
        mesh,
        law,
        picard_settings=PicardSettings(tolerance=eps_nl, max_iterations=max_inner),
        settings=tracker or TrackerSettings(),
        initial=initial,
        trace=trace,
    )
    energy = None
    if with_energy and len(network.branches) == 1:
        energy = build_energy_block(report.final_solution, mesh, law)
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


def run_k2_sweep(
    values: Iterable[float] | None = None,
    h: float = DEFAULT_H,
    max_outer: int = 50,
    trace: bool = False,
) -> ResultBundle:
    """Sweep the high-regime permeability on the source-free variant.

    The driving is the end pressure of 0.2 alone; the low-regime permeability
    stays 1. Each sweep member records its tracker status and whether every
    inner solve met its tolerance, and a member failure is recorded without
    aborting the sweep.
    """
    start = time.perf_counter()
    network = oscillation_variant_network()
    mesh = build_mesh(network, h)
    rows = []
    for k2 in values if values is not None else k2_grid():
        law = darcy_pair(k1=1.0, k2=float(k2))
        try:
            report = track(
                mesh,
                law,
                settings=TrackerSettings(max_outer=max_outer),
            )
            rows.append(
                {
                    "k2": float(k2),
                    "lambda2": law.lambda2,
                    "status": report.status.value,
                    "period": report.period if report.period is not None else 0,
                    "outer_iterations": report.outer_iterations,
                    "inner_converged": all(e.inner_converged for e in report.history),
                }
            )
        except Exception as exc:  # keep sweeping; record the failure
            rows.append(
                {
                    "k2": float(k2),
                    "lambda2": law.lambda2,
                    "status": "error",
                    "period": 0,
                    "outer_iterations": 0,
                    "inner_converged": None,
                    "message": str(exc),
                }
            )
    ok = [r for r in rows if r["status"] != "error"]
    if not ok:
        raise RuntimeError(f"every sweep member failed: {rows[0]['message']}")
    last_ok = ok[-1]
    bundle = run_case(
        "k2-sweep",
        network,
        darcy_pair(k1=1.0, k2=float(last_ok["k2"])),
        h=h,
        trace=trace,
        with_energy=False,
    )
    bundle.extras = {"sweep": rows}
    bundle.timing_seconds = time.perf_counter() - start
    return bundle


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
    itself is the default-settings run at the default tolerance.

    The table studies how plain Picard iteration's error follows its
    tolerance, so its runs use ``depth=0``. Anderson mixing converges in a
    handful of solves whose residuals fall by orders of magnitude per step:
    at the default depth the rows at 1e-2 and 1e-3 stop after the same four
    solves and report the same error.
    """
    start = time.perf_counter()
    network = single_fracture_network()
    law = darcy_forchheimer_pair()
    mesh = build_mesh(network, h)

    def run(eps: float):
        return track(
            mesh,
            law,
            picard_settings=PicardSettings(
                tolerance=eps, max_iterations=50, depth=0
            ),
            settings=TrackerSettings(eps_omega=mesh.h),
        )

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
    bundle = run_case(
        "nl-tolerance-table", network, law, h=h, trace=trace, with_energy=True
    )
    bundle.extras = {"table": rows}
    bundle.timing_seconds = time.perf_counter() - start
    return bundle


def run_preset(name: str, h: float | None = None, trace: bool = False, **kwargs) -> ResultBundle:
    """Run a named preset; see ``PRESET_NAMES`` for the choices."""
    h = DEFAULT_H if h is None else h
    if name == "case1-linear":
        return run_case(name, single_fracture_network(), darcy_pair(), h=h, trace=trace, **kwargs)
    if name == "case1-nonlinear":
        return run_case(
            name, single_fracture_network(), darcy_forchheimer_pair(), h=h, trace=trace, **kwargs
        )
    if name == "case2-linear":
        return run_case(name, crossing_network(), darcy_pair(), h=h, trace=trace, **kwargs)
    if name == "case2-nonlinear":
        return run_case(
            name, crossing_network(), darcy_forchheimer_pair(), h=h, trace=trace, **kwargs
        )
    if name == "case3-linear":
        network, _ = benchmark_network()
        return run_case(name, network, darcy_pair(), h=h, trace=trace, **kwargs)
    if name == "case3-nonlinear":
        network, _ = benchmark_network()
        return run_case(
            name,
            network,
            darcy_forchheimer_pair(intercept=0.01, slope=0.25),
            h=h,
            trace=trace,
            **kwargs,
        )
    if name == "k2-sweep":
        return run_k2_sweep(h=h, trace=trace, **kwargs)
    if name == "nl-tolerance-table":
        return run_nl_tolerance_table(h=h, trace=trace, **kwargs)
    raise ValueError(f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}")


def run_spec(spec: ProblemSpec, trace: bool | None = None) -> ResultBundle:
    """Run the full pipeline described by a parsed configuration."""
    from .config import spec_to_dict
    from .fem import RegimeField
    from .laws import Regime

    start = time.perf_counter()
    mesh = spec.build_mesh()
    initial: str | RegimeField = spec.solver.init
    if spec.solver.init_labels is not None:
        initial = RegimeField(
            {
                b: np.array([int(v) for v in labels], dtype=np.int8)
                for b, labels in spec.solver.init_labels.items()
            }
        )
    report = track(
        mesh,
        spec.law,
        picard_settings=PicardSettings(
            tolerance=spec.solver.eps_nl, max_iterations=spec.solver.max_inner
        ),
        settings=TrackerSettings(
            eps_gamma=spec.solver.eps_gamma,
            eps_omega=spec.solver.eps_omega,
            max_outer=spec.solver.max_outer,
        ),
        initial=initial,
        trace=spec.output.trace if trace is None else trace,
    )
    energy = None
    if len(spec.network.branches) == 1:
        energy = build_energy_block(report.final_solution, mesh, spec.law)
    return bundle_from_report(
        "solve",
        report,
        config=spec_to_dict(spec),
        energy=energy,
        timing_seconds=time.perf_counter() - start,
    )
