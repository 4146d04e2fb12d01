"""Workload definitions and the correctness checks run on every case.

A workload's ``setup(seed)`` builds every input (networks, laws) and returns
the cases to run; each case is one call into the public ``dfnflow`` API that
returns a result bundle. Cases call ``dfnflow.presets`` through the module
attribute, so a tracer that wraps ``run_case`` there sees the call.
``execute`` runs the cases and exports each bundle as JSON the way
``dfnflow preset --out`` does; ``check_outcomes`` checks every result
afterwards, outside the timed region.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import dfnflow.export
import dfnflow.fem
import dfnflow.presets
from dfnflow.laws import Regime
from dfnflow.network import START
from dfnflow.presets import darcy_forchheimer_pair, darcy_pair, single_fracture_network
from dfnflow.tracker import TrackerSettings

from lattice import lattice_network

BALANCE_TOL = 1e-10  # element mass and junction flux balance
OFFSET_SPREAD_TOL = 1e-8  # solver flux minus lifted field must be constant
ORACLE_SLACK = 1e-12  # E_tracked - E(alpha*) may not drop below -slack

LATTICE_N = 12
LATTICE_H = 0.025
# The tracker on the lattice needs 13 to 22 outer iterations depending on the
# seed; a fixed budget keeps the work per run the same for every seed.
LATTICE_MAX_OUTER = 10

ORACLE_LAWS = (
    ("darcy-down", lambda: darcy_pair(1.0, 10.0)),
    ("darcy-up", lambda: darcy_pair(1.0, 0.5625)),
    ("forchheimer", darcy_forchheimer_pair),
)
ORACLE_H = (0.05, 0.02, 0.01)


@dataclass
class Case:
    """One call into the API, and the layers a traced run of it must reach.

    ``energy``: the bundle carries an energy block. ``junctions``: the
    network has intersections, so every solve runs the junction
    diagnostics. ``linear``: the law is linear, so Picard needs exactly one
    solve per outer iteration; otherwise it needs more.
    """

    name: str
    run: Callable[[], object]
    extra_check: Callable[["Outcome"], list[str]] | None = None
    energy: bool = False
    junctions: bool = True
    linear: bool = True


@dataclass
class Outcome:
    """What one case produced and how it fared."""

    name: str
    bundle: object = None
    report: object = None
    track_args: tuple = ()
    track_kwargs: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


class TrackCapture:
    """Keeps the report and arguments of the last ``track`` call of a case.

    ``run_preset`` and ``run_case`` return only the bundle; the checks need
    the tracker report, so the name they call is wrapped for the duration.
    """

    def __init__(self):
        self.last = None

    def __enter__(self):
        self._original = dfnflow.presets.track

        def capture(*args, **kwargs):
            report = self._original(*args, **kwargs)
            self.last = (args, kwargs, report)
            return report

        dfnflow.presets.track = capture
        return self

    def __exit__(self, *exc):
        dfnflow.presets.track = self._original


def balance_defect(solution) -> float:
    """Worst element mass and junction flux imbalance of a solution."""
    mesh = solution.mesh
    net = mesh.network
    worst = 0.0
    for bid in mesh.branch_ids:
        x = mesh.nodes[bid]
        rates = net.sources.scalar_for(bid)(0.5 * (x[:-1] + x[1:]))
        inflow = rates * np.diff(x)
        worst = max(worst, float(np.abs(np.diff(solution.flux[bid]) - inflow).max()))
    for isec in net.intersections:
        total = 0.0
        for bid, which in isec.incident:
            u = solution.flux[bid]
            total += -u[0] if which == START else u[-1]
        worst = max(worst, abs(total))
    return worst


def check_frozen_resolve(out: Outcome) -> list[str]:
    """One more frozen-coefficient solve must move the result by <= eps_nl.

    The final solve of the tracker ran on the final working mesh with the
    labels of the previous history entry (uniform low before the first
    entry), so repeating it at the final midpoint speeds is one more Picard
    step on the same problem.
    """
    report = out.report
    law = out.track_args[1]
    eps_nl = out.track_kwargs["picard_settings"].tolerance
    final = report.final_solution
    mesh = final.mesh
    if len(report.history) >= 2:
        regimes = report.history[-2].configuration.regimes
    else:
        regimes = dfnflow.fem.RegimeField.uniform(mesh, Regime.LOW)
    net = mesh.network
    system = dfnflow.fem.assemble(
        mesh, regimes, law, final.midpoint_speeds(), net.sources, net.boundary
    )
    again = dfnflow.fem.solve_saddle(system).stacked()
    change = float(np.linalg.norm(again - final.stacked()) / np.linalg.norm(again))
    out.info["frozen_resolve_change"] = change
    if not change <= eps_nl:
        return [f"frozen re-solve changed the solution by {change:.3e} > {eps_nl}"]
    return []


def check_energy_oracle(out: Outcome) -> list[str]:
    """Solver flux is lifted field plus a constant, not above the oracle."""
    block = out.bundle.energy
    if block is None:
        return ["single-fracture case has no energy block"]
    spread = block["fem_offset_spread"]
    gap = block["energy"] - block["alpha_energy"]
    out.info["offset_spread"] = spread
    out.info["energy_gap"] = gap
    failures = []
    if not spread <= OFFSET_SPREAD_TOL:
        failures.append(f"flux offset spread {spread:.3e} > {OFFSET_SPREAD_TOL}")
    if not gap >= -ORACLE_SLACK:
        failures.append(f"tracked energy below the oracle minimum by {-gap:.3e}")
    return failures


def execute(cases: list[Case], out_dir, on_case=None) -> tuple[list[Outcome], float]:
    """Run and export every case; returns outcomes and the wall time.

    The wall time runs from the first solve call to the last bundle
    exported. A case that raises is recorded as failed and the rest still
    run. ``on_case(index)`` is called before each case.
    """
    outcomes = []
    start = time.perf_counter()
    with TrackCapture() as capture:
        for index, case in enumerate(cases):
            if on_case is not None:
                on_case(index)
            out = Outcome(case.name)
            capture.last = None
            try:
                out.bundle = case.run()
                dfnflow.export.export_bundle(out.bundle, out_dir, "json")
            except Exception as exc:  # a failing case counts; the rest still run
                out.failures.append(f"raised {type(exc).__name__}: {exc}")
            if capture.last is not None:
                out.track_args, out.track_kwargs, out.report = capture.last
            outcomes.append(out)
    return outcomes, time.perf_counter() - start


def check_outcomes(cases: list[Case], outcomes: list[Outcome]) -> None:
    """Check every case that ran; failures are appended to its outcome."""
    for case, out in zip(cases, outcomes):
        if out.failures:
            continue
        if out.report is None:
            out.failures.append("the tracker was not called")
            continue
        try:
            out.failures += check_case(out, case)
        except Exception as exc:  # a check that cannot run is a failed check
            out.failures.append(f"check raised {type(exc).__name__}: {exc}")


def check_case(out: Outcome, case: Case) -> list[str]:
    report = out.report
    out.info.update(
        status=report.status.value,
        outer_iterations=report.outer_iterations,
        inner_total=sum(report.inner_iteration_counts),
        interfaces=len(report.final_configuration.interfaces),
    )
    failures = []
    defect = balance_defect(report.final_solution)
    out.info["balance_defect"] = defect
    if not (math.isfinite(defect) and defect <= BALANCE_TOL):
        failures.append(f"mass/junction balance defect {defect:.3e} > {BALANCE_TOL}")
    if case.extra_check is not None:
        failures += case.extra_check(out)
    return failures


def dfn6_case() -> Case:
    """``case3-nonlinear``: the six-fracture network, Darcy-Forchheimer pair.

    The preset takes no random input.
    """
    return Case(
        "case3-nonlinear",
        lambda: dfnflow.presets.run_preset("case3-nonlinear"),
        check_frozen_resolve,
        linear=False,
    )


def single_fracture_oracle(seed: int) -> list[Case]:
    """Three laws at three mesh sizes, each with its energy block."""
    network = single_fracture_network()
    cases = []
    for law_name, make_law in ORACLE_LAWS:
        law = make_law()
        for h in ORACLE_H:
            name = f"{law_name}-h{h}"
            cases.append(
                Case(
                    name,
                    lambda name=name, law=law, h=h: dfnflow.presets.run_case(
                        name, network, law, h=h
                    ),
                    check_energy_oracle,
                    energy=True,
                    junctions=False,
                    linear=law_name != "forchheimer",
                )
            )
    return cases


def lattice_case(seed: int, n: int = LATTICE_N) -> Case:
    network = lattice_network(seed, n)
    law = darcy_pair(1.0, 10.0)
    settings = TrackerSettings(max_outer=LATTICE_MAX_OUTER)
    name = f"lattice-n{n}"
    return Case(
        name,
        lambda: dfnflow.presets.run_case(
            name, network, law, h=LATTICE_H, tracker=settings
        ),
    )


def dfn_networks(seed: int) -> list[Case]:
    """Both multi-fracture networks: ``case3-nonlinear``, then the lattice.

    The two stress the same layers in opposite ways: the six-fracture case
    assembles hundreds of times on one small working mesh, the lattice once
    per outer iteration on a new, larger one, and spends most of its time
    in the tracker. They form one workload so that each run is long enough
    to average out the speed drift of a shared host; the traced run reports
    the layers of each case on its own.
    """
    return [dfn6_case(), lattice_case(seed)]


WORKLOADS = {
    "dfn-networks": dfn_networks,
    "single-fracture-oracle": single_fracture_oracle,
}


def scaling_cases(seed: int) -> list[Case]:
    """Cases of the per-layer scaling table: mesh size and branch count."""
    cases = [
        Case(f"case3-linear-h{h}", lambda h=h: dfnflow.presets.run_preset("case3-linear", h=h))
        for h in (0.05, 0.01, 0.002)
    ]
    cases += [lattice_case(seed, n) for n in (8, 12)]
    return cases
