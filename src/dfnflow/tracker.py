"""Free-interface tracking between the low- and high-speed regions.

The outer loop solves the flow problem on the current configuration, then
classifies every element by comparing the nodal speed magnitudes against the
threshold at its two endpoints. Where the endpoints disagree, the crossing of
the interpolated speed with the threshold is located inside the element, the
base mesh is split there and the two sides inherit their endpoint's regime.
The loop stops when the configuration is stable, when it cycles, or at the
iteration cap. Stability means the interface point set moved less than a
tolerance between successive iterations and the per-base-element label
pattern is unchanged; the label test matters for configurations without any
interface, where regimes can still flip wholesale between iterations while
the (empty) interface sets sit at distance zero. Cycling means the label
pattern repeats with period two or more inside a sliding window.

Interface points from the previous iteration are discarded before each new
split, so the working mesh is always the base mesh plus the current
interfaces and interface sets stay comparable across iterations.

Near a self-consistent configuration the plain loop converges only
linearly, so the interface positions are Anderson-mixed (type II, the same
``AndersonMixer`` as the inner loop, keeping ``OUTER_MIXING_DEPTH``
differences; the plain loop, which solves on every classification in turn,
is kept as ``tests/oracles.py:plain_track``). Let γ be the
interface arcs concatenated per branch in arc order and G(γ) the arcs
classified from the solve on the configuration γ. A residual G(γ) − γ
exists while the number of interfaces on every branch stays the same;
mixing restarts whenever that layout or the per-base-element label pattern
changes. The mixed configuration takes G(γ)'s labels with their changes
moved to the mixed arcs. It is rejected in favour of G(γ) itself, keeping
only the last residual, when a mixed arc leaves its branch, the arcs of a
branch lose their strict order, or the label pattern changes; so the
cycling test still sees the patterns of plain steps only. The stop test is
unchanged: the interfaces classified from a solve lie within the tolerance
of those it was solved on, under an unchanged label pattern. A history
entry's ``distance`` is that fixed-point residual, and ``mixed`` marks the
iterations that solved on a mixed configuration.
"""

from __future__ import annotations

import enum
import math
from itertools import groupby
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .fem import RegimeField, Solution
from .laws import AdaptiveLaw, Regime
from .meshing import Mesh, split_mesh_at
from .picard import AndersonMixer, PicardResult, PicardSettings, picard_solve

InterfacePoint = tuple[str, float]

# Arc-length tolerance on the interface motion between successive outer
# iterations when ``TrackerSettings.eps_omega`` is unset.
DEFAULT_EPS_OMEGA = 1e-8

# Interface-position differences Anderson mixing keeps between outer
# iterations.
OUTER_MIXING_DEPTH = 3


@dataclass(frozen=True)
class TrackerSettings:
    """Tolerances of the outer loop.

    ``eps_omega`` bounds how far the interface set may move in the last outer
    iteration of a converged run. Left unset it is ``DEFAULT_EPS_OMEGA``, so
    "converged" means the configuration reproduced itself: interfaces can
    drift by less than the mesh size per iteration for many iterations before
    they settle, and a tolerance at the scale of the mesh stops such a drift
    part-way.
    """

    eps_gamma: float = 1e-10
    eps_omega: float | None = None
    max_outer: int = 50
    oscillation_window: int = 6

    def __post_init__(self):
        if self.eps_gamma <= 0:
            raise ValueError("interface tolerance must be positive")
        if self.eps_omega is not None and self.eps_omega <= 0:
            raise ValueError("configuration tolerance must be positive")
        if self.max_outer < 1:
            raise ValueError("need at least one outer iteration")


class TrackerStatus(enum.Enum):
    CONVERGED = "converged"
    OSCILLATING = "oscillating"
    MAX_ITERATIONS = "max-iterations"


@dataclass(frozen=True)
class Configuration:
    """Regime labels on the working mesh plus the interface point set."""

    regimes: RegimeField
    interfaces: tuple[InterfacePoint, ...]
    iteration_index: int


@dataclass
class HistoryEntry:
    """One outer iteration: its new configuration and how its inner solve went.

    ``mixed`` tells whether the configuration solved on came from a mixing
    step rather than from the previous iteration's classification.
    """

    configuration: Configuration
    distance: float
    inner_iterations: int
    inner_converged: bool
    mixed: bool = False


@dataclass
class TrackerReport:
    status: TrackerStatus
    period: int | None
    history: list[HistoryEntry]
    final_solution: Solution
    outer_iterations: int
    inner_iteration_counts: list[int]
    snapshots: list[Solution] | None = None

    @property
    def final_configuration(self) -> Configuration:
        return self.history[-1].configuration


def classify_endpoints(
    solution: Solution, branch_id: str, element_index: int, threshold: float
) -> tuple[bool, bool]:
    """Whether the nodal speed is strictly below the threshold at each end.

    Speeds exactly at the threshold classify as high: the comparison is a
    strict "below".
    """
    u = solution.flux[branch_id]
    return (
        bool(abs(u[element_index]) < threshold),
        bool(abs(u[element_index + 1]) < threshold),
    )


def _locate(
    x1: float, x2: float, u1: float, u2: float, threshold: float, eps_gamma: float
) -> float:
    c1 = abs(u1) < threshold
    c2 = abs(u2) < threshold
    if c1 == c2:
        raise ValueError(
            "element endpoints classify identically; no interface bracket"
        )
    if u1 * u2 >= 0.0:
        # The speed magnitude is linear here; solve it directly.
        s1, s2 = abs(u1), abs(u2)
        return x1 + (threshold - s1) / (s2 - s1) * (x2 - x1)
    a, b = x1, x2
    ga = abs(u1) - threshold
    while b - a > eps_gamma:
        m = 0.5 * (a + b)
        um = u1 + (u2 - u1) * (m - x1) / (x2 - x1)
        gm = abs(um) - threshold
        if (gm < 0.0) == (ga < 0.0):
            a, ga = m, gm
        else:
            b = m
    return 0.5 * (a + b)


def locate_interface(
    solution: Solution,
    branch_id: str,
    element_index: int,
    threshold: float,
    eps_gamma: float = 1e-10,
) -> float:
    """Arc coordinate where the interpolated speed crosses the threshold.

    Requires the element endpoints to classify to opposite regimes. When the
    nodal flux changes sign inside the element the speed profile is V-shaped
    and the unique crossing is bisected to ``eps_gamma``; otherwise the
    crossing of the linear profile is solved in closed form.
    """
    x = solution.mesh.nodes[branch_id]
    u = solution.flux[branch_id]
    e = element_index
    return _locate(x[e], x[e + 1], u[e], u[e + 1], threshold, eps_gamma)


def configuration_distance(a, b) -> float:
    """Symmetric Hausdorff distance between two interface point sets.

    Distances are measured in arc length along a branch; points on different
    branches are infinitely far apart, as is a nonempty set from an empty
    one. Two empty sets are at distance zero.
    """
    pa = tuple(a.interfaces) if isinstance(a, Configuration) else tuple(a)
    pb = tuple(b.interfaces) if isinstance(b, Configuration) else tuple(b)
    if not pa and not pb:
        return 0.0
    if not pa or not pb:
        return math.inf

    def directed(p: Sequence[InterfacePoint], q: Sequence[InterfacePoint]) -> float:
        worst = 0.0
        for bid, arc in p:
            best = min(
                (abs(arc - arc_q) for bid_q, arc_q in q if bid_q == bid),
                default=math.inf,
            )
            worst = max(worst, best)
        return worst

    return max(directed(pa, pb), directed(pb, pa))


# A run is a maximal labelled interval [a, b] on a branch; runs tile [0, L]
# and change labels only at interface points.
Run = tuple[float, float, Regime]


def _classify_branch(
    nodes: np.ndarray, flux: np.ndarray, threshold: float, eps_gamma: float
) -> tuple[list[Run], list[float]]:
    raw: list[list] = []
    interfaces: list[float] = []
    for e in range(len(nodes) - 1):
        u1, u2 = float(flux[e]), float(flux[e + 1])
        c1, c2 = abs(u1) < threshold, abs(u2) < threshold
        lab1 = Regime.LOW if c1 else Regime.HIGH
        lab2 = Regime.LOW if c2 else Regime.HIGH
        if c1 == c2:
            raw.append([nodes[e], nodes[e + 1], lab1])
        else:
            xs = _locate(nodes[e], nodes[e + 1], u1, u2, threshold, eps_gamma)
            interfaces.append(xs)
            raw.append([nodes[e], xs, lab1])
            raw.append([xs, nodes[e + 1], lab2])
    merged: list[list] = []
    for a, b, lab in raw:
        if b - a <= 0.0:
            continue
        if merged and merged[-1][2] == lab:
            merged[-1][1] = b
        else:
            merged.append([a, b, lab])
    return [(a, b, lab) for a, b, lab in merged], interfaces


def _labels_on(mesh: Mesh, runs_by_branch: dict[str, list[Run]]) -> RegimeField:
    labels = {}
    for bid in mesh.branch_ids:
        runs = runs_by_branch[bid]
        ends = np.array([b for _, b, _ in runs])
        owner = np.searchsorted(ends, mesh.element_midpoints(bid), side="left")
        run_labels = np.array([int(lab) for _, _, lab in runs], dtype=np.int8)
        labels[bid] = run_labels[np.minimum(owner, len(runs) - 1)]
    return RegimeField(labels)


def _signature(base: Mesh, runs_by_branch: dict[str, list[Run]]) -> tuple:
    labels = _labels_on(base, runs_by_branch).labels
    return tuple(tuple(int(v) for v in labels[bid]) for bid in base.branch_ids)


def _uniform_runs(base: Mesh, regimes: RegimeField) -> dict[str, list[Run]]:
    runs = {}
    for bid in base.branch_ids:
        x = base.nodes[bid]
        labels = regimes.labels[bid]
        branch_runs: list[list] = []
        for e in range(len(x) - 1):
            lab = Regime(int(labels[e]))
            if branch_runs and branch_runs[-1][2] == lab:
                branch_runs[-1][1] = x[e + 1]
            else:
                branch_runs.append([x[e], x[e + 1], lab])
        runs[bid] = [(a, b, lab) for a, b, lab in branch_runs]
    return runs


def _layout(gamma: Sequence[InterfacePoint]) -> tuple[str, ...]:
    """Branch of every interface point; equal layouts mean equal counts per branch."""
    return tuple(bid for bid, _ in gamma)


def _arcs(gamma: Sequence[InterfacePoint]) -> np.ndarray:
    return np.array([arc for _, arc in gamma])


def _moved_runs(
    base: Mesh,
    runs_by_branch: dict[str, list[Run]],
    layout: tuple[str, ...],
    arcs: np.ndarray,
) -> dict[str, list[Run]] | None:
    """The runs with their label changes moved to ``arcs``.

    ``arcs`` holds the new change points concatenated per branch, in the
    order of ``layout``. None when a point leaves its branch, the points of
    a branch are not strictly increasing, or a branch's label changes do not
    match its points one to one.
    """
    moved = dict(runs_by_branch)
    for bid, points in groupby(zip(layout, arcs.tolist()), key=lambda p: p[0]):
        runs = runs_by_branch[bid]
        bounds = [0.0, *(arc for _, arc in points), float(base.nodes[bid][-1])]
        if len(runs) != len(bounds) - 1 or not all(
            a < b for a, b in zip(bounds, bounds[1:])
        ):
            return None
        moved[bid] = [
            (a, b, lab) for a, b, (_, _, lab) in zip(bounds, bounds[1:], runs)
        ]
    return moved


def _detect_period(signatures: list[tuple], new_sig: tuple, window: int) -> int | None:
    n = len(signatures)
    for p in range(2, window + 1):
        if p > n:
            break
        if signatures[n - p] != new_sig:
            continue
        # require the cycle to visit at least one different pattern, so a
        # drifting interface under stable labels is not flagged
        if any(signatures[n - j] != new_sig for j in range(1, p)):
            return p
    return None


def track(
    mesh: Mesh,
    law: AdaptiveLaw,
    picard_settings: PicardSettings | None = None,
    settings: TrackerSettings | None = None,
    initial: str | RegimeField = "low",
    trace: bool = False,
) -> TrackerReport:
    """Run the interface tracking loop on a base mesh.

    ``initial`` is "low", "high" or an explicit regime field on the base
    mesh. Boundary conditions and sources are taken from the meshed network.
    Solver errors propagate with the outer iteration index attached.
    """
    settings = settings or TrackerSettings()
    picard_settings = picard_settings or PicardSettings()
    eps_omega = (
        settings.eps_omega if settings.eps_omega is not None else DEFAULT_EPS_OMEGA
    )
    sources = mesh.network.sources
    bcs = mesh.network.boundary
    threshold = law.threshold

    if isinstance(initial, RegimeField):
        initial.check_against(mesh)
        start_regimes = initial
    elif initial in ("low", "high"):
        start_regimes = RegimeField.uniform(
            mesh, Regime.LOW if initial == "low" else Regime.HIGH
        )
    else:
        raise ValueError(f"unknown initial configuration {initial!r}")

    runs_prev = _uniform_runs(mesh, start_regimes)
    gamma_prev: tuple[InterfacePoint, ...] = ()
    signatures: list[tuple] = [_signature(mesh, runs_prev)]

    mixer = AndersonMixer(OUTER_MIXING_DEPTH)
    mixed = False

    history: list[HistoryEntry] = []
    inner_counts: list[int] = []
    snapshots: list[Solution] | None = [] if trace else None
    status = TrackerStatus.MAX_ITERATIONS
    period: int | None = None
    last_result: PicardResult | None = None

    for i in range(1, settings.max_outer + 1):
        working = split_mesh_at(mesh, gamma_prev)
        regimes = _labels_on(working, runs_prev)
        try:
            last_result = picard_solve(
                working, regimes, law, sources, bcs, picard_settings
            )
        except Exception as exc:
            # prefix the message in place: the error keeps its type and
            # attributes whatever arguments its constructor takes
            exc.args = (f"outer iteration {i}: {exc}",)
            raise
        solution = last_result.solution

        runs_new: dict[str, list[Run]] = {}
        gamma_new: list[InterfacePoint] = []
        for bid in working.branch_ids:
            runs, crossings = _classify_branch(
                working.nodes[bid], solution.flux[bid], threshold, settings.eps_gamma
            )
            runs_new[bid] = runs
            gamma_new.extend((bid, arc) for arc in crossings)
        gamma_tuple = tuple(gamma_new)

        distance = configuration_distance(gamma_tuple, gamma_prev)
        next_mesh = split_mesh_at(mesh, gamma_tuple)
        configuration = Configuration(
            regimes=_labels_on(next_mesh, runs_new),
            interfaces=gamma_tuple,
            iteration_index=i,
        )
        history.append(
            HistoryEntry(
                configuration=configuration,
                distance=distance,
                inner_iterations=last_result.iterations,
                inner_converged=last_result.converged,
                mixed=mixed,
            )
        )
        inner_counts.append(last_result.iterations)
        if snapshots is not None:
            snapshots.append(solution)

        sig = _signature(mesh, runs_new)
        same_labels = sig == signatures[-1]
        if distance <= eps_omega and same_labels:
            status = TrackerStatus.CONVERGED
            break

        period = _detect_period(signatures, sig, settings.oscillation_window)
        if period is not None:
            status = TrackerStatus.OSCILLATING
            break
        signatures.append(sig)

        # A residual needs an unchanged layout; after a label change it
        # starts a new mixing history.
        runs_next, gamma_next, mixed = runs_new, gamma_tuple, False
        layout = _layout(gamma_tuple)
        same_layout = layout == _layout(gamma_prev)
        if not (same_labels and same_layout):
            mixer.restart()
        if same_layout:
            image = _arcs(gamma_tuple)
            trial = mixer.step(image - _arcs(gamma_prev), image)
            if mixer.mixing:
                moved = _moved_runs(mesh, runs_new, layout, trial)
                if moved is not None and _signature(mesh, moved) == sig:
                    runs_next, mixed = moved, True
                    gamma_next = tuple(zip(layout, trial.tolist()))
                else:
                    mixer.restart(keep_last=True)
        runs_prev, gamma_prev = runs_next, gamma_next

    return TrackerReport(
        status=status,
        period=period if status == TrackerStatus.OSCILLATING else None,
        history=history,
        final_solution=last_result.solution,
        outer_iterations=len(history),
        inner_iteration_counts=inner_counts,
        snapshots=snapshots,
    )
