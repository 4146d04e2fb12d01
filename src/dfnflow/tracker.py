"""Free-interface tracking between the low- and high-speed regions.

The outer loop solves the flow problem on the current configuration, then
classifies every element by comparing the nodal speed magnitudes against the
threshold at its two endpoints. Where the endpoints disagree, the crossing of
the interpolated speed with the threshold is solved in closed form, the
base mesh is split there and the two sides inherit their endpoint's regime.
The loop stops when the configuration is stable, when it cycles, or at the
iteration cap. Stability means the interface point set moved less than a
tolerance between successive iterations and the per-base-element label
pattern is unchanged; the label test matters for configurations without any
interface, where regimes can still flip wholesale between iterations while
the (empty) interface sets sit at distance zero. Cycling means the label
pattern repeats with period two or more inside a sliding window.

A configuration (``Configuration``) is its change points (``_Changes``)
and the base mesh split at them. The change points are arrays over the flat
layout of ``Mesh``: the branch position and arc of every interface, in
element order, and the label at the start of every branch. They go to
``split_mesh_at`` as they are, always onto the base mesh, so the working
mesh is the base mesh plus the current interfaces and interface sets stay
comparable across iterations. Labels alternate at the interfaces, so the
label of an element on any mesh is its branch's first label flipped once
per interface below the element's midpoint; those counts come from one
``searchsorted`` on ``meshing.branch_keys``, which compare branch and arc
exactly. The label pattern compared between iterations is the bytes of the
labels of the base elements.

Near a self-consistent configuration the plain loop converges only
linearly, so the interface positions are Anderson-mixed (type II, the same
``AndersonMixer`` as the inner loop, keeping ``OUTER_MIXING_DEPTH``
differences; the plain loop, which solves on every classification in turn,
is kept as ``tests/oracles.py:plain_track``). Let γ be the
interface arcs in element order and G(γ) the arcs
classified from the solve on the configuration γ. A residual G(γ) − γ
exists while the number of interfaces on every branch stays the same;
mixing restarts whenever that layout or the per-base-element label pattern
changes. The mixed configuration takes G(γ)'s labels with their changes
moved to the mixed arcs. It is rejected in favour of G(γ) itself, keeping
only the last residual, when a mixed arc leaves its branch, the arcs of a
branch lose their strict order, G(γ) has an interface that separates no
two runs of positive length, or the label pattern changes; so the
cycling test still sees the patterns of plain steps only. The stop test is
unchanged: the interfaces classified from a solve lie within the tolerance
of those it was solved on, under an unchanged label pattern. A history
entry's ``distance`` is that fixed-point residual, and ``mixed`` marks the
iterations that solved on a mixed configuration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .fem import RegimeField, Solution
from .laws import AdaptiveLaw, Regime
from .meshing import Mesh, branch_keys, split_mesh_at
from .picard import AndersonMixer, PicardResult, PicardSettings, picard_solve

# Interface-position differences Anderson mixing keeps between outer
# iterations.
OUTER_MIXING_DEPTH = 3

# Longest label-pattern cycle, in outer iterations, reported as oscillating.
OSCILLATION_WINDOW = 6


@dataclass(frozen=True)
class TrackerSettings:
    """Tolerances of the outer loop.

    ``eps_omega`` bounds the arc length by which the interface set may move
    in the last outer iteration of a converged run. Its default, 1e-8, makes
    "converged" mean the configuration reproduced itself: interfaces can
    drift by less than the mesh size per iteration for many iterations before
    they settle, and a tolerance at the scale of the mesh stops such a drift
    part-way.
    """

    eps_omega: float = 1e-8
    max_outer: int = 50

    def __post_init__(self):
        if not self.eps_omega > 0:
            raise ValueError("configuration tolerance must be positive")
        if self.max_outer < 1:
            raise ValueError("need at least one outer iteration")


class TrackerStatus(enum.Enum):
    CONVERGED = "converged"
    OSCILLATING = "oscillating"
    MAX_ITERATIONS = "max-iterations"


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
    snapshots: list[Solution] | None = None

    @property
    def final_configuration(self) -> Configuration:
        return self.history[-1].configuration

    @property
    def outer_iterations(self) -> int:
        return len(self.history)

    @property
    def inner_iteration_counts(self) -> list[int]:
        return [entry.inner_iterations for entry in self.history]


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two sets of ``branch_keys``."""
    return max(_directed(a, b), _directed(b, a))


def _directed(p: np.ndarray, q: np.ndarray) -> float:
    """Largest arc distance from a point of p to the nearest point of q on its branch."""
    q = np.sort(q)
    above = np.searchsorted(q, p) + 1
    # pad with a key on no branch, so that the neighbours always exist
    q = np.concatenate([[complex(-1, 0)], q, [complex(-1, 0)]])
    nearest = np.full(len(p), math.inf)
    for j in (above - 1, above):
        gap = np.where(q[j].real == p.real, np.abs(p.imag - q[j].imag), math.inf)
        nearest = np.minimum(nearest, gap)
    return float(nearest.max(initial=0.0))


class _Changes(NamedTuple):
    """Where the labels change along every branch of a mesh.

    ``branch`` and ``arc`` locate the change points in element order, by
    branch and then along it; ``first`` is the label at the start of every
    branch, and the label flips at each change point. ``intact`` is False
    when a change point separates no two runs of positive length, because
    it meets the neighbouring one or the branch end at a node where the
    speed equals the threshold.
    """

    branch: np.ndarray
    arc: np.ndarray
    first: np.ndarray
    intact: bool = True

    def keys(self) -> np.ndarray:
        return branch_keys(self.branch, self.arc)


@dataclass(frozen=True, eq=False)
class Configuration:
    """Change points and the base mesh split at them; labels and interfaces are built on read."""

    changes: _Changes
    mesh: Mesh

    @cached_property
    def regimes(self) -> RegimeField:
        return RegimeField(self.mesh.per_element(_labels_on(self.mesh, self.changes)))

    @cached_property
    def interfaces(self) -> tuple[tuple[str, float], ...]:
        names = [self.mesh.branch_ids[k] for k in self.changes.branch.tolist()]
        return tuple(zip(names, self.changes.arc.tolist()))


def _classify(mesh: Mesh, flux: np.ndarray, threshold: float) -> _Changes:
    """The interfaces classified from a nodal flux on ``mesh``.

    An element whose ends classify differently holds one interface: the
    flux is linear on the element, so it crosses ±threshold, signed as the
    flux at the high-speed end, exactly once there, also where it changes
    sign inside the element.
    """
    low = np.abs(flux) < threshold
    left = mesh.left
    e = np.flatnonzero(low[left] != low[left + 1])
    start = left[e]
    x1, x2 = mesh.x[start], mesh.x[start + 1]
    u1, u2 = flux[start], flux[start + 1]
    level = np.copysign(threshold, np.where(low[start], u2, u1))
    arc = x1 + (level - u1) / (u2 - u1) * (x2 - x1)

    # A run between an interface and the next one, or the branch end, is
    # empty when both meet at the node between them.
    branch = mesh.element_branch[e]
    left_empty, right_empty = arc <= x1, x2 <= arc
    offset = mesh.element_offset
    empty = left_empty & (e == offset[branch])
    empty |= right_empty & (e == offset[branch + 1] - 1)
    adjacent = (np.diff(e) == 1) & (np.diff(branch) == 0)
    empty[1:] |= right_empty[:-1] & left_empty[1:] & adjacent
    first = np.where(low[mesh.node_offset[:-1]], Regime.LOW, Regime.HIGH).astype(np.int8)
    return _Changes(branch, arc, first, not empty.any())


def _labels_on(mesh: Mesh, changes: _Changes) -> np.ndarray:
    """The label of every element of ``mesh``, in mesh order.

    An element takes its branch's first label, flipped once for every
    change point strictly below its midpoint.
    """
    keys = np.sort(changes.keys())
    branch = mesh.element_branch
    below = np.searchsorted(keys, branch_keys(branch, mesh.midpoints))
    below -= np.searchsorted(keys.real, branch)
    return changes.first[branch] ^ (below & 1).astype(np.int8)


def _changes_of(mesh: Mesh, labels: np.ndarray) -> _Changes:
    """The change points of element labels: the nodes between unequal labels of a branch."""
    e = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    e = e[np.diff(mesh.element_branch)[e - 1] == 0]
    first = labels[mesh.element_offset[:-1]].astype(np.int8)
    return _Changes(mesh.element_branch[e], mesh.x[mesh.left[e]], first)


def _moved(mesh: Mesh, changes: _Changes, arcs: np.ndarray) -> _Changes | None:
    """The change points moved to ``arcs``, labels kept.

    None when the changes are not ``intact``, a point leaves its branch, or
    the points of a branch are not strictly increasing.
    """
    starts = np.diff(changes.branch, prepend=-1) != 0
    lower = np.where(starts, 0.0, np.concatenate([[0.0], arcs[:-1]]))
    inside = np.all(arcs > lower) and np.all(arcs < mesh.lengths[changes.branch])
    return changes._replace(arc=arcs) if changes.intact and inside else None


def _detect_period(signatures: list[bytes], new_sig: bytes, window: int) -> int | None:
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
    picard_settings: PicardSettings = PicardSettings(),
    settings: TrackerSettings = TrackerSettings(),
    initial: str | RegimeField = "low",
    trace: bool = False,
) -> TrackerReport:
    """Run the interface tracking loop on a base mesh.

    ``initial`` is "low", "high" or an explicit regime field on the base
    mesh. Boundary conditions and sources are taken from the meshed network.
    Solver errors propagate with the outer iteration index attached.
    """
    if isinstance(initial, RegimeField):
        start_labels = initial.on(mesh)
        for r in sorted(set(start_labels.tolist())):
            Regime(r)  # raises ValueError for a label that is no regime
    elif initial in ("low", "high"):
        regime = Regime.LOW if initial == "low" else Regime.HIGH
        start_labels = np.full(mesh.total_elements, regime, dtype=np.int8)
    else:
        raise ValueError(f"unknown initial configuration {initial!r}")

    # the change points to solve on next, and those solved on last
    changes = _changes_of(mesh, start_labels)
    solved = changes._replace(branch=changes.branch[:0], arc=changes.arc[:0])
    signatures = [_labels_on(mesh, changes).tobytes()]

    mixer = AndersonMixer(OUTER_MIXING_DEPTH)
    mixed = False

    history: list[HistoryEntry] = []
    snapshots: list[Solution] | None = [] if trace else None
    status = TrackerStatus.MAX_ITERATIONS
    period: int | None = None
    last_result: PicardResult | None = None

    for i in range(1, settings.max_outer + 1):
        working = Configuration(changes, split_mesh_at(mesh, changes.branch, changes.arc))
        try:
            last_result = picard_solve(working.mesh, working.regimes, law, picard_settings)
        except Exception as exc:
            # prefix the message in place: the error keeps its type and
            # attributes whatever arguments its constructor takes
            exc.args = (f"outer iteration {i}: {exc}",)
            raise
        solution = last_result.solution

        new = _classify(working.mesh, solution.flux.array, law.threshold)
        distance = _distance(new.keys(), solved.keys())
        history.append(
            HistoryEntry(
                configuration=Configuration(new, split_mesh_at(mesh, new.branch, new.arc)),
                distance=distance,
                inner_iterations=last_result.iterations,
                inner_converged=last_result.converged,
                mixed=mixed,
            )
        )
        if snapshots is not None:
            snapshots.append(solution)

        sig = _labels_on(mesh, new).tobytes()
        same_labels = sig == signatures[-1]
        if distance <= settings.eps_omega and same_labels:
            status = TrackerStatus.CONVERGED
            break

        period = _detect_period(signatures, sig, OSCILLATION_WINDOW)
        if period is not None:
            status = TrackerStatus.OSCILLATING
            break
        signatures.append(sig)

        # A residual needs an unchanged layout; after a label change it
        # starts a new mixing history.
        changes, mixed = new, False
        same_layout = np.array_equal(new.branch, solved.branch)
        if not (same_labels and same_layout):
            mixer.restart()
        if same_layout:
            trial = mixer.step(new.arc - solved.arc, new.arc)
            if mixer.mixing:
                moved = _moved(mesh, new, trial)
                if moved is not None and _labels_on(mesh, moved).tobytes() == sig:
                    changes, mixed = moved, True
                else:
                    mixer.restart(keep_last=True)
        solved = changes

    return TrackerReport(
        status=status,
        period=period,
        history=history,
        final_solution=last_result.solution,
        snapshots=snapshots,
    )
