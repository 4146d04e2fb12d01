"""Fracture-network geometry and problem data.

A network is a collection of straight 1D branches embedded in the plane.
Branches meet only endpoint-to-endpoint at named intersections; a crossing in
the middle of a fracture must be represented by splitting the fracture into
two branches beforehand. Every branch end that is not part of an intersection
is a boundary end and must carry exactly one boundary condition.

All PDE data live in arc-length coordinates along each branch; the ambient
coordinates are used for geometry validation, presets and export only.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Union

import numpy as np

COINCIDENCE_TOL = 1e-12

START = "start"
END = "end"

#: A branch end is addressed by (branch id, "start" | "end").
BranchEnd = tuple[str, str]


@dataclass(frozen=True)
class Branch:
    """Straight fracture branch between two distinct points in the plane."""

    id: str
    start: tuple[float, float]
    end: tuple[float, float]

    @cached_property
    def length(self) -> float:
        return math.hypot(self.end[0] - self.start[0], self.end[1] - self.start[1])


@dataclass(frozen=True)
class Intersection:
    """Junction where two or more branch ends meet at a single point."""

    id: str
    point: tuple[float, float]
    incident: tuple[BranchEnd, ...]


@dataclass(frozen=True)
class VelocityBC:
    """Prescribed signed outward flux u·n at a boundary end."""

    outflux: float


@dataclass(frozen=True)
class PressureBC:
    """Prescribed pressure at a boundary end."""

    pressure: float


BoundaryCondition = Union[VelocityBC, PressureBC]


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary conditions per free branch end plus the optional pressure mean.

    Pressure is determined only up to a constant on a connected part of the
    network without a pressure condition. ``mean_pressure`` fixes the average
    over the network, which must then be connected and hold no pressure
    condition.
    """

    conditions: Mapping[BranchEnd, BoundaryCondition] = field(default_factory=dict)
    mean_pressure: float | None = None

    def condition_at(self, branch_id: str, which: str) -> BoundaryCondition | None:
        return self.conditions.get((branch_id, which))


#: A source piece is either a constant rate or a callable of arc coordinate.
ScalarPiece = Union[float, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class PiecewiseSource:
    """Piecewise scalar source along one branch.

    ``breakpoints`` are strictly increasing arc coordinates in the open
    interval (0, L); ``pieces`` has one entry more than ``breakpoints`` and
    gives the rate on each subinterval, as a constant or a callable evaluated
    pointwise on arc coordinates.
    """

    breakpoints: tuple[float, ...] = ()
    pieces: tuple[ScalarPiece, ...] = (0.0,)

    def __post_init__(self):
        if len(self.pieces) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one more piece than breakpoints")
        if any(b >= a for a, b in zip(self.breakpoints[1:], self.breakpoints)):
            raise ValueError("breakpoints must be strictly increasing")

    def __call__(self, arc: np.ndarray) -> np.ndarray:
        arc = np.asarray(arc, dtype=float)
        out = np.empty_like(arc)
        which = np.searchsorted(np.asarray(self.breakpoints), arc, side="left")
        for k, piece in enumerate(self.pieces):
            mask = which == k
            if not mask.any():
                continue
            if callable(piece):
                out[mask] = piece(arc[mask])
            else:
                out[mask] = piece
        return out


ZERO_SOURCE = PiecewiseSource()


@dataclass(frozen=True)
class SourceSpec:
    """Scalar mass source per branch and a constant ambient body force.

    The force vector is projected onto each branch tangent when a mesh is
    built; only the tangential component acts on a 1D branch.
    """

    scalar: Mapping[str, PiecewiseSource] = field(default_factory=dict)
    force: tuple[float, float] = (0.0, 0.0)

    def scalar_for(self, branch_id: str) -> PiecewiseSource:
        return self.scalar.get(branch_id, ZERO_SOURCE)


@dataclass(frozen=True, eq=False)
class SourcePieces:
    """The scalar source pieces of all branches of a network, numbered in one table.

    ``breaks`` holds every source breakpoint as a (branch position, arc)
    complex key, sorted. A point on branch k lies in piece ``base[k]`` plus
    the number of keys below its own key; ``sourced[k]`` marks the branches
    with a source. ``rate`` is the constant rate of every piece, nan for a
    callable one, then 0.0 for elements without a source; ``callables``
    pairs each callable piece with its number. Compares by identity.
    """

    breaks: np.ndarray
    base: np.ndarray
    sourced: np.ndarray
    rate: np.ndarray
    callables: tuple[tuple[int, Callable[[np.ndarray], np.ndarray]], ...]


class SingularSystemError(RuntimeError):
    """Raised when the saddle system is singular or numerically unsolvable."""


@dataclass(frozen=True, eq=False)
class BoundaryPlan:
    """The boundary data of a network per vertex, and the unknowns they leave.

    Per vertex of ``end_vertex``, ``velocity`` marks velocity conditions,
    ``outflux`` holds their data and ``vertex_pressure`` that of pressure
    conditions (zero at the vertex grounded when ``mean_pressure`` is set).
    ``at`` numbers each branch end among the ``unknown`` vertices, -1 if
    known, and ``free`` marks the numbered ends. ``entry`` is the flat index
    in the reduced matrix of the entries of each branch's 2 x 2 conductance
    block that ``inside`` marks: those coupling two unknowns. ``known_drop``
    is each branch's known end pressure minus its start one. Compares by identity.
    """

    velocity: np.ndarray
    outflux: np.ndarray
    vertex_pressure: np.ndarray
    unknown: np.ndarray
    known_drop: np.ndarray
    at: np.ndarray
    free: np.ndarray
    inside: np.ndarray
    entry: np.ndarray
    mean_pressure: float | None


@dataclass(frozen=True)
class FractureNetwork:
    """A 1D fracture network with boundary conditions and sources."""

    branches: tuple[Branch, ...]
    intersections: tuple[Intersection, ...] = ()
    boundary: BoundarySpec = field(default_factory=BoundarySpec)
    sources: SourceSpec = field(default_factory=SourceSpec)

    @cached_property
    def branch_index(self) -> dict[str, int]:
        """Position of each branch id in ``branches`` (its first, if repeated)."""
        return {b.id: k for k, b in reversed(list(enumerate(self.branches)))}

    def branch(self, branch_id: str) -> Branch:
        return self.branches[self.branch_index[branch_id]]

    @cached_property
    def branch_ids(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.branches)

    @cached_property
    def junction_ends(self) -> frozenset[BranchEnd]:
        return frozenset(e for isec in self.intersections for e in isec.incident)

    @cached_property
    def junction_incidence(self) -> np.ndarray:
        """Every branch end at an intersection, in ``intersections`` order.

        One row each: the branch position, 1 for the branch's "end" and 0 for
        its "start", and the position of the intersection.
        """
        rows = [
            (self.branch_index[bid], which == END, j)
            for j, isec in enumerate(self.intersections)
            for bid, which in isec.incident
        ]
        return np.array(rows, dtype=np.intp).reshape(-1, 3)

    @cached_property
    def end_vertex(self) -> np.ndarray:
        """Vertex of the start and of the end of every branch, one row each.

        Intersection ``j`` is vertex ``j``; every free end is a vertex of its
        own, numbered after the intersections in branch order, start first.
        """
        vertex = np.full((len(self.branches), 2), -1, dtype=np.intp)
        k, at_end, owner = self.junction_incidence.T
        vertex[k, at_end] = owner
        free = vertex < 0
        vertex[free] = len(self.intersections) + np.arange(np.count_nonzero(free))
        return vertex

    @cached_property
    def vertex_component(self) -> np.ndarray:
        """Connected component of every vertex, the branches being the edges.

        Components are numbered from 0 in the order of their lowest vertex.
        """
        parent = list(range(int(self.end_vertex.max()) + 1))

        def root(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in self.end_vertex.tolist():
            parent[root(a)] = root(b)
        return np.unique([root(v) for v in range(len(parent))], return_inverse=True)[1]

    @cached_property
    def boundary_plan(self) -> BoundaryPlan:
        """The boundary data of every vertex and the unknown pressures.

        A free end without a condition keeps the natural condition, zero
        pressure. Raises ``SingularSystemError`` when a condition sits on an
        intersection, when ``mean_pressure`` is set beside a pressure
        condition, or when the pressure level of some connected part is not
        fixed: the part has no pressure condition, and ``mean_pressure`` is
        unset or, the network not being connected, cannot fix every part.
        """
        bcs = self.boundary
        vertex, component = self.end_vertex, self.vertex_component
        n_vertices, n_junctions = len(component), len(self.intersections)
        velocity = np.zeros(n_vertices, dtype=bool)
        outflux, vertex_pressure = np.zeros(n_vertices), np.zeros(n_vertices)
        for (bid, which), bc in bcs.conditions.items():
            v = vertex[self.branch_index[bid], int(which == END)]
            if v < n_junctions:
                raise SingularSystemError(
                    f"branch end ({bid!r}, {which}) is both at an intersection and "
                    "boundary-constrained"
                )
            if isinstance(bc, VelocityBC):
                velocity[v], outflux[v] = True, bc.outflux
            else:
                vertex_pressure[v] = bc.pressure

        # Every component needs a known pressure. The mean anchor, allowed
        # only without a pressure condition anywhere, fixes one level, so it
        # needs a connected network, and grounds one vertex.
        known = ~velocity
        known[:n_junctions] = False
        has_mean = bcs.mean_pressure is not None
        if has_mean and known.any():
            raise SingularSystemError(
                "mean_pressure is set, but a pressure condition fixes the level"
            )
        anchored = np.zeros(component.max() + 1, dtype=bool)
        anchored[component[known]] = True
        if has_mean:
            anchored[0] = len(anchored) == 1
            known[0] = True
        if not anchored.all():
            k = int(np.argmax(~anchored[component[vertex[:, 0]]]))
            raise SingularSystemError(
                f"the pressure level of the part of the network holding branch "
                f"{self.branch_ids[k]!r} is undetermined: "
                + ("the mean-pressure constraint fixes one level, but the network "
                   "is not connected" if has_mean else "it has no pressure condition")
            )
        unknown = np.flatnonzero(~known)
        at = np.where(known, -1, np.cumsum(~known) - 1)[vertex]
        rows, cols = at[:, [0, 0, 1, 1]], at[:, [0, 1, 0, 1]]
        inside = (rows >= 0) & (cols >= 0)
        return BoundaryPlan(
            velocity=velocity,
            outflux=outflux,
            vertex_pressure=vertex_pressure,
            unknown=unknown,
            known_drop=vertex_pressure[vertex[:, 1]] - vertex_pressure[vertex[:, 0]],
            at=at,
            free=at >= 0,
            inside=inside,
            entry=rows[inside] * len(unknown) + cols[inside],
            mean_pressure=bcs.mean_pressure,
        )

    @cached_property
    def source_pieces(self) -> SourcePieces:
        """The pieces of ``sources.scalar``, the table every mesh integrates from."""
        first = np.full(len(self.branches), -1)
        breaks, pieces = [], []
        for bid, src in self.sources.scalar.items():
            k = self.branch_index[bid]
            first[k] = len(pieces)
            breaks += [complex(k, bp) for bp in src.breakpoints]
            pieces += src.pieces
        breaks = np.sort(np.array(breaks, dtype=complex))
        return SourcePieces(
            breaks=breaks,
            base=first - np.searchsorted(breaks.real, np.arange(len(first))),
            sourced=first >= 0,
            rate=np.array([np.nan if callable(p) else p for p in pieces] + [0.0]),
            callables=tuple((j, p) for j, p in enumerate(pieces) if callable(p)),
        )

    @cached_property
    def total_length(self) -> float:
        return sum(b.length for b in self.branches)

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """Every structural violation of the network, found once; see ``validate_network``."""
        return _find_violations(self)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str) -> None:
        self.violations.append(Violation(code, message))

    def __str__(self) -> str:
        if self.ok:
            return "network is well-formed"
        return "\n".join(f"[{v.code}] {v.message}" for v in self.violations)


def validate_network(network: FractureNetwork) -> ValidationReport:
    """A fresh report of every structural violation of the network invariants.

    The report is empty exactly when the network is well-formed: unique
    branch and intersection ids, finite data, positive branch lengths,
    coincident intersection points, each branch end listed at most once by
    all intersections together, each free end carrying one boundary
    condition, and a determined pressure level. The last is checked only on
    an otherwise well-formed network, by building its ``boundary_plan``; its
    error is reported as ``pressure-level``. Every comparison fails on NaN,
    so each test is written to report it.

    The verdict belongs to the network object: its first validation runs the
    checks and ``network.violations`` keeps them, so parsing and every mesh
    build of one object check it once. As with ``boundary_plan``, a mapping
    of the network mutated after that is not re-checked.
    """
    return ValidationReport(list(network.violations))


def _find_violations(network: FractureNetwork) -> tuple[Violation, ...]:
    report = ValidationReport()

    ids = network.branch_ids
    for kind, names in (("branch", ids), ("intersection", [i.id for i in network.intersections])):
        for dup, count in Counter(names).items():
            if count > 1:
                report.add(f"duplicate-{kind}", f"{kind} id {dup!r} appears more than once")

    for b in network.branches:
        if not math.isfinite(b.length):
            report.add(
                "non-finite",
                f"the length of branch {b.id!r} from {b.start} to {b.end} is {b.length}",
            )
        elif not b.length > COINCIDENCE_TOL:
            report.add("zero-length", f"branch {b.id!r} has zero length")

    known = set(ids)
    end_use: dict[BranchEnd, list[str]] = {}
    for isec in network.intersections:
        if len(set(isec.incident)) < 2:
            report.add(
                "lonely-intersection",
                f"intersection {isec.id!r} has fewer than 2 distinct incident branch ends",
            )
        for bid, which in isec.incident:
            end_use.setdefault((bid, which), []).append(isec.id)
            if bid not in known:
                report.add(
                    "unknown-branch",
                    f"intersection {isec.id!r} references unknown branch {bid!r}",
                )
                continue
            if which not in (START, END):
                report.add(
                    "unknown-end",
                    f"intersection {isec.id!r} references unknown end {which!r} "
                    f"of branch {bid!r}",
                )
                continue
            branch = network.branch(bid)
            point = branch.start if which == START else branch.end
            dist = math.hypot(point[0] - isec.point[0], point[1] - isec.point[1])
            if not dist <= COINCIDENCE_TOL:
                report.add(
                    "non-coincident",
                    f"end ({bid!r}, {which}) lies {dist:.3e} away from "
                    f"intersection {isec.id!r}",
                )
    for end, listed_by in end_use.items():
        if len(listed_by) > 1:
            report.add(
                "multiple-intersections",
                f"branch end {end} is listed {len(listed_by)} times, by intersections "
                + ", ".join(map(repr, listed_by)),
            )

    junctions = network.junction_ends
    for b in network.branches:
        for which in (START, END):
            end = (b.id, which)
            bc = network.boundary.condition_at(*end)
            if end in junctions:
                if bc is not None:
                    report.add(
                        "bc-at-junction",
                        f"branch end {end} is at an intersection but carries a "
                        "boundary condition",
                    )
            elif bc is None:
                report.add(
                    "unclosed-boundary",
                    f"branch end {end} has neither an intersection nor a "
                    "boundary condition",
                )
    bcs = network.boundary
    for end, bc in bcs.conditions.items():
        bid, which = end
        if bid not in known or which not in (START, END):
            report.add("unknown-end", f"boundary condition on unknown end {end}")
        value = bc.outflux if isinstance(bc, VelocityBC) else bc.pressure
        if not math.isfinite(value):
            report.add("non-finite", f"the boundary condition at {end} is {value}")
    if bcs.mean_pressure is not None and not math.isfinite(bcs.mean_pressure):
        report.add("non-finite", f"mean_pressure is {bcs.mean_pressure}")
    for axis, value in zip("xy", network.sources.force):
        if not math.isfinite(value):
            report.add("non-finite", f"the body force's {axis} component is {value}")

    for bid, src in network.sources.scalar.items():
        if bid not in known:
            report.add("unknown-branch", f"source attached to unknown branch {bid!r}")
            continue
        for k, piece in enumerate(src.pieces):
            if not (callable(piece) or math.isfinite(piece)):
                report.add(
                    "non-finite", f"the rate of source piece {k} on branch {bid!r} is {piece}"
                )
        length = network.branch(bid).length
        for bp in src.breakpoints:
            if not (0.0 < bp < length):
                report.add(
                    "breakpoint-range",
                    f"source breakpoint {bp} on branch {bid!r} outside (0, {length})",
                )

    if report.ok:
        try:
            network.boundary_plan
        except SingularSystemError as exc:
            report.add("pressure-level", str(exc))
    return tuple(report.violations)
