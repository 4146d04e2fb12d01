"""Lowest-order mixed finite elements on a meshed fracture network.

The flux is node-continuous and piecewise linear per branch (the 1D trace of
the lowest-order Raviart-Thomas space), the pressure is constant per element,
and every intersection carries one pressure whose equation is the junction
mass balance. When no pressure condition exists anywhere, a multiplier μ
pins the mean pressure. The law coefficient λ is frozen per element at a
caller-supplied speed, which is what the fixed-point linearization of the
nonlinear problem requires.

The mixed system is solved exactly by static condensation, without forming
it. Its element mass rows make the flux on branch b one constant plus a known
profile, u = c_b + W + μx, W being the source integral from the branch start
and x the arc coordinate. Summing the branch's flux rows telescopes its
element pressures away and leaves

    P_end − P_start = F_b − R_b c_b − Q_b,

with R_b = Σ λ_e h_e, F_b the body force times the length and Q_b the λ-weighted
integral of W + μx. Substituting c_b into the junction balances and velocity
conditions leaves a symmetric positive definite system on the unknown vertex
pressures: intersections and velocity-condition ends. It is the Laplacian of a
resistor network with conductances 1/R_b; pressure-condition ends are known,
and μ follows from global mass balance. ``assemble`` builds that small system
and ``solve_saddle`` solves it densely, recovers the fluxes and then the
element pressures by cumulative sums along each branch, and checks the
residual of every mixed equation. Per-node and per-element data are single
arrays over all branches, in the flat layout of ``Mesh``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .laws import AdaptiveLaw, Regime, eval_lambda_coefficient
from .meshing import Mesh, branch_keys
from .network import (
    END,
    START,
    BoundarySpec,
    Branch,
    PressureBC,
    SourceSpec,
    VelocityBC,
)

_GAUSS5 = np.polynomial.legendre.leggauss(5)

RESIDUAL_TOL = 1e-10

# Outward sign of the start and of the end of a branch.
_END_SIGN = np.array([-1.0, 1.0])


class SingularSystemError(RuntimeError):
    """Raised when the saddle system is singular or numerically unsolvable."""


@dataclass(frozen=True)
class RegimeField:
    """Low/high regime label for every element of a mesh."""

    labels: Mapping[str, np.ndarray]

    @staticmethod
    def uniform(mesh: Mesh, regime: Regime) -> "RegimeField":
        return RegimeField(
            mesh.per_element(np.full(mesh.total_elements, int(regime), dtype=np.int8))
        )

    def on(self, mesh: Mesh) -> np.ndarray:
        """The label of every element of ``mesh``, in mesh order.

        Raises ``ValueError`` when the labels do not match the mesh.
        """
        return mesh.flat_elements(self.labels, "regime labels")


def source_integrals(mesh: Mesh, sources: SourceSpec) -> np.ndarray:
    """Integral of the scalar source over every element, in mesh order.

    Constant pieces integrate exactly; callable pieces use a 5-point Gauss
    rule per element. Breakpoints are mesh nodes by construction, so every
    element lies inside a single piece.
    """
    # Number the pieces of all sourced branches in one table; an element's
    # piece is its branch's first plus the breakpoints below its midpoint.
    index = mesh.network.branch_index
    first = np.full(len(index), -1)
    breaks, pieces = [], []
    for bid, src in sources.scalar.items():
        k = index[bid]
        first[k] = len(pieces)
        breaks += [complex(k, bp) for bp in src.breakpoints]
        pieces += src.pieces
    breaks = np.sort(np.array(breaks, dtype=complex))
    branch = mesh.element_branch
    below = np.searchsorted(breaks, branch_keys(branch, mesh.midpoints))
    piece = first[branch] + below - np.searchsorted(breaks.real, branch)
    sourced = first[branch] >= 0

    a, b = mesh.x[mesh.left], mesh.x[mesh.left + 1]
    rate = np.array([np.nan if callable(p) else p for p in pieces] + [0.0])
    out = rate[np.where(sourced, piece, -1)] * (b - a)
    pts, wts = _GAUSS5
    for j, p in enumerate(pieces):
        if callable(p):
            sel = np.flatnonzero(sourced & (piece == j))
            half = 0.5 * (b[sel] - a[sel])
            xs = half[:, None] * pts + 0.5 * (a[sel] + b[sel])[:, None]
            out[sel] = half * (p(xs.ravel()).reshape(xs.shape) @ wts)
    return out


def lift_pressure_data(bcs: BoundarySpec, branch: Branch) -> float:
    """Tangential gradient of the linear extension of pressure boundary data.

    With pressure data at both ends the extension interpolates linearly and
    the gradient is the end-to-end difference over the length; with data at
    one end the constant extension has zero gradient (the constant itself is
    absorbed into the pressure level). The energy oracle subtracts this
    gradient from the body force so that its stationary points coincide with
    the mixed solves, which impose the same data as natural boundary terms.
    """
    p_start = bcs.condition_at(branch.id, START)
    p_end = bcs.condition_at(branch.id, END)
    if isinstance(p_start, PressureBC) and isinstance(p_end, PressureBC):
        return (p_end.pressure - p_start.pressure) / branch.length
    return 0.0


@dataclass
class SaddleSystem:
    """The mixed system of one configuration, condensed onto vertex pressures.

    Vertices are numbered as in ``network.end_vertex``. ``matrix`` and
    ``rhs`` are the reduced system on the vertices listed in ``unknown``;
    every other vertex has its pressure in ``vertex_pressure``: the data of
    a pressure condition, or zero for the vertex grounded under the mean
    anchor, whose pressures are shifted afterwards. ``outflux`` holds the
    outward flux that a velocity condition prescribes, at the vertices that
    ``velocity`` marks. Per branch, the flux constant is
    ``(drive - P_end + P_start) / resistance`` and is added to ``profile``
    at every node, the source integral from the branch start plus ``mu``
    times the arc coordinate. ``coefficient`` is the frozen λ and ``source``
    the source integral of every element. ``size`` is the dimension of the
    mixed system: free node fluxes, element and junction pressures and the
    multiplier.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    mesh: Mesh
    size: int
    coefficient: np.ndarray
    source: np.ndarray
    unknown: np.ndarray
    vertex_pressure: np.ndarray
    velocity: np.ndarray
    outflux: np.ndarray
    resistance: np.ndarray
    drive: np.ndarray
    profile: np.ndarray
    mu: float
    mean_pressure: float | None


@dataclass
class Solution:
    """Discrete flux/pressure pair on a mesh.

    ``flux[b][i]`` is the signed flux along the tangent of branch ``b`` at its
    node ``i``; ``pressure[b][e]`` the constant pressure of element ``e``.
    Junction pressures carry one value per intersection. A solve returns
    ``flux`` and ``pressure`` as ``BranchArrays`` views of arrays over all
    nodes and all elements of the mesh.
    """

    mesh: Mesh
    flux: Mapping[str, np.ndarray]
    pressure: Mapping[str, np.ndarray]
    junction_pressure: dict[str, float]
    residual: float
    junction_implied: dict[str, list[float]] = field(default_factory=dict, repr=False)

    def junction_continuity_defect(self) -> float:
        """Largest spread among the per-branch implied junction pressures."""
        spreads = [max(v) - min(v) for v in self.junction_implied.values() if v]
        return max(spreads, default=0.0)

    def midpoint_speeds(self) -> dict[str, np.ndarray]:
        return {
            b: np.abs(0.5 * (u[:-1] + u[1:])) for b, u in self.flux.items()
        }

    def stacked(self) -> np.ndarray:
        parts = [self.flux[b] for b in self.mesh.branch_ids]
        parts += [self.pressure[b] for b in self.mesh.branch_ids]
        parts += [
            np.array([self.junction_pressure[i.id]])
            for i in self.mesh.network.intersections
        ]
        return np.concatenate(parts) if parts else np.zeros(0)


FrozenSpeed = Union[float, Mapping[str, np.ndarray]]


def _element_speeds(mesh: Mesh, frozen_speed: FrozenSpeed) -> np.ndarray:
    if not isinstance(frozen_speed, Mapping):
        return np.full(mesh.total_elements, float(frozen_speed))
    return np.asarray(mesh.flat_elements(frozen_speed, "frozen speeds"), dtype=float)


def assemble(
    mesh: Mesh,
    regimes: RegimeField,
    law: AdaptiveLaw,
    frozen_speed: FrozenSpeed,
    sources: SourceSpec,
    bcs: BoundarySpec,
) -> SaddleSystem:
    """Condense the mixed system of a fixed configuration and frozen speeds.

    Velocity conditions hold the flux at their node; pressure conditions
    enter the flux equations as natural boundary terms. The flux-mass block
    integrates coefficient times the linear basis pair exactly, with the
    coefficient constant per element at the frozen speed. Raises
    ``SingularSystemError`` when the pressure level of some part of the
    network is not fixed, or a coefficient is not positive.
    """
    labels = regimes.on(mesh)
    if not bcs.has_pressure_bc and bcs.mean_pressure is None:
        raise SingularSystemError(
            "no pressure anchor: the problem has no pressure boundary condition "
            "and no mean-pressure constraint"
        )
    net = mesh.network
    branch_of = mesh.element_branch
    left = mesh.left
    coeff = eval_lambda_coefficient(law, _element_speeds(mesh, frozen_speed), labels)
    bad = np.flatnonzero(coeff <= 0.0)
    if bad.size:
        k = int(branch_of[bad[0]])
        raise SingularSystemError(
            f"degenerate law coefficient {float(coeff[bad[0]])} on element "
            f"{int(bad[0] - mesh.element_offset[k])} of branch {mesh.branch_ids[k]!r}"
        )

    # Boundary data per vertex. A free end without a condition keeps the
    # natural condition of the mixed form, zero pressure.
    vertex, component = net.end_vertex, net.vertex_component
    n_vertices, n_junctions = len(component), len(net.intersections)
    ends, conditions = list(bcs.conditions), list(bcs.conditions.values())
    index = net.branch_index
    where = vertex[
        np.array([index[bid] for bid, _ in ends], dtype=np.intp),
        np.array([which == END for _, which in ends], dtype=np.intp),
    ]
    if np.any(where < n_junctions):
        bid, which = ends[int(np.argmax(where < n_junctions))]
        raise SingularSystemError(
            f"branch end ({bid!r}, {which}) is both at an intersection and "
            "boundary-constrained"
        )
    is_velocity = np.array([isinstance(bc, VelocityBC) for bc in conditions], dtype=bool)
    data = [bc.outflux if v else bc.pressure for bc, v in zip(conditions, is_velocity)]
    data = np.array(data, dtype=float)
    velocity = np.zeros(n_vertices, dtype=bool)
    velocity[where[is_velocity]] = True
    outflux = np.zeros(n_vertices)
    outflux[where[is_velocity]] = data[is_velocity]
    vertex_pressure = np.zeros(n_vertices)
    vertex_pressure[where[~is_velocity]] = data[~is_velocity]

    # Every component needs a known pressure; the mean anchor fixes one
    # level, so it needs a connected network, and grounds one vertex.
    known = ~velocity
    known[:n_junctions] = False
    has_mean = not bcs.has_pressure_bc
    anchored = np.zeros(component.max() + 1, dtype=bool)
    anchored[component[known]] = True
    if has_mean:
        anchored[0] = len(anchored) == 1
        known[0] = True
    if not anchored.all():
        k = int(np.argmax(~anchored[component[vertex[:, 0]]]))
        raise SingularSystemError(
            f"the pressure level of the part of the network holding branch "
            f"{mesh.branch_ids[k]!r} is undetermined: "
            + ("the mean-pressure constraint fixes one level, but the network "
               "is not connected" if has_mean else "it has no pressure condition")
        )
    unknown = np.flatnonzero(~known)

    # The flux profile on each branch: source integral from its start, plus
    # mu times the arc coordinate, mu balancing all sources and outfluxes.
    source = source_integrals(mesh, sources)
    profile = np.zeros(len(mesh.x))
    profile[left + 1] = source
    profile = np.cumsum(profile)
    profile -= profile[mesh.node_offset[:-1]][mesh.node_branch]
    mu = 0.0
    if has_mean:
        mu = (outflux.sum() - source.sum()) / net.total_length
        profile += mu * mesh.x
    weight = coeff * mesh.element_lengths
    n_branches = len(mesh.force)
    resistance = np.bincount(branch_of, weight, minlength=n_branches)
    drive = mesh.force * mesh.lengths - np.bincount(
        branch_of, weight * 0.5 * (profile[left] + profile[left + 1]), minlength=n_branches
    )

    # Junction balance or velocity condition at each unknown vertex; one
    # branch contributes its conductance to each pair of its unknown ends,
    # branch by branch, so the matrix comes out exactly symmetric.
    number = np.full(n_vertices, -1)
    number[unknown] = np.arange(len(unknown))
    at = number[vertex]
    known_drop = vertex_pressure[vertex] @ _END_SIGN
    end_rhs = _END_SIGN * (
        ((drive - known_drop) / resistance)[:, None] + profile[mesh.end_nodes]
    )
    n = len(unknown)
    free = at >= 0
    rhs = np.bincount(at[free], end_rhs[free], minlength=n) - outflux[unknown]
    rows, cols = at[:, [0, 0, 1, 1]], at[:, [0, 1, 0, 1]]
    conductance = np.array([1.0, -1.0, -1.0, 1.0]) / resistance[:, None]
    inside = (rows >= 0) & (cols >= 0)
    matrix = np.bincount(
        rows[inside] * n + cols[inside], conductance[inside], minlength=n * n
    ).reshape(n, n)

    n_free_nodes = len(mesh.x) - int(np.count_nonzero(velocity))
    return SaddleSystem(
        matrix=matrix,
        rhs=rhs,
        mesh=mesh,
        size=n_free_nodes + mesh.total_elements + n_junctions + has_mean,
        coefficient=coeff,
        source=source,
        unknown=unknown,
        vertex_pressure=vertex_pressure,
        velocity=velocity,
        outflux=outflux,
        resistance=resistance,
        drive=drive,
        profile=profile,
        mu=mu,
        mean_pressure=bcs.mean_pressure if has_mean else None,
    )


def solve_saddle(system: SaddleSystem) -> Solution:
    """Solve the condensed system and recover the mixed solution.

    Raises ``SingularSystemError`` when the reduced solve fails or the
    relative residual of the mixed equations exceeds 1e-10; in that case a
    condition estimate of the reduced matrix is attached to the message.
    When the mean-pressure constraint is active, the reported pressures are
    shifted so their length-weighted mean equals the prescribed value.
    """
    pressure_at = system.vertex_pressure.copy()
    if len(system.unknown):
        try:
            pressure_at[system.unknown] = np.linalg.solve(system.matrix, system.rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(_diagnose(system, str(exc))) from exc

    mesh = system.mesh
    vertex = mesh.network.end_vertex
    constant = (system.drive - pressure_at[vertex] @ _END_SIGN) / system.resistance
    flux = constant[mesh.node_branch] + system.profile
    # Each flux row gives the pressure step from one element to the next;
    # summing them from the branch start gives every element pressure.
    rows = _flux_rows(system, flux)
    total = np.concatenate([[0.0], np.cumsum(rows)])
    start = pressure_at[vertex[:, 0]] + total[mesh.node_offset[:-1]]
    pressure = start[mesh.element_branch] - total[mesh.left + 1]
    if system.mean_pressure is not None:
        weighted = np.dot(pressure, mesh.element_lengths) / mesh.network.total_length
        pressure += system.mean_pressure - weighted
        pressure_at += system.mean_pressure - weighted

    residual = _residual(system, flux, rows, pressure, pressure_at)
    if not residual <= RESIDUAL_TOL:
        raise SingularSystemError(
            _diagnose(system, f"relative residual {residual:.3e} exceeds {RESIDUAL_TOL}")
        )
    intersections = mesh.network.intersections
    solution = Solution(
        mesh=mesh,
        flux=mesh.per_node(flux),
        pressure=mesh.per_element(pressure),
        junction_pressure=dict(
            zip([i.id for i in intersections], pressure_at[: len(intersections)].tolist())
        ),
        residual=residual,
    )
    if intersections:
        solution.junction_implied = implied_junction_pressures(system, solution)
    return solution


def _flux_rows(system: SaddleSystem, flux: np.ndarray) -> np.ndarray:
    """The flux row of every node without its pressure terms.

    That is the flux-mass product minus half the body force of each element
    at the node; the pressure terms bring the row to zero.
    """
    mesh = system.mesh
    left = mesh.left
    h = mesh.element_lengths
    m = system.coefficient * h / 6.0
    half_force = mesh.force[mesh.element_branch] * h / 2.0
    u_left, u_right = flux[left], flux[left + 1]
    n_nodes = len(mesh.x)
    return np.bincount(
        left, m * (2.0 * u_left + u_right) - half_force, minlength=n_nodes
    ) + np.bincount(left + 1, m * (u_left + 2.0 * u_right) - half_force, minlength=n_nodes)


def _residual(
    system: SaddleSystem,
    flux: np.ndarray,
    flux_rows: np.ndarray,
    pressure: np.ndarray,
    pressure_at: np.ndarray,
) -> float:
    """Largest residual of the mixed equations, relative to their data.

    Checks the flux row of every node without a velocity condition, the mass
    balance of every element, the balance at every intersection and every
    velocity condition. The mean of the pressures is set by the shift.
    """
    mesh = system.mesh
    net = mesh.network
    left = mesh.left
    vertex, ends = net.end_vertex, mesh.end_nodes
    rows = flux_rows.copy()
    rows[left] += pressure
    rows[left + 1] -= pressure
    rows[ends] += _END_SIGN * pressure_at[vertex]
    rows[ends[system.velocity[vertex]]] = 0.0
    mass = flux[left] - flux[left + 1] + system.mu * mesh.element_lengths + system.source
    balance = np.bincount(
        vertex.ravel(), (_END_SIGN * flux[ends]).ravel(), minlength=len(pressure_at)
    ) - system.outflux
    balance[len(net.intersections) :][~system.velocity[len(net.intersections) :]] = 0.0
    scale = max(
        float(np.abs(mesh.force).max(initial=0.0)) * mesh.h,
        float(np.abs(system.source).max()),
        float(np.abs(system.vertex_pressure).max()),
        float(np.abs(system.outflux).max()),
        1e-30,
    )
    worst = max(np.abs(part).max(initial=0.0) for part in (rows, mass, balance))
    return float(worst) / scale


def _diagnose(system: SaddleSystem, reason: str) -> str:
    msg = f"saddle solve failed: {reason}"
    if 0 < len(system.unknown) <= 2000:
        msg += f" (reduced condition estimate {float(np.linalg.cond(system.matrix)):.3e})"
    return msg


# ``solve_saddle`` calls this by its module-level name on every solve of a
# network with intersections: perfbench/tracing.py wraps that name, and its
# self-test expects exactly one call per such solve.
def implied_junction_pressures(
    system: SaddleSystem, solution: Solution
) -> dict[str, list[float]]:
    """Junction pressure implied by each incident branch's end-flux equation.

    The flux equation at a branch's node on an intersection ties the
    junction pressure to the pressure of the element at that end, the two
    end fluxes of that element, its frozen coefficient and the body force.
    Solving it for the junction pressure, from ``solution.flux`` and
    ``solution.pressure``, gives the value each incident branch "sees"
    there, in the same (possibly mean-shifted) units as
    ``solution.junction_pressure``. Their spread is zero up to rounding for
    a solve, and rises when a branch's fluxes or pressures are off.
    """
    mesh = system.mesh
    intersections = mesh.network.intersections
    flux = mesh.flat_nodes(solution.flux, "fluxes")
    pressure = mesh.flat_elements(solution.pressure, "pressures")
    k, at_end, _ = mesh.network.junction_incidence.T
    at_end = at_end == 1
    sign = _END_SIGN[at_end.astype(np.intp)]
    node = np.where(at_end, mesh.node_offset[k + 1] - 1, mesh.node_offset[k])
    element = np.where(at_end, mesh.element_offset[k + 1] - 1, mesh.element_offset[k])
    h = mesh.element_lengths[element]
    m = system.coefficient[element] * h / 6.0
    neighbour = flux[np.where(at_end, node - 1, node + 1)]
    implied = pressure[element] + sign * (
        mesh.force[k] * h / 2.0 - m * (2.0 * flux[node] + neighbour)
    )
    bounds = np.cumsum([0] + [len(i.incident) for i in intersections]).tolist()
    implied = implied.tolist()
    return {i.id: implied[a:b] for i, a, b in zip(intersections, bounds, bounds[1:])}
