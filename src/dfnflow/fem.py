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
arrays over all branches, in the flat layout of ``Mesh``; the solution keeps
every vertex pressure too, in the order of ``network.end_vertex``.

Only λ changes between the solves of one configuration. The boundary data
and unknowns are cached on the network (``boundary_plan``); the element
lengths, end nodes, element sources, W + μx, μ and the data scale the
residual is relative to on the mesh. A working mesh of the tracker is solved
on once for a linear law and a few times for a nonlinear one, so the
λ-independent arrays ``assemble`` derives from these in a few numpy calls
each are derived on every call rather than cached as well: the body
force times the branch lengths, W + μx at the element midpoints and at the
branch ends, the plan's numbered ends and unknown outfluxes, and the system
size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .laws import AdaptiveLaw, Regime, eval_lambda_coefficient
from .meshing import BranchArrays, Mesh
from .network import BoundarySpec, SingularSystemError, SourceSpec

RESIDUAL_TOL = 1e-10

# Outward sign of the start and of the end of a branch.
_END_SIGN = np.array([-1.0, 1.0])

# Signs of a branch's 2 x 2 conductance block, row by row.
_BLOCK_SIGN = np.array([1.0, -1.0, -1.0, 1.0])


@dataclass(frozen=True, eq=False)
class RegimeField:
    """Low/high regime label for every element of a mesh; compares by identity."""

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


@dataclass(eq=False)
class SaddleSystem:
    """The condensed mixed system of one configuration; compares by identity.

    ``matrix`` and ``rhs`` are the reduced system on the unknown vertices of
    ``mesh.network.boundary_plan``; ``(drive - P_end + P_start) / resistance``
    is each branch's flux constant on top of ``mesh.source_profile``, and
    ``coefficient`` the frozen λ per element. ``size`` is the dimension of the
    mixed system: free node fluxes, element and junction pressures, multiplier.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    mesh: Mesh
    size: int
    coefficient: np.ndarray
    resistance: np.ndarray
    drive: np.ndarray


@dataclass(eq=False)
class Solution:
    """The flux/pressure arrays of one solve on a mesh; compares by identity.

    ``flux[b][i]`` is the signed flux along the tangent of branch ``b`` at its
    node ``i``; ``pressure[b][e]`` the constant pressure of element ``e``.
    Both are ``BranchArrays`` views of one array over all nodes and all
    elements of the mesh. ``vertex_pressure[v]`` is the pressure at vertex
    ``v`` of ``network.end_vertex``, intersections first; it is shifted with
    the element pressures under the mean anchor. ``junction_implied`` holds
    the junction pressure each row of ``network.junction_incidence`` implies
    (see ``implied_junction_pressures``), empty without intersections.
    """

    mesh: Mesh
    flux: BranchArrays
    pressure: BranchArrays
    vertex_pressure: np.ndarray
    residual: float
    junction_implied: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False)

    @property
    def junction_pressure(self) -> dict[str, float]:
        """The pressure of every intersection, by id."""
        ids = [i.id for i in self.mesh.network.intersections]
        return dict(zip(ids, self.vertex_pressure[: len(ids)].tolist()))

    def midpoint_speeds(self) -> BranchArrays:
        return frozen_speeds(self.mesh, self.flux.array)

    def stacked(self) -> np.ndarray:
        """Node fluxes, element pressures and junction pressures, in mesh order."""
        n = len(self.mesh.network.intersections)
        return np.concatenate([self.flux.array, self.pressure.array, self.vertex_pressure[:n]])


FrozenSpeed = Union[float, Mapping[str, np.ndarray]]


def frozen_speeds(mesh: Mesh, flux: np.ndarray) -> BranchArrays:
    """|u| at the element midpoints, where λ is frozen; ``flux`` may run past the nodes."""
    return mesh.per_element(np.abs(0.5 * (flux[mesh.left] + flux[mesh.left + 1])))


def assemble(
    mesh: Mesh,
    regimes: RegimeField,
    law: AdaptiveLaw,
    frozen_speed: FrozenSpeed,
    sources: SourceSpec | None = None,
    bcs: BoundarySpec | None = None,
) -> SaddleSystem:
    """Condense the mixed system of a fixed configuration and frozen speeds.

    Velocity conditions hold the flux at their node; pressure conditions
    enter the flux equations as natural boundary terms. The flux-mass block
    integrates coefficient times the linear basis pair exactly, with the
    coefficient constant per element at the frozen speed. The boundary data
    and unknowns come from ``mesh.network.boundary_plan`` and W + μx from
    ``mesh.source_profile``; the module docstring lists the λ-independent
    arrays derived from them on every call. ``sources`` and ``bcs``
    other than the network's own raise ``ValueError``; the parameters go once
    the benchmark stops passing them. Raises ``SingularSystemError`` when the
    pressure level of some part of the network is not fixed.
    """
    net = mesh.network
    if any(a is not None and a is not b for a, b in ((sources, net.sources), (bcs, net.boundary))):
        raise ValueError("assemble takes only the sources and boundary conditions of mesh.network")
    labels = regimes.on(mesh)
    plan = net.boundary_plan
    branch_of = mesh.element_branch
    left = mesh.left
    if isinstance(frozen_speed, (BranchArrays, Mapping)):  # the concrete type tests faster
        speeds = np.asarray(mesh.flat_elements(frozen_speed, "frozen speeds"), dtype=float)
    else:
        speeds = np.full(mesh.total_elements, float(frozen_speed))
    coeff = eval_lambda_coefficient(law, speeds, labels)
    profile = mesh.source_profile
    weight = coeff * mesh.element_lengths
    n_branches = len(mesh.force)
    resistance = np.bincount(branch_of, weight, minlength=n_branches)
    drive = mesh.force * mesh.lengths - np.bincount(
        branch_of, weight * 0.5 * (profile[left] + profile[left + 1]), minlength=n_branches
    )

    # Junction balance or velocity condition at each unknown vertex; one
    # branch contributes its conductance to each pair of its unknown ends,
    # branch by branch, so the matrix comes out exactly symmetric.
    n = len(plan.unknown)
    matrix, rhs = np.empty((0, 0)), np.empty(0)
    if n:  # with every vertex pressure known, the reduced system is empty
        end_rhs = _END_SIGN * (
            ((drive - plan.known_drop) / resistance)[:, None] + profile[mesh.end_nodes]
        )
        rhs = np.bincount(plan.at[plan.free], end_rhs[plan.free], minlength=n)
        rhs -= plan.outflux[plan.unknown]
        conductance = _BLOCK_SIGN / resistance[:, None]
        matrix = np.bincount(plan.entry, conductance[plan.inside], minlength=n * n)
        matrix = matrix.reshape(n, n)

    n_free_nodes = len(mesh.x) - int(np.count_nonzero(plan.velocity))
    n_multipliers = len(net.intersections) + (plan.mean_pressure is not None)
    return SaddleSystem(
        matrix=matrix,
        rhs=rhs,
        mesh=mesh,
        size=n_free_nodes + mesh.total_elements + n_multipliers,
        coefficient=coeff,
        resistance=resistance,
        drive=drive,
    )


def solve_saddle(system: SaddleSystem) -> Solution:
    """Solve the condensed system and recover the mixed solution.

    Raises ``SingularSystemError`` when the reduced solve fails or the
    relative residual of the mixed equations exceeds 1e-10; in that case a
    condition estimate of the reduced matrix is attached to the message.
    When the mean-pressure constraint is active, the reported pressures are
    shifted so their length-weighted mean equals the prescribed value.
    """
    mesh = system.mesh
    plan = mesh.network.boundary_plan
    pressure_at = plan.vertex_pressure.copy()
    if len(plan.unknown):
        try:
            pressure_at[plan.unknown] = np.linalg.solve(system.matrix, system.rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(_diagnose(system, str(exc))) from exc

    vertex = mesh.network.end_vertex
    constant = (system.drive - pressure_at[vertex] @ _END_SIGN) / system.resistance
    flux = constant[mesh.node_branch] + mesh.source_profile
    # Each flux row gives the pressure step from one element to the next;
    # summing them from the branch start gives every element pressure.
    rows = _flux_rows(system, flux)
    total = np.zeros(len(rows) + 1)
    rows.cumsum(out=total[1:])
    start = pressure_at[vertex[:, 0]] + total[mesh.node_offset[:-1]]
    pressure = start[mesh.element_branch] - total[mesh.left + 1]
    if plan.mean_pressure is not None:
        weighted = np.dot(pressure, mesh.element_lengths) / mesh.network.total_length
        pressure += plan.mean_pressure - weighted
        pressure_at += plan.mean_pressure - weighted

    residual = _residual(system, flux, rows, pressure, pressure_at)
    if not residual <= RESIDUAL_TOL:
        raise SingularSystemError(
            _diagnose(system, f"relative residual {residual:.3e} exceeds {RESIDUAL_TOL}")
        )
    solution = Solution(
        mesh=mesh,
        flux=mesh.per_node(flux),
        pressure=mesh.per_element(pressure),
        vertex_pressure=pressure_at,
        residual=residual,
    )
    if mesh.network.intersections:
        solution.junction_implied = implied_junction_pressures(system, solution)
    return solution


def _element_rows(
    system: SaddleSystem, flux: np.ndarray, element: np.ndarray | slice
) -> tuple[np.ndarray, np.ndarray]:
    """Each element's part of the flux rows of its left and of its right node.

    That is the flux-mass product minus half the body force of the element
    at the node; the pressure terms bring a node's row to zero.
    """
    mesh = system.mesh
    left = mesh.left[element]
    h = mesh.element_lengths[element]
    m = system.coefficient[element] * h / 6.0
    half_force = mesh.force[mesh.element_branch[element]] * h / 2.0
    u_left, u_right = flux[left], flux[left + 1]
    return m * (2.0 * u_left + u_right) - half_force, m * (u_left + 2.0 * u_right) - half_force


def _flux_rows(system: SaddleSystem, flux: np.ndarray) -> np.ndarray:
    """The flux row of every node without its pressure terms."""
    left, n_nodes = system.mesh.left, len(system.mesh.x)
    at_left, at_right = _element_rows(system, flux, slice(None))
    return np.bincount(left, at_left, minlength=n_nodes) + np.bincount(
        left + 1, at_right, minlength=n_nodes
    )


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
    velocity condition. The mean of the pressures is set by the shift. The
    scale of the data does not depend on λ and is the mesh's ``data_scale``.
    """
    mesh = system.mesh
    net = mesh.network
    plan = net.boundary_plan
    left = mesh.left
    vertex, ends = net.end_vertex, mesh.end_nodes
    rows = flux_rows.copy()
    rows[left] += pressure
    rows[left + 1] -= pressure
    rows[ends] += _END_SIGN * pressure_at[vertex]
    rows[ends[plan.velocity[vertex]]] = 0.0
    source = mesh.element_sources
    mass = flux[left] - flux[left + 1] + mesh.mean_multiplier * mesh.element_lengths + source
    balance = np.bincount(
        vertex.ravel(), (_END_SIGN * flux[ends]).ravel(), minlength=len(pressure_at)
    ) - plan.outflux
    balance[len(net.intersections) :][~plan.velocity[len(net.intersections) :]] = 0.0
    worst = np.abs(np.concatenate((rows, mass, balance))).max(initial=0.0)
    return float(worst) / mesh.data_scale


def _diagnose(system: SaddleSystem, reason: str) -> str:
    msg = f"saddle solve failed: {reason}"
    if 0 < len(system.rhs) <= 2000:
        msg += f" (reduced condition estimate {float(np.linalg.cond(system.matrix)):.3e})"
    return msg


# ``solve_saddle`` calls this by its module-level name on every solve of a
# network with intersections: perfbench/tracing.py wraps that name, and its
# self-test expects exactly one call per such solve.
def implied_junction_pressures(system: SaddleSystem, solution: Solution) -> np.ndarray:
    """Junction pressure implied by each incident branch's end-flux equation.

    The flux row of a branch's node on an intersection holds only the
    element at that end, so it ties the junction pressure to that element's
    pressure, its two end fluxes, its frozen coefficient and the body force.
    Solving it for the junction pressure, from ``solution.flux`` and
    ``solution.pressure``, gives the value each incident branch "sees"
    there, one per row of ``network.junction_incidence``, in the same
    (possibly mean-shifted) units as ``solution.vertex_pressure``. Their
    spread is zero up to rounding for a solve, and rises when a branch's
    fluxes or pressures are off.
    """
    mesh = system.mesh
    k, at_end, _ = mesh.network.junction_incidence.T
    element = np.where(at_end == 1, mesh.element_offset[k + 1] - 1, mesh.element_offset[k])
    at_left, at_right = _element_rows(system, solution.flux.array, element)
    row = np.where(at_end == 1, at_right, at_left)
    return solution.pressure.array[element] - _END_SIGN[at_end] * row
