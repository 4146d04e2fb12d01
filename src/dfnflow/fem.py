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

Only λ changes between the solves of one configuration, so ``assemble``
computes only what depends on it; the boundary data and unknowns are cached
on the network (``boundary_plan``), W + μx and μ on the mesh.
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


@dataclass
class SaddleSystem:
    """The mixed system of one configuration, condensed onto vertex pressures.

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

    def midpoint_speeds(self) -> BranchArrays:
        return frozen_speeds(self.mesh, self.mesh.flat_nodes(self.flux, "fluxes"))

    def stacked(self) -> np.ndarray:
        """Node fluxes, element pressures and junction pressures, in mesh order."""
        junctions = [self.junction_pressure[i.id] for i in self.mesh.network.intersections]
        return np.concatenate([
            self.mesh.flat_nodes(self.flux, "fluxes"),
            self.mesh.flat_elements(self.pressure, "pressures"),
            np.array(junctions, dtype=float),
        ])


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
    coefficient constant per element at the frozen speed. Only λ is computed
    here: the boundary data and unknowns come from ``mesh.network.boundary_plan``,
    the source profile from the mesh. ``sources`` and ``bcs`` other than the
    network's own raise ``ValueError``; the parameters go once the benchmark
    stops passing them. Raises ``SingularSystemError`` when the pressure level
    of some part of the network is not fixed, or a coefficient is not positive.
    """
    net = mesh.network
    if any(a is not None and a is not b for a, b in ((sources, net.sources), (bcs, net.boundary))):
        raise ValueError("assemble takes only the sources and boundary conditions of mesh.network")
    labels = regimes.on(mesh)
    plan = net.boundary_plan
    branch_of = mesh.element_branch
    left = mesh.left
    if isinstance(frozen_speed, Mapping):
        speeds = np.asarray(mesh.flat_elements(frozen_speed, "frozen speeds"), dtype=float)
    else:
        speeds = np.full(mesh.total_elements, float(frozen_speed))
    coeff = eval_lambda_coefficient(law, speeds, labels)
    bad = np.flatnonzero(coeff <= 0.0)
    if bad.size:
        k = int(branch_of[bad[0]])
        raise SingularSystemError(
            f"degenerate law coefficient {float(coeff[bad[0]])} on element "
            f"{int(bad[0] - mesh.element_offset[k])} of branch {mesh.branch_ids[k]!r}"
        )

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
    end_rhs = _END_SIGN * (
        ((drive - plan.known_drop) / resistance)[:, None] + profile[mesh.end_nodes]
    )
    n = len(plan.unknown)
    rhs = np.bincount(plan.at[plan.free], end_rhs[plan.free], minlength=n)
    conductance = np.array([1.0, -1.0, -1.0, 1.0]) / resistance[:, None]
    matrix = np.bincount(plan.entry, conductance[plan.inside], minlength=n * n)

    n_free_nodes = len(mesh.x) - int(np.count_nonzero(plan.velocity))
    n_multipliers = len(net.intersections) + (plan.mean_pressure is not None)
    return SaddleSystem(
        matrix=matrix.reshape(n, n),
        rhs=rhs - plan.outflux[plan.unknown],
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
    total = np.concatenate([[0.0], np.cumsum(rows)])
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
    scale = max(
        float(np.abs(mesh.force).max(initial=0.0)) * mesh.h,
        float(np.abs(source).max()),
        float(np.abs(plan.vertex_pressure).max()),
        float(np.abs(plan.outflux).max()),
        1e-30,
    )
    worst = max(np.abs(part).max(initial=0.0) for part in (rows, mass, balance))
    return float(worst) / scale


def _diagnose(system: SaddleSystem, reason: str) -> str:
    msg = f"saddle solve failed: {reason}"
    if 0 < len(system.rhs) <= 2000:
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
