"""Lowest-order mixed finite elements on a meshed fracture network.

The flux is node-continuous and piecewise linear per branch (the 1D trace of
the lowest-order Raviart-Thomas space), the pressure is constant per element.
Junction coupling shares a single pressure unknown per intersection whose row
is the junction mass balance; when no pressure condition exists anywhere, one
Lagrange multiplier row pins the mean pressure. The assembled system is
symmetric indefinite and solved by a direct sparse factorization.

Per-node and per-element data are single arrays over all branches, each
branch owning a slice (see ``SaddleSystem``); assembly works on whole arrays.

The law coefficient is frozen per element at a caller-supplied speed, which is
what the fixed-point linearization of the nonlinear problem requires.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .laws import AdaptiveLaw, Regime, eval_lambda_coefficient
from .meshing import Mesh
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


class SingularSystemError(RuntimeError):
    """Raised when the saddle system is singular or numerically unsolvable."""


@dataclass(frozen=True)
class RegimeField:
    """Low/high regime label for every element of a mesh."""

    labels: Mapping[str, np.ndarray]

    @staticmethod
    def uniform(mesh: Mesh, regime: Regime) -> "RegimeField":
        return RegimeField(
            {
                b: np.full(mesh.element_count(b), int(regime), dtype=np.int8)
                for b in mesh.branch_ids
            }
        )

    def check_against(self, mesh: Mesh) -> None:
        for b in mesh.branch_ids:
            if b not in self.labels or len(self.labels[b]) != mesh.element_count(b):
                raise ValueError(f"regime labels do not match the mesh on branch {b!r}")


def source_integrals(mesh: Mesh, sources: SourceSpec, branch_id: str) -> np.ndarray:
    """Integral of the scalar source over each element of a branch.

    Constant pieces integrate exactly; callable pieces use a 5-point Gauss
    rule per element. Breakpoints are mesh nodes by construction, so every
    element lies inside a single piece.
    """
    x = mesh.nodes[branch_id]
    a, b = x[:-1], x[1:]
    src = sources.scalar_for(branch_id)
    piece_of = np.searchsorted(np.asarray(src.breakpoints), 0.5 * (a + b), side="left")
    out = np.empty(len(a))
    pts, wts = _GAUSS5
    for k, piece in enumerate(src.pieces):
        sel = piece_of == k
        half = 0.5 * (b[sel] - a[sel])
        if callable(piece):
            xs = half[:, None] * pts + 0.5 * (a[sel] + b[sel])[:, None]
            out[sel] = half * (piece(xs.ravel()).reshape(xs.shape) @ wts)
        else:
            out[sel] = piece * (b[sel] - a[sel])
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
    """Assembled saddle-point system with its unknown layout.

    The unknowns are, in this order: the flux at every free node (one whose
    flux no velocity condition prescribes), the pressure of every element
    from ``pressure_start``, one pressure per intersection in
    ``network.intersections`` order from ``junction_start``, and the
    mean-pressure multiplier when there is one. Branch ``k`` of
    ``mesh.branch_ids`` owns the global nodes
    ``node_offset[k]:node_offset[k + 1]`` and the global elements
    ``element_offset[k]:element_offset[k + 1]``. ``free`` marks the free
    global nodes; ``prescribed_flux`` holds the flux at the other nodes and
    zero at free ones.
    """

    matrix: sps.csr_matrix
    rhs: np.ndarray
    mesh: Mesh
    node_offset: np.ndarray
    element_offset: np.ndarray
    free: np.ndarray
    prescribed_flux: np.ndarray
    pressure_start: int
    junction_start: int
    mean_index: int | None
    mean_pressure: float | None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass
class Solution:
    """Discrete flux/pressure pair on a mesh.

    ``flux[b][i]`` is the signed flux along the tangent of branch ``b`` at its
    node ``i``; ``pressure[b][e]`` the constant pressure of element ``e``.
    Junction pressures carry one value per intersection.
    """

    mesh: Mesh
    flux: dict[str, np.ndarray]
    pressure: dict[str, np.ndarray]
    junction_pressure: dict[str, float]
    residual: float
    multiplier: float | None = None
    raw_vector: np.ndarray | None = field(default=None, repr=False, compare=False)
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
    speeds = [np.asarray(frozen_speed[bid], dtype=float) for bid in mesh.branch_ids]
    for bid, s in zip(mesh.branch_ids, speeds):
        if len(s) != mesh.element_count(bid):
            raise ValueError(f"frozen speeds do not match elements on {bid!r}")
    return np.concatenate(speeds)


def _end(node_offset: np.ndarray, k: int, which: str) -> tuple[int, float]:
    """Global node and outward sign of the given end of branch ``k``."""
    return (node_offset[k], -1.0) if which == START else (node_offset[k + 1] - 1, 1.0)


def _junction_ends(mesh: Mesh, node_offset: np.ndarray):
    """Global node, intersection position and outward sign of each junction end."""
    position = {bid: k for k, bid in enumerate(mesh.branch_ids)}
    nodes, owner, sign = [], [], []
    for j, isec in enumerate(mesh.network.intersections):
        for bid, which in isec.incident:
            node, n_out = _end(node_offset, position[bid], which)
            nodes.append(node)
            owner.append(j)
            sign.append(n_out)
    return np.array(nodes, dtype=np.intp), np.array(owner, dtype=np.intp), np.array(sign)


def assemble(
    mesh: Mesh,
    regimes: RegimeField,
    law: AdaptiveLaw,
    frozen_speed: FrozenSpeed,
    sources: SourceSpec,
    bcs: BoundarySpec,
) -> SaddleSystem:
    """Assemble the mixed system for a fixed configuration and frozen speeds.

    Velocity conditions are eliminated strongly from the flux unknowns;
    pressure conditions enter the flux equations as natural boundary terms.
    The flux-mass block integrates coefficient times the linear basis pair
    exactly, with the coefficient constant per element at the frozen speed.
    """
    regimes.check_against(mesh)
    if not bcs.has_pressure_bc and bcs.mean_pressure is None:
        raise SingularSystemError(
            "no pressure anchor: the problem has no pressure boundary condition "
            "and no mean-pressure constraint"
        )

    ids = mesh.branch_ids
    counts = np.array([mesh.element_count(b) for b in ids])
    element_offset = np.concatenate([[0], np.cumsum(counts)])
    node_offset = element_offset + np.arange(len(ids) + 1)
    n_nodes, n_elements = int(node_offset[-1]), int(element_offset[-1])
    has_mean = not bcs.has_pressure_bc
    n_full = n_nodes + n_elements + len(mesh.network.intersections) + has_mean

    branch_of = np.repeat(np.arange(len(ids)), counts)
    left = np.arange(n_elements) + branch_of
    right = left + 1
    x = np.concatenate([mesh.nodes[b] for b in ids])
    h = x[right] - x[left]

    coeff = eval_lambda_coefficient(
        law,
        _element_speeds(mesh, frozen_speed),
        np.concatenate([regimes.labels[b] for b in ids]),
    )
    bad = np.flatnonzero(coeff <= 0.0)
    if bad.size:
        k = int(branch_of[bad[0]])
        raise SingularSystemError(
            f"degenerate law coefficient {float(coeff[bad[0]])} on element "
            f"{int(bad[0] - element_offset[k])} of branch {ids[k]!r}"
        )

    # Right-hand side and prescribed fluxes over the full numbering: all
    # nodes, elements, intersections, then the mean multiplier. Constrained
    # nodes are removed at the end, their known flux moved to the rhs.
    rhs = np.zeros(n_full)
    half_force = np.array([mesh.tangential_force[b] for b in ids])[branch_of] * h / 2.0
    rhs[left] += half_force
    rhs[right] += half_force
    free = np.ones(n_nodes, dtype=bool)
    prescribed = np.zeros(n_full)
    at_junction = mesh.network.junction_ends
    for k, bid in enumerate(ids):
        for which in (START, END):
            node, n_out = _end(node_offset, k, which)
            bc = bcs.condition_at(bid, which)
            if isinstance(bc, VelocityBC):
                if (bid, which) in at_junction:
                    raise SingularSystemError(
                        f"branch end ({bid!r}, {which}) is both at an intersection "
                        "and velocity-constrained"
                    )
                free[node] = False
                prescribed[node] = bc.outflux * n_out
            elif isinstance(bc, PressureBC):
                rhs[node] -= bc.pressure * n_out
    pressure = n_nodes + np.arange(n_elements)
    rhs[pressure] = -np.concatenate([source_integrals(mesh, sources, b) for b in ids])

    m = coeff * h / 6.0
    ones = np.ones(n_elements)
    rows = [left, left, right, right, left, pressure, right, pressure]
    cols = [left, right, left, right, pressure, left, pressure, right]
    vals = [2.0 * m, m, m, 2.0 * m, ones, ones, -ones, -ones]
    if has_mean:
        mean = np.full(n_elements, n_full - 1)
        rows += [pressure, mean]
        cols += [mean, pressure]
        vals += [h, h]
    end_nodes, owner, sign = _junction_ends(mesh, node_offset)
    junction = n_nodes + n_elements + owner
    rows += [end_nodes, junction]
    cols += [junction, end_nodes]
    vals += [sign, sign]

    full = sps.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_full, n_full),
    )
    keep = np.concatenate([free, np.ones(n_full - n_nodes, dtype=bool)])
    n_free = int(np.count_nonzero(free))
    return SaddleSystem(
        matrix=full[keep][:, keep],
        rhs=(rhs - full @ prescribed)[keep],
        mesh=mesh,
        node_offset=node_offset,
        element_offset=element_offset,
        free=free,
        prescribed_flux=prescribed[:n_nodes],
        pressure_start=n_free,
        junction_start=n_free + n_elements,
        mean_index=n_free + n_full - n_nodes - 1 if has_mean else None,
        mean_pressure=bcs.mean_pressure,
    )


def solve_saddle(system: SaddleSystem) -> Solution:
    """Direct solve of the assembled system with a residual check.

    Raises ``SingularSystemError`` when the factorization fails or the
    relative residual exceeds 1e-10; in that case a condition estimate is
    attached to the message to point at the constraint deficiency. When the
    mean-pressure constraint is active, the reported pressures are shifted so
    their length-weighted mean equals the prescribed value.
    """
    A, b = system.matrix, system.rhs
    if A.shape[0] == 0:
        raise SingularSystemError("empty system")
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            x = spla.spsolve(A.tocsc(), b)
        except (spla.MatrixRankWarning, RuntimeError) as exc:
            raise SingularSystemError(_diagnose(system, str(exc))) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(_diagnose(system, "non-finite solution"))
    scale = max(float(np.abs(b).max()), 1e-30)
    residual = float(np.abs(A @ x - b).max()) / scale
    if residual > RESIDUAL_TOL:
        raise SingularSystemError(
            _diagnose(system, f"relative residual {residual:.3e} exceeds {RESIDUAL_TOL}")
        )

    mesh = system.mesh
    ids = mesh.branch_ids
    p0, j0 = system.pressure_start, system.junction_start
    intersections = mesh.network.intersections
    nodal = system.prescribed_flux.copy()
    nodal[system.free] = x[:p0]
    # element pressures followed by junction pressures, shifted together
    pressures = x[p0 : j0 + len(intersections)].copy()
    pressure = dict(zip(ids, np.split(pressures[: j0 - p0], system.element_offset[1:-1])))

    multiplier = None
    if system.mean_index is not None:
        multiplier = float(x[system.mean_index])
        weighted = sum(
            float(np.dot(pressure[bid], mesh.element_lengths(bid))) for bid in ids
        )
        pressures += system.mean_pressure - weighted / mesh.network.total_length

    solution = Solution(
        mesh=mesh,
        flux=dict(zip(ids, np.split(nodal, system.node_offset[1:-1]))),
        pressure=pressure,
        junction_pressure=dict(zip([i.id for i in intersections], pressures[j0 - p0 :].tolist())),
        residual=residual,
        multiplier=multiplier,
        raw_vector=x,
    )
    if intersections:
        solution.junction_implied = implied_junction_pressures(system, solution)
    return solution


def _diagnose(system: SaddleSystem, reason: str) -> str:
    hints = []
    if system.size <= 2000:
        cond = float(np.linalg.cond(system.matrix.toarray()))
        hints.append(f"condition estimate {cond:.3e}")
        if cond > 1e14:
            hints.append(
                "matrix numerically singular; check that the pressure level is "
                "anchored by a pressure condition or the mean constraint"
            )
    msg = f"saddle solve failed: {reason}"
    if hints:
        msg += " (" + "; ".join(hints) + ")"
    return msg


# ``solve_saddle`` calls this by its module-level name on every solve of a
# network with intersections: perfbench/tracing.py wraps that name, and its
# self-test expects exactly one call per such solve.
def implied_junction_pressures(
    system: SaddleSystem, solution: Solution
) -> dict[str, list[float]]:
    """Junction pressure implied by each incident branch's flux equation.

    For every intersection, the flux equation of the incident branch at its
    junction node can be solved for the pressure that branch "sees" there.
    Each implied value is the junction unknown plus or minus that flux row's
    solve residual (b - A x), so their spread is bounded by the residual that
    ``solve_saddle`` already checks: it cannot reveal a coupling assembled
    into the wrong rows. Values are reported in the same (possibly
    mean-shifted) units as ``solution.junction_pressure``.
    """
    x = solution.raw_vector
    if x is None:
        raise ValueError("solution does not carry its raw solve vector")
    intersections = system.mesh.network.intersections
    nodes, owner, sign = _junction_ends(system.mesh, system.node_offset)
    rows = np.cumsum(system.free)[nodes] - 1
    cols = system.junction_start + owner
    # each flux row holds its junction unknown once, with coefficient sign
    partial = system.matrix[rows] @ x - sign * x[cols]
    reported = np.array([solution.junction_pressure[isec.id] for isec in intersections])
    shift = reported[owner] - x[cols]
    implied = (system.rhs[rows] - partial) / sign + shift
    parts = np.split(implied, np.cumsum([len(i.incident) for i in intersections])[:-1])
    return {isec.id: part.tolist() for isec, part in zip(intersections, parts)}
