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
    """Assembled saddle-point system with its unknown layout.

    The unknowns are, in this order: the flux at every free node (one whose
    flux no velocity condition prescribes), the pressure of every element
    from ``pressure_start``, one pressure per intersection in
    ``network.intersections`` order from ``junction_start``, and the
    mean-pressure multiplier when there is one. Nodes and elements are
    numbered as in the flat layout of ``Mesh`` (see ``Mesh.node_offset``
    and ``Mesh.element_offset``). ``free`` marks the free global nodes;
    ``prescribed_flux`` holds the flux at the other nodes and zero at free
    ones.
    """

    matrix: sps.csr_matrix
    rhs: np.ndarray
    mesh: Mesh
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
    Junction pressures carry one value per intersection. A solve returns
    ``flux`` and ``pressure`` as ``BranchArrays`` views of arrays over all
    nodes and all elements of the mesh.
    """

    mesh: Mesh
    flux: Mapping[str, np.ndarray]
    pressure: Mapping[str, np.ndarray]
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
    return np.asarray(mesh.flat_elements(frozen_speed, "frozen speeds"), dtype=float)


def _ends(mesh: Mesh, k: np.ndarray, at_end: np.ndarray):
    """Global node and outward sign of one end of each branch ``k``.

    The end is the branch's "end" where ``at_end`` holds, else its "start".
    """
    return (
        np.where(at_end, mesh.node_offset[k + 1] - 1, mesh.node_offset[k]),
        np.where(at_end, 1.0, -1.0),
    )


def _junction_ends(mesh: Mesh):
    """Global node, intersection position and outward sign of each junction end."""
    k, at_end, owner = mesh.network.junction_incidence.T
    nodes, sign = _ends(mesh, k, at_end == 1)
    return nodes, owner, sign


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
    labels = regimes.on(mesh)
    if not bcs.has_pressure_bc and bcs.mean_pressure is None:
        raise SingularSystemError(
            "no pressure anchor: the problem has no pressure boundary condition "
            "and no mean-pressure constraint"
        )

    n_nodes, n_elements = len(mesh.x), mesh.total_elements
    has_mean = not bcs.has_pressure_bc
    n_full = n_nodes + n_elements + len(mesh.network.intersections) + has_mean

    branch_of = mesh.element_branch
    left = mesh.left
    right = left + 1
    h = mesh.x[right] - mesh.x[left]

    coeff = eval_lambda_coefficient(law, _element_speeds(mesh, frozen_speed), labels)
    bad = np.flatnonzero(coeff <= 0.0)
    if bad.size:
        k = int(branch_of[bad[0]])
        raise SingularSystemError(
            f"degenerate law coefficient {float(coeff[bad[0]])} on element "
            f"{int(bad[0] - mesh.element_offset[k])} of branch {mesh.branch_ids[k]!r}"
        )

    # Right-hand side and prescribed fluxes over the full numbering: all
    # nodes, elements, intersections, then the mean multiplier. Constrained
    # nodes are removed at the end, their known flux moved to the rhs.
    rhs = np.zeros(n_full)
    half_force = mesh.force[branch_of] * h / 2.0
    rhs[left] += half_force
    rhs[right] += half_force
    free = np.ones(n_nodes, dtype=bool)
    prescribed = np.zeros(n_full)
    ends, conditions = list(bcs.conditions), list(bcs.conditions.values())
    velocity = np.array([isinstance(bc, VelocityBC) for bc in conditions], dtype=bool)
    clash = [e for e, v in zip(ends, velocity) if v and e in mesh.network.junction_ends]
    if clash:
        raise SingularSystemError(
            f"branch end ({clash[0][0]!r}, {clash[0][1]}) is both at an intersection "
            "and velocity-constrained"
        )
    index = mesh.network.branch_index
    k = np.array([index[bid] for bid, _ in ends], dtype=np.intp)
    node, n_out = _ends(mesh, k, np.array([which == END for _, which in ends], dtype=bool))
    value = [bc.outflux if v else bc.pressure for bc, v in zip(conditions, velocity)]
    data = np.array(value, dtype=float) * n_out
    free[node[velocity]] = False
    prescribed[node[velocity]] = data[velocity]
    rhs[node[~velocity]] -= data[~velocity]
    pressure = n_nodes + np.arange(n_elements)
    rhs[pressure] = -source_integrals(mesh, sources)

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
    end_nodes, owner, sign = _junction_ends(mesh)
    junction = n_nodes + n_elements + owner
    rows += [end_nodes, junction]
    cols += [junction, end_nodes]
    vals += [sign, sign]

    rows, cols, vals = (np.concatenate(v) for v in (rows, cols, vals))
    # A prescribed node's column holds one entry per row, and a row at most
    # two such entries, so this sums as the full matrix times ``prescribed``.
    rhs -= np.bincount(rows, weights=vals * prescribed[cols], minlength=n_full)
    keep = np.concatenate([free, np.ones(n_full - n_nodes, dtype=bool)])
    n_keep = int(np.count_nonzero(keep))
    number = np.cumsum(keep) - 1
    inside = keep[rows] & keep[cols]
    n_free = int(np.count_nonzero(free))
    return SaddleSystem(
        matrix=sps.csr_matrix(
            (vals[inside], (number[rows[inside]], number[cols[inside]])),
            shape=(n_keep, n_keep),
        ),
        rhs=rhs[keep],
        mesh=mesh,
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
    pressure = mesh.per_element(pressures[: j0 - p0])

    multiplier = None
    if system.mean_index is not None:
        multiplier = float(x[system.mean_index])
        weighted = sum(
            float(np.dot(pressure[bid], np.diff(mesh.nodes[bid]))) for bid in ids
        )
        pressures += system.mean_pressure - weighted / mesh.network.total_length

    solution = Solution(
        mesh=mesh,
        flux=mesh.per_node(nodal),
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
    nodes, owner, sign = _junction_ends(system.mesh)
    rows = np.cumsum(system.free)[nodes] - 1
    cols = system.junction_start + owner
    # each flux row holds its junction unknown once, with coefficient sign
    partial = (system.matrix @ x)[rows] - sign * x[cols]
    reported = np.array([solution.junction_pressure[isec.id] for isec in intersections])
    shift = reported[owner] - x[cols]
    implied = (system.rhs[rows] - partial) / sign + shift
    bounds = np.cumsum([0] + [len(i.incident) for i in intersections]).tolist()
    implied = implied.tolist()
    return {i.id: implied[a:b] for i, a, b in zip(intersections, bounds, bounds[1:])}
