"""Independent reference implementations used only by the tests.

These deliberately avoid the package code paths they check: the Darcy oracle
is a cell-centered two-point flux scheme solved as its own linear system, the
saddle oracle assembles the whole mixed system in coordinate form and solves
it with SuperLU, the dissipation oracle is a brute-force midpoint rule, the set-distance oracle
is a direct double loop, the energy-minimizer oracle scans the reduced
energy in closed form on a uniform grid and refines by golden section, the bisecting
minimizer finds the zeros of E' by 64 halvings of the closed-form E' instead
of taking the roots of the fitted cubics,
the loop integrator applies the kink-split Gauss rule element by element,
the plain-Picard oracle is the unaccelerated fixed-point loop on the frozen
coefficient, the plain-tracking oracle is the outer loop without interface
mixing, which records each configuration as a plain ``PlainConfiguration``
of regime labels and (branch id, arc) interfaces built from its runs, and
the crossing oracle bisects the flux at each level ±threshold it meets with
exact rational comparisons. The run-based classification, labelling and
point-by-point mesh splitting are the per-branch loops the flat tracker and
``split_mesh_at`` replaced, and the linspace partition is the per-interval
loop ``build_mesh`` replaced.

Some helpers here are read by tests only and by no run: the law probes
(the growth bound of the high branch, the sign of the coefficient jump at
the switch and the randomized midpoint-convexity check of the potential),
the closed-form antiderivative of the flux potential behind
``closed_form_energies``, ``configuration_distance``,
the tracker's distance on (branch id, arc) interface lists,
``point_arrays``, which turns such a list into the branch positions and
arcs ``split_mesh_at`` takes, and ``junction_continuity_defect``, the
largest spread of the junction pressures a solve's branches imply at one
intersection.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from dfnflow.energy import (
    ALPHA_MAX,
    NEAR_OPTIMAL_WINDOW,
    EnergyReport,
    MinimizationResult,
    _divided,
    _potential,
    lift_field,
    tangential_forcing,
)
from dfnflow.fem import (
    RegimeField,
    Solution,
    assemble,
    frozen_speeds,
    solve_saddle,
)
from dfnflow.laws import (
    AdaptiveLaw,
    LawBranch,
    Regime,
    eval_lambda_coefficient,
)
from dfnflow.meshing import Mesh, branch_keys, source_integrals
from dfnflow.picard import PicardResult, PicardSettings, _is_linear, picard_solve
from dfnflow.tracker import (
    OSCILLATION_WINDOW,
    HistoryEntry,
    TrackerReport,
    TrackerSettings,
    TrackerStatus,
    _detect_period,
    _distance,
)
from dfnflow.network import (
    COINCIDENCE_TOL,
    END,
    START,
    BoundarySpec,
    Branch,
    FractureNetwork,
    Intersection,
    PiecewiseSource,
    PressureBC,
    SourceSpec,
    VelocityBC,
)


def growth_exponent(branch: LawBranch) -> float:
    """Growth rate r of a law branch: 2 with a zero slope, 3 otherwise."""
    return 2.0 if branch.slope == 0 else 3.0


def conjugate_exponent(branch) -> float:
    r = growth_exponent(branch)
    return r / (r - 1.0)


@dataclass(frozen=True)
class GrowthReport:
    """Empirical constants bracketing the high branch growth."""

    c: float
    C: float
    satisfied: bool


def check_growth_bound(
    law: AdaptiveLaw, sample_count: int = 200, rate: float | None = None
) -> GrowthReport:
    """Sample the high branch on [1, 1e6] against a claimed growth rate r.

    r defaults to the branch's own ``growth_exponent``; a larger claim is
    the negative case the bound must reject.

    Reports the tightest empirical constants c and C with
    c * a**((r-2)/2) <= phi2(a) <= C * (1 + a**((r-2)/2)) on the sampled grid.
    The bound counts as satisfied when both constants are positive and finite
    and the lower ratio has stabilized over the last sampled decade (a ratio
    still decaying there signals that no positive c works for large speeds).
    """
    if sample_count < 2:
        raise ValueError("need at least 2 samples")
    r = growth_exponent(law.high) if rate is None else rate
    a = np.geomspace(1.0, 1e6, sample_count)
    growth = a ** ((r - 2.0) / 2.0)
    phi2 = np.asarray(law.high_normalized.phi(a), dtype=float)

    lower_ratio = phi2 / growth
    upper_ratio = phi2 / (1.0 + growth)
    c = float(lower_ratio.min())
    C = float(upper_ratio.max())

    tail = lower_ratio[a >= a[-1] / 10.0]
    drop = (tail[0] - tail[-1]) / max(abs(tail[0]), 1e-300)
    satisfied = c > 0 and math.isfinite(C) and drop <= 0.05
    return GrowthReport(c=c, C=C, satisfied=bool(satisfied))


class JumpSign(enum.Enum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


def jump_sign(law: AdaptiveLaw) -> JumpSign:
    """Sign of the coefficient jump lambda2 - lambda1 at the switch.

    Zero is detected only for bit-identical coefficients; the jump sign
    decides convexity of the dissipation potential.
    """
    l1, l2 = law.lambda1, law.lambda2
    if l2 == l1:
        return JumpSign.ZERO
    return JumpSign.POSITIVE if l2 > l1 else JumpSign.NEGATIVE


@dataclass(frozen=True)
class ConvexityReport:
    violations: int
    worst_gap: float
    trials: int


def convexity_probe(law: AdaptiveLaw, trials: int, seed: int = 0) -> ConvexityReport:
    """Randomized midpoint-convexity check of the potential.

    Draws (a, b, t) with a, b in [0, 25] and t in [0, 1] and counts how often
    law((1-t)a + tb) exceeds the chord value beyond 1e-12. Half of the
    samples are stratified to straddle the switch (a < 1 < b), which is where
    a convexity defect of the glued potential must show up. The worst signed
    gap (chord minus function; negative means violated) is reported.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    n_strat = trials // 2
    n_free = trials - n_strat
    a = np.concatenate([rng.uniform(0.0, 25.0, n_free), rng.uniform(0.0, 1.0, n_strat)])
    b = np.concatenate([rng.uniform(0.0, 25.0, n_free), rng.uniform(1.0, 25.0, n_strat)])
    t = rng.uniform(0.0, 1.0, trials)

    chord = (1.0 - t) * law.potential(a) + t * law.potential(b)
    gap = chord - law.potential((1.0 - t) * a + t * b)
    violations = int(np.sum(gap < -1e-12))
    return ConvexityReport(
        violations=violations, worst_gap=float(gap.min()), trials=trials
    )


def tpfa_darcy_solve(mesh, coefficients, bcs):
    """Cell-centered two-point-flux Darcy solve on a meshed network.

    ``coefficients`` maps branch id to the per-element inverse permeability
    (the same lambda the mixed solver freezes). Returns (cell pressures per
    branch, junction pressures, face fluxes per branch at the mesh nodes).
    Requires at least one pressure condition somewhere.
    """
    net = mesh.network
    cell_index: dict[tuple[str, int], int] = {}
    n = 0
    for bid in mesh.branch_ids:
        for e in range(len(mesh.nodes[bid]) - 1):
            cell_index[(bid, e)] = n
            n += 1
    junction_index = {isec.id: n + k for k, isec in enumerate(net.intersections)}
    n += len(net.intersections)

    A = np.zeros((n, n))
    rhs = np.zeros(n)

    def permeability(bid, e):
        return 1.0 / coefficients[bid][e]

    for bid in mesh.branch_ids:
        x = mesh.nodes[bid]
        h = np.diff(x)
        ne = len(h)
        f = mesh.force[mesh.network.branch_index[bid]]
        qint = mesh.per_element(source_integrals(mesh))[bid]
        for e in range(ne):
            rhs[cell_index[(bid, e)]] += qint[e]
        # interior faces
        for e in range(ne - 1):
            resistance = h[e] / (2 * permeability(bid, e)) + h[e + 1] / (
                2 * permeability(bid, e + 1)
            )
            dist = 0.5 * (h[e] + h[e + 1])
            i, j = cell_index[(bid, e)], cell_index[(bid, e + 1)]
            # flux in +x across the face: (p_i - p_j + f*dist)/resistance
            A[i, i] += 1.0 / resistance
            A[i, j] -= 1.0 / resistance
            rhs[i] -= f * dist / resistance
            A[j, j] += 1.0 / resistance
            A[j, i] -= 1.0 / resistance
            rhs[j] += f * dist / resistance
        # branch ends
        for which, cell, n_out in ((START, 0, -1.0), (END, ne - 1, 1.0)):
            i = cell_index[(bid, cell)]
            half = h[cell] / (2 * permeability(bid, cell))
            dist = h[cell] / 2
            bc = bcs.condition_at(bid, which)
            end = (bid, which)
            junction = next(
                (isec.id for isec in net.intersections if end in isec.incident), None
            )
            if junction is not None:
                j = junction_index[junction]
                # +x end-face flux seen from the cell; inflow to the junction
                # is -F at a start end and +F at an end end.
                if which == START:
                    # F = (pi_j - p_i + f*dist)/half ; balance row i gets -F
                    A[i, i] += 1.0 / half
                    A[i, j] -= 1.0 / half
                    rhs[i] += f * dist / half
                    A[j, i] += 1.0 / half
                    A[j, j] -= 1.0 / half
                    rhs[j] += f * dist / half
                else:
                    # F = (p_i - pi_j + f*dist)/half ; balance row i gets +F
                    A[i, i] += 1.0 / half
                    A[i, j] -= 1.0 / half
                    rhs[i] -= f * dist / half
                    A[j, i] += 1.0 / half
                    A[j, j] -= 1.0 / half
                    rhs[j] -= f * dist / half
            elif isinstance(bc, PressureBC):
                if which == START:
                    # F = (p0 - p_i + f*dist)/half ; row i gets -F
                    A[i, i] += 1.0 / half
                    rhs[i] += bc.pressure / half + f * dist / half
                else:
                    A[i, i] += 1.0 / half
                    rhs[i] += bc.pressure / half - f * dist / half
            elif isinstance(bc, VelocityBC):
                flux_px = bc.outflux * n_out
                if which == START:
                    rhs[i] += flux_px
                else:
                    rhs[i] -= flux_px
            else:
                raise AssertionError(f"unclosed end {end}")

    pressures = {}
    sol = np.linalg.solve(A, rhs)
    for bid in mesh.branch_ids:
        ne = len(mesh.nodes[bid]) - 1
        pressures[bid] = np.array([sol[cell_index[(bid, e)]] for e in range(ne)])
    junction = {iid: float(sol[k]) for iid, k in junction_index.items()}

    fluxes = {}
    for bid in mesh.branch_ids:
        x = mesh.nodes[bid]
        h = np.diff(x)
        ne = len(h)
        f = mesh.force[mesh.network.branch_index[bid]]
        p = pressures[bid]
        vals = np.empty(ne + 1)
        for e in range(ne - 1):
            resistance = (
                h[e] * coefficients[bid][e] / 2 + h[e + 1] * coefficients[bid][e + 1] / 2
            )
            dist = 0.5 * (h[e] + h[e + 1])
            vals[e + 1] = (p[e] - p[e + 1] + f * dist) / resistance
        for which, cell, node in ((START, 0, 0), (END, ne - 1, ne)):
            half = h[cell] * coefficients[bid][cell] / 2
            dist = h[cell] / 2
            bc = bcs.condition_at(bid, which)
            end = (bid, which)
            junction_id = next(
                (isec.id for isec in net.intersections if end in isec.incident), None
            )
            if junction_id is not None:
                boundary_value = junction[junction_id]
            elif isinstance(bc, PressureBC):
                boundary_value = bc.pressure
            else:
                vals[node] = bc.outflux * (-1.0 if which == START else 1.0)
                continue
            if which == START:
                vals[node] = (boundary_value - p[cell] + f * dist) / half
            else:
                vals[node] = (p[cell] - boundary_value + f * dist) / half
        fluxes[bid] = vals
    return pressures, junction, fluxes


def sparse_saddle_solve(mesh, regimes, law, frozen_speed, bcs):
    """The whole mixed system, assembled in coordinate form and solved by SuperLU.

    Unknowns: the flux at every node whose flux no velocity condition
    prescribes, the pressure of every element, one pressure per
    intersection, and a mean-pressure multiplier when no pressure condition
    exists. Flux rows carry the flux mass matrix (coefficient frozen per
    element at ``frozen_speed``: a number or per-branch arrays), the
    pressure coupling, half the body force per element end and the pressure
    data as natural boundary terms. Returns (flux over all nodes, pressure
    over all elements, junction pressures in ``intersections`` order), the
    pressures shifted to the prescribed mean when it is imposed.
    """
    net = mesh.network
    n_nodes, n_elements = len(mesh.x), mesh.total_elements
    n_junctions = len(net.intersections)
    has_mean = not any(isinstance(c, PressureBC) for c in bcs.conditions.values())
    n_full = n_nodes + n_elements + n_junctions + has_mean
    left = mesh.left
    right = left + 1
    h = mesh.x[right] - mesh.x[left]
    if isinstance(frozen_speed, (int, float)):
        speed = np.full(n_elements, float(frozen_speed))
    else:
        speed = np.concatenate([frozen_speed[b] for b in mesh.branch_ids])
    coeff = eval_lambda_coefficient(law, speed, regimes.on(mesh))

    def end_node(bid, which):
        k = net.branch_index[bid]
        return mesh.node_offset[k + 1] - 1 if which == END else mesh.node_offset[k]

    rhs = np.zeros(n_full)
    half_force = mesh.force[mesh.element_branch] * h / 2.0
    np.add.at(rhs, left, half_force)
    np.add.at(rhs, right, half_force)
    free = np.ones(n_nodes, dtype=bool)
    prescribed = np.zeros(n_full)
    for (bid, which), bc in bcs.conditions.items():
        node = end_node(bid, which)
        n_out = 1.0 if which == END else -1.0
        if isinstance(bc, VelocityBC):
            free[node] = False
            prescribed[node] = bc.outflux * n_out
        else:
            rhs[node] -= bc.pressure * n_out
    pressure = n_nodes + np.arange(n_elements)
    rhs[pressure] = -source_integrals(mesh)

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
    for j, isec in enumerate(net.intersections):
        for bid, which in isec.incident:
            node = np.array([end_node(bid, which)])
            sign = np.array([1.0 if which == END else -1.0])
            rows += [node, np.array([n_nodes + n_elements + j])]
            cols += [np.array([n_nodes + n_elements + j]), node]
            vals += [sign, sign]
    rows, cols, vals = (np.concatenate(v) for v in (rows, cols, vals))
    full = sps.csr_matrix((vals, (rows, cols)), shape=(n_full, n_full))
    rhs -= full @ prescribed
    keep = np.concatenate([free, np.ones(n_full - n_nodes, dtype=bool)])
    x = spla.spsolve(full[keep][:, keep].tocsc(), rhs[keep])

    n_free = int(free.sum())
    flux = prescribed[:n_nodes].copy()
    flux[free] = x[:n_free]
    pressures = x[n_free : n_free + n_elements + n_junctions]
    if has_mean:
        pressures = pressures + bcs.mean_pressure - np.dot(pressures[:n_elements], h) / (
            net.total_length
        )
    return flux, pressures[:n_elements], pressures[n_elements:]


def junction_continuity_defect(solution: Solution) -> float:
    """Largest spread among the per-branch implied pressures of one intersection."""
    owner = solution.mesh.network.junction_incidence[:, 2]
    spreads = [np.ptp(solution.junction_implied[owner == j]) for j in np.unique(owner)]
    return float(max(spreads, default=0.0))


def midpoint_dissipation(values, nodes, law, subdivisions=10_000):
    """Brute-force midpoint rule for the dissipation of a nodal field."""
    total = 0.0
    for e in range(len(nodes) - 1):
        xs = np.linspace(nodes[e], nodes[e + 1], subdivisions + 1)
        mids = 0.5 * (xs[:-1] + xs[1:])
        w = values[e] + (values[e + 1] - values[e]) * (mids - nodes[e]) / (
            nodes[e + 1] - nodes[e]
        )
        total += float(
            np.sum(law.potential_physical(w**2)) * (nodes[e + 1] - nodes[e]) / subdivisions
        )
    return total


def hausdorff_by_enumeration(set_a, set_b):
    """Direct double-loop symmetric Hausdorff distance between point sets."""
    if not set_a and not set_b:
        return 0.0
    if not set_a or not set_b:
        return math.inf

    def one_way(p, q):
        worst = 0.0
        for bp, xp in p:
            best = math.inf
            for bq, xq in q:
                if bq == bp:
                    best = min(best, abs(xp - xq))
            worst = max(worst, best)
        return worst

    return max(one_way(set_a, set_b), one_way(set_b, set_a))


def configuration_distance(a, b) -> float:
    """Symmetric Hausdorff distance between two interface point sets.

    ``a`` and ``b`` are configurations or (branch id, arc) lists. The
    distance is the tracker's ``_distance`` on their ``branch_keys``:
    measured in arc length along a branch, with points on different branches
    infinitely far apart, as is a nonempty set from an empty one. Two empty
    sets are at distance zero.
    """
    code: dict[str, int] = {}

    def keys(points) -> np.ndarray:
        points = tuple(getattr(points, "interfaces", points))
        branch = [code.setdefault(bid, len(code)) for bid, _ in points]
        arcs = np.array([arc for _, arc in points])
        return branch_keys(np.array(branch, dtype=float), arcs)

    return _distance(keys(a), keys(b))


def random_network(rng, with_sources=True, velocity_fraction=0.35):
    """Random small network: a single branch, a chain, a star or two stars.

    Always carries at least one pressure condition so the pressure level is
    anchored without the mean constraint.
    """
    kind = rng.choice(["single", "chain", "star", "double"])
    branches: list[Branch] = []
    intersections: list[Intersection] = []

    def point(k, n):
        angle = 2 * math.pi * k / max(n, 1) + 0.1
        radius = 0.5 + 0.5 * float(rng.uniform(0.3, 1.0))
        return (radius * math.cos(angle), radius * math.sin(angle))

    if kind == "single":
        branches.append(Branch("b0", (0.0, 0.0), (float(rng.uniform(0.5, 2.0)), 0.0)))
    elif kind == "chain":
        count = int(rng.integers(2, 4))
        xs = np.cumsum(rng.uniform(0.4, 1.2, count + 1))
        pts = [(float(x), 0.0) for x in xs]
        for k in range(count):
            branches.append(Branch(f"b{k}", pts[k], pts[k + 1]))
        for k in range(count - 1):
            intersections.append(
                Intersection(
                    f"J{k}", pts[k + 1], ((f"b{k}", END), (f"b{k+1}", START))
                )
            )
    elif kind == "star":
        count = int(rng.integers(3, 6))
        center = (0.0, 0.0)
        for k in range(count):
            branches.append(Branch(f"b{k}", point(k, count), center))
        intersections.append(
            Intersection("J0", center, tuple((f"b{k}", END) for k in range(count)))
        )
    else:
        left, right = (-1.0, 0.0), (1.0, 0.0)
        branches.append(Branch("bridge", left, right))
        legs_left = 2
        legs_right = 2
        for k in range(legs_left):
            branches.append(Branch(f"l{k}", (left[0] - 1, left[1] + k + 0.5), left))
        for k in range(legs_right):
            branches.append(Branch(f"r{k}", (right[0] + 1, right[1] + k + 0.5), right))
        intersections.append(
            Intersection(
                "JL",
                left,
                (("bridge", START),) + tuple((f"l{k}", END) for k in range(legs_left)),
            )
        )
        intersections.append(
            Intersection(
                "JR",
                right,
                (("bridge", END),) + tuple((f"r{k}", END) for k in range(legs_right)),
            )
        )

    return _with_data(rng, branches, intersections, with_sources, velocity_fraction)


def _with_data(rng, branches, intersections, with_sources=True, velocity_fraction=0.35):
    """The network of ``branches`` and ``intersections`` with random data.

    Every free end gets a pressure or, with probability ``velocity_fraction``
    and never the first, a velocity condition; most branches get a piecewise
    constant source, and the network a small body force.
    """
    network = FractureNetwork(branches=tuple(branches), intersections=tuple(intersections))
    junctions = network.junction_ends
    free = [(b.id, w) for b in branches for w in (START, END) if (b.id, w) not in junctions]
    conditions = {}
    for k, end in enumerate(free):
        if k > 0 and rng.uniform() < velocity_fraction:
            conditions[end] = VelocityBC(float(rng.uniform(-0.5, 0.5)))
        else:
            conditions[end] = PressureBC(float(rng.uniform(-1.0, 1.0)))

    scalar = {}
    if with_sources:
        for b in branches:
            if rng.uniform() < 0.7:
                n_break = int(rng.integers(0, 3))
                bps = tuple(sorted(rng.uniform(0.1, 0.9, n_break) * b.length))
                vals = tuple(float(v) for v in rng.uniform(-1.0, 1.0, n_break + 1))
                scalar[b.id] = PiecewiseSource(breakpoints=bps, pieces=vals)
    force = (float(rng.uniform(-0.2, 0.2)), float(rng.uniform(-0.2, 0.2)))

    return FractureNetwork(
        branches=tuple(branches),
        intersections=tuple(intersections),
        boundary=BoundarySpec(conditions=conditions),
        sources=SourceSpec(scalar=scalar, force=force),
    )


# Shortest piece of a segment ``random_dfn`` keeps, far above COINCIDENCE_TOL.
DFN_FLOOR = 0.02
# ``random_dfn`` draws lengths with density proportional to 1/l² on this range.
DFN_LENGTHS = (0.2, 1.0)


def random_dfn(rng, count):
    """Random network with loops: ``count`` segments, split where they cross.

    The segments have uniform centres in the unit square, uniform
    orientations and power-law lengths (the DFN length model; Bonnet et al.,
    Rev. Geophys. 39, 2001). Every crossing becomes an intersection of the
    four pieces around it. Points of one segment closer than ``DFN_FLOOR``
    merge, a crossing keeping its place: a piece that short is dropped, so a
    crossing near a segment's end becomes a T. Only the connected part with
    the most branches is kept; its data are drawn as ``random_network``'s.
    """
    centre = rng.uniform(0.0, 1.0, (count, 2))
    angle = rng.uniform(0.0, math.pi, count)
    lo, hi = DFN_LENGTHS
    length = lo * hi / (hi - rng.uniform(size=count) * (hi - lo))  # inverse CDF
    d = length[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    a = centre - 0.5 * d

    # segments i and j cross where a_i + t d_i = a_j + s d_j, 0 < t, s < 1
    def cross(p, q):
        return p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]

    i, j = np.triu_indices(count, 1)
    r, det = a[j] - a[i], cross(d[i], d[j])
    t, s = cross(r, d[j]) / det, cross(r, d[i]) / det
    hit = (0.0 < t) & (t < 1.0) & (0.0 < s) & (s < 1.0)
    i, j, t, s = i[hit], j[hit], t[hit], s[hit]

    # points: the crossings, then the start and end of every segment; a
    # merged group of points is its lowest-numbered one
    n = len(t)
    point = np.concatenate([a[i] + t[:, None] * d[i], np.stack([a, a + d], 1).reshape(-1, 2)])
    on = [[(0.0, n + 2 * k), (1.0, n + 2 * k + 1)] for k in range(count)]
    for c in range(n):
        on[i[c]].append((t[c], c))
        on[j[c]].append((s[c], c))
    for stops in on:
        stops.sort()
    parent = list(range(len(point)))

    def root(p):
        while parent[p] != p:
            p = parent[p]
        return p

    def join(p, q):
        p, q = root(p), root(q)
        parent[max(p, q)] = min(p, q)

    for k, stops in enumerate(on):
        for (t0, p), (t1, q) in zip(stops, stops[1:]):
            if (t1 - t0) * length[k] < DFN_FLOOR:
                join(p, q)
    pieces = []
    for stops in on:
        ends = [root(p) for _, p in stops]
        pieces += [(p, q) for p, q in zip(ends, ends[1:]) if p != q]
    # the pieces keep their ends' groups; joining along them finds the parts
    for p, q in pieces:
        join(p, q)
    part = [root(p) for p, _ in pieces]
    biggest = max(set(part), key=lambda c: (part.count(c), -c))
    pieces = [piece for piece, c in zip(pieces, part) if c == biggest]

    branches, incident = [], {}
    for k, (p, q) in enumerate(pieces):
        branches.append(Branch(f"b{k}", tuple(point[p].tolist()), tuple(point[q].tolist())))
        incident.setdefault(p, []).append((f"b{k}", START))
        incident.setdefault(q, []).append((f"b{k}", END))
    intersections = [
        Intersection(f"J{p}", tuple(point[p].tolist()), tuple(ends))
        for p, ends in incident.items()
        if len(ends) > 1
    ]
    return _with_data(rng, branches, intersections)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, lo, hi, tol):
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = f(x2)
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


def flux_antiderivative(law: AdaptiveLaw, w):
    """G(w) = integral from 0 to w of law.potential_physical(s**2) ds, closed form.

    Odd in w. Exact antiderivatives exist for the constant and affine
    branch kinds.
    """
    ubar = law.threshold
    w = np.asarray(w, dtype=float)
    s = np.sign(w)
    x = np.abs(w)

    def poly(coeffs, x):
        c0, c1, c15 = coeffs
        return ubar**2 * c0 * x + c1 * x**3 / 3.0 + c15 * x**4 / (4.0 * ubar)

    lo = law.low_normalized.potential_coefficients()
    hi = law.high_normalized.potential_coefficients()
    inner = poly(lo, np.minimum(x, ubar))
    outer = poly(hi, np.maximum(x, ubar)) - poly(hi, ubar)
    return s * (inner + outer)


def _element_quotients(alphas, lifted: np.ndarray, mesh: Mesh, prim, limit):
    """Sum over elements of h * (prim(wb) - prim(wa)) / (wb - wa), per alpha.

    wa and wb are the element's node values of the lifted field plus alpha.
    An element with equal node values contributes h * limit(wa), where limit
    is the derivative of prim. prim is evaluated once per node and alpha.
    """
    w = alphas[None, :] + lifted[:, None]
    delta = np.diff(lifted)[:, None]
    h = mesh.element_lengths[:, None]
    return _divided(h, w[:-1], delta, np.diff(prim(w), axis=0), limit).sum(axis=0)


def _slopes(alphas: np.ndarray, lifted: np.ndarray, mesh: Mesh, law: AdaptiveLaw) -> np.ndarray:
    """Derivative E'(alpha) at each alpha, in closed form.

    Per element, the difference quotient of the dissipation potential over
    the element's node values, summed over every element at every alpha: the
    reference for the package's running-sum ``_bracket_slopes``. On a
    breakpoint where E' jumps it returns one of the two one-sided values.
    """
    dissipation = _element_quotients(alphas, lifted, mesh, *_potential(law))
    return dissipation - tangential_forcing(mesh) * mesh.lengths[0]


def closed_form_energies(alphas, lifted, mesh, law) -> np.ndarray:
    """Reduced energy E(alpha) at each alpha from antiderivative difference quotients.

    Per element, h times the difference of the antiderivative of the flux
    potential over the node values, divided by their difference: exact in
    arithmetic, but the quotient cancels about 1e-13 near |alpha| = 10.
    """
    x = mesh.x
    lifted_integral = float(np.dot(np.diff(x), 0.5 * (lifted[:-1] + lifted[1:])))
    dissipation = _element_quotients(
        alphas,
        lifted,
        mesh,
        lambda w: flux_antiderivative(law, w),
        lambda w: law.potential_physical(w**2),
    )
    return dissipation - tangential_forcing(mesh) * (alphas * (x[-1] - x[0]) + lifted_integral)


@dataclass(eq=False)
class GridMinimization(MinimizationResult):
    """A ``MinimizationResult`` whose ``alphas`` are a scan grid, with ``energies``
    the values of E on it."""

    energies: np.ndarray = field(repr=False, default=None)


def brute_reduce(mesh, law, alpha_max=10.0, count=100_001):
    """Brute-force minimization of the reduced energy of a pressure-only branch.

    Scans the closed-form E(alpha) on a uniform grid over [-alpha_max,
    alpha_max], refines every grid minimum within 1e-8 of the best grid value
    by golden section (to 1e-10) between its grid neighbours, and
    returns a ``GridMinimization`` whose ``alphas``/``energies`` are the
    grid and E on it. Location accuracy is limited to sqrt(machine eps) by
    value rounding.
    """
    lifted = lift_field(mesh)
    alphas = np.linspace(-alpha_max, alpha_max, count)
    energies = closed_form_energies(alphas, lifted, mesh, law)

    def scalar_energy(a):
        return float(closed_form_energies(np.array([a]), lifted, mesh, law)[0])

    interior = np.arange(1, len(alphas) - 1)
    is_local_min = (energies[interior] <= energies[interior - 1]) & (
        energies[interior] <= energies[interior + 1]
    )
    minima_idx = list(interior[is_local_min])
    global_idx = int(np.argmin(energies))
    if global_idx not in minima_idx:
        minima_idx.append(global_idx)

    best_grid = energies[global_idx]
    candidates = []
    for idx in sorted(minima_idx):
        if energies[idx] > best_grid + 1e-8:
            continue
        lo = alphas[max(idx - 1, 0)]
        hi = alphas[min(idx + 1, len(alphas) - 1)]
        candidates.append(_golden_section(scalar_energy, lo, hi, 1e-10))

    alpha_star, energy = min(candidates, key=lambda pair: pair[1])
    return GridMinimization(
        alpha_star=alpha_star,
        energy=energy,
        candidates=candidates,
        alphas=alphas,
        energies=energies,
    )


def bisect_reduce(mesh, law):
    """Exact minimization with the zeros of E' bisected, a drop-in for
    ``reduce_and_minimize`` on a pressure-only branch.

    The same breakpoint brackets, four-point Chebyshev fits (by ``chebfit``),
    per-bracket ``chebroots`` and candidate selection; each interval where a
    fitted cubic turns from negative to nonnegative is then bisected 64 times
    on the closed-form E', which shrinks it below one unit in the last place.
    The bracket ends are read with ``chebval``, as the intervals are, so a
    zero on a breakpoint is found by one of the two tests. E at the zeros is
    ``closed_form_energies``, not the package's quadrature.
    """
    lifted = lift_field(mesh)
    amax = ALPHA_MAX
    w, u = lifted, law.threshold
    kinks = np.concatenate([-w, u - w, -u - w])
    alphas = np.unique(np.concatenate([[-amax, amax], kinks[np.abs(kinks) < amax]]))

    lo, hi = alphas[:-1], alphas[1:]
    cheb = np.polynomial.chebyshev
    nodes = np.cos(np.pi * np.arange(7, 0, -2) / 8.0)
    s = (nodes + 1.0) / 2.0
    samples = _slopes((lo[:, None] * (1.0 - s) + hi[:, None] * s).ravel(), lifted, mesh, law)
    coeffs = cheb.chebfit(nodes, samples.reshape(-1, 4).T, 3).T
    at_lo, at_hi = cheb.chebval([-1.0, 1.0], coeffs.T).T
    on_breakpoints = lo[1:][(at_hi[:-1] < 0.0) & (at_lo[1:] >= 0.0)]
    size = np.abs(coeffs).sum(axis=1)
    left, right = [], []
    for k in np.flatnonzero(2.0 * np.abs(coeffs[:, 0]) <= size * (1.0 + 1e-8)):
        roots = cheb.chebroots(cheb.chebtrim(coeffs[k], 1e-13 * size[k]))
        real = roots.real[np.abs(roots.imag) <= 1e-9]
        t = np.unique(np.clip(real[np.abs(real) <= 1.0 + 1e-9], -1.0, 1.0))
        t = np.concatenate([[-1.0], 0.5 * (t[1:] + t[:-1]), [1.0]])
        values = cheb.chebval(t, coeffs[k])
        rising = (values[:-1] < 0.0) & (values[1:] >= 0.0)
        ends = lo[k] * (1.0 - t) / 2.0 + hi[k] * (1.0 + t) / 2.0
        left.extend(ends[:-1][rising])
        right.extend(ends[1:][rising])
    a, b = np.array(left), np.array(right)
    for _ in range(64):
        mid = 0.5 * (a + b)
        below = _slopes(mid, lifted, mesh, law) < 0.0
        a, b = np.where(below, mid, a), np.where(below, b, mid)
    zeros = np.sort(np.concatenate([on_breakpoints, b]))
    zeros = zeros[np.diff(zeros, prepend=-np.inf) > 1e-9]

    points = np.concatenate([[-amax], zeros, [amax]])
    values = closed_form_energies(points, lifted, mesh, law)
    best = int(np.argmin(values))
    keep = values <= values[best] + NEAR_OPTIMAL_WINDOW
    keep[[0, -1]] = False
    keep[best] = True
    return MinimizationResult(
        alpha_star=float(points[best]),
        energy=float(values[best]),
        candidates=[(float(a), float(e)) for a, e in zip(points[keep], values[keep])],
        alphas=alphas,
    )


def loop_energy_of(field, mesh, law):
    """Element-by-element kink-split Gauss quadrature, a drop-in for ``energy_of``.

    Each element is cut at the points where the linear field crosses the
    threshold speed, its negative and zero, and a 3-point Gauss rule is
    applied on every piece; the load is summed element by element.
    """
    values = np.asarray(field, dtype=float)
    x = mesh.x
    if len(values) != len(x):
        raise ValueError("field values do not match the mesh nodes")
    forcing = tangential_forcing(mesh)
    pts, wts = np.polynomial.legendre.leggauss(3)
    dissipation = 0.0
    load = 0.0
    for e in range(len(x) - 1):
        x1, x2, w1, w2 = float(x[e]), float(x[e + 1]), float(values[e]), float(values[e + 1])
        cuts = [x1, x2]
        if w2 != w1:
            for level in (law.threshold, -law.threshold, 0.0):
                t = (level - w1) / (w2 - w1)
                if 0.0 < t < 1.0:
                    cuts.append(x1 + t * (x2 - x1))
        cuts.sort()
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            if b - a <= 0.0:
                continue
            xs = 0.5 * (b - a) * pts + 0.5 * (a + b)
            ws = w1 + (w2 - w1) * (xs - x1) / (x2 - x1)
            total += 0.5 * (b - a) * float(np.dot(wts, law.potential_physical(ws**2)))
        dissipation += total
        load += forcing * 0.5 * (values[e] + values[e + 1]) * (x[e + 1] - x[e])
    return EnergyReport(
        dissipation=dissipation, load=load, energy=dissipation - load, forcing=forcing
    )


def plain_picard(mesh, regimes, law, settings=PicardSettings()):
    """Unaccelerated fixed-point iteration, a drop-in for ``picard_solve``.

    Solves at the previous solve's midpoint speeds and stops on the relative
    update between consecutive stacked solution vectors; ``settings.depth``
    is ignored.
    """
    if _is_linear(regimes.on(mesh), law):
        system = assemble(mesh, regimes, law, 0.0)
        return PicardResult(solve_saddle(system), 1, [0.0], True)
    speeds = 0.0
    previous = None
    history = []
    for iterations in range(1, settings.max_iterations + 1):
        solution = solve_saddle(assemble(mesh, regimes, law, speeds))
        current = solution.stacked()
        if previous is not None:
            scale = max(float(np.linalg.norm(current)), 1e-300)
            history.append(float(np.linalg.norm(current - previous)) / scale)
            if history[-1] <= settings.tolerance:
                return PicardResult(solution, iterations, history, True)
        previous = current
        speeds = frozen_speeds(mesh, solution.flux.array)
    return PicardResult(solution, iterations, history, False)


def linspace_partition(length, required, target_h) -> np.ndarray:
    """Quasi-uniform partition of [0, length] through all required points.

    One ``np.linspace`` per interval between consecutive required points,
    with as few elements as keep them no longer than ``target_h``.
    """
    anchors = sorted({0.0, length, *required})
    parts = [np.array([0.0])]
    for a, b in zip(anchors, anchors[1:]):
        n = max(1, math.ceil((b - a) / target_h - 1e-12))
        parts.append(np.linspace(a, b, n + 1)[1:])
    return np.concatenate(parts)


def point_arrays(mesh: Mesh, points) -> tuple[np.ndarray, np.ndarray]:
    """(branch id, arc) points as the branch positions and arcs ``split_mesh_at`` takes."""
    index = mesh.network.branch_index
    branch = np.array([index[bid] for bid, _ in points], dtype=np.intp)
    return branch, np.array([arc for _, arc in points], dtype=float)


def loop_split_mesh_at(mesh: Mesh, points) -> Mesh:
    """``split_mesh_at`` point by point.

    Each point, in the given order, becomes a node unless it lies within
    ``1e-12`` of a node or of a point inserted before it.
    """
    extra: dict[str, list[float]] = {}
    for bid, arc in points:
        if bid not in mesh.nodes:
            raise KeyError(f"unknown branch {bid!r}")
        length = mesh.network.branch(bid).length
        if not (0.0 <= arc <= length):
            raise ValueError(f"point {arc} outside branch {bid!r} of length {length}")
        extra.setdefault(bid, []).append(arc)
    parts = []
    for bid in mesh.branch_ids:
        existing = list(mesh.nodes[bid])
        for arc in extra.get(bid, ()):
            if min(abs(arc - x) for x in existing) > COINCIDENCE_TOL:
                existing.append(arc)
        parts.append(np.array(sorted(existing)))
    return Mesh(
        network=mesh.network,
        x=np.concatenate(parts),
        node_offset=np.cumsum([0] + [len(p) for p in parts]),
        force=mesh.force,
    )


# A run is a maximal labelled interval [a, b] on a branch; runs tile [0, L]
# and change labels only at interface points.
Run = tuple[float, float, Regime]
InterfacePoint = tuple[str, float]


class PlainConfiguration(NamedTuple):
    """``plain_track``'s record of a configuration: labels on the base mesh
    split at the interfaces, and the interfaces in element order."""

    regimes: RegimeField
    interfaces: tuple[InterfacePoint, ...]


def crossing_levels(u1: float, u2: float, threshold: float) -> list[float]:
    """The levels ±threshold that the linear flux from u1 to u2 meets, in order.

    One, signed as the flux at the high-speed end, where exactly one end's
    speed is below the threshold; both, each end's sign in turn, where both
    ends are high with opposite signs; none otherwise.
    """
    low1, low2 = abs(u1) < threshold, abs(u2) < threshold
    if low1 != low2:
        return [math.copysign(threshold, u2 if low1 else u1)]
    if low1 or (u1 < 0.0) == (u2 < 0.0):
        return []
    return [math.copysign(threshold, u1), math.copysign(threshold, u2)]


def crossings(x1: float, x2: float, u1: float, u2: float, threshold: float) -> list[float]:
    """Arcs where the linear flux from u1 at x1 to u2 at x2 meets the levels
    of ``crossing_levels``, in closed form."""
    levels = crossing_levels(u1, u2, threshold)
    return [x1 + (level - u1) / (u2 - u1) * (x2 - x1) for level in levels]


def bisect_crossings(x1: float, x2: float, u1: float, u2: float, threshold: float) -> list[float]:
    """Arcs where the linear flux from u1 at x1 to u2 at x2 meets the levels
    of ``crossing_levels``, by bisection down to adjacent floats.

    At a level signed s, the flux is on the high side while s·u ≥ threshold.
    Each midpoint is compared in exact rational arithmetic, so every result
    is within an ulp of the true crossing.
    """
    X1, U1, T = Fraction(x1), Fraction(u1), Fraction(threshold)
    slope = (Fraction(u2) - U1) / (Fraction(x2) - X1)
    arcs = []
    for level in crossing_levels(u1, u2, threshold):
        s = 1 if level > 0.0 else -1
        high_at_a = s * U1 >= T
        a, b = x1, x2
        while (m := 0.5 * (a + b)) not in (a, b):
            if (s * (U1 + slope * (Fraction(m) - X1)) >= T) == high_at_a:
                a = m
            else:
                b = m
        arcs.append(m)
    return arcs


def classify_branch(
    nodes: np.ndarray, flux: np.ndarray, threshold: float
) -> tuple[list[Run], list[float]]:
    """Runs and interfaces of one branch, element by element; the label
    flips at every crossing."""
    raw: list[list] = []
    interfaces: list[float] = []
    for e in range(len(nodes) - 1):
        u1, u2 = float(flux[e]), float(flux[e + 1])
        label = Regime.LOW if abs(u1) < threshold else Regime.HIGH
        xs = crossings(float(nodes[e]), float(nodes[e + 1]), u1, u2, threshold)
        interfaces += xs
        cuts = [nodes[e], *xs, nodes[e + 1]]
        for a, b in zip(cuts[:-1], cuts[1:]):
            raw.append([a, b, label])
            label = Regime(1 - label)
    merged: list[list] = []
    for a, b, lab in raw:
        if b - a <= 0.0:
            continue
        if merged and merged[-1][2] == lab:
            merged[-1][1] = b
        else:
            merged.append([a, b, lab])
    return [(a, b, lab) for a, b, lab in merged], interfaces


def midpoints(x: np.ndarray) -> np.ndarray:
    """Midpoints of the elements between consecutive nodes ``x`` of one branch."""
    return 0.5 * (x[:-1] + x[1:])


def labels_from_runs(mesh: Mesh, runs_by_branch: dict[str, list[Run]]) -> RegimeField:
    """The label of the run that holds each element's midpoint."""
    labels = {}
    for bid in mesh.branch_ids:
        runs = runs_by_branch[bid]
        ends = np.array([b for _, b, _ in runs])
        owner = np.searchsorted(ends, midpoints(mesh.nodes[bid]), side="left")
        run_labels = np.array([int(lab) for _, _, lab in runs], dtype=np.int8)
        labels[bid] = run_labels[np.minimum(owner, len(runs) - 1)]
    return RegimeField(labels)


def run_signature(base: Mesh, runs_by_branch: dict[str, list[Run]]) -> tuple:
    labels = labels_from_runs(base, runs_by_branch).labels
    return tuple(tuple(int(v) for v in labels[bid]) for bid in base.branch_ids)


def uniform_runs(base: Mesh, regimes: RegimeField) -> dict[str, list[Run]]:
    """The runs of equal labels of a regime field on the base mesh."""
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


def plain_track(
    mesh: Mesh,
    law: AdaptiveLaw,
    picard_settings: PicardSettings = PicardSettings(),
    settings: TrackerSettings = TrackerSettings(),
    initial: str | RegimeField = "low",
    trace: bool = False,
) -> TrackerReport:
    """The outer loop without mixing, a drop-in for ``track``.

    Every outer iteration solves on the configuration the previous one
    classified.
    """
    threshold = law.threshold

    if isinstance(initial, RegimeField):
        initial.on(mesh)
        start_regimes = initial
    elif initial in ("low", "high"):
        start_regimes = RegimeField.uniform(
            mesh, Regime.LOW if initial == "low" else Regime.HIGH
        )
    else:
        raise ValueError(f"unknown initial configuration {initial!r}")

    runs_prev = uniform_runs(mesh, start_regimes)
    gamma_prev: tuple[InterfacePoint, ...] = ()
    signatures: list[tuple] = [run_signature(mesh, runs_prev)]

    history: list[HistoryEntry] = []
    snapshots: list[Solution] | None = [] if trace else None
    status = TrackerStatus.MAX_ITERATIONS
    period: int | None = None
    last_result: PicardResult | None = None

    for i in range(1, settings.max_outer + 1):
        working = loop_split_mesh_at(mesh, gamma_prev)
        regimes = labels_from_runs(working, runs_prev)
        try:
            last_result = picard_solve(working, regimes, law, picard_settings)
        except Exception as exc:
            # prefix the message in place: the error keeps its type and
            # attributes whatever arguments its constructor takes
            exc.args = (f"outer iteration {i}: {exc}",)
            raise
        solution = last_result.solution

        runs_new: dict[str, list[Run]] = {}
        gamma_new: list[InterfacePoint] = []
        for bid in working.branch_ids:
            runs, crossings = classify_branch(working.nodes[bid], solution.flux[bid], threshold)
            runs_new[bid] = runs
            gamma_new.extend((bid, arc) for arc in crossings)
        gamma_tuple = tuple(gamma_new)

        distance = hausdorff_by_enumeration(gamma_tuple, gamma_prev)
        next_mesh = loop_split_mesh_at(mesh, gamma_tuple)
        configuration = PlainConfiguration(
            regimes=labels_from_runs(next_mesh, runs_new),
            interfaces=gamma_tuple,
        )
        history.append(
            HistoryEntry(
                configuration=configuration,
                distance=distance,
                inner_iterations=last_result.iterations,
                inner_converged=last_result.converged,
            )
        )
        if snapshots is not None:
            snapshots.append(solution)

        sig = run_signature(mesh, runs_new)
        if distance <= settings.eps_omega and sig == signatures[-1]:
            status = TrackerStatus.CONVERGED
            break

        period = _detect_period(signatures, sig, OSCILLATION_WINDOW)
        if period is not None:
            status = TrackerStatus.OSCILLATING
            break
        signatures.append(sig)
        runs_prev = runs_new
        gamma_prev = gamma_tuple

    return TrackerReport(
        status=status,
        period=period if status == TrackerStatus.OSCILLATING else None,
        history=history,
        final_solution=last_result.solution,
        snapshots=snapshots,
    )


def per_branch_fields(solution):
    """``export.solution_fields`` built branch by branch, one ``tolist`` per slice."""
    mesh = solution.mesh

    def block(arc, values):
        return {
            "arc": np.asarray(arc, dtype=float).tolist(),
            "value": np.asarray(values, dtype=float).tolist(),
        }

    return {
        "flux": {b: block(mesh.nodes[b], solution.flux[b]) for b in mesh.branch_ids},
        "pressure": {
            b: block(midpoints(mesh.nodes[b]), solution.pressure[b]) for b in mesh.branch_ids
        },
        "junction_pressure": {k: float(v) for k, v in sorted(solution.junction_pressure.items())},
    }


def per_branch_regimes(regimes):
    """``export._regime_block`` built branch by branch."""
    return {b: np.asarray(labels).tolist() for b, labels in sorted(regimes.labels.items())}
