"""Energy functional of the flow problem and an exact scalar minimizer.

On a single branch with pressure data at both ends, the divergence-free
velocity fields are exactly the constants, so the energy restricted to them
is a scalar function E(alpha) of the constant alpha added to a lifted field
carrying the source and boundary-flux data. That field is the solve's own
``Mesh.source_profile`` (the mean anchor's multiplier included), so the
reduction and the solver see one problem. Its minimizer is an independent
oracle for the mixed finite element solution: the solver's velocity minus the
lifted field must be the constant that minimizes E. With any velocity
condition present the divergence-free space collapses to zero: alpha is fixed
at 0, a search over one point that runs the same evaluation as a free alpha.

Between the breakpoints where a lifted node value plus alpha crosses zero or
the threshold speed, the potential of the flux is a cubic in each node value,
and E' is the sum of its divided differences over the elements. An element
whose node values stay in one piece of the potential adds a quadratic in
alpha; one straddling a kink adds a cubic wherever the cubic term of the
potential changes there (at zero or at the threshold when a law branch has
a nonzero slope), so E' is a cubic on each bracket. Its values at four
points of every bracket come from one running sum over the brackets, of the
quadratics of the elements inside one piece, plus the closed-form quotients
of the elements straddling a kink there; this costs O(N) beyond
sorting the breakpoints, not the O(N**2) of summing all N elements at every
point. Minimizers are located where E' turns from negative to nonnegative:
each such zero is the root of the cubic fitted to the samples of its
bracket. This is the only evaluation of E' here; the tests check its zeros
against ``tests/oracles.py:bisect_reduce``, which bisects the closed-form
E' summed over every element. E' is continuous except where the node value
of a flat element crosses the threshold and the law coefficient jumps.

The dissipation integrand is the law's own piecewise potential,
``AdaptiveLaw.potential_physical``, composed with the squared speed, so
every function here takes the law itself. It is smooth except where the
speed crosses the regime threshold, so elements are pre-split at those
crossings (and at sign changes of the flux) before applying a 3-point Gauss
rule, which is then exact: on each piece the potential of every law branch
is a cubic in the flux. All elements are integrated in one array pass. This
quadrature is the only dissipation integrator: ``energy_of`` runs it on one
field, and the minimizer runs it once on the fields at all the points it
compares, so every energy it reports equals ``energy_of`` of the field it names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import Solution
from .laws import AdaptiveLaw
from .meshing import Mesh

# The minimizer searches alpha in [-ALPHA_MAX, ALPHA_MAX] and reports as
# candidates the minimizers whose energy is within NEAR_OPTIMAL_WINDOW of the
# best.
ALPHA_MAX = 10.0
NEAR_OPTIMAL_WINDOW = 1e-8

# numpy.polynomial.legendre.leggauss(3), bit for bit, without importing numpy.polynomial
_GAUSS3 = (
    np.array([-0.7745966692414834, 0.0, 0.7745966692414834]),
    np.array([0.5555555555555557, 0.8888888888888888, 0.5555555555555557]),
)
# E' is sampled at the four Chebyshev nodes of each bracket; by their discrete
# orthogonality, samples @ _CHEB_FIT are the interpolating cubic's coefficients.
# The columns T0..T3 at the nodes follow chebvander's recurrence.
_CHEB_NODES = np.cos(np.pi * np.arange(7, 0, -2) / 8.0)
_CHEB_S = (_CHEB_NODES + 1.0) / 2.0
_T2 = _CHEB_NODES * (2 * _CHEB_NODES) - 1.0
_T3 = _T2 * (2 * _CHEB_NODES) - _CHEB_NODES
_CHEB_FIT = np.stack([np.ones(4), _CHEB_NODES, _T2, _T3], axis=-1) * [0.25, 0.5, 0.5, 0.5]


def _single_branch(mesh: Mesh) -> None:
    count = len(mesh.branch_ids)
    if count != 1:
        raise ValueError(
            "energy reduction is implemented for single-branch problems only; "
            f"this network has {count} branches"
        )


def lift_field(mesh: Mesh) -> np.ndarray:
    """Node values of the lifted flux of a single-branch problem.

    The field is the solve's ``mesh.source_profile``: value[i+1] - value[i]
    is the source integral over element i plus mu h_i, mu being the mean
    anchor's multiplier (0 without one), so the oracle reduces the problem
    the solver solved. With pressure data at both ends it is anchored at
    zero inflow, value(0) = 0; a velocity condition anchors it to its
    prescribed end flux instead. The remaining constant ambiguity is carried
    by the scalar reduction, not by this field.
    """
    _single_branch(mesh)
    profile = mesh.source_profile
    plan, (start, end) = mesh.network.boundary_plan, mesh.network.end_vertex[0]
    if plan.velocity[start]:
        return profile - plan.outflux[start]
    if plan.velocity[end]:
        return profile + (plan.outflux[end] - profile[-1])
    return profile.copy()


def tangential_forcing(mesh: Mesh) -> float:
    """Constant forcing of the reduced problem on a single branch.

    The tangential body force minus the gradient of the linear extension of
    the pressure boundary data, the known pressure drop over the length; with
    a velocity condition at one end the constant extension of the other
    end's pressure has zero gradient. Pressure data therefore enters the
    energy the same way the mixed solver sees it through its natural
    boundary terms.
    """
    _single_branch(mesh)
    plan = mesh.network.boundary_plan
    if plan.velocity.any():
        return float(mesh.force[0])
    return float(mesh.force[0] - plan.known_drop[0] / mesh.lengths[0])


@dataclass(frozen=True)
class EnergyReport:
    """Dissipation and energy of a flux field, E = D - <f0, field>."""

    dissipation: float
    load: float
    energy: float
    forcing: float


def _dissipation_and_load(
    values: np.ndarray, x: np.ndarray, forcing: float, law: AdaptiveLaw
) -> tuple[np.ndarray, np.ndarray]:
    """Dissipation and load of every row of node values, shape (..., nodes).

    Each element is cut where the linear field crosses the threshold speed,
    its negative and zero, and the 3-point Gauss rule runs on the up to four
    pieces at once; a cut that does not fall inside its element stays at the
    element's start as a piece of length zero. The load term uses the
    constant reduced forcing, integrated exactly against the piecewise
    linear field. Every row is integrated as it would be on its own.
    """
    # axes: rows if any, element, cut or piece, Gauss point
    x1, x2 = x[:-1, None, None], x[1:, None, None]
    w1, w2 = values[..., :-1, None, None], values[..., 1:, None, None]
    levels = np.array([[law.threshold], [-law.threshold], [0.0]])
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (levels - w1) / (w2 - w1)
    inside = (t > 0.0) & (t < 1.0)  # never true for a flat element's inf or nan
    ends = (np.broadcast_to(x1, w1.shape), np.broadcast_to(x2, w1.shape))
    cuts = np.concatenate([ends[0], np.where(inside, x1 + t * (x2 - x1), x1), ends[1]], axis=-2)
    cuts.sort(axis=-2)
    a, b = cuts[..., :-1, :], cuts[..., 1:, :]
    pts, wts = _GAUSS3
    xs = 0.5 * (b - a) * pts + 0.5 * (a + b)
    ws = w1 + (w2 - w1) * (xs - x1) / (x2 - x1)
    pieces = 0.5 * (b - a)[..., 0] * (law.potential_physical(ws**2) @ wts)
    dissipation = pieces.reshape(*values.shape[:-1], -1).sum(axis=-1)
    # the load is accumulated in element order, as a running sum
    load = np.cumsum(forcing * 0.5 * (values[..., :-1] + values[..., 1:]) * np.diff(x), axis=-1)
    return dissipation, load[..., -1]


def energy_of(values, mesh: Mesh, law: AdaptiveLaw) -> EnergyReport:
    """Dissipation and energy of the node values of a flux on a single branch.

    The field is the total flux (lifted part included).
    """
    forcing = tangential_forcing(mesh)
    values = np.asarray(values, dtype=float)
    if len(values) != len(mesh.x):
        raise ValueError("field values do not match the mesh nodes")
    dissipation, load = _dissipation_and_load(values, mesh.x, forcing, law)
    return EnergyReport(
        dissipation=float(dissipation),
        load=float(load),
        energy=float(dissipation - load),
        forcing=forcing,
    )


@dataclass(eq=False)
class MinimizationResult:
    """Outcome of the exact breakpoint-bracketed minimization; compares by identity.

    ``candidates`` lists every local minimizer whose energy lies within the
    near-optimal window of the global value; in the convex case it has a
    single entry. ``alphas`` holds the sorted breakpoints of E inside the
    search interval plus its two ends, or just 0 when a velocity condition
    fixes alpha, and ``lifted`` the lifted field that alpha is added to.
    """

    alpha_star: float
    energy: float
    candidates: list[tuple[float, float]]
    alphas: np.ndarray = field(repr=False, default=None)
    lifted: np.ndarray = field(repr=False, default=None)


def _divided(h, wa, delta, difference, limit) -> np.ndarray:
    """h * difference / delta, elementwise, the arrays broadcasting together.

    Where |delta| < 1e-14 the element counts as flat and the quotient is
    h * limit(wa), limit being the derivative of the function differenced.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = h * difference / delta
    flat = np.abs(delta) < 1e-14
    if flat.any():
        flat = np.broadcast_to(flat, quotient.shape)
        h, wa = (np.broadcast_to(array, quotient.shape)[flat] for array in (h, wa))
        quotient[flat] = h * limit(wa)
    return quotient


def _potential(law: AdaptiveLaw):
    """The potential of the flux, prim(w) = potential_physical(w**2), and its derivative."""
    return lambda w: law.potential_physical(w**2), lambda w: w * law.phi(w**2 / law.threshold**2)


def _bracket_slopes(
    alphas: np.ndarray, lifted: np.ndarray, mesh: Mesh, law: AdaptiveLaw
) -> np.ndarray:
    """E' at the four Chebyshev points of every bracket between consecutive alphas.

    ``alphas`` are the sorted breakpoints and the two ends of the search
    interval, as ``reduce_and_minimize`` builds them; returns shape
    (brackets, 4). On each piece of the node value v, (-inf, -u), [-u, 0),
    [0, u] and (u, inf), the potential of the flux is u**2 c0 + c1 v**2 +
    c15 |v|**3 / u with the coefficients of the law branch in force. An
    element whose node values a and b lie in one piece adds that cubic's
    divided difference, h [c1 (a + b) +- c15 (a**2 + ab + b**2) / u], a
    quadratic in alpha: its coefficients are added at the bracket where the
    element enters the piece and taken off where it leaves, and one running
    sum over the brackets holds every bracket's quadratic. An element
    straddling a kink, over the brackets between the breakpoints of its two
    nodes, adds its closed-form quotient at the sample points directly, so
    no 1/(b - a) enters the running sum. Time and memory are O(N) in the
    element count N beyond the sort of the breakpoints, as long as each
    straddled range holds few breakpoints.
    """
    w, u, h = lifted, law.threshold, mesh.element_lengths
    brackets = len(alphas) - 1
    points = alphas[:-1, None] * (1.0 - _CHEB_S) + alphas[1:, None] * _CHEB_S
    # the bracket each node's breakpoint at the kinks -u, 0 and u opens, as
    # computed for alphas; a breakpoint outside the search interval clips
    rank = np.minimum(np.searchsorted(alphas, np.stack([-u - w, -w, u - w])), brackets)
    first = np.minimum(rank[:, :-1], rank[:, 1:])  # (kink, element)
    last = np.maximum(rank[:, :-1], rank[:, 1:])

    # per piece: the brackets holding both node values, the quadratic there
    start = np.concatenate([np.zeros((1, len(h)), dtype=first.dtype), last])
    end = np.concatenate([first, np.full((1, len(h)), brackets)])
    low = law.low_normalized.potential_coefficients()
    high = law.high_normalized.potential_coefficients()
    square = np.array([high[1], low[1], low[1], high[1]])[:, None]
    cube = np.array([-high[2], -low[2], low[2], high[2]])[:, None] / u
    sums, products = w[:-1] + w[1:], w[:-1] ** 2 + w[:-1] * w[1:] + w[1:] ** 2
    quadratic = h[:, None] * np.stack(
        [
            square * sums + cube * products,
            2.0 * square + 3.0 * cube * sums,
            3.0 * cube * np.ones_like(sums),
        ],
        axis=-1,
    )
    inside = start < end
    jumps = np.bincount(
        (np.concatenate([start[inside], end[inside]])[:, None] * 3 + np.arange(3)).ravel(),
        np.concatenate([quadratic[inside], -quadratic[inside]]).ravel(),
        minlength=3 * (brackets + 1),
    )
    c0, c1, c2 = np.cumsum(jumps.reshape(-1, 3)[:-1], axis=0).T[:, :, None]
    samples = c0 + points * (c1 + points * c2)

    # the brackets straddling each kink, less those of the kink below, so
    # that an element straddling two kinks at once counts once
    lower = np.concatenate([first[:1], np.maximum(first[1:], last[:-1])]).ravel()
    counts = np.maximum(last.ravel() - lower, 0)
    element = np.repeat(np.tile(np.arange(len(h)), 3), counts)
    bracket = np.repeat(lower - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    wa, wb = w[element, None] + points[bracket], w[element + 1, None] + points[bracket]
    prim, limit = _potential(law)
    delta = np.diff(w)[element, None]
    straddling = _divided(h[element, None], wa, delta, prim(wb) - prim(wa), limit)
    samples += np.bincount(
        (bracket[:, None] * 4 + np.arange(4)).ravel(), straddling.ravel(), minlength=4 * brackets
    ).reshape(-1, 4)
    return samples - tangential_forcing(mesh) * mesh.lengths[0]


def _cheb_value(x, c):
    """The Chebyshev series c[0] T0 + c[1] T1 + ... at x, by Clenshaw's recurrence.

    ``c`` holds at least three coefficients along its first axis, broadcast
    against ``x``; the steps are ``numpy.polynomial.chebyshev.chebval``'s, so
    the values are its values bit for bit.
    """
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for ck in c[-3::-1]:
        c0, c1 = ck - c1, c0 + c1 * x2
    return c0 + c1 * x


def _cheb_roots(c, tol: float) -> np.ndarray:
    """Roots of a Chebyshev series of degree at most 3, trailing terms |c_k| <= tol dropped.

    The eigenvalues of the series' colleague matrix (Good, Quart. J. Math.
    12, 1961), built, rotated and sorted as ``chebroots(chebtrim(c, tol))``
    does, so the roots are its roots bit for bit.
    """
    kept = np.flatnonzero(np.abs(c) > tol)
    c = c[: kept[-1] + 1] if len(kept) else c[:1]
    if len(c) < 2:
        return np.array([], dtype=c.dtype)
    if len(c) == 2:
        return np.array([-c[0] / c[1]])
    n = len(c) - 1
    scale = np.array([1.0] + [np.sqrt(0.5)] * (n - 1))
    off = np.array([np.sqrt(0.5), 0.5][: n - 1])
    mat = np.diag(off, 1) + np.diag(off, -1)
    mat[:, -1] -= (c[:-1] / c[-1]) * (scale / scale[-1]) * 0.5
    roots = np.linalg.eigvals(mat[::-1, ::-1])
    roots.sort()
    return roots


def _rising_zeros(lo: np.ndarray, hi: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Every point where E' turns from negative to nonnegative, left to right.

    Between breakpoints the potential is a cubic in the node values, so E',
    a sum of its divided differences, is a polynomial of degree at most
    three in alpha on each bracket [lo, hi]: an element inside one piece of
    the potential adds a quadratic, one straddling a kink a cubic.
    ``samples`` holds E' at the bracket's four interior Chebyshev points, so
    no sample lies on a breakpoint, where E' jumps if an element is flat;
    the cubic fitted to them is E' on the bracket up to rounding. The real
    roots of each cubic split its bracket into intervals holding one root
    each. In an interval whose ends read E' < 0 <= E', the zero is the
    cubic's root, or the bracket's right end where rounding left the
    interval without one; ``tests/oracles.py:bisect_reduce`` bisects the
    closed-form E' there instead, and the tests hold the two within 1e-12.
    A breakpoint where the cubic on its left ends below zero and the one on
    its right starts at or above zero is itself such a point. Points within 1e-9 of each other
    are one zero seen from two brackets through rounding, reported once.
    """
    coeffs = samples @ _CHEB_FIT
    # the same evaluation as the intervals below, so both tests read one sign at a breakpoint
    at_lo, at_hi = _cheb_value(np.array([[-1.0], [1.0]]), coeffs.T)
    on_breakpoints = lo[1:][(at_hi[:-1] < 0.0) & (at_lo[1:] >= 0.0)]
    # |c0| > sum |ck| bounds the cubic away from zero on [-1, 1]
    size = np.abs(coeffs).sum(axis=1)
    rising = []  # bracket and the zero in [-1, 1]
    for k in np.flatnonzero(2.0 * np.abs(coeffs[:, 0]) <= size * (1.0 + 1e-8)):
        roots = _cheb_roots(coeffs[k], 1e-13 * size[k])
        real = roots.real[np.abs(roots.imag) <= 1e-9]
        roots = np.sort(np.clip(real[np.abs(real) <= 1.0 + 1e-9], -1.0, 1.0))
        # not np.unique, whose first call imports numpy.ma (numpy 2.x), a
        # module the run path keeps out of sys.modules
        roots = roots[np.diff(roots, prepend=-np.inf) > 0.0]
        t = np.concatenate([[-1.0], 0.5 * (roots[1:] + roots[:-1]), [1.0]])
        values = _cheb_value(t, coeffs[k])
        for j in np.flatnonzero((values[:-1] < 0.0) & (values[1:] >= 0.0)):
            rising.append((k, roots[j] if len(roots) else 1.0))
    k, t = np.array(rising).reshape(-1, 2).T
    k = k.astype(int)
    zeros = np.sort(np.concatenate([on_breakpoints, lo[k] + (hi - lo)[k] * (1.0 + t) / 2.0]))
    return zeros[np.diff(zeros, prepend=-np.inf) > 1e-9]


def reduce_and_minimize(mesh: Mesh, law: AdaptiveLaw) -> MinimizationResult:
    """Minimize the reduced scalar energy of a single-branch problem.

    With a velocity condition anywhere on the boundary the divergence-free
    space is trivial: alpha is fixed at 0, and the search below runs on that
    one point. Otherwise E is piecewise smooth with breakpoints where a
    lifted node value plus alpha crosses 0 or the threshold speed; its local
    minimizers are the points where E' turns from - to +, found bracket by
    bracket as the roots of the cubics fitted to its samples.
    E at them and at the ends of the search interval comes from one batched
    call of the quadrature ``energy_of`` runs. An end of the search interval
    counts as a candidate when it is the global minimum.
    """
    lifted = lift_field(mesh)
    if mesh.network.boundary_plan.velocity.any():
        alphas = points = np.array([0.0])
    else:
        w, u = lifted, law.threshold
        kinks = np.concatenate([-w, u - w, -u - w])
        inside = kinks[np.abs(kinks) < ALPHA_MAX]
        alphas = np.sort(np.concatenate([[-ALPHA_MAX, ALPHA_MAX], inside]))
        # not np.unique, for the reason given in _rising_zeros
        alphas = alphas[np.diff(alphas, prepend=-np.inf) > 0.0]
        zeros = _rising_zeros(alphas[:-1], alphas[1:], _bracket_slopes(alphas, lifted, mesh, law))
        points = np.concatenate([[-ALPHA_MAX], zeros, [ALPHA_MAX]])
    dissipation, load = _dissipation_and_load(
        lifted + points[:, None], mesh.x, tangential_forcing(mesh), law
    )
    values = dissipation - load
    best = int(np.argmin(values))
    keep = values <= values[best] + NEAR_OPTIMAL_WINDOW
    keep[[0, -1]] = False
    keep[best] = True
    return MinimizationResult(
        alpha_star=float(points[best]),
        energy=float(values[best]),
        candidates=[(float(a), float(e)) for a, e in zip(points[keep], values[keep])],
        alphas=alphas,
        lifted=lifted,
    )


def build_energy_block(solution: Solution, law: AdaptiveLaw) -> dict:
    """Energy summary of a single-branch solution, JSON-ready.

    Evaluates the dissipation and energy of the solver's flux on its own
    working mesh and runs the scalar reduction next to it; the offset
    statistics quantify how far the flux deviates from lifted-plus-constant
    form, which is the discrete reduction the oracle relies on.
    """
    work, flux = solution.mesh, solution.flux.array
    report = energy_of(flux, work, law)
    reduction = reduce_and_minimize(work, law)
    offsets = flux - reduction.lifted
    return {
        "dissipation": report.dissipation,
        "load": report.load,
        "energy": report.energy,
        "forcing": report.forcing,
        "alpha_star": reduction.alpha_star,
        "alpha_energy": reduction.energy,
        "candidates": [[a, e] for a, e in reduction.candidates],
        "fem_offset_mean": float(np.mean(offsets)),
        "fem_offset_spread": float(np.max(offsets) - np.min(offsets)),
    }
