"""Mesh generation on fracture networks.

Each branch is partitioned into segments in arc coordinates. Source
breakpoints are forced to be mesh nodes so the scalar source is evaluable
piece by piece on every element, and branch endpoints (hence every junction)
are always nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

from .network import COINCIDENCE_TOL, FractureNetwork, validate_network

# numpy.polynomial.legendre.leggauss(5), bit for bit, without importing numpy.polynomial
_GAUSS5 = (
    np.array([-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831, 0.906179845938664]),
    np.array([0.23692688505618928, 0.4786286704993663, 0.5688888888888887, 0.4786286704993663,
              0.23692688505618928]),
)


def branch_keys(branch: np.ndarray, arc: np.ndarray) -> np.ndarray:
    """(branch position, arc) pairs as complex numbers.

    NumPy sorts and searches complex arrays lexicographically, by real part
    and then by imaginary part, so these keys order points by branch and
    then by arc, comparing both exactly.
    """
    keys = np.empty(len(arc), dtype=complex)
    keys.real = branch
    keys.imag = arc
    return keys


class BranchArrays(Mapping):
    """Read-only mapping from branch id to its slice of one flat array.

    Branch ``k`` of ``index`` owns ``array[offset[k]:offset[k + 1]]``; the
    slices are views, so the mapping costs nothing to build.
    """

    def __init__(self, index: Mapping[str, int], array: np.ndarray, offset: np.ndarray):
        self.index = index
        self.array = array
        self.offset = offset

    def __getitem__(self, branch_id: str) -> np.ndarray:
        k = self.index[branch_id]
        return self.array[self.offset[k] : self.offset[k + 1]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)


@dataclass(frozen=True)
class Mesh:
    """1D mesh over a fracture network, stored as one flat node array.

    ``x`` holds the arc coordinates of the nodes of every branch, branch by
    branch in ``network.branches`` order. Branch ``k`` owns the nodes
    ``node_offset[k]:node_offset[k + 1]``, strictly increasing from 0 to its
    length, and the elements ``element_offset[k]:element_offset[k + 1]``,
    the intervals between consecutive nodes; element ``e`` runs from node
    ``left[e]`` to node ``left[e] + 1``. ``nodes[b]`` is the view of branch
    ``b``'s nodes, and ``force[k]`` the body force along branch ``k``'s
    tangent. Arrays are read-only; meshes are safe to share.
    """

    network: FractureNetwork
    x: np.ndarray
    node_offset: np.ndarray
    force: np.ndarray

    def __post_init__(self):
        for arr in (self.x, self.node_offset, self.force):
            arr.flags.writeable = False

    @property
    def branch_ids(self) -> tuple[str, ...]:
        return self.network.branch_ids

    @cached_property
    def element_offset(self) -> np.ndarray:
        return self.node_offset - np.arange(len(self.node_offset))

    @cached_property
    def element_branch(self) -> np.ndarray:
        """Branch position of every element."""
        return np.repeat(np.arange(len(self.force)), np.diff(self.element_offset))

    @cached_property
    def node_branch(self) -> np.ndarray:
        """Branch position of every node."""
        return np.repeat(np.arange(len(self.force)), np.diff(self.node_offset))

    @cached_property
    def left(self) -> np.ndarray:
        """Global left node of every element."""
        return np.arange(self.total_elements) + self.element_branch

    @cached_property
    def element_lengths(self) -> np.ndarray:
        return self.x[self.left + 1] - self.x[self.left]

    @cached_property
    def end_nodes(self) -> np.ndarray:
        """Global node of the start and of the end of every branch, one row each."""
        return np.column_stack([self.node_offset[:-1], self.node_offset[1:] - 1])

    @cached_property
    def lengths(self) -> np.ndarray:
        """Length of every branch, its last node."""
        return self.x[self.node_offset[1:] - 1]

    @cached_property
    def nodes(self) -> BranchArrays:
        return self.per_node(self.x)

    def per_node(self, values: np.ndarray) -> BranchArrays:
        """Per-branch views of an array over all nodes."""
        return BranchArrays(self.network.branch_index, values, self.node_offset)

    def per_element(self, values: np.ndarray) -> BranchArrays:
        """Per-branch views of an array over all elements."""
        return BranchArrays(self.network.branch_index, values, self.element_offset)

    def flat_elements(self, values: Mapping[str, np.ndarray], what: str) -> np.ndarray:
        """Per-branch arrays over the elements as one array in mesh order.

        Raises ``ValueError`` naming ``what`` when they do not match the mesh.
        """
        if isinstance(values, BranchArrays) and values.offset is self.element_offset:
            return values.array
        counts = np.diff(self.element_offset)
        # every branch must be given below, so only a surplus key can name no branch
        if len(values) > len(counts):
            extra = next(b for b in values if b not in self.network.branch_index)
            raise ValueError(f"{what} do not match the mesh: it has no branch {extra!r}")
        for b, count in zip(self.branch_ids, counts.tolist()):
            given = len(values[b]) if b in values else 0
            if given != count:
                raise ValueError(
                    f"{what} do not match the mesh on branch {b!r}: "
                    f"{given} values for its {count} elements"
                )
        return np.concatenate([values[b] for b in self.branch_ids])

    @property
    def total_elements(self) -> int:
        return len(self.x) - len(self.force)

    @cached_property
    def midpoints(self) -> np.ndarray:
        """Midpoint of every element."""
        return 0.5 * (self.x[self.left] + self.x[self.left + 1])

    @property
    def h(self) -> float:
        """Global mesh size, the largest element length on any branch."""
        return float(self.element_lengths.max())

    @cached_property
    def element_sources(self) -> np.ndarray:
        """Integral of the network's scalar source over every element."""
        return source_integrals(self)

    @cached_property
    def mean_multiplier(self) -> float:
        """μ, the uniform sink balancing sources and outfluxes under the mean anchor; else 0."""
        plan = self.network.boundary_plan
        if plan.mean_pressure is None:
            return 0.0
        return (plan.outflux.sum() - self.element_sources.sum()) / self.network.total_length

    @cached_property
    def source_profile(self) -> np.ndarray:
        """Nodal flux up to a constant per branch: the source integral from its start + μx."""
        profile = np.zeros(len(self.x))
        profile[self.left + 1] = self.element_sources
        profile = np.cumsum(profile)
        profile -= profile[self.node_offset[:-1]][self.node_branch]
        return profile + self.mean_multiplier * self.x


def source_integrals(mesh: Mesh) -> np.ndarray:
    """Integral of the network's scalar source over every element, in mesh order.

    Constant pieces integrate exactly; callable pieces use a 5-point Gauss
    rule per element. Breakpoints are mesh nodes by construction, so every
    element lies inside a single piece: the one holding its midpoint, looked
    up in the network's ``source_pieces``.
    """
    table = mesh.network.source_pieces
    branch = mesh.element_branch
    piece = table.base[branch] + np.searchsorted(table.breaks, branch_keys(branch, mesh.midpoints))
    sourced = table.sourced[branch]

    a, b = mesh.x[mesh.left], mesh.x[mesh.left + 1]
    out = table.rate[np.where(sourced, piece, -1)] * (b - a)
    pts, wts = _GAUSS5
    for j, p in table.callables:
        sel = np.flatnonzero(sourced & (piece == j))
        half = 0.5 * (b[sel] - a[sel])
        xs = half[:, None] * pts + 0.5 * (a[sel] + b[sel])[:, None]
        out[sel] = half * (p(xs.ravel()).reshape(xs.shape) @ wts)
    return out


def build_mesh(network: FractureNetwork, target_h: float) -> Mesh:
    """Mesh every branch with elements no longer than ``target_h``.

    Raises ``ValueError`` for a target size that is not positive (NaN
    included) or an invalid network; ``inf`` gives the coarsest mesh. Source
    breakpoints become nodes; between consecutive required points the
    partition is uniform. The validation verdict belongs to the network
    object (see ``validate_network``), so meshing it again does not re-check it.
    """
    if not target_h > 0:
        raise ValueError(f"target mesh size must be positive, got {target_h}")
    report = validate_network(network)
    if not report.ok:
        raise ValueError(f"cannot mesh an invalid network:\n{report}")

    # Each branch's required points in order: its start, its breakpoints (strictly
    # inside, by validation) and its end, so 0.0 marks the starts. Point b ends the
    # interval from the point a before it (a start: from 0.0), meshed as linspace
    # does: node i at i * ((b - a) / n) + a for i = 1..n, the last one set to b.
    b = np.array([
        arc for br in network.branches
        for arc in (0.0, *network.sources.scalar_for(br.id).breakpoints, br.length)
    ])
    start = b == 0.0
    a = np.concatenate([[0.0], b[:-1]])
    a[start] = 0.0
    n = np.maximum(1, np.ceil((b - a) / target_h - 1e-12)).astype(np.intp)
    last = np.cumsum(n)
    interval = np.repeat(np.arange(len(n)), n)
    x = (np.arange(1, last[-1] + 1) - (last - n)[interval]) * ((b - a) / n)[interval] + a[interval]
    x[last - 1] = b

    # the force along each branch's unit tangent; lengths are positive, by validation
    fx, fy = network.sources.force
    force = []
    for br in network.branches:
        (x0, y0), (x1, y1), length = br.start, br.end, br.length
        force.append(fx * ((x1 - x0) / length) + fy * ((y1 - y0) / length))
    return Mesh(
        network=network,
        x=x,
        node_offset=np.append((last - n)[start], last[-1]),
        force=np.array(force),
    )


def split_mesh_at(mesh: Mesh, branch: np.ndarray, arc: np.ndarray) -> Mesh:
    """Insert a node at each ``arc`` along the branch at that position in ``branch``.

    A point within ``1e-12`` of a node is skipped. Of the other points on a
    branch, taken in increasing arc order, one within ``1e-12`` of the point
    before it is skipped too, so of two such points the smaller is kept. The
    operation is idempotent and does not depend on the order of the points.
    With no point to insert it returns ``mesh`` itself, cached data and all.
    A position that is no branch's, or an arc off its branch, is a ``ValueError``.
    """
    if not len(arc):
        return mesh
    branch, arc = np.asarray(branch), np.asarray(arc, dtype=float)
    unknown = (branch < 0) | (branch >= len(mesh.force))
    if unknown.any():
        raise ValueError(f"no branch at position {branch[np.argmax(unknown)]}")
    outside = ~((0.0 <= arc) & (arc <= mesh.lengths[branch]))
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(
            f"point {arc[k]} outside branch {mesh.branch_ids[branch[k]]!r} of length "
            f"{mesh.lengths[branch[k]]}"
        )

    keys = np.sort(branch_keys(branch, arc))
    # the nearest nodes below and above; both on the point's branch, which
    # has nodes at 0 and at its length
    above = np.searchsorted(branch_keys(mesh.node_branch, mesh.x), keys, side="right")
    branch, arc, below = keys.real.astype(np.intp), keys.imag, above - 1
    above = np.minimum(above, mesh.node_offset[branch + 1] - 1)
    near_node = np.minimum(np.abs(arc - mesh.x[below]), np.abs(mesh.x[above] - arc))
    keep = near_node > COINCIDENCE_TOL
    branch, arc, below = branch[keep], arc[keep], below[keep]
    keep = (np.diff(arc, prepend=-np.inf) > COINCIDENCE_TOL) | (np.diff(branch, prepend=-1) != 0)
    branch, arc, below = branch[keep], arc[keep], below[keep]
    if not len(arc):
        return mesh
    inserted = np.searchsorted(branch, np.arange(len(mesh.node_offset)))
    return Mesh(
        network=mesh.network,
        x=np.insert(mesh.x, below + 1, arc),
        node_offset=mesh.node_offset + inserted,
        force=mesh.force,
    )
