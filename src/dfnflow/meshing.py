"""Mesh generation on fracture networks.

Each branch is partitioned into segments in arc coordinates. Source
breakpoints are forced to be mesh nodes so the scalar source is evaluable
piece by piece on every element, and branch endpoints (hence every junction)
are always nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .network import COINCIDENCE_TOL, FractureNetwork, validate_network


@dataclass(frozen=True)
class Mesh:
    """Per-branch 1D mesh over a fracture network.

    ``nodes[b]`` holds the strictly increasing arc coordinates of the nodes of
    branch ``b``, starting at 0 and ending at the branch length. Elements are
    the intervals between consecutive nodes. Node arrays are read-only; meshes
    are safe to share.
    """

    network: FractureNetwork
    nodes: Mapping[str, np.ndarray]
    tangential_force: Mapping[str, float]

    def __post_init__(self):
        for arr in self.nodes.values():
            arr.flags.writeable = False

    @property
    def branch_ids(self) -> tuple[str, ...]:
        return self.network.branch_ids

    def element_count(self, branch_id: str) -> int:
        return len(self.nodes[branch_id]) - 1

    @property
    def total_elements(self) -> int:
        return sum(self.element_count(b) for b in self.branch_ids)

    def element_lengths(self, branch_id: str) -> np.ndarray:
        return np.diff(self.nodes[branch_id])

    def element_midpoints(self, branch_id: str) -> np.ndarray:
        x = self.nodes[branch_id]
        return 0.5 * (x[:-1] + x[1:])

    @property
    def h(self) -> float:
        """Global mesh size, the largest element length on any branch."""
        return max(float(self.element_lengths(b).max()) for b in self.branch_ids)


def _partition(length: float, required: Iterable[float], target_h: float) -> np.ndarray:
    """Quasi-uniform partition of [0, length] through all required points."""
    anchors = sorted({0.0, length, *required})
    parts = [np.array([0.0])]
    for a, b in zip(anchors, anchors[1:]):
        n = max(1, math.ceil((b - a) / target_h - 1e-12))
        parts.append(np.linspace(a, b, n + 1)[1:])
    return np.concatenate(parts)


def build_mesh(network: FractureNetwork, target_h: float) -> Mesh:
    """Mesh every branch with elements no longer than ``target_h``.

    Raises ``ValueError`` for a non-positive target size or an invalid
    network. Source breakpoints become nodes; between consecutive required
    points the partition is uniform.
    """
    if target_h <= 0:
        raise ValueError(f"target mesh size must be positive, got {target_h}")
    report = validate_network(network)
    if not report.ok:
        raise ValueError(f"cannot mesh an invalid network:\n{report}")

    fx, fy = network.sources.force
    nodes = {}
    force = {}
    for branch in network.branches:
        source = network.sources.scalar_for(branch.id)
        nodes[branch.id] = _partition(branch.length, source.breakpoints, target_h)
        tx, ty = branch.tangent
        force[branch.id] = fx * tx + fy * ty
    return Mesh(network=network, nodes=nodes, tangential_force=force)


def split_mesh_at(mesh: Mesh, points: Iterable[tuple[str, float]]) -> Mesh:
    """Insert the given (branch, arc) points as mesh nodes.

    Points within ``1e-12`` of an existing node are skipped, so the operation
    is idempotent; the result does not depend on the insertion order.
    """
    extra: dict[str, list[float]] = {}
    for bid, arc in points:
        if bid not in mesh.nodes:
            raise KeyError(f"unknown branch {bid!r}")
        length = mesh.network.branch(bid).length
        if not (0.0 <= arc <= length):
            raise ValueError(f"point {arc} outside branch {bid!r} of length {length}")
        extra.setdefault(bid, []).append(arc)

    nodes = dict(mesh.nodes)
    for bid, arcs in extra.items():
        existing = list(nodes[bid])
        for arc in arcs:
            if min(abs(arc - x) for x in existing) > COINCIDENCE_TOL:
                existing.append(arc)
        nodes[bid] = np.array(sorted(existing))
    return Mesh(network=mesh.network, nodes=nodes, tangential_force=mesh.tangential_force)
