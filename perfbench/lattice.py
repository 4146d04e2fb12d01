"""Seeded synthetic lattice networks for the ``dfn-networks`` workload.

``n`` horizontal and ``n`` vertical fractures cross the unit square at
seeded, jittered positions. Each fracture is pre-split at its ``n``
crossings, which gives ``2 n (n + 1)`` branches and ``n**2`` four-way
junctions. The west ends carry pressure 0.05, the east ends pressure 0, the
north and south ends no flow. Each branch has, with probability 1/2, a
two-piece scalar source with a seeded breakpoint and rates uniform in
[-10, 10].
"""

from __future__ import annotations

import numpy as np

from dfnflow.network import (
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

P_WEST = 0.05
P_EAST = 0.0
RATE = 10.0


def _positions(rng: np.random.Generator, n: int) -> list[float]:
    # One position per stratum of width 1/n keeps every crossing distinct and
    # every branch longer than a fifth of a stratum.
    jitter = rng.uniform(-0.3, 0.3, size=n)
    return [float((k + 0.5 + j) / n) for k, j in enumerate(jitter)]


def lattice_network(seed: int, n: int = 12) -> FractureNetwork:
    """The lattice for ``seed``; the same seed gives the same network."""
    if n < 1:
        raise ValueError("need at least one fracture per direction")
    rng = np.random.default_rng(seed)
    ys = _positions(rng, n)
    xs = _positions(rng, n)
    cuts_x = [0.0, *xs, 1.0]
    cuts_y = [0.0, *ys, 1.0]

    branches: list[Branch] = []
    for j, y in enumerate(ys):
        for k in range(n + 1):
            branches.append(Branch(f"h{j}.{k}", (cuts_x[k], y), (cuts_x[k + 1], y)))
    for i, x in enumerate(xs):
        for k in range(n + 1):
            branches.append(Branch(f"v{i}.{k}", (x, cuts_y[k]), (x, cuts_y[k + 1])))

    intersections = tuple(
        Intersection(
            id=f"x{i}.{j}",
            point=(xs[i], ys[j]),
            incident=(
                (f"h{j}.{i}", END),
                (f"h{j}.{i + 1}", START),
                (f"v{i}.{j}", END),
                (f"v{i}.{j + 1}", START),
            ),
        )
        for i in range(n)
        for j in range(n)
    )

    conditions = {}
    for j in range(n):
        conditions[(f"h{j}.0", START)] = PressureBC(P_WEST)
        conditions[(f"h{j}.{n}", END)] = PressureBC(P_EAST)
    for i in range(n):
        conditions[(f"v{i}.0", START)] = VelocityBC(0.0)
        conditions[(f"v{i}.{n}", END)] = VelocityBC(0.0)

    scalar = {}
    for branch in branches:
        if rng.random() < 0.5:
            continue
        breakpoint = float(branch.length * rng.uniform(0.2, 0.8))
        rates = rng.uniform(-RATE, RATE, size=2)
        scalar[branch.id] = PiecewiseSource(
            breakpoints=(breakpoint,), pieces=(float(rates[0]), float(rates[1]))
        )

    return FractureNetwork(
        branches=tuple(branches),
        intersections=intersections,
        boundary=BoundarySpec(conditions=conditions),
        sources=SourceSpec(scalar=scalar),
    )
