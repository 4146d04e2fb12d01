"""The flat mesh and tracker helpers against the per-branch loops they replaced.

Each property draws a random network from ``oracles.random_network``, meshes
and splits it, and requires the array version to agree with the loop in
``oracles.py`` exactly: same floats, same labels, same decisions. The arrays
a mesh caches are held to the expressions they were first computed by.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfnflow.fem import RegimeField
from dfnflow.meshing import _GAUSS5, branch_keys, build_mesh, split_mesh_at
from dfnflow.network import (
    BoundarySpec,
    Branch,
    FractureNetwork,
    PiecewiseSource,
    PressureBC,
    SourceSpec,
)
from dfnflow.tracker import (
    _changes_of,
    _classify,
    _labels_on,
    _moved,
)

from oracles import (
    classify_branch,
    configuration_distance,
    hausdorff_by_enumeration,
    labels_from_runs,
    linspace_partition,
    loop_split_mesh_at,
    point_arrays,
    random_network,
    uniform_runs,
)
from test_fem import _callable_sources

THRESHOLD = 0.15


def random_points(rng, mesh, count):
    """(branch, arc) points: random arcs, nodes, points within 1e-12 of a
    node and pairs of points within 1e-12 of each other."""
    points = []
    for _ in range(count):
        bid = str(rng.choice(mesh.branch_ids))
        x = mesh.nodes[bid]
        kind = rng.integers(4)
        if kind == 0:
            points.append((bid, float(rng.uniform(0.0, x[-1]))))
        elif kind == 1:
            points.append((bid, float(rng.choice(x))))
        elif kind == 2:
            # near a node, then possibly just beyond reach of the node but
            # within reach of that point
            node = float(rng.choice(x[1:-1])) if len(x) > 2 else 0.0
            below = node > 0.0 and rng.random() < 0.5
            points.append((bid, node - 5e-13 if below else node + 5e-13))
            if rng.random() < 0.5:
                points.append((bid, node + 1.2e-12))
        else:
            arc = float(rng.uniform(0.1, 0.9) * x[-1])
            points += [(bid, arc), (bid, arc + 5e-13)]
    return points


def random_flux(rng, mesh):
    """Nodal fluxes that hit the threshold exactly, change sign inside
    elements and sit on either side of the threshold; sometimes no node is
    below it."""
    if rng.random() < 0.1:
        return np.full(len(mesh.x), 2 * THRESHOLD)
    flux = rng.choice(THRESHOLD * np.array([1, -1, 0.5, -0.5, 2, -2, 0]), len(mesh.x))
    noisy = rng.random(len(mesh.x)) < 0.5
    flux[noisy] = rng.uniform(-0.4, 0.4, int(noisy.sum()))
    return flux


def split_base(rng, mesh):
    points = random_points(rng, mesh, int(rng.integers(0, 6)))
    return split_mesh_at(mesh, *point_arrays(mesh, points))


@st.composite
def parallel_branches(draw):
    """Unconnected parallel branches of random lengths with pressure ends and
    random breakpoints: next to a branch end, close enough to another to leave
    an interval shorter than the mesh size, and in a quarter of the networks
    one on a branch end; and a mesh size that may exceed every branch."""
    lengths = draw(st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=4))
    branches = tuple(
        Branch(f"b{k}", (0.0, 2.0 * k), (length, 2.0 * k)) for k, length in enumerate(lengths)
    )
    on_end = draw(st.sampled_from([None] * 6 + [0.0, 1.0]))
    scalar = {}
    for j, b in enumerate(draw(st.permutations(branches))):
        length = b.length
        inside = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(lambda t: t * length)
        near_end = st.sampled_from([math.nextafter(0.0, 1.0), math.nextafter(length, 0.0)])
        bps = draw(st.lists(st.one_of(inside, near_end), max_size=4))
        if j == 0 and on_end is not None:
            bps.append(on_end * length)
        bps += [bp + draw(st.floats(1e-12, 1e-4)) * length for bp in bps[: draw(st.integers(0, 2))]]
        bps = sorted(set(bps))
        if bps or draw(st.booleans()):
            scalar[b.id] = PiecewiseSource(breakpoints=tuple(bps), pieces=(1.0,) * (len(bps) + 1))
    conditions = {(b.id, end): PressureBC(0.0) for b in branches for end in ("start", "end")}
    network = FractureNetwork(
        branches=branches,
        boundary=BoundarySpec(conditions),
        sources=SourceSpec(scalar=scalar),
    )
    longest = max(b.length for b in branches)
    target_h = draw(st.one_of(st.floats(longest / 2000, longest), st.floats(longest, 4 * longest)))
    return network, target_h


@settings(max_examples=300, deadline=None)
@given(case=parallel_branches())
def test_build_mesh_matches_the_linspace_partition_bit_for_bit(case):
    network, target_h = case
    required = {b.id: network.sources.scalar_for(b.id).breakpoints for b in network.branches}
    if not all(0.0 < bp < b.length for b in network.branches for bp in required[b.id]):
        # validation rejects a breakpoint on a branch end before any meshing
        with pytest.raises(ValueError, match="breakpoint-range"):
            build_mesh(network, target_h)
        return
    mesh = build_mesh(network, target_h)
    parts = [linspace_partition(b.length, required[b.id], target_h) for b in network.branches]
    assert mesh.x.tobytes() == np.concatenate(parts).tobytes()
    expected_offset = np.cumsum([0] + [len(p) for p in parts])
    assert mesh.node_offset.tobytes() == expected_offset.tobytes()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_flat_split_matches_the_point_loop(seed):
    rng = np.random.default_rng(seed)
    mesh = build_mesh(random_network(rng), float(rng.uniform(0.1, 0.5)))
    points = random_points(rng, mesh, int(rng.integers(0, 8)))
    # the loop keeps the first of two close points, so it gets them in order
    index = mesh.network.branch_index
    expected = loop_split_mesh_at(mesh, sorted(points, key=lambda p: (index[p[0]], p[1])))
    rng.shuffle(points)
    got = split_mesh_at(mesh, *point_arrays(mesh, points))
    assert got.x.tobytes() == expected.x.tobytes()
    assert np.array_equal(got.node_offset, expected.node_offset)
    again = split_mesh_at(got, *point_arrays(got, points))
    assert again.x.tobytes() == got.x.tobytes()


def test_split_keeps_the_smaller_of_two_close_points_and_skips_near_nodes():
    mesh = build_mesh(random_network(np.random.default_rng(3)), 0.25)
    bid = mesh.branch_ids[0]
    x = mesh.nodes[bid]
    node = float(x[1])
    arc = float(0.5 * (x[1] + x[2]))
    points = [(bid, arc + 5e-13), (bid, node + 5e-13), (bid, arc)]
    got = split_mesh_at(mesh, *point_arrays(mesh, points)).nodes[bid]
    assert got.tolist() == sorted([*x.tolist(), arc])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_flat_classification_and_labels_match_the_run_loops(seed):
    rng = np.random.default_rng(seed)
    base = build_mesh(random_network(rng), float(rng.uniform(0.1, 0.5)))
    working = split_base(rng, base)
    flux = random_flux(rng, working)

    changes = _classify(working, flux, THRESHOLD)
    # admissible: every interface separates two runs of positive length
    runs, interfaces, admissible = {}, [], True
    for bid in working.branch_ids:
        branch_runs, crossings = classify_branch(
            working.nodes[bid], working.per_node(flux)[bid], THRESHOLD
        )
        runs[bid] = branch_runs
        interfaces += [(bid, arc) for arc in crossings]
        admissible &= len(branch_runs) == len(crossings) + 1
    names = [working.branch_ids[k] for k in changes.branch]
    assert list(zip(names, changes.arc.tolist())) == interfaces
    assert (_moved(working, changes, changes.arc) is not None) == admissible

    # labels on the working mesh, on the base mesh (the signature) and on
    # the base mesh split at the new interfaces
    for mesh in (working, base, split_mesh_at(base, *point_arrays(base, interfaces))):
        expected = labels_from_runs(mesh, runs).on(mesh)
        assert _labels_on(mesh, changes).tobytes() == expected.tobytes()


def test_flat_arrays_must_name_only_branches_of_the_mesh():
    mesh = build_mesh(random_network(np.random.default_rng(3)), 0.25)
    labels = {b: np.ones(len(mesh.nodes[b]) - 1, dtype=np.int8) for b in mesh.branch_ids}
    assert mesh.flat_elements(labels, "labels").tolist() == [1] * mesh.total_elements
    extra = {**labels, "nosuch": np.ones(1, dtype=np.int8)}
    with pytest.raises(ValueError, match="labels do not match the mesh: it has no branch 'nosuch'"):
        mesh.flat_elements(extra, "labels")
    with pytest.raises(ValueError, match="it has no branch 'nosuch'"):
        RegimeField(extra).on(mesh)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_change_points_of_labels_reproduce_them(seed):
    rng = np.random.default_rng(seed)
    mesh = build_mesh(random_network(rng), float(rng.uniform(0.1, 0.5)))
    labels = (rng.random(mesh.total_elements) < rng.uniform()).astype(np.int8)
    regimes = RegimeField(mesh.per_element(labels))
    flat = _labels_on(mesh, _changes_of(mesh, labels))
    assert flat.tobytes() == labels.tobytes()
    expected = labels_from_runs(mesh, uniform_runs(mesh, regimes))
    assert expected.on(mesh).tobytes() == labels.tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_distance_matches_the_double_loop(seed):
    # empty sets, shared and distinct branches, equal points and ties
    rng = np.random.default_rng(seed)
    grid = rng.uniform(0.0, 1.0, 4)

    def points():
        n = int(rng.integers(0, 5))
        return [(str(rng.choice(list("pqr"))), float(rng.choice(grid))) for _ in range(n)]

    a, b = points(), points()
    got = configuration_distance(a, b)
    expected = hausdorff_by_enumeration(a, b)
    assert got == expected or (math.isinf(got) and math.isinf(expected))


def first_source_integrals(mesh):
    """``source_integrals`` as first written, from the element ends."""
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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cached_mesh_arrays_match_their_first_expressions(seed):
    rng = np.random.default_rng(seed)
    base = build_mesh(_callable_sources(random_network(rng), rng), float(rng.uniform(0.1, 0.5)))
    for mesh in (base, split_base(rng, base)):
        offset, positions = mesh.node_offset, np.arange(len(mesh.force))
        expected = {
            "node_branch": np.repeat(positions, np.diff(offset)),
            "element_branch": np.repeat(positions, np.diff(mesh.element_offset)),
            "end_nodes": np.column_stack([offset[:-1], offset[1:] - 1]),
            "node_keys": branch_keys(mesh.node_branch, mesh.x),
            "midpoint_keys": branch_keys(mesh.element_branch, mesh.midpoints),
            "element_sources": first_source_integrals(mesh),
        }
        for name, array in expected.items():
            got = getattr(mesh, name)
            assert got.dtype == array.dtype and got.tobytes() == array.tobytes(), name
        plan = mesh.network.boundary_plan
        assert mesh.data_scale == max(
            float(np.abs(mesh.force).max(initial=0.0)) * mesh.h,
            float(np.abs(mesh.element_sources).max()),
            float(np.abs(plan.vertex_pressure).max()),
            float(np.abs(plan.outflux).max()),
            1e-30,
        )
