import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfnflow import network
from dfnflow.meshing import build_mesh, split_mesh_at
from dfnflow.network import (
    BoundarySpec,
    Branch,
    FractureNetwork,
    PiecewiseSource,
    PressureBC,
    SourceSpec,
)
from dfnflow.presets import crossing_network


def unit_branch_network(breakpoints=(), pieces=(0.0,)):
    return FractureNetwork(
        branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),),
        boundary=BoundarySpec(
            {("f", "start"): PressureBC(0.0), ("f", "end"): PressureBC(0.0)}
        ),
        sources=SourceSpec(
            scalar={"f": PiecewiseSource(breakpoints=breakpoints, pieces=pieces)}
        ),
    )


def test_build_mesh_respects_breakpoints_and_target_size():
    net = unit_branch_network(breakpoints=(0.3,), pieces=(1.0, -1.0))
    mesh = build_mesh(net, 0.25)
    nodes = mesh.nodes["f"]
    assert nodes[0] == 0.0 and nodes[-1] == 1.0
    assert np.any(np.isclose(nodes, 0.3))
    assert np.all(np.diff(nodes) > 0)
    assert mesh.h <= 0.25 + 1e-12


def test_build_mesh_coarsest_partition():
    mesh = build_mesh(unit_branch_network(), 1.0)
    assert np.allclose(mesh.nodes["f"], [0.0, 1.0])
    assert len(mesh.nodes["f"]) == 2


def test_crossing_network_mesh_has_junction_node_at_half_arc():
    mesh = build_mesh(crossing_network(), 0.05)
    # each branch ends at the crossing, half a unit along the parent fracture
    for bid in mesh.branch_ids:
        assert np.any(np.isclose(mesh.nodes[bid], 0.5))


def test_tangential_force_projection():
    net = FractureNetwork(
        branches=(
            Branch("x", (0.0, 0.0), (1.0, 0.0)),
            Branch("y", (2.0, 0.0), (2.0, 1.0)),
            Branch("d", (3.0, 0.0), (4.0, 1.0)),
        ),
        boundary=BoundarySpec(
            {
                (b, e): PressureBC(0.0)
                for b in ("x", "y", "d")
                for e in ("start", "end")
            }
        ),
        sources=SourceSpec(force=(0.05, 0.0)),
    )
    mesh = build_mesh(net, 0.5)
    assert mesh.branch_ids == ("x", "y", "d")
    assert mesh.force == pytest.approx([0.05, 0.0, 0.05 / np.sqrt(2)])


def test_split_inserts_interior_point():
    mesh = build_mesh(unit_branch_network(), 0.5)
    assert np.allclose(mesh.nodes["f"], [0.0, 0.5, 1.0])
    fine = split_mesh_at(mesh, [("f", 0.25)])
    assert np.allclose(fine.nodes["f"], [0.0, 0.25, 0.5, 1.0])


def test_split_is_idempotent_on_existing_nodes():
    mesh = build_mesh(unit_branch_network(), 0.5)
    same = split_mesh_at(mesh, [("f", 0.5)])
    assert np.array_equal(same.nodes["f"], mesh.nodes["f"])


def test_split_without_a_new_node_returns_the_mesh_itself():
    # the working mesh keeps the base mesh's cached source profile
    mesh = build_mesh(unit_branch_network(), 0.5)
    assert split_mesh_at(mesh, []) is mesh
    assert split_mesh_at(mesh, [("f", 0.5), ("f", 1.0 - 1e-13)]) is mesh


def test_working_meshes_of_one_network_share_one_source_table(monkeypatch):
    # the piece table is built once per network; a mesh only looks up the
    # piece of each of its elements
    built = []
    real = network.SourcePieces

    def counted(**fields):
        built.append(fields)
        return real(**fields)

    monkeypatch.setattr(network, "SourcePieces", counted)
    net = unit_branch_network((0.3, 0.7), (1.0, lambda x: x**2, -0.5))
    base = build_mesh(net, 0.1)
    work = split_mesh_at(base, [("f", 0.25), ("f", 0.55)])
    exact = 0.3 + (0.7**3 - 0.3**3) / 3.0 - 0.5 * 0.3
    for mesh in (base, work):
        assert mesh.element_sources.sum() == pytest.approx(exact, abs=1e-14)
    assert len(built) == 1
    assert work.network.source_pieces is base.network.source_pieces


def test_split_increases_element_count_per_new_point():
    mesh = build_mesh(unit_branch_network(), 1.0)
    fine = split_mesh_at(mesh, [("f", 0.2), ("f", 0.8)])
    assert len(fine.nodes["f"]) == len(mesh.nodes["f"]) + 2


def test_split_rejects_points_outside_branch():
    mesh = build_mesh(unit_branch_network(), 0.5)
    with pytest.raises(ValueError):
        split_mesh_at(mesh, [("f", 1.5)])
    with pytest.raises(KeyError):
        split_mesh_at(mesh, [("nope", 0.5)])


def test_build_mesh_rejects_a_nan_size_and_takes_inf_as_the_coarsest():
    with pytest.raises(ValueError, match="target mesh size must be positive, got nan"):
        build_mesh(unit_branch_network(), np.nan)
    coarsest = build_mesh(unit_branch_network(), np.inf)
    assert coarsest.total_elements == 1


def test_build_mesh_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_mesh(unit_branch_network(), 0.0)
    broken = FractureNetwork(branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),))
    with pytest.raises(ValueError):
        build_mesh(broken, 0.5)


@settings(max_examples=40, deadline=None)
@given(
    target=st.floats(0.05, 0.8),
    breaks=st.lists(st.floats(0.05, 0.95), max_size=3, unique=True),
)
def test_build_mesh_postconditions_hold(target, breaks):
    breaks = tuple(sorted(breaks))
    net = unit_branch_network(breakpoints=breaks, pieces=(1.0,) * (len(breaks) + 1))
    mesh = build_mesh(net, target)
    nodes = mesh.nodes["f"]
    assert nodes[0] == 0.0 and nodes[-1] == 1.0
    assert np.all(np.diff(nodes) > 0)
    assert np.diff(nodes).max() <= target + 1e-12
    for b in breaks:
        assert np.any(np.isclose(nodes, b, atol=1e-12))
    # total length preserved exactly
    assert abs(np.diff(nodes).sum() - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    # points well apart; near-coincident points are covered against the
    # point-by-point oracle in test_flat_layout.py
    points=st.lists(
        st.integers(1, 990).map(lambda k: k / 1000.0),
        min_size=1,
        max_size=5,
        unique=True,
    ),
    seed=st.integers(0, 2**16),
)
def test_split_order_independent_and_idempotent(points, seed):
    mesh = build_mesh(unit_branch_network(), 0.3)
    rng = np.random.default_rng(seed)
    shuffled = list(points)
    rng.shuffle(shuffled)
    a = split_mesh_at(mesh, [("f", p) for p in points])
    b = split_mesh_at(mesh, [("f", p) for p in shuffled])
    assert np.array_equal(a.nodes["f"], b.nodes["f"])
    again = split_mesh_at(a, [("f", p) for p in points])
    assert np.array_equal(again.nodes["f"], a.nodes["f"])
