"""Tests of the benchmark's own parts: lattice generator, tracer, self-test.

Run with ``python3 -m pytest perfbench/tests``.
"""

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from dfnflow.network import validate_network  # noqa: E402
from lattice import lattice_network  # noqa: E402
from run import case_self_test  # noqa: E402
from tracing import HOOKS, Tracer  # noqa: E402


@pytest.mark.parametrize("n", [1, 3, 12])
def test_lattice_is_valid_and_sized(n):
    net = lattice_network(seed=0, n=n)
    assert validate_network(net).ok
    assert len(net.branches) == 2 * n * (n + 1)
    assert len(net.intersections) == n * n
    assert all(len(isec.incident) == 4 for isec in net.intersections)


def test_same_seed_gives_same_lattice():
    assert lattice_network(7) == lattice_network(7)


def test_different_seeds_give_different_lattices():
    nets = [lattice_network(seed) for seed in range(4)]
    for i, a in enumerate(nets):
        for b in nets[i + 1 :]:
            assert a != b


def test_every_hook_target_exists():
    tracer = Tracer()
    tracer.install()
    try:
        assert len(tracer._originals) == len(HOOKS)
    finally:
        tracer.uninstall()


def test_missing_hook_target_is_an_error():
    import dfnflow.fem

    original = dfnflow.fem.assemble
    tracer = Tracer(hooks=(("dfnflow.fem", "assemble", "a"), ("dfnflow.fem", "nope", "b")))
    with pytest.raises(AttributeError, match="dfnflow.fem.nope"):
        tracer.install()
    assert dfnflow.fem.assemble is original


def test_self_time_excludes_children():
    tracer = Tracer(hooks=())
    with tracer.span("outer"):
        time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.02)
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    self_s = tracer.self_times()
    assert self_s["inner"] == pytest.approx(inner.end - inner.start)
    assert self_s["outer"] + self_s["inner"] == pytest.approx(outer.end - outer.start)
    assert self_s["outer"] < outer.end - outer.start - 0.015


def lattice_row(**changes):
    """Per-case layer counts of a linear network case that reached every layer."""
    row = {
        "case": "lattice",
        "meshing.build_mesh_calls": 1,
        "tracker.status_counts.converged": 0,
        "tracker.status_counts.max-iterations": 1,
        "fem.assemble_calls": 10,
        "fem.solve_calls": 10,
        "fem.junction_diag_calls": 10,
        "picard.solves": 10,
        "tracker.outer_iterations": 10,
        "meshing.split_calls": 20,
        "export.bytes": 1000,
        "export.write_s": 0.01,
        "network.validate_s": 0.01,
        "energy.reduce_calls": 0,
        "energy.block_s": 0.0,
    }
    row.update(changes)
    return row


LATTICE = {"energy": False, "junctions": True, "linear": True}


def test_case_self_test_passes_a_complete_case():
    assert case_self_test(lattice_row(), LATTICE) == []


@pytest.mark.parametrize(
    "changes, what",
    [
        ({"fem.junction_diag_calls": 0}, "junction diagnostics on every solve"),
        ({"picard.solves": 12, "fem.assemble_calls": 12, "fem.solve_calls": 12,
          "fem.junction_diag_calls": 12}, "one Picard solve per outer iteration"),
        ({"energy.reduce_calls": 1}, "no energy layer"),
        ({"meshing.split_calls": 0}, "two mesh splits per outer iteration"),
    ],
)
def test_case_self_test_flags_a_missing_or_extra_layer(changes, what):
    problems = case_self_test(lattice_row(**changes), LATTICE)
    assert problems == [f"hook self-test, lattice: {what}"]
