import numpy as np
import pytest

from dfnflow.network import (
    BoundarySpec,
    Branch,
    FractureNetwork,
    Intersection,
    PiecewiseSource,
    PressureBC,
    SourceSpec,
    VelocityBC,
    validate_network,
)


def test_single_branch_with_pressure_ends_is_valid():
    net = FractureNetwork(
        branches=(Branch("f", (0.0, 0.5), (1.0, 0.5)),),
        boundary=BoundarySpec(
            {("f", "start"): PressureBC(0.0), ("f", "end"): PressureBC(0.0)}
        ),
    )
    assert validate_network(net).ok


def test_two_branches_sharing_an_intersection_are_valid():
    net = FractureNetwork(
        branches=(
            Branch("h", (0.0, 0.5), (0.5, 0.5)),
            Branch("v", (0.5, 0.5), (0.5, 1.0)),
        ),
        intersections=(
            Intersection("J", (0.5, 0.5), (("h", "end"), ("v", "start"))),
        ),
        boundary=BoundarySpec(
            {("h", "start"): PressureBC(0.0), ("v", "end"): PressureBC(0.1)}
        ),
    )
    assert validate_network(net).ok


def test_dangling_end_reports_unclosed_boundary():
    net = FractureNetwork(
        branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),),
        boundary=BoundarySpec({("f", "start"): PressureBC(0.0)}),
    )
    report = validate_network(net)
    assert not report.ok
    assert any(v.code == "unclosed-boundary" for v in report.violations)


def test_non_coincident_intersection_detected():
    net = FractureNetwork(
        branches=(
            Branch("a", (0.0, 0.0), (1.0, 0.0)),
            Branch("b", (1.0, 1e-6), (2.0, 0.0)),
        ),
        intersections=(
            Intersection("J", (1.0, 0.0), (("a", "end"), ("b", "start"))),
        ),
        boundary=BoundarySpec(
            {("a", "start"): PressureBC(0.0), ("b", "end"): PressureBC(0.0)}
        ),
    )
    report = validate_network(net)
    assert any(v.code == "non-coincident" for v in report.violations)


def test_zero_length_branch_detected():
    net = FractureNetwork(
        branches=(Branch("z", (0.3, 0.3), (0.3, 0.3)),),
        boundary=BoundarySpec(
            {("z", "start"): PressureBC(0.0), ("z", "end"): PressureBC(0.0)}
        ),
    )
    assert any(v.code == "zero-length" for v in validate_network(net).violations)


def test_pressure_level_must_be_anchored():
    net = FractureNetwork(
        branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),),
        boundary=BoundarySpec(
            {("f", "start"): VelocityBC(0.0), ("f", "end"): VelocityBC(0.0)}
        ),
    )
    report = validate_network(net)
    assert any(v.code == "pressure-level" for v in report.violations)
    anchored = FractureNetwork(
        branches=net.branches,
        boundary=BoundarySpec(net.boundary.conditions, mean_pressure=0.7),
    )
    assert validate_network(anchored).ok


def test_bc_on_junction_end_is_a_violation():
    net = FractureNetwork(
        branches=(
            Branch("a", (0.0, 0.0), (1.0, 0.0)),
            Branch("b", (1.0, 0.0), (2.0, 0.0)),
        ),
        intersections=(
            Intersection("J", (1.0, 0.0), (("a", "end"), ("b", "start"))),
        ),
        boundary=BoundarySpec(
            {
                ("a", "start"): PressureBC(0.0),
                ("b", "end"): PressureBC(0.0),
                ("a", "end"): VelocityBC(1.0),
            }
        ),
    )
    assert any(v.code == "bc-at-junction" for v in validate_network(net).violations)


def test_piecewise_source_evaluation_and_validation():
    src = PiecewiseSource(breakpoints=(0.3, 0.7), pieces=(1.0, -1.0, 1.0))
    # breakpoints belong to the left piece; the values there are measure-zero
    x = np.array([0.0, 0.2, 0.3, 0.5, 0.7, 0.9])
    assert np.allclose(src(x), [1, 1, 1, -1, -1, 1])
    with pytest.raises(ValueError):
        PiecewiseSource(breakpoints=(0.5,), pieces=(1.0,))
    with pytest.raises(ValueError):
        PiecewiseSource(breakpoints=(0.7, 0.3), pieces=(1.0, 2.0, 3.0))


def test_source_breakpoint_outside_branch_detected():
    net = FractureNetwork(
        branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),),
        boundary=BoundarySpec(
            {("f", "start"): PressureBC(0.0), ("f", "end"): PressureBC(0.0)}
        ),
        sources=SourceSpec(
            scalar={"f": PiecewiseSource(breakpoints=(1.5,), pieces=(1.0, 2.0))}
        ),
    )
    assert any(v.code == "breakpoint-range" for v in validate_network(net).violations)


def test_cached_length_leaves_branch_equality_and_hash_alone():
    a, b = Branch("f", (0.0, 0.0), (3.0, 4.0)), Branch("f", (0.0, 0.0), (3.0, 4.0))
    assert a.length == 5.0 and "length" in vars(a) and "length" not in vars(b)
    assert a == b and hash(a) == hash(b)
    assert a != Branch("f", (0.0, 0.0), (4.0, 3.0))
    net = FractureNetwork(branches=(a, Branch("g", (0.0, 0.0), (0.0, 2.0))))
    assert net.total_length == 7.0
    assert net == FractureNetwork(branches=(b, Branch("g", (0.0, 0.0), (0.0, 2.0))))


def _junction_pair(branches=None, incident=(("h", "end"), ("v", "start")), extra=(), sources=None):
    """Two branches meeting at J = (0.5, 0.5), with pressure on both free ends."""
    return FractureNetwork(
        branches=branches
        or (Branch("h", (0.0, 0.5), (0.5, 0.5)), Branch("v", (0.5, 0.5), (0.5, 1.0))),
        intersections=(Intersection("J", (0.5, 0.5), incident), *extra),
        boundary=BoundarySpec(
            {("h", "start"): PressureBC(0.0), ("v", "end"): PressureBC(0.1)}
        ),
        sources=sources or SourceSpec(),
    )


@pytest.mark.parametrize(
    "code, net",
    [
        (
            "duplicate-branch",
            _junction_pair(
                branches=(
                    Branch("h", (0.0, 0.5), (0.5, 0.5)),
                    Branch("h", (0.0, 0.5), (0.5, 0.5)),
                    Branch("v", (0.5, 0.5), (0.5, 1.0)),
                )
            ),
        ),
        ("lonely-intersection", _junction_pair(extra=(Intersection("K", (0.5, 1.0), ()),))),
        ("unknown-branch", _junction_pair(incident=(("h", "end"), ("v", "start"), ("x", "end")))),
        (
            "unknown-branch",
            _junction_pair(sources=SourceSpec(scalar={"x": PiecewiseSource()})),
        ),
        (
            "multiple-intersections",
            _junction_pair(
                extra=(Intersection("K", (0.5, 0.5), (("h", "end"), ("v", "start"))),)
            ),
        ),
        ("unknown-end", _junction_pair(incident=(("h", "end"), ("v", "middle")))),
    ],
    ids=[
        "duplicate-branch",
        "lonely-intersection",
        "unknown-branch-intersection",
        "unknown-branch-source",
        "multiple-intersections",
        "unknown-end",
    ],
)
def test_each_structural_fault_is_reported_not_raised(code, net):
    assert validate_network(_junction_pair()).ok
    report = validate_network(net)
    assert code in {v.code for v in report.violations}
