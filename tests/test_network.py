import dataclasses
import math

import numpy as np
import pytest

import dfnflow.network
from dfnflow.network import (
    BoundarySpec,
    Branch,
    FractureNetwork,
    Intersection,
    PiecewiseSource,
    PressureBC,
    SingularSystemError,
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


def _with_bad_value(where, bad):
    net = FractureNetwork(
        branches=(Branch("f", (0.0, 0.5), (1.0, 0.5)),),
        boundary=BoundarySpec({("f", "start"): VelocityBC(-1.0), ("f", "end"): PressureBC(0.0)}),
    )
    if where == "branch-end":
        return dataclasses.replace(net, branches=(Branch("f", (bad, 0.5), (1.0, 0.5)),))
    if where == "pressure":
        conditions = {("f", "start"): VelocityBC(-1.0), ("f", "end"): PressureBC(bad)}
        return dataclasses.replace(net, boundary=BoundarySpec(conditions))
    if where == "velocity":
        conditions = {("f", "start"): VelocityBC(bad), ("f", "end"): PressureBC(0.0)}
        return dataclasses.replace(net, boundary=BoundarySpec(conditions))
    if where == "mean-pressure":
        conditions = {("f", "start"): VelocityBC(-1.0), ("f", "end"): VelocityBC(1.0)}
        return dataclasses.replace(net, boundary=BoundarySpec(conditions, mean_pressure=bad))
    if where == "force":
        return dataclasses.replace(net, sources=SourceSpec(force=(0.0, bad)))
    assert where == "source-rate"
    pieces = PiecewiseSource((0.5,), (1.0, bad))
    return dataclasses.replace(net, sources=SourceSpec(scalar={"f": pieces}))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "where", ["branch-end", "pressure", "velocity", "mean-pressure", "force", "source-rate"]
)
def test_non_finite_data_is_reported(where, bad):
    # each comparison of the checks fails on NaN, so such data used to pass
    # and fail inside build_mesh or the solve
    assert validate_network(_with_bad_value(where, 0.0)).ok
    report = validate_network(_with_bad_value(where, bad))
    assert [v.code for v in report.violations] == ["non-finite"]
    assert report.violations[0].message.endswith(f"is {bad}")


def test_a_nan_intersection_point_is_non_coincident():
    net = FractureNetwork(
        branches=(Branch("h", (0.0, 0.5), (0.5, 0.5)), Branch("v", (0.5, 0.5), (0.5, 1.0))),
        intersections=(Intersection("J", (math.nan, 0.5), (("h", "end"), ("v", "start"))),),
        boundary=BoundarySpec({("h", "start"): PressureBC(0.0), ("v", "end"): PressureBC(0.1)}),
    )
    codes = [v.code for v in validate_network(net).violations]
    assert codes == ["non-coincident", "non-coincident"]


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


def test_mean_pressure_beside_a_pressure_condition_is_a_violation():
    # the pressure condition fixes the level, so the mean would be ignored
    net = FractureNetwork(
        branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),),
        boundary=BoundarySpec(
            {("f", "start"): PressureBC(0.0), ("f", "end"): VelocityBC(0.0)},
            mean_pressure=5.0,
        ),
    )
    (violation,) = validate_network(net).violations
    assert violation.code == "pressure-level"
    assert violation.message == "mean_pressure is set, but a pressure condition fixes the level"


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
    # a callable piece is evaluated on the arc coordinates of its own subinterval
    src = PiecewiseSource(breakpoints=(0.5,), pieces=(lambda s: 2.0 * s, -1.0))
    assert src(x).tolist() == [0.0, 0.4, 0.6, 1.0, -1.0, -1.0]
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


def _junction_pair(
    branches=None, incident=(("h", "end"), ("v", "start")), extra=(), sources=None, bcs=None
):
    """Two branches meeting at J = (0.5, 0.5), with pressure on both free ends and ``bcs``."""
    return FractureNetwork(
        branches=branches
        or (Branch("h", (0.0, 0.5), (0.5, 0.5)), Branch("v", (0.5, 0.5), (0.5, 1.0))),
        intersections=(Intersection("J", (0.5, 0.5), incident), *extra),
        boundary=BoundarySpec(
            {("h", "start"): PressureBC(0.0), ("v", "end"): PressureBC(0.1), **(bcs or {})}
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
        (
            "duplicate-intersection",
            _junction_pair(extra=(Intersection("J", (0.5, 1.0), (("v", "end"),)),)),
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
        ("unknown-end", _junction_pair(bcs={("x", "end"): PressureBC(0.0)})),
        ("unknown-end", _junction_pair(bcs={("h", "middle"): PressureBC(0.0)})),
    ],
    ids=[
        "duplicate-branch",
        "duplicate-intersection",
        "lonely-intersection",
        "unknown-branch-intersection",
        "unknown-branch-source",
        "multiple-intersections",
        "unknown-end",
        "unknown-branch-condition",
        "unknown-end-condition",
    ],
)
def test_each_structural_fault_is_reported_not_raised(code, net):
    assert validate_network(_junction_pair()).ok
    report = validate_network(net)
    assert code in {v.code for v in report.violations}


def test_an_end_listed_twice_is_reported_with_the_intersection_listing_it():
    net = _junction_pair(incident=(("h", "end"), ("v", "start"), ("h", "end")))
    assert [(v.code, v.message) for v in validate_network(net).violations] == [
        (
            "multiple-intersections",
            "branch end ('h', 'end') is listed 2 times, by intersections 'J', 'J'",
        )
    ]


def test_the_plan_of_an_unchecked_network_rejects_a_condition_at_a_junction():
    # validation reports this fault; a network built in code and never
    # validated meets the plan's own check
    net = _junction_pair(bcs={("h", "end"): PressureBC(0.5)})
    with pytest.raises(
        SingularSystemError,
        match=r"branch end \('h', end\) is both at an intersection and boundary-constrained",
    ):
        net.boundary_plan


def count_checks(monkeypatch) -> list[FractureNetwork]:
    """Record every network whose structural checks run, once per run."""
    calls = []
    check = dfnflow.network._find_violations
    monkeypatch.setattr(
        dfnflow.network, "_find_violations", lambda net: calls.append(net) or check(net)
    )
    return calls


def test_a_network_keeps_its_verdict(monkeypatch):
    calls = count_checks(monkeypatch)
    net = _junction_pair()
    report = validate_network(net)
    report.add("extra", "a report is the caller's to change")
    assert validate_network(net).ok and validate_network(net) is not report
    assert [id(n) for n in calls] == [id(net)]


def test_a_new_network_object_gets_its_own_verdict(monkeypatch):
    calls = count_checks(monkeypatch)
    net, twin = _junction_pair(), _junction_pair()
    assert net == twin and net is not twin
    bad = dataclasses.replace(net, boundary=BoundarySpec({("h", "start"): PressureBC(0.0)}))
    assert validate_network(net).ok and validate_network(twin).ok
    assert [v.code for v in validate_network(bad).violations] == ["unclosed-boundary"]
    assert validate_network(net).ok
    assert [id(n) for n in calls] == [id(net), id(twin), id(bad)]


def test_run_cases_on_one_network_check_it_once(monkeypatch):
    # the single-fracture benchmark workload runs its cases on one network
    from dfnflow.presets import darcy_pair, run_case, single_fracture_network

    calls = count_checks(monkeypatch)
    network = single_fracture_network()
    for h in (0.25, 0.2, 0.1):
        run_case("case", network, darcy_pair(), h=h)
    assert [id(n) for n in calls] == [id(network)]
