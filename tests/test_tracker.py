import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfnflow.fem
import dfnflow.picard
import dfnflow.tracker
from dfnflow.energy import lift_field, reduce_and_minimize
from dfnflow.fem import RegimeField
from dfnflow.laws import Regime
from dfnflow.meshing import build_mesh, split_mesh_at
from dfnflow.network import (
    BoundarySpec,
    Branch,
    FractureNetwork,
    PiecewiseSource,
    PressureBC,
    SourceSpec,
)
from dfnflow.presets import (
    benchmark_network,
    crossing_network,
    darcy_forchheimer_pair,
    darcy_pair,
    oscillation_variant_network,
    run_preset,
    single_fracture_network,
)
from dfnflow.tracker import (
    TrackerSettings,
    TrackerStatus,
    _classify,
    track,
)

from oracles import (
    bisect_crossings,
    configuration_distance,
    hausdorff_by_enumeration,
    point_arrays,
)


def multi_interface_case():
    """Single fracture whose only self-consistent state has three interfaces.

    With the high permeability 1.25 the reduced energy is stationary at
    alpha* ~ -0.0408, where the lifted field plus alpha* crosses the
    threshold three times; both starts reach that state.
    """
    return build_mesh(single_fracture_network(), 0.05), darcy_pair(k1=1.0, k2=1.25)


def oracle_offsets(report, mesh, law):
    """Final flux minus the lifted field, and the energy minimizer alpha*."""
    final = report.final_solution
    offsets = final.flux["f"] - lift_field(final.mesh)
    return offsets, reduce_and_minimize(mesh, law).alpha_star


def one_branch_mesh(nodes):
    """A mesh of one branch from 0 to ``nodes[-1]`` with the given nodes."""
    net = FractureNetwork(
        branches=(Branch("f", (0.0, 0.0), (float(nodes[-1]), 0.0)),),
        boundary=BoundarySpec(
            {("f", "start"): PressureBC(0.0), ("f", "end"): PressureBC(0.0)}
        ),
    )
    mesh = build_mesh(net, float(nodes[-1]))
    inner = nodes[1:-1]
    return split_mesh_at(mesh, np.zeros(len(inner), dtype=np.intp), inner)


def classify_element(nodes, values, threshold=0.15):
    """The regimes at the two ends of one element and the interface arcs
    that ``_classify`` finds on it."""
    changes = _classify(one_branch_mesh(nodes), np.asarray(values, dtype=float), threshold)
    first = Regime(changes.first[0])
    return (first, Regime(first ^ (len(changes.arc) & 1))), changes.arc.tolist()


class TestClassification:
    def test_straddling_endpoints(self):
        ends, arcs = classify_element([0.0, 1.0], [0.1, 0.2])
        assert ends == (Regime.LOW, Regime.HIGH)
        assert len(arcs) == 1

    def test_speed_at_threshold_counts_as_high(self):
        # the comparison is a strict "below": both ends are high, and the
        # flux crosses the low band between them, meeting its edges at the nodes
        assert classify_element([0.0, 1.0], [0.15, -0.15]) == (
            (Regime.HIGH, Regime.HIGH),
            [0.0, 1.0],
        )

    def test_both_high_with_opposite_signs_crosses_the_low_band(self):
        # u = 0.3 - 0.6 x meets 0.15 at x = 1/4 and -0.15 at x = 3/4
        ends, arcs = classify_element([0.0, 1.0], [0.3, -0.3])
        assert ends == (Regime.HIGH, Regime.HIGH)
        assert arcs == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_both_below(self):
        assert classify_element([0.0, 1.0], [0.01, -0.01]) == ((Regime.LOW, Regime.LOW), [])


@st.composite
def flux_on_a_branch(draw):
    """A split branch, a threshold and nodal fluxes that sit below, at and
    above it with either sign, so elements change sign inside or not."""
    length = draw(st.floats(1e-2, 100.0))
    cuts = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=8))
    mesh = one_branch_mesh([0.0, *sorted(t * length for t in cuts), length])
    threshold = draw(st.floats(1e-3, 10.0))
    ratio = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-1.0, 1.0, 0.0]))
    ratios = draw(st.lists(ratio, min_size=len(mesh.x), max_size=len(mesh.x)))
    return mesh, threshold * np.array(ratios), threshold


class TestInterfaceLocation:
    def test_midpoint_crossing(self):
        assert classify_element([0.0, 1.0], [0.1, 0.2])[1] == pytest.approx([0.5], abs=1e-12)

    def test_short_element_crossing(self):
        assert classify_element([0.0, 0.05], [0.2, 0.1])[1] == pytest.approx([0.025], abs=1e-12)

    def test_sign_change_crossing(self):
        # |u| = |-0.2 + 0.3 x| crosses 0.15 once, at x = 1/6
        ends, arcs = classify_element([0.0, 1.0], [-0.2, 0.1])
        assert ends == (Regime.HIGH, Regime.LOW)
        assert arcs == pytest.approx([1.0 / 6.0], abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(case=flux_on_a_branch())
    def test_closed_form_matches_the_bisection(self, case):
        mesh, flux, threshold = case
        x = mesh.x
        expected = [
            arc
            for e in range(len(x) - 1)
            for arc in bisect_crossings(x[e], x[e + 1], flux[e], flux[e + 1], threshold)
        ]
        got = _classify(mesh, flux, threshold).arc
        assert got.tolist() == pytest.approx(expected, rel=0, abs=1e-12)


class TestConfigurationDistance:
    def test_single_points(self):
        assert configuration_distance(
            [("b1", 0.30)], [("b1", 0.32)]
        ) == pytest.approx(0.02)

    def test_empty_sets(self):
        assert configuration_distance([], []) == 0.0

    def test_empty_vs_nonempty_is_infinite(self):
        assert configuration_distance([], [("b1", 0.5)]) == math.inf

    def test_unmatched_point_drives_the_distance(self):
        a = [("b1", 0.3)]
        b = [("b1", 0.3), ("b1", 0.9)]
        assert configuration_distance(a, b) == pytest.approx(0.6)

    def test_points_on_distinct_branches_are_infinitely_far(self):
        assert configuration_distance([("b1", 0.5)], [("b2", 0.5)]) == math.inf

    def test_against_enumeration_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = [
                (rng.choice(["p", "q"]), float(rng.uniform(0, 1)))
                for _ in range(rng.integers(0, 4))
            ]
            b = [
                (rng.choice(["p", "q"]), float(rng.uniform(0, 1)))
                for _ in range(rng.integers(0, 4))
            ]
            lhs = configuration_distance(a, b)
            rhs = hausdorff_by_enumeration(a, b)
            assert lhs == rhs or (math.isinf(lhs) and math.isinf(rhs))
            assert configuration_distance(b, a) == lhs or math.isinf(lhs)


class TestTracking:
    def test_single_fracture_converges_with_multiple_interfaces(self):
        mesh, law = multi_interface_case()
        report = track(mesh, law)
        assert report.status is TrackerStatus.CONVERGED
        assert report.outer_iterations <= 10
        assert len(report.final_configuration.interfaces) >= 2
        assert report.history[-1].distance <= 0.05
        offsets, alpha_star = oracle_offsets(report, mesh, law)
        assert np.ptp(offsets) <= 1e-8
        assert abs(offsets.mean() - alpha_star) <= 1e-6

    @pytest.mark.parametrize("h", [0.05, 0.02])
    def test_default_stop_reaches_the_energy_minimizer(self, h):
        # the interfaces drift out of the fracture by less than h per outer
        # iteration, so only a stop below that step size reaches alpha*
        mesh = build_mesh(single_fracture_network(), h)
        law = darcy_pair()
        report = track(mesh, law)
        assert report.status is TrackerStatus.CONVERGED
        offsets, alpha_star = oracle_offsets(report, mesh, law)
        assert np.ptp(offsets) <= 1e-8
        assert abs(offsets.mean() - alpha_star) <= 1e-6

    def test_quiet_data_converges_immediately_without_interfaces(self):
        # max speed stays below the threshold: the all-low start is a fixed point
        net = FractureNetwork(
            branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),),
            boundary=BoundarySpec(
                {("f", "start"): PressureBC(0.0), ("f", "end"): PressureBC(0.0)}
            ),
            sources=SourceSpec(
                scalar={"f": PiecewiseSource(pieces=(0.01,))}, force=(0.0, 0.0)
            ),
        )
        report = track(build_mesh(net, 0.1), darcy_pair())
        assert report.status is TrackerStatus.CONVERGED
        assert report.outer_iterations == 1
        assert report.final_configuration.interfaces == ()
        assert report.history[-1].distance == 0.0

    def test_one_element_whose_flux_crosses_the_low_band_holds_both_interfaces(self):
        # a unit sink between two zero pressures gives u = 0.5 - x on the one
        # element, high at both ends with opposite signs and low in between
        net = FractureNetwork(
            branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),),
            boundary=BoundarySpec(
                {("f", "start"): PressureBC(0.0), ("f", "end"): PressureBC(0.0)}
            ),
            sources=SourceSpec(scalar={"f": PiecewiseSource(pieces=(-1.0,))}),
        )
        report = track(build_mesh(net, 1.0), darcy_pair(1.0, 10.0))
        assert report.status is TrackerStatus.CONVERGED
        arcs = [arc for _, arc in report.final_configuration.interfaces]
        assert arcs == pytest.approx([0.35, 0.65], rel=0, abs=1e-12)
        labels = report.final_configuration.regimes.labels["f"].tolist()
        assert labels == [Regime.HIGH, Regime.LOW, Regime.HIGH]

    def test_source_free_variant_flips_with_period_two(self):
        mesh = build_mesh(oscillation_variant_network(), 0.05)
        report = track(mesh, darcy_pair(k1=1.0, k2=0.5625))
        assert report.status is TrackerStatus.OSCILLATING
        assert report.period == 2
        labels = [
            tuple(int(v) for v in e.configuration.regimes.labels["f"])
            for e in report.history
        ]
        # wholesale complement flip between the two alternating states
        assert set(labels[-1]) == {0} and set(labels[-2]) == {1}

    def test_source_free_variant_converges_for_larger_permeability(self):
        mesh = build_mesh(oscillation_variant_network(), 0.05)
        for k2 in (1.0, 2.0, 4.0, 10.0, 16.0):
            report = track(mesh, darcy_pair(k1=1.0, k2=k2))
            assert report.status is TrackerStatus.CONVERGED

    def test_working_mesh_is_base_plus_interfaces(self):
        base, law = multi_interface_case()
        report = track(base, law)
        final = report.final_configuration
        assert final.interfaces
        expected = split_mesh_at(base, *point_arrays(base, final.interfaces))
        assert final.mesh.x.tobytes() == expected.x.tobytes()
        for b in base.branch_ids:
            # the final labels live on the base mesh split at the final points
            assert len(final.regimes.labels[b]) == len(expected.nodes[b]) - 1
        without = [x for b, x in final.interfaces]
        recovered = [
            x for x in expected.nodes["f"] if not any(abs(x - y) < 1e-12 for y in without)
        ]
        assert np.allclose(recovered, base.nodes["f"])

    def test_interface_nodes_separate_distinct_labels(self):
        base, law = multi_interface_case()
        report = track(base, law)
        final = report.final_configuration
        assert final.interfaces
        nodes = final.mesh.nodes["f"]
        labels = final.regimes.labels["f"]
        for bid, arc in final.interfaces:
            (idx,) = np.where(np.isclose(nodes, arc, atol=1e-12))
            k = int(idx[0])
            if 0 < k < len(nodes) - 1:
                assert labels[k - 1] != labels[k]

    def test_each_iteration_splits_the_base_mesh_twice_at_arrays(self, monkeypatch):
        # one split for the configuration solved on, one for the one classified
        calls = []

        def counted(mesh, branch, arc):
            calls.append((mesh, branch, arc))
            return split_mesh_at(mesh, branch, arc)

        monkeypatch.setattr(dfnflow.tracker, "split_mesh_at", counted)
        base, law = multi_interface_case()
        report = track(base, law)
        assert len(calls) == 2 * report.outer_iterations
        assert all(mesh is base and isinstance(arc, np.ndarray) for mesh, _, arc in calls)
        # the final configuration's labels and id pairs wait for a reader
        final = report.final_configuration
        assert not {"regimes", "interfaces"} & set(vars(final))
        names = [base.branch_ids[k] for k in final.changes.branch]
        assert final.interfaces == tuple(zip(names, final.changes.arc.tolist()))
        assert calls[-1][2] is final.changes.arc

    @pytest.mark.parametrize(
        "network, junctions",
        [
            (single_fracture_network, False),
            (crossing_network, True),
            (lambda: benchmark_network()[0], True),
        ],
        ids=["single-fracture", "crossing", "case3"],
    )
    def test_each_picard_iteration_assembles_and_solves_once_through_the_hooked_names(
        self, monkeypatch, network, junctions
    ):
        # the layer boundaries a traced benchmark run wraps and counts
        calls = {"assemble": 0, "solve": 0, "junctions": 0}

        def counted(key, function):
            def call(*args, **kwargs):
                calls[key] += 1
                return function(*args, **kwargs)

            return call

        for module, name, key in (
            (dfnflow.picard, "assemble", "assemble"),
            (dfnflow.picard, "solve_saddle", "solve"),
            (dfnflow.fem, "implied_junction_pressures", "junctions"),
        ):
            monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
        report = track(build_mesh(network(), 0.05), darcy_forchheimer_pair())
        solves = sum(report.inner_iteration_counts)
        assert solves > report.outer_iterations
        assert calls == {
            "assemble": solves, "solve": solves, "junctions": solves if junctions else 0
        }

    def test_deterministic_reports(self):
        mesh = build_mesh(single_fracture_network(), 0.05)
        a = track(mesh, darcy_pair())
        b = track(mesh, darcy_pair())
        assert a.status == b.status
        assert a.outer_iterations == b.outer_iterations
        for ea, eb in zip(a.history, b.history):
            assert ea.configuration.interfaces == eb.configuration.interfaces
            assert ea.distance == eb.distance or (
                math.isinf(ea.distance) and math.isinf(eb.distance)
            )

    def test_max_iterations_status(self):
        mesh = build_mesh(single_fracture_network(), 0.05)
        report = track(
            mesh,
            darcy_pair(),
            settings=TrackerSettings(eps_omega=1e-15, max_outer=2),
        )
        assert report.status is TrackerStatus.MAX_ITERATIONS
        assert report.outer_iterations == 2

    def test_trace_collects_one_snapshot_per_iteration(self):
        mesh = build_mesh(single_fracture_network(), 0.05)
        report = track(mesh, darcy_pair(), trace=True)
        assert report.snapshots is not None
        assert len(report.snapshots) == report.outer_iterations

    def test_explicit_initial_regimes(self):
        mesh = build_mesh(single_fracture_network(), 0.05)
        labels = RegimeField.uniform(mesh, Regime.HIGH)
        report = track(mesh, darcy_pair(), initial=labels)
        assert report.status is TrackerStatus.CONVERGED

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            TrackerSettings(eps_omega=0.0)
        with pytest.raises(ValueError):
            TrackerSettings(max_outer=0)
        mesh = build_mesh(single_fracture_network(), 0.5)
        with pytest.raises(ValueError):
            track(mesh, darcy_pair(), initial="sideways")


    def test_nan_configuration_tolerance_rejected(self):
        with pytest.raises(ValueError, match="configuration tolerance must be positive"):
            TrackerSettings(eps_omega=math.nan)


LINEAR_PRESETS = ("case1-linear", "case2-linear", "case3-linear")


@pytest.fixture(scope="module")
def fine_linear_presets():
    return {name: run_preset(name, h=0.01) for name in LINEAR_PRESETS}


@pytest.mark.parametrize("h", [math.inf, 0.1, 0.05, 0.02])
@pytest.mark.parametrize("name", LINEAR_PRESETS)
def test_a_linear_preset_does_not_depend_on_the_mesh(fine_linear_presets, name, h):
    # the flux on a branch is its start flux c_b plus the source integral, and
    # both it and the interfaces where it meets the threshold are exact on any
    # mesh for a linear law
    run, fine = run_preset(name, h=h), fine_linear_presets[name]
    assert run.status == fine.status
    got, want = run.final["interfaces"], fine.final["interfaces"]
    assert [bid for bid, _ in got] == [bid for bid, _ in want]
    eps = TrackerSettings().eps_omega
    assert all(abs(x - y) <= eps for (_, x), (_, y) in zip(got, want))
    start = {b: f["value"][0] for b, f in run.final["flux"].items()}
    fine_start = {b: f["value"][0] for b, f in fine.final["flux"].items()}
    # relative to the largest |c_b|: a branch of case3 carries no flux
    scale = max(abs(c) for c in fine_start.values())
    assert start.keys() == fine_start.keys()
    assert all(abs(start[b] - c) <= 1e-8 * scale for b, c in fine_start.items())


class SolverFailure(Exception):
    """Error whose constructor takes more than a message."""

    def __init__(self, code, detail):
        super().__init__(f"{detail} (code {code})")
        self.code = code


def test_solver_error_keeps_its_type_and_gains_the_outer_iteration(monkeypatch):
    import dfnflow.tracker as tracker_module

    real = tracker_module.picard_solve
    calls = []

    def fail_on_second_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise SolverFailure(7, "factorization broke down")
        return real(*args, **kwargs)

    monkeypatch.setattr(tracker_module, "picard_solve", fail_on_second_call)
    with pytest.raises(SolverFailure) as info:
        track(build_mesh(single_fracture_network(), 0.05), darcy_pair())
    assert info.value.code == 7
    assert str(info.value) == "outer iteration 2: factorization broke down (code 7)"
