import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfnflow.fem import (
    RegimeField,
    SingularSystemError,
    assemble,
    implied_junction_pressures,
    solve_saddle,
)
from dfnflow.laws import AdaptiveLaw, LawBranch, Regime
from dfnflow.meshing import Mesh, build_mesh, source_integrals
from dfnflow.network import (
    BoundarySpec,
    Branch,
    FractureNetwork,
    Intersection,
    PiecewiseSource,
    PressureBC,
    SourceSpec,
    ValidationReport,
    VelocityBC,
    validate_network,
)
from dfnflow.presets import alternating_source, single_fracture_network

from dfnflow import fem, meshing, network, picard
from dfnflow.presets import benchmark_network, darcy_forchheimer_pair
from dfnflow.tracker import track
from oracles import (
    junction_continuity_defect,
    random_dfn,
    random_network,
    sparse_saddle_solve,
    tpfa_darcy_solve,
)

UNIT_LAW = AdaptiveLaw(LawBranch(1.0), LawBranch(1.0), 1.0)

# Segments of the random networks with loops the property tests draw.
DFN_SEGMENTS = 16


def solve_network(net, h, law=UNIT_LAW, frozen=0.0, regime=Regime.LOW):
    mesh = build_mesh(net, h)
    system = assemble(
        mesh, RegimeField.uniform(mesh, regime), law, frozen, net.sources, net.boundary
    )
    return system, solve_saddle(system)


def test_single_element_pressure_drop():
    # hand-solved 2x2 saddle system: u = -k dp/dx with k = 1
    net = FractureNetwork(
        branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),),
        boundary=BoundarySpec(
            {("f", "start"): PressureBC(1.0), ("f", "end"): PressureBC(0.0)}
        ),
    )
    _, sol = solve_network(net, 1.0)
    assert np.allclose(sol.flux["f"], 1.0, atol=1e-13)
    assert sol.pressure["f"] == pytest.approx([0.5], abs=1e-13)


def test_single_element_no_forcing_is_at_rest():
    net = FractureNetwork(
        branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),),
        boundary=BoundarySpec(
            {("f", "start"): VelocityBC(0.0), ("f", "end"): VelocityBC(0.0)},
            mean_pressure=0.0,
        ),
    )
    _, sol = solve_network(net, 1.0)
    assert np.allclose(sol.flux["f"], 0.0, atol=1e-14)
    assert np.allclose(sol.pressure["f"], 0.0, atol=1e-14)


def test_neumann_only_constant_state_takes_prescribed_mean():
    net = FractureNetwork(
        branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),),
        boundary=BoundarySpec(
            {("f", "start"): VelocityBC(0.0), ("f", "end"): VelocityBC(0.0)},
            mean_pressure=0.7,
        ),
    )
    _, sol = solve_network(net, 0.25)
    assert np.allclose(sol.flux["f"], 0.0, atol=1e-13)
    assert np.allclose(sol.pressure["f"], 0.7, atol=1e-13)


def test_end_pressure_difference_drives_back_flow():
    net = FractureNetwork(
        branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),),
        boundary=BoundarySpec(
            {("f", "start"): PressureBC(0.0), ("f", "end"): PressureBC(0.2)}
        ),
    )
    _, sol = solve_network(net, 0.25)
    assert np.allclose(sol.flux["f"], -0.2, atol=1e-13)
    assert np.allclose(sol.pressure["f"], 0.2 * sol.mesh.per_element(sol.mesh.midpoints)["f"])


def test_three_branch_star_splits_influx():
    center = (0.5, 0.5)
    net = FractureNetwork(
        branches=(
            Branch("A", (0.0, 0.5), center),
            Branch("B", (1.0, 0.5), center),
            Branch("C", (0.5, 1.0), center),
        ),
        intersections=(
            Intersection("J", center, (("A", "end"), ("B", "end"), ("C", "end"))),
        ),
        boundary=BoundarySpec(
            {
                ("A", "start"): VelocityBC(-1.0),
                ("B", "start"): PressureBC(0.0),
                ("C", "start"): PressureBC(0.0),
            }
        ),
    )
    system, sol = solve_network(net, 0.1)
    assert np.allclose(sol.flux["A"], 1.0, atol=1e-12)
    assert np.allclose(sol.flux["B"], -0.5, atol=1e-12)
    assert np.allclose(sol.flux["C"], -0.5, atol=1e-12)
    # branch length is 0.5, so the junction sits at pressure 0.25
    assert sol.junction_pressure["J"] == pytest.approx(0.25, abs=1e-12)
    balance = sum(sol.flux[b][-1] for b in ("A", "B", "C"))
    assert abs(balance) <= 1e-12
    implied = implied_junction_pressures(system, sol)
    assert implied.max() - implied.min() <= 1e-12


def test_junction_diagnostic_sees_shifted_branch_pressures():
    # the end-flux equations are evaluated from the solution itself, so
    # shifting one incident branch's element pressures shows as that shift
    center = (0.5, 0.5)
    net = FractureNetwork(
        branches=(
            Branch("A", (0.0, 0.5), center),
            Branch("B", (1.0, 0.5), center),
            Branch("C", (0.5, 1.0), center),
        ),
        intersections=(
            Intersection("J", center, (("A", "end"), ("B", "end"), ("C", "end"))),
        ),
        boundary=BoundarySpec(
            {
                ("A", "start"): VelocityBC(-1.0),
                ("B", "start"): PressureBC(0.3),
                ("C", "start"): PressureBC(-0.2),
            }
        ),
        sources=SourceSpec(scalar={"B": PiecewiseSource(pieces=(0.4,))}, force=(0.1, -0.3)),
    )
    system, sol = solve_network(net, 0.1)
    assert junction_continuity_defect(sol) <= 1e-12
    delta = 1e-6
    sol.pressure["B"][:] += delta
    sol.junction_implied = implied_junction_pressures(system, sol)
    assert junction_continuity_defect(sol) == pytest.approx(delta, rel=1e-6)


def test_junction_diagnostic_spreads_are_taken_per_intersection():
    # nine intersections of degree 3 and 4 at different pressures: only a
    # spread within each intersection stays at rounding level, and shifting
    # one branch's element pressures shows as that shift at its two ends
    net, _ = benchmark_network()
    system, sol = solve_network(net, 0.05)
    assert np.ptp(sol.vertex_pressure[: len(net.intersections)]) > 0.1
    assert junction_continuity_defect(sol) <= 1e-12
    delta = 1e-6
    sol.pressure["v2b"][:] += delta
    sol.junction_implied = implied_junction_pressures(system, sol)
    assert junction_continuity_defect(sol) == pytest.approx(delta, rel=1e-6)


def test_vertex_pressure_holds_the_conditions_and_the_junction_pressures():
    for seed in range(20):
        net = random_network(np.random.default_rng(seed))
        _, sol = solve_network(net, 0.2)
        for (bid, which), bc in net.boundary.conditions.items():
            if isinstance(bc, PressureBC):
                vertex = net.end_vertex[net.branch_index[bid], int(which == network.END)]
                assert sol.vertex_pressure[vertex] == bc.pressure
        junctions = [sol.junction_pressure[i.id] for i in net.intersections]
        assert sol.vertex_pressure[: len(junctions)].tolist() == junctions


def test_case_data_mass_balance():
    # the alternating source integrates to 0.3 - 0.4 + 0.3 = 0.2
    net = single_fracture_network()
    _, sol = solve_network(net, 0.05)
    u = sol.flux["f"]
    assert u[-1] - u[0] == pytest.approx(0.2, abs=1e-12)


def test_local_conservation_per_element():
    net = single_fracture_network()
    mesh = build_mesh(net, 0.05)
    system = assemble(
        mesh,
        RegimeField.uniform(mesh, Regime.LOW),
        UNIT_LAW,
        0.0,
        net.sources,
        net.boundary,
    )
    sol = solve_saddle(system)
    u = sol.flux["f"]
    qint = source_integrals(mesh)
    assert np.abs(np.diff(u) - qint).max() <= 1e-12


def test_matrix_is_symmetric():
    rng = np.random.default_rng(11)
    net = random_network(rng)
    mesh = build_mesh(net, 0.2)
    system = assemble(
        mesh,
        RegimeField.uniform(mesh, Regime.LOW),
        UNIT_LAW,
        0.0,
        net.sources,
        net.boundary,
    )
    assert system.matrix.shape[0] > 0
    assert np.array_equal(system.matrix, system.matrix.T)


def test_orientation_flip_negates_flux_and_keeps_pressure():
    source = PiecewiseSource(breakpoints=(0.3, 0.7), pieces=(1.0, -1.0, 1.0))
    forward = FractureNetwork(
        branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),),
        boundary=BoundarySpec(
            {("f", "start"): PressureBC(0.3), ("f", "end"): PressureBC(-0.1)}
        ),
        sources=SourceSpec(scalar={"f": source}, force=(0.05, 0.0)),
    )
    mirrored_source = PiecewiseSource(breakpoints=(0.3, 0.7), pieces=(1.0, -1.0, 1.0))
    backward = FractureNetwork(
        branches=(Branch("f", (1.0, 0.0), (0.0, 0.0)),),
        boundary=BoundarySpec(
            {("f", "start"): PressureBC(-0.1), ("f", "end"): PressureBC(0.3)}
        ),
        sources=SourceSpec(scalar={"f": mirrored_source}, force=(0.05, 0.0)),
    )
    _, fwd = solve_network(forward, 0.05)
    _, bwd = solve_network(backward, 0.05)
    assert np.allclose(fwd.flux["f"], -bwd.flux["f"][::-1], atol=1e-12)
    assert np.allclose(fwd.pressure["f"], bwd.pressure["f"][::-1], atol=1e-12)


def test_manufactured_solution_first_order_convergence():
    exact_p = lambda x: np.sin(np.pi * x)
    exact_u = lambda x: -np.pi * np.cos(np.pi * x)
    q = PiecewiseSource(pieces=(lambda x: np.pi**2 * np.sin(np.pi * x),))
    net = FractureNetwork(
        branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),),
        boundary=BoundarySpec(
            {("f", "start"): PressureBC(0.0), ("f", "end"): PressureBC(0.0)}
        ),
        sources=SourceSpec(scalar={"f": q}),
    )
    pts, wts = np.polynomial.legendre.leggauss(5)
    errors = []
    for n in (8, 16, 32, 64):
        _, sol = solve_network(net, 1.0 / n)
        x = sol.mesh.nodes["f"]
        eu = ep = 0.0
        for e in range(len(x) - 1):
            a, b = x[e], x[e + 1]
            xs = 0.5 * (b - a) * pts + 0.5 * (a + b)
            uh = sol.flux["f"][e] + (sol.flux["f"][e + 1] - sol.flux["f"][e]) * (
                xs - a
            ) / (b - a)
            eu += 0.5 * (b - a) * np.dot(wts, (uh - exact_u(xs)) ** 2)
            ep += 0.5 * (b - a) * np.dot(wts, (sol.pressure["f"][e] - exact_p(xs)) ** 2)
        errors.append((np.sqrt(eu), np.sqrt(ep)))
    for k in range(len(errors) - 1):
        rate_u = np.log2(errors[k][0] / errors[k + 1][0])
        rate_p = np.log2(errors[k][1] / errors[k + 1][1])
        assert rate_u >= 0.9
        assert rate_p >= 0.9


def test_matches_two_point_flux_oracle_single_law():
    # constant-coefficient Darcy against an independently assembled scheme
    rng = np.random.default_rng(3)
    for _ in range(10):
        net = random_network(rng, with_sources=False)
        mesh = build_mesh(net, 0.25)
        lam = float(rng.uniform(0.2, 5.0))
        law = AdaptiveLaw(LawBranch(lam), LawBranch(lam), 1.0)
        system = assemble(
            mesh,
            RegimeField.uniform(mesh, Regime.LOW),
            law,
            0.0,
            net.sources,
            net.boundary,
        )
        sol = solve_saddle(system)
        coeffs = {b: np.full(len(mesh.nodes[b]) - 1, lam) for b in mesh.branch_ids}
        p_ref, j_ref, u_ref = tpfa_darcy_solve(mesh, coeffs, net.boundary)
        for b in mesh.branch_ids:
            assert np.abs(sol.pressure[b] - p_ref[b]).max() <= 1e-12
            assert np.abs(sol.flux[b] - u_ref[b]).max() <= 1e-12
        for j, v in j_ref.items():
            assert abs(sol.junction_pressure[j] - v) <= 1e-12


def test_matches_two_point_flux_oracle_heterogeneous():
    # per-element coefficients injected through an affine law frozen at the
    # coefficient value less its intercept (phi(a) = 0.1 + sqrt(a) makes
    # coefficient == 0.1 + speed)
    rng = np.random.default_rng(17)
    law = AdaptiveLaw(LawBranch(0.1, 1.0), LawBranch(0.1, 1.0), 1.0)
    for _ in range(10):
        net = random_network(rng, with_sources=False)
        mesh = build_mesh(net, 0.25)
        coeffs = {b: rng.uniform(0.2, 5.0, len(mesh.nodes[b]) - 1) for b in mesh.branch_ids}
        system = assemble(
            mesh,
            RegimeField.uniform(mesh, Regime.LOW),
            law,
            {b: c - 0.1 for b, c in coeffs.items()},
            net.sources,
            net.boundary,
        )
        sol = solve_saddle(system)
        p_ref, j_ref, u_ref = tpfa_darcy_solve(mesh, coeffs, net.boundary)
        for b in mesh.branch_ids:
            assert np.abs(sol.pressure[b] - p_ref[b]).max() <= 1e-12
            assert np.abs(sol.flux[b] - u_ref[b]).max() <= 1e-12
        for j, v in j_ref.items():
            assert abs(sol.junction_pressure[j] - v) <= 1e-12


def test_missing_pressure_anchor_raises():
    # velocity conditions only and no mean: validation rejects the network,
    # and assembling on a mesh built around validation fails the same way
    net = FractureNetwork(
        branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),),
        boundary=BoundarySpec(
            {("f", "start"): VelocityBC(0.0), ("f", "end"): VelocityBC(0.0)}
        ),
    )
    with pytest.raises(ValueError, match=r"\[pressure-level\]"):
        build_mesh(net, 0.5)
    mesh = Mesh(
        network=net,
        x=np.array([0.0, 0.5, 1.0]),
        node_offset=np.array([0, 3]),
        force=np.zeros(1),
    )
    message = "'f' is undetermined: it has no pressure condition"
    with pytest.raises(SingularSystemError, match=message):
        assemble(mesh, RegimeField.uniform(mesh, Regime.LOW), UNIT_LAW, 0.0)


def test_assemble_takes_only_the_networks_own_sources_and_conditions():
    net = single_fracture_network()
    other = single_fracture_network()  # equal data, other objects
    mesh = build_mesh(net, 0.25)
    regimes = RegimeField.uniform(mesh, Regime.LOW)
    own = solve_saddle(assemble(mesh, regimes, UNIT_LAW, 0.0, net.sources, net.boundary))
    assert np.array_equal(
        own.stacked(), solve_saddle(assemble(mesh, regimes, UNIT_LAW, 0.0)).stacked()
    )
    for sources, bcs in ((other.sources, None), (None, other.boundary)):
        with pytest.raises(ValueError, match="mesh.network"):
            assemble(mesh, regimes, UNIT_LAW, 0.0, sources, bcs)


def test_moved_names_stay_importable_from_fem():
    assert fem.SingularSystemError is network.SingularSystemError


def test_tracking_builds_the_plan_once_and_the_sources_once_per_mesh(monkeypatch):
    # case3-nonlinear: many assembles on few working meshes of one network
    plans, integrated, assembled = [], [], []

    def plan(**fields):
        plans.append(fields)
        return real_plan(**fields)

    def integrals(mesh):
        integrated.append(mesh)
        return real_integrals(mesh)

    def counted_assemble(mesh, *args):
        assembled.append(mesh)
        return real_assemble(mesh, *args)

    real_plan, real_integrals = network.BoundaryPlan, meshing.source_integrals
    real_assemble = picard.assemble
    monkeypatch.setattr(network, "BoundaryPlan", plan)
    monkeypatch.setattr(meshing, "source_integrals", integrals)
    monkeypatch.setattr(picard, "assemble", counted_assemble)
    net, _ = benchmark_network()
    report = track(build_mesh(net, 0.05), darcy_forchheimer_pair(intercept=0.01, slope=0.25))
    meshes = list({id(mesh): mesh for mesh in assembled}.values())
    assert len(plans) == 1
    assert len(assembled) == sum(report.inner_iteration_counts) > len(meshes)
    assert [id(mesh) for mesh in integrated] == [id(mesh) for mesh in meshes]


def _junction_system():
    """A case3 system, whose junction pressures are solved for."""
    net = benchmark_network()[0]
    mesh = build_mesh(net, 0.1)
    system = assemble(mesh, RegimeField.uniform(mesh, Regime.LOW), UNIT_LAW, 0.0)
    assert len(net.boundary_plan.unknown)
    return system


def test_failed_reduced_solve_raises_with_a_condition_estimate(monkeypatch):
    system = _junction_system()

    def singular(matrix, rhs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(
        SingularSystemError, match=r"Singular matrix \(reduced condition estimate \d"
    ):
        solve_saddle(system)


def test_residual_above_the_tolerance_raises(monkeypatch):
    system = _junction_system()
    exact = np.linalg.solve

    def perturbed(matrix, rhs):
        return exact(matrix, rhs) + 1e-3

    monkeypatch.setattr(np.linalg, "solve", perturbed)
    with pytest.raises(
        SingularSystemError,
        match=r"relative residual \d\.\d{3}e[-+]\d+ exceeds 1e-10 \(reduced condition estimate",
    ):
        solve_saddle(system)


def test_conservation_on_random_networks():
    rng = np.random.default_rng(2024)
    for k in range(50):
        net = random_network(rng) if k < 25 else random_dfn(rng, DFN_SEGMENTS)
        mesh = build_mesh(net, 0.2)
        lam1, lam2 = rng.uniform(0.1, 10.0, 2)
        law = AdaptiveLaw(LawBranch(lam1), LawBranch(lam2), 1.0)
        labels = RegimeField(
            {
                b: rng.integers(0, 2, len(mesh.nodes[b]) - 1).astype(np.int8)
                for b in mesh.branch_ids
            }
        )
        system = assemble(mesh, labels, law, 0.0, net.sources, net.boundary)
        sol = solve_saddle(system)
        for b in mesh.branch_ids:
            qint = mesh.per_element(source_integrals(mesh))[b]
            assert np.abs(np.diff(sol.flux[b]) - qint).max() <= 1e-10
        for isec in net.intersections:
            total = 0.0
            for bid, which in isec.incident:
                n_out = -1.0 if which == "start" else 1.0
                node = 0 if which == "start" else len(mesh.nodes[bid]) - 1
                total += n_out * sol.flux[bid][node]
            assert abs(total) <= 1e-10
        implied = implied_junction_pressures(system, sol)
        for j in range(len(net.intersections)):
            values = implied[net.junction_incidence[:, 2] == j]
            assert values.max() - values.min() <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_forchheimer_systems_on_random_networks_balance(seed):
    # random labels and frozen speeds under a Darcy-Forchheimer law: every
    # element and junction coefficient path of the assembly is exercised
    rng = np.random.default_rng(seed)
    net = random_network(rng)
    mesh = build_mesh(net, 0.2)
    law = AdaptiveLaw(
        LawBranch(float(rng.uniform(0.1, 10.0))),
        LawBranch(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.1, 5.0))),
        float(rng.uniform(0.05, 1.0)),
    )
    labels = RegimeField(
        {
            b: rng.integers(0, 2, len(mesh.nodes[b]) - 1).astype(np.int8)
            for b in mesh.branch_ids
        }
    )
    speeds = {b: rng.uniform(0.0, 2.0, len(mesh.nodes[b]) - 1) for b in mesh.branch_ids}
    system = assemble(mesh, labels, law, speeds, net.sources, net.boundary)
    assert np.array_equal(system.matrix, system.matrix.T)
    sol = solve_saddle(system)
    for b in mesh.branch_ids:
        qint = mesh.per_element(source_integrals(mesh))[b]
        assert np.abs(np.diff(sol.flux[b]) - qint).max() <= 1e-10
    for isec in net.intersections:
        total = sum(
            sol.flux[bid][-1] if which == "end" else -sol.flux[bid][0]
            for bid, which in isec.incident
        )
        assert abs(total) <= 1e-10
    assert junction_continuity_defect(sol) <= 1e-10


def _with_floating_part(branches, intersections, conditions):
    # an anchored branch "a" plus a part whose ends carry only velocity
    # conditions: the network is well-formed, but that part's pressure level is free
    anchored = Branch("a", (0.0, -2.0), (1.0, -2.0))
    return FractureNetwork(
        branches=(anchored,) + branches,
        intersections=intersections,
        boundary=BoundarySpec(
            {("a", "start"): PressureBC(1.0), ("a", "end"): PressureBC(0.0), **conditions}
        ),
    )


def _floating_networks():
    single = _with_floating_part(
        (Branch("f", (0.0, 0.0), (1.0, 0.0)),),
        (),
        {("f", "start"): VelocityBC(-0.5), ("f", "end"): VelocityBC(0.5)},
    )
    center = (0.5, 0.5)
    legs = ("A", "B", "C")
    star = _with_floating_part(
        (
            Branch("A", (0.0, 0.5), center),
            Branch("B", (1.0, 0.5), center),
            Branch("C", (0.5, 1.0), center),
        ),
        (Intersection("J", center, tuple((b, "end") for b in legs)),),
        {
            ("A", "start"): VelocityBC(-1.0),
            ("B", "start"): VelocityBC(0.5),
            ("C", "start"): VelocityBC(0.5),
        },
    )
    return {"single": single, "star": star}


@pytest.mark.parametrize("kind", ["single", "star"])
def test_floating_component_is_rejected(kind, monkeypatch):
    net = _floating_networks()[kind]
    floating = "f" if kind == "single" else "A"
    message = f"part of the network holding branch '{floating}' is undetermined"
    (violation,) = validate_network(net).violations
    assert violation.code == "pressure-level" and message in violation.message
    with pytest.raises(ValueError, match=r"\[pressure-level\]"):
        build_mesh(net, 0.25)
    # a mesh built past validation: assembling on it fails the same way
    monkeypatch.setattr(meshing, "validate_network", lambda net: ValidationReport())
    mesh = build_mesh(net, 0.25)
    with pytest.raises(SingularSystemError, match=message):
        solve_saddle(
            assemble(
                mesh,
                RegimeField.uniform(mesh, Regime.LOW),
                UNIT_LAW,
                0.0,
                net.sources,
                net.boundary,
            )
        )


def _relative_gap(value, reference, scale=None):
    if scale is None:
        scale = float(np.abs(reference).max(initial=0.0))
    return float(np.abs(value - reference).max(initial=0.0)) / max(scale, 1e-300)


def _matches_sparse_oracle(net, law, labels, speeds):
    mesh = build_mesh(net, 0.2)
    labels = RegimeField(mesh.per_element(labels(mesh)))
    speeds = speeds(mesh)
    sol = solve_saddle(assemble(mesh, labels, law, speeds, net.sources, net.boundary))
    flux, pressure, junction = sparse_saddle_solve(
        mesh, labels, law, speeds, net.boundary
    )
    ids = [isec.id for isec in net.intersections]
    assert _relative_gap(sol.flux.array, flux) <= 1e-12
    assert _relative_gap(sol.pressure.array, pressure) <= 1e-12
    # junction pressures against the oracle's pressure scale: one junction
    # pressure near zero must not turn rounding into a relative gap
    scale = float(np.abs(np.concatenate([pressure, junction])).max(initial=0.0))
    junction_gap = _relative_gap(
        np.array([sol.junction_pressure[j] for j in ids]), junction, scale
    )
    assert junction_gap <= 1e-12


def _callable_sources(net, rng):
    # every other constant piece becomes a smooth function of the same size
    scalar = {
        bid: PiecewiseSource(
            src.breakpoints,
            tuple(
                (lambda x, c=float(c): c * np.cos(3.0 * x)) if rng.uniform() < 0.5 else c
                for c in src.pieces
            ),
        )
        for bid, src in net.sources.scalar.items()
    }
    return dataclasses.replace(net, sources=SourceSpec(scalar, net.sources.force))


def _mean_anchored(net, rng):
    # every pressure condition becomes a velocity condition; the mean pins the level
    conditions = {
        end: VelocityBC(float(rng.uniform(-0.5, 0.5))) if isinstance(bc, PressureBC) else bc
        for end, bc in net.boundary.conditions.items()
    }
    return dataclasses.replace(
        net, boundary=BoundarySpec(conditions, mean_pressure=float(rng.uniform(-1, 1)))
    )


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mean=st.booleans(), loops=st.booleans())
@example(seed=530306, mean=False, loops=False)
def test_condensed_solve_matches_the_sparse_saddle_oracle(seed, mean, loops):
    # velocity ends, callable sources, body force, random labels and frozen
    # speeds under a Darcy-Forchheimer law, anchored by pressure conditions or
    # by the mean pressure, on a tree or on a network with loops
    rng = np.random.default_rng(seed)
    net = random_dfn(rng, DFN_SEGMENTS) if loops else random_network(rng)
    net = _callable_sources(net, rng)
    if mean:
        net = _mean_anchored(net, rng)
    law = AdaptiveLaw(
        LawBranch(float(rng.uniform(0.1, 10.0))),
        LawBranch(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.1, 5.0))),
        float(rng.uniform(0.05, 1.0)),
    )
    _matches_sparse_oracle(
        net,
        law,
        lambda mesh: rng.integers(0, 2, mesh.total_elements).astype(np.int8),
        lambda mesh: mesh.per_element(rng.uniform(0.0, 2.0, mesh.total_elements)),
    )


def test_condensed_solve_matches_the_sparse_saddle_oracle_on_a_mean_anchored_branch():
    rng = np.random.default_rng(5)
    net = FractureNetwork(
        branches=(Branch("f", (0.0, 0.0), (1.3, 0.4)),),
        boundary=BoundarySpec(
            {("f", "start"): VelocityBC(0.2), ("f", "end"): VelocityBC(-0.1)},
            mean_pressure=0.4,
        ),
        sources=SourceSpec(
            scalar={"f": PiecewiseSource((0.5,), (lambda x: np.sin(x), -0.3))},
            force=(0.2, -0.1),
        ),
    )
    law = AdaptiveLaw(LawBranch(2.0), LawBranch(0.5, 3.0), 0.2)
    _matches_sparse_oracle(
        net,
        law,
        lambda mesh: rng.integers(0, 2, mesh.total_elements).astype(np.int8),
        lambda mesh: mesh.per_element(rng.uniform(0.0, 2.0, mesh.total_elements)),
    )
