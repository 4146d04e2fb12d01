import tracemalloc

import numpy as np
import pytest

from dfnflow.energy import (
    _CHEB_S,
    ALPHA_MAX,
    _bracket_slopes,
    energy_of,
    lift_field,
    reduce_and_minimize,
    tangential_forcing,
)
from dfnflow.laws import AdaptiveLaw, LawBranch
from dfnflow.meshing import build_mesh
from dfnflow.network import (
    BoundarySpec,
    Branch,
    FractureNetwork,
    PiecewiseSource,
    PressureBC,
    SourceSpec,
    VelocityBC,
)
from dfnflow.picard import PicardSettings
from dfnflow.presets import (
    alternating_source,
    darcy_forchheimer_pair,
    darcy_pair,
    run_case,
    single_fracture_network,
)
from dfnflow.tracker import TrackerSettings, track

from oracles import _slopes, bisect_reduce, brute_reduce, loop_energy_of, midpoint_dissipation


def plain_branch(
    q=None, force=(0.0, 0.0), bc_start=PressureBC(0.0), bc_end=PressureBC(0.0)
):
    scalar = {} if q is None else {"f": q}
    return FractureNetwork(
        branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),),
        boundary=BoundarySpec({("f", "start"): bc_start, ("f", "end"): bc_end}),
        sources=SourceSpec(scalar=scalar, force=force),
    )


UNIT_LAW = AdaptiveLaw(LawBranch(1.0), LawBranch(1.0), 1.0)


class TestLiftedField:
    def test_zero_source_gives_zero_lift(self):
        mesh = build_mesh(plain_branch(), 0.25)
        lifted = lift_field(mesh)
        assert np.allclose(lifted, 0.0)

    def test_alternating_source_cumulative_integrals(self):
        mesh = build_mesh(single_fracture_network(), 0.05)
        lifted = lift_field(mesh)
        assert np.interp(0.3, mesh.x, lifted) == pytest.approx(0.3, abs=1e-13)
        assert np.interp(0.7, mesh.x, lifted) == pytest.approx(-0.1, abs=1e-13)
        assert np.interp(1.0, mesh.x, lifted) == pytest.approx(0.2, abs=1e-13)

    def test_velocity_anchor_at_start(self):
        net = plain_branch(
            q=PiecewiseSource(pieces=(1.0,)), bc_start=VelocityBC(0.0)
        )
        mesh = build_mesh(net, 0.25)
        lifted = lift_field(mesh)
        assert np.allclose(lifted, mesh.nodes["f"], atol=1e-13)

    def test_nonzero_inflow_anchor(self):
        # outward flux -0.3 at the start means flux +0.3 along the branch
        net = plain_branch(
            q=PiecewiseSource(pieces=(1.0,)), bc_start=VelocityBC(-0.3)
        )
        mesh = build_mesh(net, 0.25)
        lifted = lift_field(mesh)
        assert np.allclose(lifted, 0.3 + mesh.nodes["f"], atol=1e-13)

    def test_velocity_anchor_at_end(self):
        net = plain_branch(
            q=PiecewiseSource(pieces=(1.0,)), bc_end=VelocityBC(0.7)
        )
        mesh = build_mesh(net, 0.25)
        lifted = lift_field(mesh)
        assert lifted[-1] == pytest.approx(0.7, abs=1e-13)

    def test_multi_branch_networks_rejected(self):
        from dfnflow.presets import crossing_network

        mesh = build_mesh(crossing_network(), 0.25)
        with pytest.raises(ValueError, match="single-branch"):
            lift_field(mesh)

    @pytest.mark.parametrize("h", [0.05, 0.01])
    def test_is_the_source_profile_of_the_solve(self, h):
        mesh = build_mesh(single_fracture_network(), h)
        assert np.array_equal(lift_field(mesh), mesh.source_profile)

    def test_start_velocity_shifts_the_source_profile(self):
        net = plain_branch(q=PiecewiseSource(pieces=(1.0,)), bc_start=VelocityBC(-0.3))
        mesh = build_mesh(net, 0.25)
        outflux = mesh.network.boundary_plan.outflux[mesh.network.end_vertex[0, 0]]
        assert outflux == -0.3
        assert np.array_equal(lift_field(mesh), mesh.source_profile - outflux)


class TestEnergyOf:
    def test_zero_field_constant_law(self):
        mesh = build_mesh(plain_branch(), 0.25)
        report = energy_of(np.zeros(5), mesh, UNIT_LAW)
        assert report.dissipation == pytest.approx(-0.5, abs=1e-14)
        assert report.energy == pytest.approx(-0.5, abs=1e-14)

    def test_field_must_match_the_mesh_nodes(self):
        mesh = build_mesh(plain_branch(), 0.25)
        with pytest.raises(ValueError, match="field values do not match the mesh nodes"):
            energy_of(np.zeros(len(mesh.x) - 1), mesh, UNIT_LAW)

    def test_uniform_high_field_closed_form(self):
        law = AdaptiveLaw(LawBranch(1.0), LawBranch(0.1), 1.0)
        mesh = build_mesh(plain_branch(), 0.25)
        report = energy_of(np.full(5, 2.0), mesh, law)
        assert report.dissipation == pytest.approx(0.15, abs=1e-14)

    def test_constant_law_exactness_away_from_threshold(self):
        # closed form: lambda/2 * integral of (u^2 - ubar^2)
        law = AdaptiveLaw(LawBranch(2.0), LawBranch(0.5), 0.15)
        mesh = build_mesh(plain_branch(), 0.2)
        x = mesh.nodes["f"]
        values = 0.02 * x  # speeds stay below 0.15 everywhere
        exact = 2.0 / 2.0 * (0.02**2 / 3.0 - 0.15**2)
        report = energy_of(values, mesh, law)
        assert report.dissipation == pytest.approx(exact, abs=1e-12)

    def assert_matches_the_loop(self, values, mesh, law):
        report = energy_of(values, mesh, law)
        reference = loop_energy_of(values, mesh, law)
        assert np.isfinite([report.dissipation, report.load, report.energy]).all()
        for key in ("dissipation", "load", "energy"):
            assert getattr(report, key) == pytest.approx(getattr(reference, key), abs=1e-14)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_field_crossing_every_level_matches_the_loop(self, seed):
        mesh, law = random_single_fracture(np.random.default_rng(seed))
        ubar = law.threshold
        rng = np.random.default_rng(1000 + seed)
        n = len(mesh.nodes["f"])
        values = rng.uniform(-2.0 * ubar, 2.0 * ubar, n)
        # alternating signs beyond the threshold cut the first elements at all three levels
        values[: n // 2] = rng.uniform(1.1 * ubar, 2.0 * ubar, n // 2) * (-1.0) ** np.arange(n // 2)
        signs = np.sign(values[:, None] - [ubar, -ubar, 0.0])
        assert (signs[:-1] != signs[1:]).any(axis=0).all()  # every level is crossed
        self.assert_matches_the_loop(values, mesh, law)

    def test_flat_elements_match_the_loop(self):
        mesh, law = random_single_fracture(np.random.default_rng(3))
        values = np.resize(np.repeat([0.3, -0.05, 0.7, -0.4], 2), len(mesh.nodes["f"]))
        assert (np.diff(values) == 0.0).any()
        self.assert_matches_the_loop(values, mesh, law)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_node_on_the_threshold_matches_the_loop(self, sign):
        mesh, law = random_single_fracture(np.random.default_rng(5))
        values = np.linspace(-1.0, 1.0, len(mesh.nodes["f"]))
        values[len(values) // 2] = sign * law.threshold
        values[len(values) // 2 + 1] = sign * law.threshold  # a flat element on it
        values[1] = sign * law.threshold
        self.assert_matches_the_loop(values, mesh, law)

    def test_field_zero_on_an_element_matches_the_loop(self):
        mesh, law = random_single_fracture(np.random.default_rng(7))
        values = np.linspace(-0.8, 0.9, len(mesh.nodes["f"]))
        values[2:4] = 0.0
        self.assert_matches_the_loop(values, mesh, law)

    def test_kink_split_quadrature_matches_midpoint_oracle(self):
        law = AdaptiveLaw(LawBranch(1.0), LawBranch(0.01, 3.0), 0.15)
        mesh = build_mesh(single_fracture_network(), 0.1)
        lifted = lift_field(mesh)
        values = lifted - 0.05  # crosses the threshold inside elements
        report = energy_of(values, mesh, law)
        reference = midpoint_dissipation(values, mesh.nodes["f"], law)
        assert report.dissipation == pytest.approx(reference, abs=1e-7)

    def test_lifted_dissipation_consistency_with_fine_quadrature(self):
        law = darcy_pair()
        mesh = build_mesh(single_fracture_network(), 0.05)
        lifted = lift_field(mesh)
        report = energy_of(lifted, mesh, law)
        reference = midpoint_dissipation(lifted, mesh.nodes["f"], law)
        assert report.dissipation == pytest.approx(reference, abs=1e-9)

    def test_energy_identity(self):
        law = darcy_pair()
        mesh = build_mesh(single_fracture_network(), 0.05)
        lifted = lift_field(mesh)
        report = energy_of(lifted, mesh, law)
        assert report.energy == pytest.approx(
            report.dissipation - report.load, abs=1e-15
        )

    def test_pressure_data_enters_forcing_with_downhill_sign(self):
        # end pressure 0.2 must drive flow toward the low-pressure end
        net = plain_branch(bc_end=PressureBC(0.2))
        mesh = build_mesh(net, 0.25)
        assert tangential_forcing(mesh) == pytest.approx(-0.2)
        law = AdaptiveLaw(LawBranch(1.0), LawBranch(1.0), 10.0)
        result = reduce_and_minimize(mesh, law)
        assert result.alpha_star == pytest.approx(-0.2, abs=1e-6)

    def test_tangential_forcing_of_each_end_condition_pair(self):
        # the force along the branch minus the gradient of the linear
        # extension of the pressure data: the end-to-end drop over the length
        # with pressure at both ends, else zero, the constant extension of
        # one pressure (or of none, under the mean-pressure anchor)
        pairs = [
            (PressureBC(0.1), PressureBC(-0.3), -0.2),
            (PressureBC(0.1), PressureBC(0.1), 0.0),
            (VelocityBC(0.0), PressureBC(-0.3), 0.0),
            (PressureBC(0.1), VelocityBC(0.2), 0.0),
            (VelocityBC(-0.2), VelocityBC(0.2), 0.0),
        ]
        for bc_start, bc_end, gradient in pairs:
            anchored = PressureBC in (type(bc_start), type(bc_end))
            net = FractureNetwork(
                branches=(Branch("f", (0.0, 0.0), (1.2, 1.6)),),
                boundary=BoundarySpec(
                    {("f", "start"): bc_start, ("f", "end"): bc_end},
                    mean_pressure=None if anchored else 0.0,
                ),
                sources=SourceSpec(force=(0.5, 0.0)),
            )
            mesh = build_mesh(net, 0.25)
            # length 2, tangent (0.6, 0.8): the force along the branch is 0.3
            assert tangential_forcing(mesh) == pytest.approx(0.3 - gradient, abs=1e-15)


class TestReduction:
    def test_no_forcing_minimizes_at_rest(self):
        mesh = build_mesh(plain_branch(), 0.25)
        result = reduce_and_minimize(mesh, UNIT_LAW)
        assert result.alpha_star == pytest.approx(0.0, abs=1e-7)

    def test_grid_profile_matches_pointwise_energy(self):
        law = darcy_pair()
        mesh = build_mesh(single_fracture_network(), 0.05)
        lifted = lift_field(mesh)
        result = brute_reduce(mesh, law, alpha_max=1.0, count=2001)
        idx = np.linspace(0, 2000, 9, dtype=int)
        for k in idx:
            direct = energy_of(lifted + result.alphas[k], mesh, law).energy
            assert result.energies[k] == pytest.approx(direct, abs=1e-11)

    def test_convex_profile_has_nonnegative_second_differences(self):
        law = darcy_pair(k1=1.0, k2=0.5625)  # coefficient rises at the switch
        mesh = build_mesh(single_fracture_network(), 0.05)
        result = brute_reduce(mesh, law, alpha_max=2.0, count=4001)
        second = np.diff(result.energies, n=2)
        assert second.min() >= -1e-9
        assert len(reduce_and_minimize(mesh, law).candidates) == 1

    def test_nonconvex_profile_shows_a_concave_region(self):
        law = darcy_pair(k1=1.0, k2=10.0)  # coefficient drops at the switch
        mesh = build_mesh(single_fracture_network(), 0.05)
        # second differences scale with the squared grid step, so probe the
        # concave region with a step large enough to clear the threshold
        result = brute_reduce(mesh, law, alpha_max=2.0, count=1001)
        second = np.diff(result.energies, n=2)
        assert second.min() < -1e-6

    def test_refinement_improves_on_the_grid_minimum(self):
        law = darcy_pair()
        mesh = build_mesh(single_fracture_network(), 0.05)
        result = reduce_and_minimize(mesh, law)
        grid_best = float(brute_reduce(mesh, law, alpha_max=1.0, count=5001).energies.min())
        assert result.energy <= grid_best + 1e-15

    def test_exact_minimizer_pins_closed_form_minimizers(self):
        # zeros of the closed-form E' are located to rounding, not to the
        # sqrt(machine eps) that a search on E values allows
        mesh = build_mesh(plain_branch(bc_end=PressureBC(0.2)), 0.25)
        law = AdaptiveLaw(LawBranch(1.0), LawBranch(1.0), 10.0)
        result = reduce_and_minimize(mesh, law)
        assert result.alpha_star == pytest.approx(-0.2, abs=1e-12)

        mesh = build_mesh(single_fracture_network(), 0.05)
        result = reduce_and_minimize(mesh, darcy_pair(1.0, 10.0))
        assert result.alpha_star == pytest.approx(0.4, abs=1e-12)

        # no source: every element is flat and E' jumps from lambda1 * u - f
        # < 0 to lambda2 * u - f > 0 at alpha = u, a kink minimizer
        law = darcy_pair(1.0, 0.5625)
        mesh = build_mesh(plain_branch(force=(1.2 * law.threshold, 0.0)), 0.1)
        result = reduce_and_minimize(mesh, law)
        assert result.alpha_star == pytest.approx(law.threshold, abs=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_an_end_of_the_search_interval_is_reported_as_the_minimizer(self, sign):
        # unit Darcy law and force 2 * ALPHA_MAX along the branch: E' < 0 on
        # the whole interval, so the minimum sits at its end
        mesh = build_mesh(plain_branch(force=(sign * 2.0 * ALPHA_MAX, 0.0)), 0.25)
        result = reduce_and_minimize(mesh, UNIT_LAW)
        assert result.alpha_star == sign * ALPHA_MAX
        assert [a for a, _ in result.candidates] == [sign * ALPHA_MAX]
        assert result.candidates[0][1] == result.energy

    def test_nonconvex_tie_reports_both_regime_minimizers(self):
        # no source and force u * sqrt(lambda1 * lambda2): the low-regime
        # minimizer f / lambda1 and the high-regime one f / lambda2 have
        # equal energy, and E' jumps downward at alpha = u between them
        law = darcy_pair(1.0, 10.0)
        force = law.threshold * np.sqrt(law.lambda1 * law.lambda2)
        mesh = build_mesh(plain_branch(force=(force, 0.0)), 0.1)
        result = reduce_and_minimize(mesh, law)
        alphas = [a for a, _ in result.candidates]
        assert alphas == pytest.approx([force / law.lambda1, force / law.lambda2], abs=1e-12)
        assert len(brute_reduce(mesh, law).candidates) == 2


def random_single_fracture(rng):
    """Seeded single fracture with pressure data at both ends and a random law.

    Random length, piecewise-constant source (each piece zero with
    probability 0.3, which makes elements flat), tangential force, end
    pressures and threshold; the high branch is constant or affine, and its
    coefficient at the switch lies above or below the low one.
    """
    length = float(rng.uniform(0.5, 1.5))
    cuts = np.sort(rng.uniform(0.05, 0.95, int(rng.integers(0, 4)))) * length
    rates = rng.uniform(-1.5, 1.5, len(cuts) + 1) * (rng.uniform(size=len(cuts) + 1) > 0.3)
    pieces = tuple(float(v) for v in rates)
    net = FractureNetwork(
        branches=(Branch("f", (0.0, 0.0), (length, 0.0)),),
        boundary=BoundarySpec(
            {
                ("f", "start"): PressureBC(float(rng.uniform(-0.5, 0.5))),
                ("f", "end"): PressureBC(float(rng.uniform(-0.5, 0.5))),
            }
        ),
        sources=SourceSpec(
            scalar={"f": PiecewiseSource(tuple(float(c) for c in cuts), pieces)},
            force=(float(rng.uniform(-0.5, 0.5)), 0.0),
        ),
    )
    threshold = float(rng.uniform(0.1, 0.6))
    low = float(rng.uniform(0.5, 2.0))
    high = low * float(rng.choice([rng.uniform(0.05, 0.8), rng.uniform(1.25, 4.0)]))
    if rng.uniform() < 0.5:
        high_branch = LawBranch(high)
    else:
        share = float(rng.uniform(0.1, 0.9))
        high_branch = LawBranch(share * high, (1.0 - share) * high / threshold)
    law = AdaptiveLaw(LawBranch(low), high_branch, threshold)
    return build_mesh(net, float(rng.choice([0.05, 0.1, 0.2]))), law


@pytest.mark.parametrize("seed", range(60))
def test_exact_minimizer_matches_the_brute_scan(seed):
    mesh, law = random_single_fracture(np.random.default_rng(seed))
    exact = reduce_and_minimize(mesh, law)
    brute = brute_reduce(mesh, law)
    alphas = [a for a, _ in exact.candidates]
    assert len(alphas) == len(brute.candidates)
    assert len(set(alphas)) == len(alphas)
    assert abs(exact.alpha_star - brute.alpha_star) <= 1e-6
    assert exact.energy <= brute.energy + 1e-13


@pytest.mark.parametrize("seed", [*range(200), 386, 955])
def test_cubic_zeros_match_the_bisection(seed):
    # the fitted cubic's root lands where 64 bisections of the closed-form E'
    # do; measured worst case over seeds 0-999 4.9e-14 (seed 386), and
    # 5.2e-14 (seed 955) when a Newton step on the closed-form E' followed
    mesh, law = random_single_fracture(np.random.default_rng(seed))
    exact = reduce_and_minimize(mesh, law)
    bisected = bisect_reduce(mesh, law)
    assert len(exact.candidates) == len(bisected.candidates)
    for (alpha, energy), (ref_alpha, ref_energy) in zip(exact.candidates, bisected.candidates):
        assert abs(alpha - ref_alpha) <= 1e-12
        assert abs(energy - ref_energy) <= 1e-13


@pytest.mark.parametrize("seed", [*range(200), 955])
def test_candidate_energies_are_energy_of_their_fields(seed):
    # one dissipation integrator: the energy of every candidate is that of
    # the lifted field plus its alpha by energy_of, to the last bit
    mesh, law = random_single_fracture(np.random.default_rng(seed))
    result = reduce_and_minimize(mesh, law)
    for alpha, energy in result.candidates:
        assert energy == energy_of(result.lifted + alpha, mesh, law).energy


def assert_bracket_samples_match_the_closed_form(mesh, law):
    # the running sum of per-piece quadratics plus the straddling elements
    # against the sum over all elements at every sample point; measured
    # worst case over the seeds below 1.3e-12
    lifted = lift_field(mesh)
    alphas = reduce_and_minimize(mesh, law).alphas
    samples = _bracket_slopes(alphas, lifted, mesh, law)
    points = alphas[:-1, None] * (1.0 - _CHEB_S) + alphas[1:, None] * _CHEB_S
    closed = _slopes(points.ravel(), lifted, mesh, law).reshape(-1, 4)
    assert np.abs(samples - closed).max() <= 1e-11 * max(1.0, np.abs(closed).max())


@pytest.mark.parametrize("seed", [*range(200), 955])
def test_bracket_samples_match_the_closed_form_slopes(seed):
    assert_bracket_samples_match_the_closed_form(
        *random_single_fracture(np.random.default_rng(seed))
    )


def test_bracket_samples_of_an_element_straddling_two_kinks():
    # an element whose node values lie more than the threshold apart
    # straddles two kinks over the brackets between them, and counts once
    mesh, law = random_single_fracture(np.random.default_rng(190))
    assert np.abs(np.diff(lift_field(mesh))).max() > law.threshold
    assert_bracket_samples_match_the_closed_form(mesh, law)


def test_bracket_samples_on_a_source_free_branch():
    # every element is flat and adds h * prim'(w) inside its piece
    mesh = build_mesh(plain_branch(force=(0.3, 0.0)), 0.1)
    assert (np.diff(lift_field(mesh)) == 0.0).all()
    assert_bracket_samples_match_the_closed_form(mesh, darcy_forchheimer_pair())


def test_reduce_peak_memory_is_linear_in_the_elements():
    # N = 500: sampling every bracket over all elements took a 105 MB peak
    mesh = build_mesh(single_fracture_network(), 0.002)
    law = darcy_forchheimer_pair()
    reduce_and_minimize(mesh, law)  # the mesh's cached data
    tracemalloc.start()
    try:
        reduce_and_minimize(mesh, law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


@pytest.mark.parametrize(
    "k2, threshold, sign, h",
    [
        # the cubic's root rounds onto the breakpoint, where the closed-form
        # E' reads the other side of its jump: a Newton step from there
        # lands 0.066 (then 0.044) away
        (0.5625, 0.15, 1.0, 0.05),
        (0.5625, 0.1, -1.0, 0.2),
        # the bracket end read below zero by one evaluation of the cubic
        # and at or above it by another: the zero was lost and alpha_max won
        # (the last case also with the fit by chebfit)
        (0.8, 0.07, 1.0, 0.2),
        (0.3, 0.3, -1.0, 0.05),
        (0.5625, 0.3, 1.0, 0.2),
    ],
)
def test_kink_minimizer_with_a_zero_one_sided_slope(k2, threshold, sign, h):
    # no source and force sign * lambda2 * u: E' is zero on the high side
    # of alpha = sign * u and jumps to the low law's value across it
    law = darcy_pair(1.0, k2, threshold)
    mesh = build_mesh(plain_branch(force=(sign * law.lambda2 * law.threshold, 0.0)), h)
    exact = reduce_and_minimize(mesh, law)
    bisected = bisect_reduce(mesh, law)
    assert [a for a, _ in exact.candidates] == pytest.approx([sign * threshold], abs=1e-12)
    assert exact.alpha_star == pytest.approx(bisected.alpha_star, abs=1e-12)
    assert exact.energy == pytest.approx(bisected.energy, abs=1e-13)


class TestFemOracleAgreement:
    def induced_offsets(self, mesh, law, alpha):
        """Mixed solve on the configuration induced by the reduced minimizer."""
        from dfnflow.fem import RegimeField
        from dfnflow.meshing import split_mesh_at
        from dfnflow.picard import picard_solve

        lifted = lift_field(mesh)
        ubar = law.threshold
        x, v = mesh.x, lifted + alpha
        crossings = []
        for e in range(len(x) - 1):
            w1, w2 = v[e], v[e + 1]
            if w2 != w1:
                for level in (ubar, -ubar):
                    t = (level - w1) / (w2 - w1)
                    if 0.0 < t < 1.0:
                        crossings.append(x[e] + t * (x[e + 1] - x[e]))
        work = split_mesh_at(mesh, np.zeros(len(crossings), dtype=np.intp), crossings)
        fine = lift_field(work)
        midpoints = work.per_element(work.midpoints)["f"]
        speeds = np.abs(np.interp(midpoints, work.x, fine) + alpha)
        labels = RegimeField({"f": np.where(speeds < ubar, 0, 1).astype(np.int8)})
        result = picard_solve(work, labels, law)
        return result.solution.flux["f"] - fine

    @pytest.mark.parametrize("k2", [10.0, 0.5625])
    def test_minimizer_matches_the_mixed_solve(self, k2):
        mesh = build_mesh(single_fracture_network(), 0.05)
        law = darcy_pair(k1=1.0, k2=k2)
        result = reduce_and_minimize(mesh, law)
        offsets = self.induced_offsets(mesh, law, result.alpha_star)
        assert offsets.max() - offsets.min() <= 1e-8
        assert float(offsets.mean()) == pytest.approx(result.alpha_star, abs=1e-6)

    @pytest.mark.parametrize("h", [0.05, 0.02, 0.01])
    def test_forchheimer_solve_matches_the_oracle_to_second_order(self, h):
        """A Forchheimer solve meets the energy oracle only up to O(h**2).

        The Picard solve freezes the coefficient at the element-midpoint
        speed while the oracle integrates the potential along the linear
        flux, so the linear-law 1e-6 agreement does not carry over. At
        eps_nl = 1e-12 the measured |offset mean - alpha*| is 1.59e-4,
        3.04e-5 and 7.61e-6 at h = 0.05, 0.02 and 0.01, that is 0.063,
        0.076 and 0.076 h**2; the bound 0.1 h**2 leaves a margin of at
        least 1.3x.
        """
        bundle = run_case(
            "forchheimer-oracle",
            single_fracture_network(),
            darcy_forchheimer_pair(),
            h=h,
            picard=PicardSettings(tolerance=1e-12),
        )
        assert bundle.status == "converged"
        energy = bundle.energy
        assert abs(energy["fem_offset_mean"] - energy["alpha_star"]) <= 0.1 * h**2

    def test_mean_anchor_with_unbalanced_velocity_data(self):
        """The oracle reduces the problem the solve solved under a mean anchor.

        Sources integrate to 0.2 but the velocity data take out 0.3, so the
        solve absorbs the mismatch as the uniform sink mu = -0.1; the lifted
        field carries the same mu, and the solver's flux is that field
        exactly, with the same energy.
        """
        net = FractureNetwork(
            branches=(Branch("f", (0.0, 0.5), (1.0, 0.5)),),
            boundary=BoundarySpec(
                {("f", "start"): VelocityBC(-0.2), ("f", "end"): VelocityBC(0.5)},
                mean_pressure=0.0,
            ),
            sources=SourceSpec(scalar={"f": alternating_source()}),
        )
        law = AdaptiveLaw(LawBranch(1.0), LawBranch(0.1), 0.15)
        energy = run_case("mean-anchored-unbalanced", net, law).energy
        assert energy["fem_offset_spread"] <= 1e-12
        assert abs(energy["alpha_energy"] - energy["energy"]) <= 1e-12


class TestLocalMinimalityProbe:
    """Local minimality against the exact line minimum of the reduced energy.

    On one branch the admissible directions are the constants, so a field
    is locally minimal when it is the lifted field plus the minimizer
    alpha* and its energy is E(alpha*).
    """

    def assert_is_the_line_minimum(self, solution, law):
        mesh = solution.mesh
        flux = solution.flux["f"]
        result = reduce_and_minimize(mesh, law)
        offsets = flux - result.lifted
        assert len(result.candidates) == 1
        assert abs(float(offsets.mean()) - result.alpha_star) <= 1e-12
        assert float(offsets.max() - offsets.min()) <= 1e-12
        energy = energy_of(flux, mesh, law).energy
        assert abs(energy - result.energy) <= 1e-15
        return energy

    def test_sharply_converged_solution_has_no_descent(self):
        # converge the tracker well below the step sizes tested so the
        # reported state is a stationary point of the discrete energy
        mesh = build_mesh(single_fracture_network(), 0.05)
        report = track(
            mesh,
            darcy_pair(),
            settings=TrackerSettings(eps_omega=1e-8, max_outer=100),
        )
        assert report.status.value == "converged"
        sol = report.final_solution
        law = darcy_pair()
        energy = self.assert_is_the_line_minimum(sol, law)
        for step in (1e-3, -1e-3, 1e-4, -1e-4):
            assert energy_of(sol.flux["f"] + step, sol.mesh, law).energy > energy

    def test_perturbed_field_has_descent_directions(self):
        mesh = build_mesh(single_fracture_network(), 0.05)
        law = darcy_pair()
        lifted = lift_field(mesh)
        result = reduce_and_minimize(mesh, law)
        assert abs(result.alpha_star - 0.1) > 1e-3
        energy = energy_of(lifted + 0.1, mesh, law).energy
        assert energy > result.energy + 1e-10
        # a small step toward alpha* lowers the energy
        toward = 1e-3 * np.sign(result.alpha_star - 0.1)
        assert energy_of(lifted + 0.1 + toward, mesh, law).energy < energy - 1e-10

    def test_single_law_minimizer_passes(self):
        # equal coefficients: the classical quadratic energy, one minimizer
        mesh = build_mesh(single_fracture_network(), 0.05)
        law = AdaptiveLaw(LawBranch(1.0), LawBranch(1.0), 0.15)
        report = track(mesh, law)
        self.assert_is_the_line_minimum(report.final_solution, law)

    @pytest.mark.parametrize(
        "net, law",
        [
            (plain_branch(bc_start=VelocityBC(0.1)), darcy_pair()),
            (
                plain_branch(
                    q=alternating_source(), force=(0.05, 0.0), bc_end=VelocityBC(0.3)
                ),
                darcy_forchheimer_pair(),
            ),
            (
                FractureNetwork(
                    branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),),
                    boundary=BoundarySpec(
                        {("f", "start"): VelocityBC(-0.2), ("f", "end"): VelocityBC(0.4)},
                        mean_pressure=0.0,
                    ),
                    sources=SourceSpec(scalar={"f": alternating_source()}),
                ),
                darcy_forchheimer_pair(),
            ),
        ],
        ids=["velocity-start", "velocity-end", "velocity-both-mean-pressure"],
    )
    @pytest.mark.parametrize("h", [0.25, 0.01])
    def test_velocity_condition_leaves_no_directions(self, net, law, h):
        # the divergence-free space is zero: alpha is fixed at 0, and the
        # lifted field is the only candidate, with its own energy
        mesh = build_mesh(net, h)
        result = reduce_and_minimize(mesh, law)
        energy = energy_of(result.lifted, mesh, law).energy
        assert result.alpha_star == 0.0
        assert result.alphas.tolist() == [0.0]
        assert result.candidates == [(0.0, energy)]
