import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfnflow.fem import RegimeField, assemble, solve_saddle
from dfnflow.laws import AdaptiveLaw, LawBranch, Regime
from dfnflow.meshing import build_mesh
from dfnflow.picard import AndersonMixer, PicardSettings, picard_solve
from dfnflow.presets import (
    benchmark_network,
    darcy_forchheimer_pair,
    single_fracture_network,
)
from dfnflow.tracker import track

import oracles
from oracles import plain_picard, plain_track, random_network


def mixed_configuration(mesh):
    """Half low, half high on the single fracture, split at element level."""
    n = len(mesh.nodes["f"]) - 1
    labels = np.zeros(n, dtype=np.int8)
    labels[n // 2 :] = 1
    return RegimeField({"f": labels})


def test_linear_law_converges_in_one_iteration():
    net = single_fracture_network()
    mesh = build_mesh(net, 0.05)
    law = AdaptiveLaw(LawBranch(1.0), LawBranch(0.1), 0.15)
    result = picard_solve(mesh, RegimeField.uniform(mesh, Regime.LOW), law)
    assert result.converged
    assert result.iterations == 1
    assert result.update_history == [0.0]


def test_linear_shortcut_even_with_high_labels_present():
    net = single_fracture_network()
    mesh = build_mesh(net, 0.05)
    law = AdaptiveLaw(LawBranch(1.0), LawBranch(0.1), 0.15)
    result = picard_solve(mesh, mixed_configuration(mesh), law)
    assert result.converged and result.iterations == 1


def test_nonlinear_mixed_configuration_iterates():
    net = single_fracture_network()
    mesh = build_mesh(net, 0.05)
    law = darcy_forchheimer_pair()
    result = picard_solve(
        mesh,
        mixed_configuration(mesh),
        law,
        PicardSettings(tolerance=1e-4),
    )
    assert result.converged
    assert 2 <= result.iterations <= 12
    assert result.update_history[-1] <= 1e-4


def test_update_norms_eventually_monotone():
    net = single_fracture_network()
    mesh = build_mesh(net, 0.05)
    law = darcy_forchheimer_pair()
    result = picard_solve(
        mesh,
        mixed_configuration(mesh),
        law,
        PicardSettings(tolerance=1e-12, max_iterations=60),
    )
    updates = result.update_history
    assert result.converged
    tail = updates[2:]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))


def test_iteration_counts_monotone_in_tolerance():
    net = single_fracture_network()
    mesh = build_mesh(net, 0.05)
    law = darcy_forchheimer_pair()
    counts = []
    for tol in (1e-1, 1e-2, 1e-4, 1e-8, 1e-12):
        result = picard_solve(
            mesh,
            mixed_configuration(mesh),
            law,
            PicardSettings(tolerance=tol, max_iterations=80),
        )
        assert result.converged
        counts.append(result.iterations)
    assert counts == sorted(counts)


def test_tight_tolerances_agree():
    net = single_fracture_network()
    mesh = build_mesh(net, 0.05)
    law = darcy_forchheimer_pair()

    def run(tol):
        return picard_solve(
            mesh,
            mixed_configuration(mesh),
            law,
            PicardSettings(tolerance=tol, max_iterations=100),
        ).solution.stacked()

    a = run(1e-8)
    b = run(1e-12)
    assert np.linalg.norm(a - b) / np.linalg.norm(b) <= 1e-7


def test_non_convergence_reported_not_raised():
    net = single_fracture_network()
    mesh = build_mesh(net, 0.05)
    law = darcy_forchheimer_pair()
    result = picard_solve(
        mesh,
        mixed_configuration(mesh),
        law,
        PicardSettings(tolerance=1e-12, max_iterations=3),
    )
    assert not result.converged
    assert result.iterations == 3


def test_settings_validation():
    with pytest.raises(ValueError):
        PicardSettings(tolerance=0.0)
    with pytest.raises(ValueError):
        PicardSettings(max_iterations=0)


def test_nan_tolerance_rejected():
    with pytest.raises(ValueError, match="tolerance must be positive"):
        PicardSettings(tolerance=np.nan)


def test_first_outer_step_is_linear_on_low_start():
    # the all-low start solves a speed-independent problem: one inner cycle
    net = single_fracture_network()
    mesh = build_mesh(net, 0.05)
    report = track(mesh, darcy_forchheimer_pair())
    assert report.inner_iteration_counts[0] == 1
    assert len(report.inner_iteration_counts) == report.outer_iterations


def test_negative_depth_rejected():
    with pytest.raises(ValueError):
        PicardSettings(depth=-1)


def test_mixer_returns_the_image_until_a_difference_is_stored():
    residuals = [np.array([1.0, -1.0]), np.array([0.5, 0.2]), np.array([0.1, 0.3])]
    images = [np.array([2.0, 0.0]), np.array([1.5, 0.4]), np.array([1.2, 0.6])]
    plain = AndersonMixer(0)
    for residual, image in zip(residuals, images):
        assert np.array_equal(plain.step(residual, image), image)
        assert not plain.mixing
    mixer = AndersonMixer(2)
    assert np.array_equal(mixer.step(residuals[0], images[0]), images[0])
    assert not mixer.mixing
    assert not np.array_equal(mixer.step(residuals[1], images[1]), images[1])
    assert mixer.mixing
    mixer.restart(keep_last=True)
    assert not mixer.mixing
    # the kept pair gives the next step a difference at once
    mixer.step(residuals[2], images[2])
    assert mixer.mixing


def test_depth_zero_is_plain_picard(monkeypatch):
    # case1-nonlinear's plain outer loop with depth 0 against the
    # unaccelerated inner loop, bit for bit; the inner counts are those of
    # the plain iteration
    net = single_fracture_network()
    mesh = build_mesh(net, 0.05)
    law = darcy_forchheimer_pair()
    plain = PicardSettings(depth=0)
    report = plain_track(mesh, law, picard_settings=plain)
    monkeypatch.setattr(oracles, "picard_solve", plain_picard)
    reference = plain_track(mesh, law, picard_settings=plain)
    assert report.inner_iteration_counts == [1] + [7] * 11
    assert reference.inner_iteration_counts == report.inner_iteration_counts
    assert np.array_equal(
        report.final_solution.stacked(), reference.final_solution.stacked()
    )

    tight = PicardSettings(tolerance=1e-12, max_iterations=60, depth=0)
    args = (mesh, mixed_configuration(mesh), law, tight)
    result, expected = picard_solve(*args), plain_picard(*args)
    assert result.update_history == expected.update_history
    assert np.array_equal(result.solution.stacked(), expected.solution.stacked())


def test_default_depth_converges_fast_on_the_six_fracture_network():
    # plain Picard contracts at about 0.97 per step here (~1085 solves)
    net, _ = benchmark_network()
    mesh = build_mesh(net, 0.05)
    law = darcy_forchheimer_pair(intercept=0.01, slope=0.25)
    regimes = RegimeField.uniform(mesh, Regime.HIGH)

    def run(settings):
        result = picard_solve(mesh, regimes, law, settings)
        assert result.converged
        return result

    fast = run(PicardSettings(tolerance=1e-12, max_iterations=20))
    slow = run(PicardSettings(tolerance=1e-12, max_iterations=2000, depth=0))
    a, b = fast.solution.stacked(), slow.solution.stacked()
    assert np.linalg.norm(a - b) / np.linalg.norm(b) <= 1e-10


def frozen_step_change(mesh, regimes, law, result):
    """Relative change of one more frozen step from a returned solve."""
    net = mesh.network
    speeds = result.solution.midpoint_speeds()
    system = assemble(mesh, regimes, law, speeds, net.sources, net.boundary)
    again = solve_saddle(system).stacked()
    return np.linalg.norm(again - result.solution.stacked()) / np.linalg.norm(again)


@pytest.mark.parametrize("tolerance", [1e-2, 1e-3, 1e-4])
def test_one_more_frozen_step_on_the_all_high_fracture(tolerance):
    # the extrapolated iterates settle while T still moves them: a stop on
    # the change between consecutive solves ends here up to ~500 tolerances
    # away from the fixed point
    net = single_fracture_network()
    mesh = build_mesh(net, 0.05)
    law = darcy_forchheimer_pair()
    regimes = RegimeField.uniform(mesh, Regime.HIGH)
    result = picard_solve(mesh, regimes, law, PicardSettings(tolerance))
    assert result.converged
    assert frozen_step_change(mesh, regimes, law, result) <= tolerance


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_one_more_frozen_step_moves_a_converged_solve_within_tolerance(seed):
    # the stop is on the fixed-point residual of the returned solve, so one
    # more frozen-coefficient step from it moves it by about L * tolerance
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
    tolerance = 1e-6
    result = picard_solve(mesh, labels, law, PicardSettings(tolerance=tolerance))
    assert result.converged
    assert frozen_step_change(mesh, labels, law, result) <= tolerance
