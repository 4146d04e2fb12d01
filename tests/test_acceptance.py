"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see the
lines as they appear; they are also shown in captured output on failure).

Criterion 3 judges the tracked single-fracture state against the energy
oracle. On that data the reduced energy has a single stationary point, the
uniform high-regime state, so both starts must end there without interfaces;
the low start reaches it only after the interfaces have drifted out of the
fracture over 16 outer iterations, each step shorter than the mesh size.
"""

import math
import time

import numpy as np
import pytest

from dfnflow.energy import build_energy_block, lift_field, reduce_and_minimize
from dfnflow.fem import RegimeField, assemble, solve_saddle
from dfnflow.laws import AdaptiveLaw, LawBranch, Regime
from dfnflow.meshing import build_mesh, source_integrals, split_mesh_at
from dfnflow.network import (
    BoundarySpec,
    Branch,
    FractureNetwork,
    PiecewiseSource,
    PressureBC,
    SourceSpec,
)
from dfnflow.picard import PicardSettings, picard_solve
from dfnflow.presets import (
    benchmark_network,
    darcy_pair,
    oscillation_variant_network,
    run_preset,
    single_fracture_network,
)
from dfnflow.tracker import (
    TrackerSettings,
    TrackerStatus,
    track,
)

from oracles import (
    configuration_distance,
    convexity_probe,
    junction_continuity_defect,
    point_arrays,
    random_network,
)


def _finish(number, name, budget_s, elapsed, checks):
    checks[f"runtime {elapsed:.2f}s < {budget_s}s"] = elapsed < budget_s
    passed = all(checks.values())
    print(f"ACCEPTANCE {number:02d} [{name}]: {'PASS' if passed else 'FAIL'}")
    for label, ok in checks.items():
        print(f"    {'ok  ' if ok else 'FAIL'} {label}")
    assert passed, f"failed sub-checks: {[k for k, v in checks.items() if not v]}"


def test_criterion_01_manufactured_solution_convergence():
    start = time.perf_counter()
    q = PiecewiseSource(pieces=(lambda x: np.pi**2 * np.sin(np.pi * x),))
    net = FractureNetwork(
        branches=(Branch("f", (0.0, 0.0), (1.0, 0.0)),),
        boundary=BoundarySpec(
            {("f", "start"): PressureBC(0.0), ("f", "end"): PressureBC(0.0)}
        ),
        sources=SourceSpec(scalar={"f": q}),
    )
    law = AdaptiveLaw(LawBranch(1.0), LawBranch(1.0), 1e9)
    pts, wts = np.polynomial.legendre.leggauss(5)
    errors = []
    for n in (8, 16, 32, 64):
        mesh = build_mesh(net, 1.0 / n)
        sol = solve_saddle(
            assemble(
                mesh,
                RegimeField.uniform(mesh, Regime.LOW),
                law,
                0.0,
                net.sources,
                net.boundary,
            )
        )
        x, u, p = mesh.nodes["f"], sol.flux["f"], sol.pressure["f"]
        eu = ep = 0.0
        for e in range(len(x) - 1):
            a, b = x[e], x[e + 1]
            xs = 0.5 * (b - a) * pts + 0.5 * (a + b)
            uh = u[e] + (u[e + 1] - u[e]) * (xs - a) / (b - a)
            eu += 0.5 * (b - a) * np.dot(wts, (uh + np.pi * np.cos(np.pi * xs)) ** 2)
            ep += 0.5 * (b - a) * np.dot(wts, (p[e] - np.sin(np.pi * xs)) ** 2)
        errors.append((math.sqrt(eu), math.sqrt(ep)))
    rates_u = [math.log2(errors[k][0] / errors[k + 1][0]) for k in range(3)]
    rates_p = [math.log2(errors[k][1] / errors[k + 1][1]) for k in range(3)]
    checks = {
        f"flux orders {[round(r, 2) for r in rates_u]} all >= 0.9": min(rates_u) >= 0.9,
        f"pressure orders {[round(r, 2) for r in rates_p]} all >= 0.9": min(rates_p)
        >= 0.9,
    }
    _finish(1, "manufactured-solution convergence", 1.0, time.perf_counter() - start, checks)


def test_criterion_02_conservation_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20240801)
    worst_mass = worst_junction = worst_continuity = 0.0
    for _ in range(100):
        net = random_network(rng)
        mesh = build_mesh(net, 0.2)
        law = AdaptiveLaw(
            LawBranch(float(rng.uniform(0.1, 10.0))),
            LawBranch(float(rng.uniform(0.1, 10.0))),
            1.0,
        )
        labels = RegimeField(
            {
                b: rng.integers(0, 2, len(mesh.nodes[b]) - 1).astype(np.int8)
                for b in mesh.branch_ids
            }
        )
        sol = solve_saddle(
            assemble(mesh, labels, law, 0.0, net.sources, net.boundary)
        )
        for b in mesh.branch_ids:
            qint = mesh.per_element(source_integrals(mesh))[b]
            worst_mass = max(worst_mass, float(np.abs(np.diff(sol.flux[b]) - qint).max()))
        for isec in net.intersections:
            total = 0.0
            for bid, which in isec.incident:
                n_out = -1.0 if which == "start" else 1.0
                node = 0 if which == "start" else len(mesh.nodes[bid]) - 1
                total += n_out * sol.flux[bid][node]
            worst_junction = max(worst_junction, abs(total))
        worst_continuity = max(worst_continuity, junction_continuity_defect(sol))
    checks = {
        f"element mass balance {worst_mass:.2e} <= 1e-10": worst_mass <= 1e-10,
        f"junction flux balance {worst_junction:.2e} <= 1e-10": worst_junction <= 1e-10,
        f"junction pressure continuity {worst_continuity:.2e} <= 1e-10": worst_continuity
        <= 1e-10,
    }
    _finish(2, "conservation on 100 random networks", 10.0, time.perf_counter() - start, checks)


def _oracle_crossings(mesh, law, alpha):
    """Points where the lifted field plus ``alpha`` crosses +-threshold."""
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
                    crossings.append(("f", x[e] + t * (x[e + 1] - x[e])))
    return crossings


def test_criterion_03_case1_linear_tracking():
    start = time.perf_counter()
    mesh = build_mesh(single_fracture_network(), 0.05)
    law = darcy_pair(k1=1.0, k2=10.0)
    low = track(mesh, law, initial="low")
    high = track(mesh, law, initial="high")
    alpha_star = reduce_and_minimize(mesh, law).alpha_star
    final = low.final_solution
    offsets = final.flux["f"] - lift_field(final.mesh)
    spread = float(offsets.max() - offsets.min())
    mismatch = abs(float(offsets.mean()) - alpha_star)
    tracked = low.final_configuration.interfaces
    expected = _oracle_crossings(mesh, law, alpha_star)
    low_labels = {
        b: tuple(int(v) for v in low.final_configuration.regimes.labels[b])
        for b in mesh.branch_ids
    }
    high_labels = {
        b: tuple(int(v) for v in high.final_configuration.regimes.labels[b])
        for b in mesh.branch_ids
    }
    checks = {
        # 16 drift steps until the low region vanishes, plus one confirming step
        f"low start converged in {low.outer_iterations} <= 20 iterations": (
            low.status is TrackerStatus.CONVERGED and low.outer_iterations <= 20
        ),
        f"low start flux minus lift constant ({spread:.1e} <= 1e-8)": spread <= 1e-8,
        f"constant matches alpha* ({mismatch:.1e} <= 1e-6)": mismatch <= 1e-6,
        f"{len(tracked)} interfaces equal the {len(expected)} crossings of lift + alpha*": (
            len(tracked) == len(expected)
            and configuration_distance(tracked, expected) <= 1e-6
        ),
        "high start reproduces the identical regime label vector": (
            high.status is TrackerStatus.CONVERGED and low_labels == high_labels
        ),
    }
    _finish(3, "single-fracture linear tracking", 5.0, time.perf_counter() - start, checks)


def test_criterion_04_oscillation_regime():
    start = time.perf_counter()
    mesh = build_mesh(oscillation_variant_network(), 0.05)
    report = track(mesh, darcy_pair(k1=1.0, k2=0.5625))
    labels = [
        tuple(int(v) for v in e.configuration.regimes.labels["f"])
        for e in report.history
    ]
    flipped = len(labels) >= 2 and all(
        a != b for a, b in zip(labels[-1], labels[-2])
    )
    statuses = {}
    for k2 in (1.0, 2.0, 4.0, 10.0, 16.0):
        statuses[k2] = track(mesh, darcy_pair(k1=1.0, k2=k2)).status
    checks = {
        "k2=0.5625 oscillates with period 2": (
            report.status is TrackerStatus.OSCILLATING and report.period == 2
        ),
        "alternating label vectors are exact complements": flipped,
        "k2 in {1,2,4,10,16} all converge": all(
            s is TrackerStatus.CONVERGED for s in statuses.values()
        ),
    }
    _finish(4, "oscillation regime sweep", 30.0, time.perf_counter() - start, checks)


def test_criterion_05_nonlinear_tolerance_table():
    start = time.perf_counter()
    bundle = run_preset("nl-tolerance-table")
    rows = {row["eps_nl"]: row for row in bundle.extras["table"]}
    window = [rows[e] for e in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)]
    inner = [r["inner_last"] for r in window]
    err_p = [r["err_p"] for r in window]
    err_u = [r["err_u"] for r in window]
    checks = {
        "outer iterations == 2 for eps_nl in 1e-1..1e-5": all(
            r["outer_iterations"] == 2 for r in window
        ),
        f"inner counts {inner} non-decreasing": inner == sorted(inner),
        "err_p strictly decreasing": all(a > b for a, b in zip(err_p, err_p[1:])),
        "err_u strictly decreasing": all(a > b for a, b in zip(err_u, err_u[1:])),
        f"err_p={rows[1e-4]['err_p']:.2e} <= 1e-4 at eps_nl=1e-4": rows[1e-4]["err_p"]
        <= 1e-4,
        f"err_u={rows[1e-4]['err_u']:.2e} <= 1e-4 at eps_nl=1e-4": rows[1e-4]["err_u"]
        <= 1e-4,
    }
    _finish(5, "nonlinear tolerance table", 10.0, time.perf_counter() - start, checks)


def test_criterion_06_crossing_fractures():
    start = time.perf_counter()
    bundle = run_preset("case2-linear", trace=True)
    continuity = []
    from dfnflow.presets import crossing_network

    mesh = build_mesh(crossing_network(), 0.05)
    report = track(mesh, darcy_pair(), trace=True)
    for snapshot in report.snapshots:
        continuity.append(junction_continuity_defect(snapshot))
    all_high = all(
        v == 1
        for labels in report.final_configuration.regimes.labels.values()
        for v in labels
    )
    checks = {
        "tracker converged": report.status is TrackerStatus.CONVERGED,
        f"junction pressure continuity {max(continuity):.2e} <= 1e-10 at every iteration": max(
            continuity
        )
        <= 1e-10,
        "entire domain classified high in the final configuration": all_high,
        "bundle pipeline agrees": bundle.status == "converged",
    }
    _finish(6, "crossing fractures", 10.0, time.perf_counter() - start, checks)


def _induced_offsets(mesh, law, alpha):
    """Mixed solve on the regime configuration induced by the scalar minimizer."""
    ubar = law.threshold
    work = split_mesh_at(mesh, *point_arrays(mesh, _oracle_crossings(mesh, law, alpha)))
    fine = lift_field(work)
    midpoints = work.per_element(work.midpoints)["f"]
    speeds = np.abs(np.interp(midpoints, work.x, fine) + alpha)
    labels = RegimeField({"f": np.where(speeds < ubar, 0, 1).astype(np.int8)})
    result = picard_solve(work, labels, law)
    solved = np.abs(result.solution.flux["f"][:-1] + result.solution.flux["f"][1:]) / 2
    consistent = np.array_equal(
        np.where(solved < ubar, 0, 1), labels.labels["f"]
    )
    return result.solution.flux["f"] - fine, consistent


def test_criterion_07_energy_oracle_equivalence():
    start = time.perf_counter()
    mesh = build_mesh(single_fracture_network(), 0.05)
    checks = {}
    for k2, tag in ((10.0, "negative jump"), (0.5625, "positive jump")):
        law = darcy_pair(k1=1.0, k2=k2)
        result = reduce_and_minimize(mesh, law)
        offsets, consistent = _induced_offsets(mesh, law, result.alpha_star)
        spread = float(offsets.max() - offsets.min())
        mismatch = abs(float(offsets.mean()) - result.alpha_star)
        checks[f"{tag}: solver flux minus lift constant ({spread:.1e} <= 1e-8)"] = (
            spread <= 1e-8
        )
        checks[f"{tag}: constant matches alpha* ({mismatch:.1e} <= 1e-6)"] = (
            mismatch <= 1e-6
        )
        checks[f"{tag}: induced configuration is self-consistent"] = bool(consistent)
    _finish(7, "energy oracle equivalence", 5.0, time.perf_counter() - start, checks)


def _random_law_pair(rng, upward):
    lam1 = float(rng.uniform(0.1, 4.0))
    ratio = float(rng.uniform(1.0, 5.0)) if upward else float(rng.uniform(0.05, 0.9))
    lam2 = lam1 * ratio
    if rng.uniform() < 0.5:
        high = LawBranch(lam2)
    else:
        slope = lam2 * float(rng.uniform(0.2, 0.8))
        high = LawBranch(lam2 - slope, slope)
    return AdaptiveLaw(LawBranch(lam1), high, 1.0)


def test_criterion_08_convexity_classification():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    convex_ok = nonconvex_ok = True
    for _ in range(10):
        law = _random_law_pair(rng, upward=True)
        assert law.lambda2 >= law.lambda1
        report = convexity_probe(law, 10_000, seed=int(rng.integers(1 << 30)))
        convex_ok &= report.violations == 0
    for _ in range(10):
        law = _random_law_pair(rng, upward=False)
        assert law.lambda2 < law.lambda1
        report = convexity_probe(law, 10_000, seed=int(rng.integers(1 << 30)))
        nonconvex_ok &= report.violations >= 1
    checks = {
        "10 upward-jump pairs: zero violations": convex_ok,
        "10 downward-jump pairs: at least one violation each": nonconvex_ok,
    }
    _finish(8, "convexity classification", 5.0, time.perf_counter() - start, checks)


def test_criterion_09_local_minimality():
    start = time.perf_counter()
    mesh = build_mesh(single_fracture_network(), 0.05)
    law = darcy_pair()
    # sharpen the configuration so that the reported state is an exact
    # stationary point of the discrete energy; on one branch the admissible
    # directions are the constants, so it must be the exact line minimum:
    # the lifted field plus alpha*, with the energy E(alpha*)
    report = track(mesh, law, settings=TrackerSettings(eps_omega=1e-8, max_outer=100))
    block = build_energy_block(report.final_solution, law)
    count = len(block["candidates"])
    mean_gap = abs(block["fem_offset_mean"] - block["alpha_star"])
    spread = block["fem_offset_spread"]
    energy_gap = abs(block["energy"] - block["alpha_energy"])
    checks = {
        "tracker converged sharply": report.status is TrackerStatus.CONVERGED,
        f"{count} candidate == 1": count == 1,
        f"|offset mean - alpha*| = {mean_gap:.1e} <= 1e-12": mean_gap <= 1e-12,
        f"offset spread {spread:.1e} <= 1e-12": spread <= 1e-12,
        f"|E(solver) - E(alpha*)| = {energy_gap:.1e} <= 1e-15": energy_gap <= 1e-15,
    }
    _finish(9, "local minimality of the tracked state", 5.0, time.perf_counter() - start, checks)


def test_criterion_10_benchmark_network_end_to_end():
    start = time.perf_counter()
    network, payload = benchmark_network()
    mesh = build_mesh(network, 0.05)
    report = track(mesh, darcy_pair())
    final = report.final_configuration
    work = split_mesh_at(mesh, *point_arrays(mesh, final.interfaces))

    # connectivity of high-labelled elements from the inflow end to an outlet
    elements = []
    node_of = {}
    for b in work.branch_ids:
        for e in range(len(work.nodes[b]) - 1):
            elements.append((b, e))
    high = {
        (b, e)
        for b in work.branch_ids
        for e in range(len(work.nodes[b]) - 1)
        if final.regimes.labels[b][e] == 1
    }
    adjacency = {el: set() for el in elements}
    for b in work.branch_ids:
        for e in range(len(work.nodes[b]) - 2):
            adjacency[(b, e)].add((b, e + 1))
            adjacency[(b, e + 1)].add((b, e))
    for isec in network.intersections:
        touching = []
        for bid, which in isec.incident:
            el = (bid, 0) if which == "start" else (bid, len(work.nodes[bid]) - 2)
            touching.append(el)
        for a in touching:
            for c in touching:
                if a != c:
                    adjacency[a].add(c)

    inflow = ("h1a", 0)
    outlets = {("h1d", len(work.nodes["h1d"]) - 2), ("h3c", len(work.nodes["h3c"]) - 2)}
    reached = set()
    stack = [inflow] if inflow in high else []
    while stack:
        el = stack.pop()
        if el in reached:
            continue
        reached.add(el)
        stack.extend(n for n in adjacency[el] if n in high and n not in reached)
    connected = bool(reached & outlets)

    checks = {
        "geometry file is marked approximate": payload["approximate"] is True,
        f"converged in {report.outer_iterations} <= 10 iterations": (
            report.status is TrackerStatus.CONVERGED and report.outer_iterations <= 10
        ),
        "high region connects inflow to an outlet": connected,
    }
    _finish(10, "six-fracture benchmark network", 60.0, time.perf_counter() - start, checks)
