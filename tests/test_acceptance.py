"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with the measured quantity next to its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is fixed here, not computed.
"""

import json
import math

import numpy as np
import pytest

from visco_inverse import (
    AffineModulation,
    ConstantModulation,
    ExponentialKernel,
    ExponentialModulation,
    OperatorSpec,
    ScalarSignal,
    SourceCoefficients,
    TimeGrid,
    TraceSignal,
    ZeroKernel,
    boundary_trace_source,
    build_reconstruction,
    build_spectral_model,
    comparison_defect_scan,
    convolve,
    convolve_adjoint,
    gram,
    l2_inner,
    l2_only_counterexample,
    leading_frame_bounds,
    noisy_reconstruction,
    reconstruct,
    resolvent_kernel,
    solve_z_many,
    stability_gram,
    stability_ratios,
    w_trace_family,
    z_trace_family,
)
from visco_inverse.cli import main as cli_main
from oracles import modal_oracle_exponential_kernel

PI = math.pi


def report(cid: str, ok: bool, detail: str):
    print(f"[{cid}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{cid}: {detail}"


def run_round_trip(model, kernel, modulation, grid, f):
    _, bu_prime = boundary_trace_source(f, modulation, model, kernel, grid)
    kernels = build_reconstruction(model, kernel, modulation, grid)
    rec = reconstruct(bu_prime, kernels, model)
    return float(np.linalg.norm(rec.values - f.values) / np.linalg.norm(f.values))


def test_criterion_01_orthogonal_round_trip():
    # L=pi, q=0, M=0, sigma=1, T=2pi, dt=1e-3, N=16: rel error <= 1e-6
    model = build_spectral_model(OperatorSpec(PI), 16)
    grid = TimeGrid.from_step(2 * PI, 1e-3)
    rng = np.random.default_rng(101)
    f = rng.standard_normal(16)
    f = SourceCoefficients(f / np.linalg.norm(f))
    # closed-form oracle: the mode family is orthogonal with Gram 2I
    G = gram(w_trace_family(model, ZeroKernel(), grid))
    gram_dev = float(np.max(np.abs(G.entries - 2.0 * np.eye(16))))
    rel = run_round_trip(model, ZeroKernel(), ConstantModulation(1.0), grid, f)
    report(
        "criterion 01",
        rel <= 1e-6 and gram_dev < 5e-3,
        f"orthogonal round trip: rel error {rel:.3e} <= 1e-6 (Gram dev {gram_dev:.1e})",
    )


def test_criterion_02_memory_round_trip_and_convergence():
    # M=Exp(1,1), sigma=1+t/2, T=2pi+0.5, dt=5e-4: rel error <= 1e-3 and
    # halving dt improves the error by a factor of at least 3
    model = build_spectral_model(OperatorSpec(PI), 16)
    kernel = ExponentialKernel(1.0, 1.0)
    mod = AffineModulation(1.0, 0.5)
    rng = np.random.default_rng(202)
    f = rng.standard_normal(16)
    f = SourceCoefficients(f / np.linalg.norm(f))
    errs = []
    for dt in (5e-4, 2.5e-4):
        grid = TimeGrid.from_step(2 * PI + 0.5, dt)
        errs.append(run_round_trip(model, kernel, mod, grid, f))
    ratio = errs[0] / errs[1]
    report(
        "criterion 02",
        errs[0] <= 1e-3 and ratio >= 3.0,
        f"memory round trip: rel error {errs[0]:.3e} <= 1e-3, halving ratio {ratio:.2f} >= 3",
    )


def test_criterion_03_modal_solver_against_augmented_oracle():
    # M=Exp(0.5,1), lambda in {1,2,8}, T=1, dt=1e-4: max error <= 1e-6
    model = build_spectral_model(OperatorSpec(PI), 8)
    grid = TimeGrid.from_step(1.0, 1e-4)
    kernel = ExponentialKernel(0.5, 1.0)
    worst = 0.0
    for n in (1, 2, 8):
        traj = solve_z_many(model.select((n,)), kernel, grid)[0]
        exact = modal_oracle_exponential_kernel(float(n), 0.5, 1.0, grid)
        worst = max(worst, float(np.max(np.abs(traj.z.values - exact))))
    report("criterion 03", worst <= 1e-6, f"modal oracle gap {worst:.3e} <= 1e-6")


def test_criterion_04_comparison_defect_stays_bounded():
    # lambda_n^2 * integral |z_n - e^((gamma+i lambda_n)t)|^2 for n = 4..64,
    # M=Exp(1,1), T=2pi+0.5: max over n >= 16 at most twice the n = 16 value
    model = build_spectral_model(OperatorSpec(PI), 64)
    grid = TimeGrid.from_step(2 * PI + 0.5, 5e-5)
    ns = list(range(4, 65))
    defects = comparison_defect_scan(model.select(ns), ExponentialKernel(1.0, 1.0), grid)
    at16 = defects[ns.index(16)]
    tail_max = float(defects[ns.index(16):].max())
    report(
        "criterion 04",
        tail_max <= 2.0 * at16,
        f"defect max over n>=16 is {tail_max:.1f} <= 2 x defect(16) = {2 * at16:.1f}",
    )


def test_criterion_05_frame_bounds_persist_under_truncation():
    # min Gram eigenvalue of the z family at N in {8,16,32,64} stays above
    # 0.1 x its N=8 value
    model = build_spectral_model(OperatorSpec(PI), 64)
    grid = TimeGrid.from_step(2 * PI + 0.5, 2.5e-4)
    fam = z_trace_family(model, ExponentialKernel(1.0, 1.0), grid)
    G = gram(fam)
    bounds = leading_frame_bounds(G, [16, 32, 64, 128])
    floor = 0.1 * bounds[0].lower
    mins = [b.lower for b in bounds]
    report(
        "criterion 05",
        all(m >= floor for m in mins) and bounds[0].lower > 0,
        "frame persistence: min eigs "
        + ", ".join(f"{m:.3f}" for m in mins)
        + f" all >= {floor:.3f}",
    )


def test_criterion_06_frame_failure_below_travel_time():
    # same family at T=pi (< 2L): min eig <= 1e-6 x max eig at N=32
    model = build_spectral_model(OperatorSpec(PI), 32)
    grid = TimeGrid.from_step(PI, 2.5e-4)
    fam = z_trace_family(model, ExponentialKernel(1.0, 1.0), grid)
    G = gram(fam)
    eigs = np.linalg.eigvalsh(G.entries)
    ratio = float(eigs[0] / eigs[-1])
    report(
        "criterion 06",
        ratio <= 1e-6,
        f"frame failure below threshold: min/max eig ratio {ratio:.2e} <= 1e-6",
    )


def test_criterion_07_integrated_family_counterexample():
    # |lambda_n| ||y_n psi_n|| = sqrt(6) within 1% for n <= 64, and the min
    # Gram eigenvalue decreases (5% jitter) from N=4 to N=64
    model = build_spectral_model(OperatorSpec(PI), 64)
    grid = TimeGrid.from_step(2 * PI, 1e-4)
    table = l2_only_counterexample(model, ConstantModulation(1.0), grid, 64)
    dev = float(np.max(np.abs(table.scaled_norms - math.sqrt(6.0)) / math.sqrt(6.0)))
    m = table.min_gram_eigs
    monotone = bool(np.all(m[4:] <= 1.05 * m[3:-1]) and m[-1] < m[3])
    report(
        "criterion 07",
        dev <= 1e-2 and monotone,
        f"integrated family: scaled norms within {dev:.2e} of sqrt(6), "
        f"min eig falls {m[3]:.3f} -> {m[-1]:.5f} monotonically",
    )


def test_criterion_08_resolvent_identities():
    # sigma = e^(0.7 t): K = -0.7 within 1e-8 pointwise; sigma = 1 + t:
    # operator identity residual <= 1e-6 on 5 seeded signals at dt = 1e-3
    grid_a = TimeGrid.from_step(1.0, 1e-4)
    mod = ExponentialModulation(0.7)
    K = resolvent_kernel(mod.sample(grid_a), mod.sample_derivative(grid_a))
    kdev = float(np.max(np.abs(K.values + 0.7)))

    grid_b = TimeGrid.from_step(1.0, 1e-3)
    sigma = ScalarSignal(grid_b, 1.0 + grid_b.nodes)
    sigma_p = ScalarSignal(grid_b, np.ones(grid_b.steps + 1))
    Kb = resolvent_kernel(sigma, sigma_p)
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(5):
        g = ScalarSignal(grid_b, rng.uniform(-1.0, 1.0, grid_b.steps + 1))
        applied = ScalarSignal(grid_b, g.values + convolve(sigma_p, g).values)
        back = applied.values + convolve(Kb, applied).values
        worst = max(worst, float(np.max(np.abs(back - g.values))))
    report(
        "criterion 08",
        kdev <= 1e-8 and worst <= 1e-6,
        f"resolvent: |K + 0.7| {kdev:.2e} <= 1e-8, identity residual {worst:.2e} <= 1e-6",
    )


def test_criterion_09_discrete_adjoint_exactness():
    # <V u, v> - <u, V* v> within 1e-12 for 20 seeded random triples
    grid = TimeGrid.from_step(1.0, 1e-3)
    rng = np.random.default_rng(909)
    J = grid.steps
    worst = 0.0
    for _ in range(20):
        rho = ScalarSignal(grid, rng.standard_normal(J + 1) + 1j * rng.standard_normal(J + 1))
        u = TraceSignal(grid, rng.standard_normal((J + 1, 2)) + 1j * rng.standard_normal((J + 1, 2)))
        v = TraceSignal(grid, rng.standard_normal((J + 1, 2)) + 1j * rng.standard_normal((J + 1, 2)))
        gap = l2_inner(convolve(rho, u), v) - l2_inner(u, convolve_adjoint(rho, v))
        worst = max(worst, abs(gap))
    report("criterion 09", worst <= 1e-12, f"adjoint identity gap {worst:.2e} <= 1e-12")


def test_criterion_10_biorthogonality():
    # <w_n psi_n, p_k> - delta within 1e-8 for n, k <= 32, both kernels,
    # on members and duals materialised as (members, J+1, m) arrays
    from visco_inverse import dual_coefficients, inner_products
    from oracles import dual_values, family_values

    worst = {}
    cases = (
        (ZeroKernel(), 2 * PI),
        (ExponentialKernel(1.0, 1.0), 2 * PI + 0.5),
    )
    for kernel, horizon in cases:
        model = build_spectral_model(OperatorSpec(PI), 32)
        grid = TimeGrid.from_step(horizon, 5e-4)
        fam = w_trace_family(model, kernel, grid)
        duals = dual_values(fam, dual_coefficients(gram(fam)))
        inner = inner_products(family_values(fam), duals, grid)
        worst[type(kernel).__name__] = float(np.max(np.abs(inner - np.eye(len(fam)))))
    ok = all(v <= 1e-8 for v in worst.values())
    report(
        "criterion 10",
        ok,
        "biorthogonality defects "
        + ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
        + " <= 1e-8",
    )


def test_criterion_11_stability_ratio_stability():
    # min and max of ||B u||_H1 / ||f|| agree within 25% between N=16 and
    # N=32 over 50 trials; closed-form spot check sqrt(8) within 1e-3
    grid = TimeGrid.from_step(2 * PI, 1e-3)
    mod = ConstantModulation(1.0)
    extremes = {}
    for N in (16, 32):
        model = build_spectral_model(OperatorSpec(PI), N)
        r = stability_ratios(stability_gram(model, ZeroKernel(), mod, grid), 50, 1111)
        extremes[N] = (float(r.min()), float(r.max()))
    gap_min = abs(extremes[16][0] - extremes[32][0]) / max(extremes[16][0], extremes[32][0])
    gap_max = abs(extremes[16][1] - extremes[32][1]) / max(extremes[16][1], extremes[32][1])

    model1 = build_spectral_model(OperatorSpec(PI), 1)
    spot = float(stability_ratios(stability_gram(model1, ZeroKernel(), mod, grid), 1, 0)[0])
    spot_dev = abs(spot - math.sqrt(8.0))
    report(
        "criterion 11",
        gap_min <= 0.25 and gap_max <= 0.25 and spot_dev <= 1e-3,
        f"stability ratios: N16 {extremes[16]}, N32 {extremes[32]}, "
        f"gaps ({gap_min:.2%}, {gap_max:.2%}) <= 25%, spot |r - sqrt8| {spot_dev:.1e}",
    )


def test_criterion_12_noise_linearity():
    # median error at noise 2e-3 equals twice the median at 1e-3 within 20%
    model = build_spectral_model(OperatorSpec(PI), 16)
    grid = TimeGrid.from_step(2 * PI, 1e-3)
    mod = ConstantModulation(1.0)
    rng = np.random.default_rng(1212)
    f = rng.standard_normal(16)
    f = SourceCoefficients(f / np.linalg.norm(f))
    _, bu_prime = boundary_trace_source(f, mod, model, ZeroKernel(), grid)
    kernels = build_reconstruction(model, ZeroKernel(), mod, grid)
    med = {}
    for level in (1e-3, 2e-3):
        errs = [
            noisy_reconstruction(bu_prime, level, 5000 + trial, kernels, model, truth=f).relative_l2_error
            for trial in range(200)
        ]
        med[level] = float(np.median(errs))
    ratio = med[2e-3] / med[1e-3]
    report(
        "criterion 12",
        abs(ratio - 2.0) <= 0.4,
        f"noise linearity: medians {med[1e-3]:.3e} / {med[2e-3]:.3e}, ratio {ratio:.3f} within 20% of 2",
    )


def test_criterion_13_cli_determinism(tmp_path):
    # identical config and seed give byte-identical CSV bodies
    cfg = {
        "operator": {"length": PI},
        "kernel": {"variant": "exponential", "beta": 1.0, "alpha": 1.0},
        "sigma": {"form": "affine", "a": 1.0, "b": 0.5},
        "grid": {"T": 2 * PI + 0.5, "dt": (2 * PI + 0.5) / 4096},
        "N": 8,
        "seed": 33,
        "source": "random",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    bodies = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = cli_main(["reconstruct", "--config", str(path), "--out", str(out)])
        assert code == 0
        bodies.append((out / "reconstruct.csv").read_bytes())
    report(
        "criterion 13",
        bodies[0] == bodies[1] and len(bodies[0]) > 0,
        f"CLI determinism: {len(bodies[0])} CSV bytes identical across runs",
    )
