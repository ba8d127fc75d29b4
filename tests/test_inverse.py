import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visco_inverse import (
    AffineModulation,
    ConstantModulation,
    ExponentialKernel,
    ExponentialModulation,
    GramMatrix,
    NumericsError,
    OperatorSpec,
    PolynomialKernel,
    SampledModulation,
    ScalarSignal,
    SourceCoefficients,
    TimeGrid,
    ZeroKernel,
    boundary_trace_source,
    build_reconstruction,
    build_spectral_model,
    coefficients_via_duals,
    frame_bounds,
    gram,
    inner_products,
    l2_only_counterexample,
    noisy_reconstruction,
    reconstruct,
    reconstruct_complex,
    source_trace_prime,
    source_traces,
    stability_gram,
    stability_ratios,
    stability_scan,
)
from oracles import reconstruct_via_thetas, stability_gram_weighted, stability_ratios_per_trial
import visco_inverse.inverse
from visco_inverse.inverse import _SCAN_BLOCK, _identity_residuals, _trial_draws
from visco_inverse.volterra import _LEAF_STEPS, _REALIZED_LEAF_STEPS

PI = math.pi


@pytest.fixture(scope="module")
def grid():
    return TimeGrid.from_step(2 * PI, 1e-3)


@pytest.fixture(scope="module")
def model():
    return build_spectral_model(OperatorSpec(PI), 8)


@pytest.fixture(scope="module")
def ortho_kernels(model, grid):
    return build_reconstruction(model, ZeroKernel(), ConstantModulation(1.0), grid)


def unit_measurement(kernels, modulation, k=3):
    """B u' of the unit source e_k, synthesized from the kernels' own w family."""
    f = SourceCoefficients.unit(k, len(kernels.family))
    return source_traces(kernels.family, f, modulation)[1]


class TestThetas:
    # theta_k is never formed; the materialised route lives in the oracle
    def test_constant_modulation_keeps_duals(self, model, grid):
        mod = ConstantModulation(1.0)
        kernels = build_reconstruction(model, ZeroKernel(), mod, grid)
        assert kernels.identity_residual == 0.0
        assert kernels.resolvent_residual == 0.0
        assert np.max(np.abs(kernels.resolvent.values)) == 0.0
        bup = unit_measurement(kernels, mod)
        np.testing.assert_array_equal(
            reconstruct_complex(bup, kernels),
            coefficients_via_duals(kernels.family, kernels.coefficients, bup),
        )
        oracle = reconstruct_via_thetas(kernels.family, mod, bup)
        np.testing.assert_array_equal(oracle.thetas, oracle.duals)

    def test_exponential_modulation_closed_form(self, model):
        # K = -a turns theta_k into p_k - a * integral of p_k over [t, T];
        # check at interior nodes against direct quadrature
        a = 0.6
        grid = TimeGrid.from_step(2 * PI, 2e-3)
        mod = ExponentialModulation(a)
        kernels = build_reconstruction(model, ZeroKernel(), mod, grid)
        np.testing.assert_allclose(kernels.resolvent.values.real, -a, atol=1e-6)
        bup = unit_measurement(kernels, mod)
        oracle = reconstruct_via_thetas(kernels.family, mod, bup)
        p = kernels.family.synthesize(kernels.coefficients[2]).values[:, 0]
        w = grid.weights
        tail = np.array([np.sum((w * p)[j:]) - 0.5 * grid.dt * p[j] for j in range(len(p))])
        expected = p - a * tail
        got = oracle.thetas[2, :, 0]
        np.testing.assert_allclose(got[1:-1], expected[1:-1], atol=5e-5)
        np.testing.assert_allclose(reconstruct_complex(bup, kernels), oracle.recovered,
                                   rtol=0, atol=1e-12)

    def test_identity_residual_shrinks_with_dt(self, model):
        res = []
        for dt in (4e-3, 2e-3):
            g = TimeGrid.from_step(2 * PI, dt)
            kernels = build_reconstruction(model, ZeroKernel(), AffineModulation(1.0, 0.5), g)
            res.append(kernels.identity_residual)
        assert res[0] / res[1] > 2.0  # between dt^1.5 and dt^2 scaling

    def test_sigma0_zero_rejected(self, model, grid):
        with pytest.raises(ValueError):
            build_reconstruction(model, ZeroKernel(), ConstantModulation(0.0), grid)

    def test_grid_mismatch_rejected(self, model, grid):
        # a sampled modulation on another grid cannot be reconstructed against
        other = TimeGrid.from_step(1.0, 1e-3)
        with pytest.raises(ValueError):
            build_reconstruction(model, ZeroKernel(), SampledModulation(1.0 + other.nodes), grid)

    def test_theta_family_keeps_lower_frame_bound(self, model, grid):
        # the reconstruction kernels inherit the frame property
        for kernel, mod in (
            (ZeroKernel(), ConstantModulation(1.0)),
            (ExponentialKernel(1.0, 1.0), AffineModulation(1.0, 0.5)),
        ):
            kernels = build_reconstruction(model, kernel, mod, grid)
            thetas = reconstruct_via_thetas(kernels.family, mod,
                                             unit_measurement(kernels, mod)).thetas
            raw = inner_products(thetas, thetas, grid)
            g = GramMatrix(0.5 * (raw.T + raw.conj()), grid.horizon, kernels.family.labels)
            b = frame_bounds(g)
            assert b.lower > 1e-4 * b.upper


class TestResolventResidual:
    # the identity residual's closed form takes e = 0 for granted; a K off
    # the resolvent equation shows in e alone
    @pytest.mark.parametrize("steps", [_LEAF_STEPS // 2, 3 * _LEAF_STEPS - 68])
    @pytest.mark.parametrize("form", ["affine", "exponential", "sampled"])
    def test_separates_a_perturbed_resolvent(self, model, form, steps):
        grid = TimeGrid(2 * PI + 0.5, steps)
        mod = {"affine": AffineModulation(1.0, 0.5), "exponential": ExponentialModulation(-0.8),
               "sampled": SampledModulation(1.0 + 0.3 * np.sin(grid.nodes) + 0.2 * grid.nodes),
               }[form]
        kernels = build_reconstruction(model, ExponentialKernel(1.0, 1.0), mod, grid)
        assert kernels.resolvent_residual <= 1e-14
        tail = kernels.resolvent.values.copy()
        tail[steps // 2:] *= 1.0 + 1e-3
        _, residual = _identity_residuals(kernels.family, kernels.coefficients, mod.at_zero(),
                                          mod.sample_derivative(grid), ScalarSignal(grid, tail))
        assert residual >= 1e-5


KERNELS = {
    "zero": st.just(ZeroKernel()),
    "exponential": st.builds(ExponentialKernel, st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    "polynomial": st.builds(PolynomialKernel, st.tuples(
        st.floats(0.0, 1.5), st.floats(-0.5, 0.5), st.floats(-0.1, 0.1))),
}


@st.composite
def reconstruction_cases(draw, kernels, form):
    """A model, kernel, modulation of the given form and grid with a
    well-posed reconstruction, and a source.

    sigma stays away from zero on [0, T]: where it vanishes, the resolvent
    grows like e^(|sigma'/sigma| t) and every route to f loses digits in
    proportion, so there is nothing to compare to 1e-12.
    """
    steps = [_LEAF_STEPS // 2, _LEAF_STEPS - 1, _LEAF_STEPS, _LEAF_STEPS + 1,
             2 * _LEAF_STEPS + 1]
    if form != "sampled":  # sigma convolves by leaves of the realized recurrence
        steps += [k * _REALIZED_LEAF_STEPS + d for k in (1, 3) for d in (-1, 1)]
    steps = draw(st.sampled_from(steps))
    grid = TimeGrid(2 * PI + 0.5, steps)
    endpoints = draw(st.sampled_from([("left",), ("left", "right")]))
    # q = -1 puts mode 1 on the zero branch, q = -1.5 makes lambda_1 imaginary
    shift = draw(st.sampled_from([-1.5, -1.0, 0.0]))
    model = build_spectral_model(OperatorSpec(PI, shift, observed_endpoints=endpoints),
                                 draw(st.integers(1, 4)))
    s0 = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    rate, wobble = draw(st.floats(-0.1, 1.0)), draw(st.floats(0.0, 0.3))
    modulation = {
        "constant": lambda: ConstantModulation(s0),
        "affine": lambda: AffineModulation(s0, s0 * rate),
        "exponential": lambda: ExponentialModulation(rate),
        "sampled": lambda: SampledModulation(
            s0 * (1.0 + rate * grid.nodes + wobble * np.sin(2.0 * grid.nodes))),
    }[form]()
    f = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=model.truncation,
                               max_size=model.truncation)))
    if not np.any(f):
        f[0] = 1.0
    return model, draw(kernels), modulation, grid, SourceCoefficients(f)


def test_reconstruction_decomposes_the_gram_once(model, grid, monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    kernels = build_reconstruction(model, ZeroKernel(), AffineModulation(1.0, 0.5), grid)
    assert calls == [(8, 8)]
    assert kernels.bounds == frame_bounds(gram(kernels.family))


@pytest.mark.parametrize("modulation", [
    ConstantModulation(2.0),
    AffineModulation(1.0, 0.5),
    ExponentialModulation(-0.7),
    "sampled",
], ids=["constant", "affine", "exponential", "sampled"])
def test_realized_sigma_reconstructs_without_an_fft(model, grid, monkeypatch, modulation):
    # sigma, sigma' and the closed-form K carry realizations, so V_sigma' B w,
    # V_K B u' and V_K sigma' run the leaf-blocked recurrence (or vanish for
    # a constant sigma); a sampled sigma convolves by FFT
    realized = modulation != "sampled"
    if not realized:
        modulation = SampledModulation(AffineModulation(1.0, 0.5).sample(grid).values)
    calls = []
    rows = visco_inverse.volterra._convolve_rows
    monkeypatch.setattr(visco_inverse.volterra, "_convolve_rows",
                        lambda *args: calls.append(1) or rows(*args))
    kernels = build_reconstruction(model, ZeroKernel(), modulation, grid)
    f = SourceCoefficients.unit(3, 8)
    got = reconstruct(source_trace_prime(kernels.family, f, modulation), kernels, model)
    assert len(calls) == 0 if realized else len(calls) >= 1
    assert abs(got.values[2] - 1.0) < 1e-6


class TestThetaFreeRouteProperties:
    # the factored route against every theta_k materialised (tests/oracles.py)
    @pytest.mark.parametrize("memory", sorted(KERNELS))
    @pytest.mark.parametrize("form", ["constant", "affine", "exponential", "sampled"])
    @settings(max_examples=6)
    @given(data=st.data())
    def test_matches_the_materialised_theta_route(self, memory, form, data):
        model, kernel, modulation, grid, f = data.draw(reconstruction_cases(KERNELS[memory], form))
        kernels = build_reconstruction(model, kernel, modulation, grid)
        _, bup = source_traces(kernels.family, f, modulation)
        oracle = reconstruct_via_thetas(kernels.family, modulation, bup)

        entries = gram(kernels.family).entries
        assert np.max(np.abs(entries - oracle.gram)) <= 1e-13 * np.max(np.abs(oracle.gram))

        got = reconstruct_complex(bup, kernels)
        assert np.linalg.norm(got - oracle.recovered) <= 1e-12 * np.linalg.norm(oracle.recovered)

        # 1e-9 relative, above a roundoff floor: for constant sigma the
        # factored residual is exactly 0 and the materialised one ~1e-17
        dual_scale = np.sqrt(np.diag(kernels.coefficients).real.max())
        np.testing.assert_allclose(kernels.identity_residual, oracle.identity_residual,
                                   rtol=1e-9, atol=1e-13 * dual_scale)
        if form == "constant":
            assert kernels.identity_residual == 0.0
        # K solves the trapezoid resolvent equation to roundoff, by either route
        assert kernels.resolvent_residual <= 1e-13


class TestReconstruct:
    def test_zero_trace(self, model, grid, ortho_kernels):
        from visco_inverse import TraceSignal

        zero = TraceSignal(grid, np.zeros((grid.steps + 1, 1)))
        rec = reconstruct(zero, ortho_kernels, model)
        assert np.max(np.abs(rec.values)) == 0.0

    def test_orthogonal_unit_mode(self, model, grid, ortho_kernels):
        f = SourceCoefficients.unit(3, 8)
        _, bup = boundary_trace_source(f, ConstantModulation(1.0), model, ZeroKernel(), grid)
        rec = reconstruct(bup, ortho_kernels, model)
        assert rec.values[2] == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(np.delete(rec.values, 2))) < 1e-6

    def test_memory_round_trip_follows_quadrature_law(self, model):
        # the only systematic error is the resolvent-identity defect, which
        # rescales all coefficients by dt^2 (sigma'(0)/sigma(0))^2 / 4
        kernel = ExponentialKernel(1.0, 1.0)
        mod = AffineModulation(1.0, 0.5)
        rng = np.random.default_rng(12)
        f = SourceCoefficients(rng.standard_normal(8))
        for dt in (4e-3, 2e-3):
            g = TimeGrid.from_step(2 * PI + 0.5, dt)
            _, bup = boundary_trace_source(f, mod, model, kernel, g)
            kernels = build_reconstruction(model, kernel, mod, g)
            rec = reconstruct(bup, kernels, model)
            rel = np.linalg.norm(rec.values - f.values) / np.linalg.norm(f.values)
            predicted = 0.25 * g.dt**2 * 0.25
            assert rel == pytest.approx(predicted, rel=0.05)

    def test_linearity_in_the_trace(self, model, grid, ortho_kernels):
        rng = np.random.default_rng(4)
        f1 = SourceCoefficients(rng.standard_normal(8))
        f2 = SourceCoefficients(rng.standard_normal(8))
        mod = ConstantModulation(1.0)
        _, b1 = boundary_trace_source(f1, mod, model, ZeroKernel(), grid)
        _, b2 = boundary_trace_source(f2, mod, model, ZeroKernel(), grid)
        from visco_inverse import TraceSignal

        combo = TraceSignal(grid, 3.0 * b1.values - b2.values)
        rec = reconstruct(combo, ortho_kernels, model)
        expected = 3.0 * f1.values - f2.values
        assert np.max(np.abs(rec.values - expected)) < 1e-10

    def test_rescaling_invariance(self, model, grid):
        # sigma -> alpha sigma with kernels rebuilt recovers the same f
        kernel = ExponentialKernel(1.0, 1.0)
        rng = np.random.default_rng(13)
        f = SourceCoefficients(rng.standard_normal(8))
        recs = []
        for alpha in (1.0, 2.5):
            mod = AffineModulation(alpha, 0.5 * alpha)
            _, bup = boundary_trace_source(f, mod, model, kernel, grid)
            kernels = build_reconstruction(model, kernel, mod, grid)
            recs.append(reconstruct(bup, kernels, model).values)
        np.testing.assert_allclose(recs[0], recs[1], atol=1e-9)

    def test_imaginary_part_is_diagnostic_small(self, model, grid, ortho_kernels):
        rng = np.random.default_rng(14)
        f = SourceCoefficients(rng.standard_normal(8))
        _, bup = boundary_trace_source(f, ConstantModulation(1.0), model, ZeroKernel(), grid)
        raw = reconstruct_complex(bup, ortho_kernels)
        assert np.max(np.abs(raw.imag)) < 1e-8

    def test_truncation_mismatch_is_hard_error(self, grid, ortho_kernels):
        other = build_spectral_model(OperatorSpec(PI), 12)
        from visco_inverse import TraceSignal

        sig = TraceSignal(grid, np.zeros((grid.steps + 1, 1)))
        with pytest.raises(ValueError):
            reconstruct(sig, ortho_kernels, other)

    def test_grid_mismatch_is_hard_error(self, model, ortho_kernels):
        from visco_inverse import TraceSignal

        g2 = TimeGrid.from_step(2 * PI, 2e-3)
        sig = TraceSignal(g2, np.zeros((g2.steps + 1, 1)))
        with pytest.raises(ValueError):
            reconstruct(sig, ortho_kernels, model)


class TestStability:
    def test_spot_check_sqrt8(self, grid):
        model = build_spectral_model(OperatorSpec(PI), 1)
        ratios = stability_ratios(
            model, ZeroKernel(), ConstantModulation(1.0), grid, 1, 0
        )
        # with one mode every unit f is +-e1
        assert ratios[0] == pytest.approx(math.sqrt(8.0), abs=1e-3)

    def test_scan_returns_positive_window(self, model, grid):
        lo, hi = stability_scan(model, ZeroKernel(), ConstantModulation(1.0), grid, 10, 3)
        assert 0 < lo <= hi < 10

    def test_horizon_below_travel_time_rejected(self, model):
        g = TimeGrid.from_step(PI, 1e-3)
        with pytest.raises(ValueError):
            stability_scan(model, ZeroKernel(), ConstantModulation(1.0), g, 5, 0)

    def test_trials_validated(self, model, grid):
        with pytest.raises(ValueError):
            stability_scan(model, ZeroKernel(), ConstantModulation(1.0), grid, 0, 0)

    def test_coarse_grid_rejected(self, model):
        with pytest.raises(ValueError, match="steps >= 3"):
            stability_ratios(model, ZeroKernel(), ConstantModulation(1.0),
                             TimeGrid(2 * PI, 2), 5, 0)

    @pytest.mark.parametrize("kernel", [
        ZeroKernel(), ExponentialKernel(1.0, 1.0), PolynomialKernel((1.0, -0.3, 0.05)),
    ], ids=["zero", "exponential", "polynomial"])
    @pytest.mark.parametrize("modulation", [
        ConstantModulation(1.5), AffineModulation(1.0, 0.5),
    ], ids=["constant", "affine"])
    @pytest.mark.parametrize("endpoints", [("left",), ("left", "right")], ids=["one", "both"])
    def test_gram_form_matches_per_trial_norms(self, kernel, modulation, endpoints):
        model = build_spectral_model(OperatorSpec(PI, observed_endpoints=endpoints), 5)
        g = TimeGrid(2 * PI + 0.5, 1024)
        got = stability_ratios(model, kernel, modulation, g, 25, 7)
        expected = stability_ratios_per_trial(model, kernel, modulation, g, 25, 7)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    # the default block holds all 300 trials; blocks of 7 split them unevenly
    @pytest.mark.parametrize("block", [_SCAN_BLOCK, 7])
    def test_gram_form_matches_exact_per_trial_quadratic_forms(self, block, monkeypatch):
        monkeypatch.setattr(visco_inverse.inverse, "_SCAN_BLOCK", block)
        model = build_spectral_model(OperatorSpec(PI), 12)
        g = TimeGrid(2 * PI + 0.5, 1024)
        args = (model, PolynomialKernel((1.0, -0.5)), AffineModulation(1.0, 0.5), g)
        q = stability_gram(*args)
        expected = []
        for i in range(300):
            f = np.random.default_rng((11, i)).standard_normal(12)
            f /= np.linalg.norm(f)
            expected.append(np.sqrt(f @ q @ f))
        got = stability_ratios(*args, 300, 11, h1_gram=q)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("kernel, modulation", [
        (ZeroKernel(), ConstantModulation(1.5)),
        (ExponentialKernel(1.0, 1.0), AffineModulation(1.0, 0.5)),
        (PolynomialKernel((1.0, -0.5)), ExponentialModulation(0.8)),
    ], ids=["zero-constant", "exponential-affine", "polynomial-exponential"])
    def test_in_place_grams_match_the_weighted_buffer(self, kernel, modulation):
        # q = -3.5 makes lambda_1 imaginary, so its row grows to t_J
        model = build_spectral_model(OperatorSpec(PI, -3.5, ("left", "right")), 6)
        g = TimeGrid(2 * PI + 0.5, 1000)
        got = stability_gram(model, kernel, modulation, g)
        expected = stability_gram_weighted(model, kernel, modulation, g)
        assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gram_is_a_numerical_failure(self, model):
        # sigma = e^(300 t) overflows on the grid, so the y rows do
        g = TimeGrid(2 * PI + 0.5, 640)
        with pytest.raises(NumericsError, match="non-finite H1 Gram"):
            stability_gram(model, ExponentialKernel(1.0, 1.0), ExponentialModulation(300.0), g)

    def test_builds_no_generator_per_trial(self, model, grid, monkeypatch):
        q = stability_gram(model, ZeroKernel(), ConstantModulation(1.0), grid)

        def refuse(*args, **kwargs):
            raise AssertionError("default_rng called inside stability_ratios")

        monkeypatch.setattr(visco_inverse.inverse, "default_rng", refuse)
        ratios = stability_ratios(model, ZeroKernel(), ConstantModulation(1.0), grid,
                                  40, 5, h1_gram=q)
        assert ratios.shape == (40,) and np.all(ratios > 0)

    def test_trial_count_and_seed_validated(self, model, grid):
        q = np.eye(model.truncation)
        with pytest.raises(ValueError, match="trials"):
            stability_ratios(model, ZeroKernel(), ConstantModulation(1.0), grid,
                             (1 << 32) + 1, 0, h1_gram=q)
        with pytest.raises(ValueError, match="seed"):
            stability_ratios(model, ZeroKernel(), ConstantModulation(1.0), grid,
                             3, -1, h1_gram=q)
        # a seed must be an integer, as numpy's SeedSequence demands
        with pytest.raises(TypeError):
            stability_ratios(model, ZeroKernel(), ConstantModulation(1.0), grid,
                             3, 1.5, h1_gram=q)


# seeds of 1, 2 and 3 uint32 words, and of 4 or more, whose entropy words
# outnumber SeedSequence's pool and take its second mixing loop
SEED_WIDTHS = {
    "one-word": st.integers(0, 2**32 - 1),
    "two-words": st.integers(2**32, 2**64 - 1),
    "three-words": st.integers(2**64, 2**96 - 1),
    "past-the-pool": st.integers(2**96, 2**256),
}


class TestTrialDrawProperties:
    @pytest.mark.parametrize("width", list(SEED_WIDTHS))
    def test_rows_are_numpy_default_rng_draws(self, width):
        @given(SEED_WIDTHS[width], st.integers(0, 2**32 - 300), st.integers(1, 300),
               st.integers(1, 40))
        def check(seed, start, trials, n):
            stop = start + trials
            expected = [np.random.default_rng((seed, i)).standard_normal(n)
                        for i in range(start, stop)]
            assert np.array_equal(_trial_draws(seed, start, stop, n), np.array(expected))

        check()

    @pytest.mark.parametrize("seed", [0, 1, 11, 2**32 - 1, 2**32, 2**64 + 3, 10**30])
    def test_fixed_seeds(self, seed):
        # the first trials, and the last whose index fits one uint32 word
        for start in (0, 2**32 - 500):
            expected = [np.random.default_rng((seed, i)).standard_normal(16)
                        for i in range(start, start + 500)]
            assert np.array_equal(_trial_draws(seed, start, start + 500, 16),
                                  np.array(expected))


class TestCounterexample:
    def test_scaled_norms_near_sqrt6(self, grid):
        model = build_spectral_model(OperatorSpec(PI), 8)
        table = l2_only_counterexample(model, ConstantModulation(1.0), grid, 8)
        np.testing.assert_allclose(table.scaled_norms, math.sqrt(6.0), rtol=2e-3)

    def test_min_gram_eigs_decay(self, grid):
        model = build_spectral_model(OperatorSpec(PI), 16)
        table = l2_only_counterexample(model, ConstantModulation(1.0), grid, 16)
        m = table.min_gram_eigs
        assert np.all(m[1:] <= m[:-1] * 1.05)
        assert m[-1] < 0.1 * m[3]

    def test_nmax_validated(self, model, grid):
        with pytest.raises(ValueError):
            l2_only_counterexample(model, ConstantModulation(1.0), grid, 9)


class TestNoisyReconstruction:
    def test_zero_noise_matches_plain_reconstruction(self, model, grid, ortho_kernels):
        rng = np.random.default_rng(15)
        f = SourceCoefficients(rng.standard_normal(8))
        _, bup = boundary_trace_source(f, ConstantModulation(1.0), model, ZeroKernel(), grid)
        report = noisy_reconstruction(bup, 0.0, 1, ortho_kernels, model, truth=f)
        plain = reconstruct(bup, ortho_kernels, model)
        np.testing.assert_array_equal(report.recovered.values, plain.values)
        assert report.relative_l2_error < 1e-12

    def test_error_is_linear_in_noise(self, model, grid, ortho_kernels):
        rng = np.random.default_rng(16)
        f = SourceCoefficients(rng.standard_normal(8))
        _, bup = boundary_trace_source(f, ConstantModulation(1.0), model, ZeroKernel(), grid)
        r1 = noisy_reconstruction(bup, 1e-3, 77, ortho_kernels, model, truth=f)
        r2 = noisy_reconstruction(bup, 2e-3, 77, ortho_kernels, model, truth=f)
        assert r2.relative_l2_error == pytest.approx(2 * r1.relative_l2_error, rel=1e-6)

    def test_report_fields(self, model, grid, ortho_kernels):
        rng = np.random.default_rng(17)
        f = SourceCoefficients(rng.standard_normal(8))
        _, bup = boundary_trace_source(f, ConstantModulation(1.0), model, ZeroKernel(), grid)
        report = noisy_reconstruction(bup, 1e-3, 5, ortho_kernels, model, truth=f)
        assert report.noise_level == 1e-3
        assert report.per_mode_error.shape == (8,)
        assert report.relative_l2_error == pytest.approx(
            float(np.linalg.norm(report.recovered.values - f.values))
            / float(np.linalg.norm(f.values))
        )
        assert report.bounds.lower > 0

    def test_negative_noise_rejected(self, model, grid, ortho_kernels):
        from visco_inverse import TraceSignal

        sig = TraceSignal(grid, np.zeros((grid.steps + 1, 1)))
        with pytest.raises(ValueError):
            noisy_reconstruction(sig, -1.0, 0, ortho_kernels, model)
