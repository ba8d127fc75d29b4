import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import MT19937, PCG64, PCG64DXSM, SFC64, Philox, SeedSequence
from hypothesis import example, given, settings
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
    SampledKernel,
    SampledModulation,
    ScalarSignal,
    SourceCoefficients,
    TimeGrid,
    TraceSignal,
    ZeroKernel,
    boundary_trace_source,
    build_reconstruction,
    build_spectral_model,
    coefficients_via_duals,
    convolve,
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
    w_trace_family,
)
from oracles import (
    l2_counterexample_dense,
    l2_gram_weighted,
    reconstruct_via_thetas,
    stability_gram_longdouble,
    stability_gram_weighted,
    stability_ratios_per_trial,
)
import visco_inverse.inverse
from visco_inverse.frames import _member_gram, reflection_classes
from visco_inverse.inverse import (
    _SCAN_BLOCK, _Hashed, _identity_residuals, _seed_states, _seeded, _state_view, _trial_draws)
from visco_inverse.modal import StoredRows
from visco_inverse.volterra import _LEAF_STEPS, _REALIZED_LEAF_STEPS, _trapezoid_gram

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



def test_reconstruction_holds_no_modal_rows():
    # peak in units of one real R (N x (J+1) floats): the w family stays in
    # the step map's leaf tables (N D L floats, 0.19 R here) through its
    # Gram, the synthesis of B w, the identity check and the recovery.
    # Measured: 0.41 (the parent, which stored the rows: 1.35)
    N, J = 64, 4096
    grid = TimeGrid(2 * PI + 0.5, J)
    model = build_spectral_model(OperatorSpec(PI, 0.0, ("left", "right")), N)
    kernel, modulation = ExponentialKernel(1.0, 1.0), AffineModulation(1.0, 0.5)
    f = SourceCoefficients(np.random.default_rng(0).standard_normal(N))

    def pipeline():
        kernels = build_reconstruction(model, kernel, modulation, grid)
        return reconstruct(source_trace_prime(kernels.family, f, modulation), kernels, model)

    pipeline()  # the grid's cached nodes and weights
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = pipeline()
        peak = (tracemalloc.get_traced_memory()[1] - base) / (N * (J + 1) * 8)
    finally:
        tracemalloc.stop()
    assert peak <= 0.5, peak
    assert np.max(np.abs(got.values - f.values)) < 1e-6

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


@st.composite
def h1_gram_cases(draw):
    """A model, a kernel and a sigma with realizations, drawn by their
    parameters, on grids at and beside the leaf edges.  The potential q
    gives mu_n of both signs, and q = -k^2 a zero-branch mode (L = pi)."""
    N = draw(st.integers(1, 6))
    q = draw(st.one_of(st.floats(-6.0, 20.0), st.integers(1, N).map(lambda k: -float(k * k))))
    endpoints = draw(st.sampled_from([("left",), ("left", "right")]))
    model = build_spectral_model(OperatorSpec(PI, q, endpoints), N)
    grid = TimeGrid(2 * PI + draw(st.floats(0.0, 1.0)),
                    draw(st.sampled_from([255, 256, 257, 258, 511, 513, 4099, 20000])))
    variant = draw(st.sampled_from(["zero", "exponential", "polynomial"]))
    if variant == "zero":
        kernel = ZeroKernel()
    elif variant == "exponential":
        kernel = ExponentialKernel(draw(st.floats(-2.0, 3.0)), draw(st.floats(-1.0, 5.0)))
    else:
        # coefficients from a drawn seed: hypothesis's own float draws
        # favour 0 and tiny values
        seed = draw(st.integers(0, 2**32 - 1))
        kernel = PolynomialKernel(np.random.default_rng(seed).uniform(
            -3.0, 3.0, draw(st.integers(1, 4))))
    a = draw(st.floats(-2.0, 2.0))
    b = draw(st.floats(0.25, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    form = draw(st.sampled_from(["constant", "affine", "exponential"]))
    if form == "constant":
        sigma = ConstantModulation(b)
    elif form == "affine":
        sigma = AffineModulation(b, a)
    else:
        sigma = ExponentialModulation(a)
    return model, kernel, sigma, grid


@pytest.mark.parametrize("kernel", [ExponentialKernel(1.0, 1.0), "sampled"],
                         ids=["tables", "stored-rows"])
def test_stored_h1_gram_is_that_of_the_y_rows_and_their_slopes(kernel):
    # a sampled sigma takes the stored route from either storage: the y rows
    # V_sigma W, whose slopes then overwrite them row by row, give the bits
    # of the two Grams of two arrays
    model = build_spectral_model(OperatorSpec(PI, -4.0, ("left", "right")), 6)
    grid = TimeGrid(2 * PI + 0.5, 300)
    if kernel == "sampled":
        kernel = SampledKernel(np.exp(-grid.nodes), m0=1.0)
    w = w_trace_family(model, kernel, grid)
    sigma = SampledModulation(1.0 + 0.5 * grid.nodes).sample(grid)
    Y = convolve(sigma, TraceSignal(grid, w.scalars.T)).values.T
    slopes = np.gradient(Y, grid.dt, axis=1, edge_order=2)
    l2 = _trapezoid_gram(Y, grid.dt)
    expected = l2 + _trapezoid_gram(slopes, grid.dt)
    for got in (w.trajectories.h1_gram(sigma), StoredRows(grid, w.scalars).h1_gram(sigma)):
        assert got[0].tobytes() == l2.tobytes()
        assert got[1].tobytes() == expected.tobytes()


class TestTableH1Gram:
    # where the kernel and sigma have realizations, stability_gram and the
    # L2 half of h1_gram read the w family's leaf tables; the oracles
    # convolve the stored w rows.  The example is past the strategy's q: with
    # sigma = 0.25 - 0.68t changing sign, the H1 Gram reads 4.0e-15 here and
    # 2.6e-13 with the slope tables' Gram taken unrotated
    @given(h1_gram_cases())
    @example((build_spectral_model(OperatorSpec(PI, -25.0, ("left",)), 4), ZeroKernel(),
              AffineModulation(0.25, -0.68), TimeGrid(2 * PI + 0.5, 20000)))
    def test_matches_the_stored_rows(self, drawn):
        model, kernel, sigma, grid = drawn
        family = w_trace_family(model, kernel, grid)
        l2 = _member_gram(family.trajectories.h1_gram(sigma.sample(grid))[0], family)
        Q = stability_gram(*drawn)
        for got, expected in [(Q, stability_gram_weighted(*drawn)),
                              (l2.entries, l2_gram_weighted(*drawn))]:
            scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
            assert np.max(np.abs(got - expected) / scale) <= 1e-13
        # with both ends observed Q is exactly 0 between the reflection
        # classes, whose blocks alone are assembled
        label = np.empty(len(Q), int)
        for k, c in enumerate(reflection_classes(family.psis)):
            label[c] = k
        assert not Q[label[:, None] != label].any()

    @pytest.mark.parametrize("steps", [*range(3, 11), _LEAF_STEPS - 1, _LEAF_STEPS])
    def test_one_leaf_grids_match_the_weighted_buffer(self, steps):
        # on one leaf node J lies in the full leaf, where a central difference
        # would reach past the grid: with q = -4 it dwarfed the one-sided
        # slope and read 1.0e-12 at J = 7 while the tables took it and then
        # subtracted it; their differences now stop at node J - 1
        g = TimeGrid(2 * PI + 0.5, steps)
        for q in (0.0, -1.0, -4.0):
            model = build_spectral_model(OperatorSpec(PI, q, ("left", "right")), 4)
            for kernel in (ZeroKernel(), ExponentialKernel(1.0, 1.0),
                           PolynomialKernel((1.0, -0.5, 0.2))):
                for sigma in (AffineModulation(1.0, 0.5), ExponentialModulation(0.8),
                              ConstantModulation(1.5)):
                    got = stability_gram(model, kernel, sigma, g)
                    expected = stability_gram_weighted(model, kernel, sigma, g)
                    scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
                    assert np.max(np.abs(got - expected) / scale) <= 1e-14, (q, kernel, sigma)

    def test_one_leaf_grids_take_the_tables(self, monkeypatch):
        # under a realized kernel and sigma every grid of three steps or more
        # reads the tables, one leaf included: none builds the stored y rows
        def stored(*args):
            raise AssertionError("the stored y rows were built")

        monkeypatch.setattr(visco_inverse.modal.StoredRows, "h1_gram", stored)
        model = build_spectral_model(OperatorSpec(PI, -4.0, ("left", "right")), 4)
        sigma = AffineModulation(1.0, 0.5)
        for steps in (3, 7, _LEAF_STEPS):
            grid = TimeGrid(2 * PI + 0.5, steps)
            assert np.isfinite(stability_gram(model, ExponentialKernel(1.0, 1.0), sigma, grid)).all()
            assert np.isfinite(l2_only_counterexample(model, sigma, grid, 4).min_gram_eigs).all()

    def test_matches_a_long_double_reference(self):
        # sigma's gains are read from its samples (1.4e-15 here): tables
        # read from powers fl(e^(0.4 dt))^n in place of sigma_n drift to
        # 1.7e-13 of the reference
        model = build_spectral_model(OperatorSpec(PI), 16)
        g = TimeGrid(2 * PI + 0.5, 1025)
        got = stability_gram(model, ZeroKernel(), ExponentialModulation(0.4), g)
        expected = stability_gram_longdouble(model, ZeroKernel(), 0.4, g)
        scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
        assert np.max(np.abs(got - expected) / scale) <= 1e-14


class TestStability:
    def test_spot_check_sqrt8(self, grid):
        model = build_spectral_model(OperatorSpec(PI), 1)
        ratios = stability_ratios(
            stability_gram(model, ZeroKernel(), ConstantModulation(1.0), grid), 1, 0
        )
        # with one mode every unit f is +-e1
        assert ratios[0] == pytest.approx(math.sqrt(8.0), abs=1e-3)

    def test_scan_returns_positive_window(self, model, grid):
        ratios = stability_ratios(
            stability_gram(model, ZeroKernel(), ConstantModulation(1.0), grid), 10, 3)
        lo, hi = ratios.min(), ratios.max()
        assert 0 < lo <= hi < 10

    def test_horizon_below_travel_time_rejected(self, model):
        g = TimeGrid.from_step(PI, 1e-3)
        with pytest.raises(ValueError):
            stability_gram(model, ZeroKernel(), ConstantModulation(1.0), g)

    def test_trials_validated(self, model, grid):
        with pytest.raises(ValueError):
            stability_ratios(np.eye(model.truncation), 0, 0)

    def test_coarse_grid_rejected(self, model):
        with pytest.raises(ValueError, match="steps >= 3"):
            stability_gram(model, ZeroKernel(), ConstantModulation(1.0), TimeGrid(2 * PI, 2))

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
        got = stability_ratios(stability_gram(model, kernel, modulation, g), 25, 7)
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
        got = stability_ratios(q, 300, 11)
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
        # sigma's samples are finite, but the squares of the y rows overflow
        g = TimeGrid(2 * PI + 0.5, 640)
        sigma = SampledModulation(np.full(g.steps + 1, 1e300))
        with pytest.raises(NumericsError, match="non-finite H1 Gram"):
            stability_gram(model, ExponentialKernel(1.0, 1.0), sigma, g)

    def test_overflowing_sigma_is_a_numerical_failure(self, model):
        # sigma = e^(300 t) overflows on the grid: its samples are checked
        # before any y row is formed from them
        g = TimeGrid(2 * PI + 0.5, 640)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match=r"sigma = 1 e\^\(300 t\) overflows"):
                stability_gram(model, ExponentialKernel(1.0, 1.0), ExponentialModulation(300.0), g)

    def test_builds_no_generator_per_trial(self, model, grid, monkeypatch):
        q = stability_gram(model, ZeroKernel(), ConstantModulation(1.0), grid)

        def refuse(*args, **kwargs):
            raise AssertionError("default_rng called inside stability_ratios")

        monkeypatch.setattr(visco_inverse.inverse, "default_rng", refuse)
        ratios = stability_ratios(q, 40, 5)
        assert ratios.shape == (40,) and np.all(ratios > 0)
        # one block's PCG64s are as many at 400 trials as at 4000
        built = []

        def counted(*args):
            built.append(args)
            return PCG64(*args)

        monkeypatch.setattr(visco_inverse.inverse, "PCG64", counted)
        counts = []
        for trials in (400, 4000):
            built.clear()
            stability_ratios(np.eye(16), trials, 5)
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_trial_count_and_seed_validated(self, model, grid):
        q = np.eye(model.truncation)
        with pytest.raises(ValueError, match="trials"):
            stability_ratios(q, (1 << 32) + 1, 0)
        with pytest.raises(ValueError, match="seed"):
            stability_ratios(q, 3, -1)
        # a seed must be an integer, as numpy's SeedSequence demands
        with pytest.raises(TypeError):
            stability_ratios(q, 3, 1.5)


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
               st.integers(1, 64))
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



class TestHashedSeeding:
    # each trial's PCG64 starts in numpy's own state for SeedSequence((seed, i)),
    # so a seeding fault shows as a state mismatch before any draw is made
    @pytest.mark.parametrize("width", list(SEED_WIDTHS))
    def test_state_matches_numpy_seed_sequence(self, width):
        @given(SEED_WIDTHS[width])
        def check(seed):
            for i in (0, _SCAN_BLOCK - 1, _SCAN_BLOCK, 2**32 - 1):
                row = _seed_states(seed, i, i + 1)[0]
                assert PCG64(_Hashed(row)).state == PCG64(SeedSequence((seed, i))).state

        check()


def default_rng_rows(seed: int, start: int, stop: int, n: int) -> np.ndarray:
    return np.array([np.random.default_rng((seed, i)).standard_normal(n)
                     for i in range(start, stop)])


class TestStateView:
    # numpy's own bit generators, each refused by one of the three checks: the
    # pointer to the C state lies outside the object (SFC64 and MT19937 hold
    # their state inline), its words are not the state getter's (Philox), or
    # the draws after a write are not the seeded PCG64's (PCG64DXSM's output)
    @pytest.mark.parametrize("bit_generator, refused_by", [
        (PCG64, None), (PCG64DXSM, 3), (Philox, 2), (SFC64, 1), (MT19937, 1),
    ], ids=["PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"])
    def test_only_pcg64_is_reseeded_in_place(self, bit_generator, refused_by):
        bits = bit_generator(3)
        words = _seed_states(0, 0, 2)
        found = _state_view(bits, words, _seeded(words))
        if refused_by is None:
            normal, view = found
            view[:] = _seeded(_seed_states(11, 7, 8))[0]
            assert bits.state == PCG64(SeedSequence((11, 7))).state
            assert normal(16).tobytes() == default_rng_rows(11, 7, 8, 16)[0].tobytes()
            return
        assert found is None
        if refused_by < 3:
            # nothing is written before the first two checks pass
            assert np.array_equal(bits.random_raw(4), bit_generator(3).random_raw(4))

    def test_a_refused_view_draws_each_trial_from_its_own_generator(self, monkeypatch):
        monkeypatch.setattr(visco_inverse.inverse, "_state_view", lambda *args: None)
        for seed, start, stop, n in ((5, 0, 300, 16), (2**70 + 3, 2**32 - 40, 2**32, 64)):
            assert np.array_equal(_trial_draws(seed, start, stop, n),
                                  default_rng_rows(seed, start, stop, n))

    def test_a_block_is_hashed_and_seeded_once(self, monkeypatch):
        # the view is checked with the block's own first two trials
        calls = {"_seed_states": 0, "_seeded": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(visco_inverse.inverse, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(visco_inverse.inverse, name, counted)
        for start, stop in ((0, 300), (9, 10)):
            assert np.array_equal(_trial_draws(5, start, stop, 16),
                                  default_rng_rows(5, start, stop, 16))
        assert calls == {"_seed_states": 2, "_seeded": 2}

    def test_a_one_trial_block_is_refused_the_view(self):
        words = _seed_states(5, 9, 10)
        assert _state_view(PCG64(_Hashed(words[0])), words, _seeded(words)) is None

    def test_threads_draw_what_a_sequential_run_draws(self):
        seeds = (3, 4)
        expected = [_trial_draws(seed, 0, _SCAN_BLOCK, 16) for seed in seeds]
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(3):
                got = list(pool.map(lambda seed: _trial_draws(seed, 0, _SCAN_BLOCK, 16), seeds))
                for rows, want in zip(got, expected):
                    assert np.array_equal(rows, want)
        assert np.array_equal(expected[0][:50], default_rng_rows(3, 0, 50, 16))


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

    @pytest.mark.parametrize("endpoints", [("left",), ("left", "right")], ids=["one-end", "both-ends"])
    @pytest.mark.parametrize("modulation, steps", [
        (AffineModulation(1.0, 0.5), _LEAF_STEPS - 1),
        (AffineModulation(1.0, 0.5), _LEAF_STEPS),
        (AffineModulation(1.0, 0.5), _LEAF_STEPS + 1),
        (AffineModulation(0.0, 1.0), 2 * _LEAF_STEPS + 1),
        (ExponentialModulation(-0.7), 4099),
        (SampledModulation(1.0 + 0.5 * TimeGrid(2 * PI + 0.5, 1000).nodes), 1000),
    ], ids=["affine-255", "affine-256", "affine-257", "sigma0=0-513", "exponential-4099",
            "sampled-1000"])
    def test_matches_the_dense_route(self, endpoints, modulation, steps):
        # the L2 half of the w tables' h1_gram (the stored rows' for a sampled
        # sigma) against the Gram of the stored y rows, with the bounds of
        # each leading block of the whole Gram in place of the classes'
        model = build_spectral_model(OperatorSpec(PI, 0.0, endpoints), 12)
        grid = TimeGrid(2 * PI + 0.5, steps)
        table = l2_only_counterexample(model, modulation, grid, 12)
        G, norms, eigs = l2_counterexample_dense(model, modulation, grid, 12)
        assert table.indices.tolist() == list(range(1, 13))
        assert table.lams.tobytes() == model.positive_modes.lam.tobytes()
        assert np.max(np.abs(table.scaled_norms - norms) / norms) <= 1e-13
        assert np.max(np.abs(table.min_gram_eigs - eigs)) <= 1e-13 * np.linalg.eigvalsh(G)[-1]


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
