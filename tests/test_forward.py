import math

import numpy as np
import pytest

from visco_inverse import (
    AffineModulation,
    ConstantModulation,
    ExponentialKernel,
    ExponentialModulation,
    OperatorSpec,
    PolynomialKernel,
    SampledKernel,
    SampledModulation,
    SourceCoefficients,
    TimeGrid,
    ZeroKernel,
    boundary_trace_source,
    build_spectral_model,
    differentiate,
    h1_norm,
    l2_norm,
)
from oracles import (
    boundary_trace_homogeneous,
    hilbert_norms,
    source_traces_per_mode,
    verify_convolution_relation,
)

PI = math.pi
ROOT2PI = math.sqrt(2 / PI)


@pytest.fixture(scope="module")
def model():
    return build_spectral_model(OperatorSpec(PI), 8)


@pytest.fixture(scope="module")
def grid():
    return TimeGrid.from_step(2 * PI, 1e-3)


def unit_data(k, n, which):
    xi = np.zeros(n)
    eta = np.zeros(n)
    (xi if which == "xi" else eta)[k - 1] = 1.0
    return xi, eta


class TestHomogeneousTrace:
    def test_velocity_mode_gives_sine(self, model, grid):
        bw = boundary_trace_homogeneous(*unit_data(1, 8, "eta"), model, ZeroKernel(), grid)
        np.testing.assert_allclose(
            bw.values[:, 0].real, ROOT2PI * np.sin(grid.nodes), atol=1e-5
        )
        assert np.max(np.abs(bw.values.imag)) < 1e-9

    def test_displacement_mode_gives_cosine(self, model, grid):
        bw = boundary_trace_homogeneous(*unit_data(1, 8, "xi"), model, ZeroKernel(), grid)
        np.testing.assert_allclose(
            bw.values[:, 0].real, ROOT2PI * np.cos(grid.nodes), atol=1e-5
        )

    def test_zero_data_gives_zero_trace(self, model, grid):
        bw = boundary_trace_homogeneous(
            np.zeros(8), np.zeros(8), model, ExponentialKernel(1, 1), grid
        )
        assert np.max(np.abs(bw.values)) == 0.0

    def test_real_for_real_inputs_with_memory(self, model, grid):
        rng = np.random.default_rng(2)
        data = (rng.standard_normal(8), rng.standard_normal(8))
        bw = boundary_trace_homogeneous(*data, model, ExponentialKernel(1.0, 1.0), grid)
        assert np.max(np.abs(bw.values.imag)) < 1e-9

    def test_real_with_negative_eigenvalue_branch(self, grid):
        model = build_spectral_model(OperatorSpec(PI, -2.0), 4)
        data = (np.array([0.3, 0.0, 0.1, 0.0]), np.array([0.0, 1.0, 0.0, -0.2]))
        bw = boundary_trace_homogeneous(*data, model, ZeroKernel(), grid)
        rel = np.max(np.abs(bw.values.imag)) / np.max(np.abs(bw.values.real))
        assert rel < 1e-9

    def test_zero_branch_mode_trace(self, grid):
        # mu_1 = 0: the modal motion is xi + eta t, observed through B phi_1
        model = build_spectral_model(OperatorSpec(PI, -1.0), 2)
        data = (np.array([0.5, 0.0]), np.array([0.25, 0.0]))
        bw = boundary_trace_homogeneous(*data, model, ExponentialKernel(1, 1), grid)
        bphi = math.sqrt(2 / PI)  # slope of the first eigenfunction at x = 0
        np.testing.assert_allclose(
            bw.values[:, 0].real, bphi * (0.5 + 0.25 * grid.nodes), atol=1e-12
        )

    def test_linearity(self, model, grid):
        kernel = ExponentialKernel(1.0, 1.0)
        rng = np.random.default_rng(5)
        d1 = (rng.standard_normal(8), rng.standard_normal(8))
        d2 = (rng.standard_normal(8), rng.standard_normal(8))
        combo = (2.0 * d1[0] - 3.0 * d2[0], 2.0 * d1[1] - 3.0 * d2[1])
        lhs = boundary_trace_homogeneous(*combo, model, kernel, grid).values
        rhs = (
            2.0 * boundary_trace_homogeneous(*d1, model, kernel, grid).values
            - 3.0 * boundary_trace_homogeneous(*d2, model, kernel, grid).values
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_length_mismatch(self, model, grid):
        with pytest.raises(ValueError):
            boundary_trace_homogeneous(*unit_data(1, 5, "xi"), model, ZeroKernel(), grid)


class TestSourceTrace:
    def test_zero_source(self, model, grid):
        bu, bup = boundary_trace_source(
            SourceCoefficients(np.zeros(8)), ConstantModulation(1.0), model, ZeroKernel(), grid
        )
        assert np.max(np.abs(bu.values)) == 0.0
        assert np.max(np.abs(bup.values)) == 0.0

    def test_first_mode_closed_form(self, model, grid):
        f = SourceCoefficients.unit(1, 8)
        bu, bup = boundary_trace_source(f, ConstantModulation(1.0), model, ZeroKernel(), grid)
        np.testing.assert_allclose(
            bup.values[:, 0].real, ROOT2PI * np.sin(grid.nodes), atol=1e-5
        )
        np.testing.assert_allclose(
            bu.values[:, 0].real, ROOT2PI * (1 - np.cos(grid.nodes)), atol=1e-5
        )

    def test_derivative_consistency(self, model, grid):
        # centered differences of B u reproduce the assembled B u'
        rng = np.random.default_rng(7)
        f = SourceCoefficients(rng.standard_normal(8))
        bu, bup = boundary_trace_source(
            f, AffineModulation(1.0, 1.0), model, ExponentialKernel(1.0, 1.0), grid
        )
        num = differentiate(bu)
        scale = np.max(np.abs(bup.values))
        assert np.max(np.abs(num.values - bup.values)) / scale < 5e-5

    def test_linearity(self, model, grid):
        kernel = ExponentialKernel(1.0, 1.0)
        mod = AffineModulation(1.0, 0.5)
        rng = np.random.default_rng(6)
        f1 = rng.standard_normal(8)
        f2 = rng.standard_normal(8)
        bu_combo, _ = boundary_trace_source(
            SourceCoefficients(f1 + 2 * f2), mod, model, kernel, grid
        )
        bu1, _ = boundary_trace_source(SourceCoefficients(f1), mod, model, kernel, grid)
        bu2, _ = boundary_trace_source(SourceCoefficients(f2), mod, model, kernel, grid)
        assert np.max(np.abs(bu_combo.values - bu1.values - 2 * bu2.values)) < 1e-12

    def test_matches_per_mode_route(self, grid):
        model = build_spectral_model(OperatorSpec(PI, observed_endpoints=("left", "right")), 8)
        f = SourceCoefficients(np.random.default_rng(11).standard_normal(8))
        mod = AffineModulation(1.0, 0.5)
        kernel = ExponentialKernel(1.0, 1.0)
        got = boundary_trace_source(f, mod, model, kernel, grid)
        want = source_traces_per_mode(f, mod, model, kernel, grid)
        for trace, ref in zip(got, want):
            assert np.max(np.abs(trace.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_length_mismatch(self, model, grid):
        with pytest.raises(ValueError):
            boundary_trace_source(
                SourceCoefficients(np.zeros(5)), ConstantModulation(1.0), model, ZeroKernel(), grid
            )


class TestConvolutionRelation:
    def test_memoryless_unit_source(self, model, grid):
        gap = verify_convolution_relation(
            SourceCoefficients.unit(1, 8), ConstantModulation(1.0), model, ZeroKernel(), grid
        )
        assert gap < 1e-8

    # the step map and sigma's realization; the blocked history solve on
    # stored rows; the FFT convolution of a sampled sigma; the polynomial
    # kernel's step map under an exponential sigma
    @pytest.mark.parametrize("pair", [
        lambda g: (ExponentialKernel(1.0, 1.0), AffineModulation(1.0, 1.0)),
        lambda g: (SampledKernel(np.exp(-g.nodes)), AffineModulation(1.0, 1.0)),
        lambda g: (ExponentialKernel(1.0, 1.0), SampledModulation(1.0 + g.nodes)),
        lambda g: (PolynomialKernel((1.0, -0.5, 0.1)), ExponentialModulation(0.3)),
    ], ids=["exponential-affine", "sampled-affine", "exponential-sampled",
            "polynomial-exponential"])
    def test_memory_random_source(self, model, grid, pair):
        kernel, modulation = pair(grid)
        rng = np.random.default_rng(3)
        f = SourceCoefficients(rng.standard_normal(8))
        gap = verify_convolution_relation(f, modulation, model, kernel, grid)
        assert gap < 1e-10  # both routes share the discrete operators

    def test_zero_source(self, model, grid):
        gap = verify_convolution_relation(
            SourceCoefficients(np.zeros(8)), ConstantModulation(1.0), model, ZeroKernel(), grid
        )
        assert gap == 0.0


def test_observability_ratio_window(grid):
    # ||B w|| / ||(w0, w1)|| stays inside a fixed positive window, stable
    # under doubling the truncation
    kernel = ExponentialKernel(1.0, 1.0)
    ratios = {}
    for N in (8, 16):
        model = build_spectral_model(OperatorSpec(PI), N)
        vals = []
        for trial in range(20):
            rng = np.random.default_rng((31, trial))
            xi = rng.standard_normal(N)
            eta = rng.standard_normal(N)
            n0, n1 = hilbert_norms(xi, eta, model)
            size = math.hypot(n0, n1)
            bw = boundary_trace_homogeneous(xi, eta, model, kernel, grid)
            vals.append(l2_norm(bw) / size)
        ratios[N] = (min(vals), max(vals))
    assert ratios[8][0] > 0.1
    assert ratios[16][0] > 0.5 * ratios[8][0]
    assert ratios[16][1] < 2.0 * ratios[8][1]


def test_h1_spot_check_matches_hand_integral(model, grid):
    f = SourceCoefficients.unit(1, 8)
    bu, _ = boundary_trace_source(f, ConstantModulation(1.0), model, ZeroKernel(), grid)
    assert h1_norm(bu) == pytest.approx(math.sqrt(8.0), abs=1e-3)
