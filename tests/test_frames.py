import math

import numpy as np
import pytest
from scipy.linalg import eigh

from visco_inverse import (
    AffineModulation,
    ConstantModulation,
    ExponentialKernel,
    FrameBounds,
    GramMatrix,
    ModalFamily,
    OperatorSpec,
    ScalarSignal,
    SingularGramError,
    TimeGrid,
    ZeroKernel,
    bessel_defect,
    bessel_ratio,
    biorthogonality_defect,
    build_spectral_model,
    coefficients_via_duals,
    convolve,
    dual_coefficients,
    inner_products,
    frame_bounds,
    gram,
    leading_frame_bounds,
    w_trace_family,
    y_trace_family,
    z_trace_family,
)
from oracles import dual_values, family_values

PI = math.pi


@pytest.fixture(scope="module")
def grid():
    return TimeGrid.from_step(2 * PI, 1e-3)


@pytest.fixture(scope="module")
def model():
    return build_spectral_model(OperatorSpec(PI), 8)


def sine_family(grid, count, scale=None):
    scale = math.sqrt(2 / PI) if scale is None else scale
    vals = np.stack([scale * np.sin(n * grid.nodes) for n in range(1, count + 1)])
    return ModalFamily(grid, tuple(range(1, count + 1)), vals, np.ones((count, 1)))


class TestGram:
    def test_orthogonal_sines_give_twice_identity(self, grid):
        G = gram(sine_family(grid, 6))
        np.testing.assert_allclose(G.entries, 2.0 * np.eye(6), atol=1e-10)

    def test_zero_member(self, grid):
        fam = ModalFamily(grid, (1,), np.zeros((1, grid.steps + 1)), np.ones((1, 1)))
        G = gram(fam)
        assert G.entries[0, 0] == 0.0

    def test_signed_exponentials_give_four_identity(self, grid, model):
        fam = z_trace_family(model, ZeroKernel(), grid)
        G = gram(fam)
        np.testing.assert_allclose(G.entries, 4.0 * np.eye(16), atol=5e-4)

    def test_gram_is_hermitian_psd(self, grid, model):
        fam = z_trace_family(model, ExponentialKernel(1.0, 1.0), grid)
        G = gram(fam)
        np.testing.assert_allclose(G.entries, G.entries.conj().T, atol=0)
        assert np.linalg.eigvalsh(G.entries).min() > -1e-10

    def test_w_family_matches_manual_entries(self, grid, model):
        # cross-check one entry against a direct quadrature
        fam = w_trace_family(model, ZeroKernel(), grid)
        G = gram(fam)
        w = grid.weights
        m2, m5 = family_values(fam)[[1, 4], :, 0]
        direct = np.sum(w * m5 * np.conj(m2))
        assert G.entries[1, 4] == pytest.approx(direct, abs=1e-12)


class TestFrameBounds:
    def test_scaled_identity(self, grid):
        b = frame_bounds(gram(sine_family(grid, 4)))
        assert b.lower == pytest.approx(2.0, abs=1e-9)
        assert b.upper == pytest.approx(2.0, abs=1e-9)
        assert b.size == 4
        assert b.horizon == grid.horizon

    def test_non_hermitian_rejected(self, grid):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            frame_bounds(GramMatrix(bad, grid.horizon, (1, 2)))

    def test_memory_family_lower_bound_stable_in_truncation(self):
        # the memory perturbation keeps a uniform lower bound: the minimum
        # eigenvalue must not collapse when the truncation doubles
        grid = TimeGrid.from_step(2 * PI + 0.5, 5e-4)
        model = build_spectral_model(OperatorSpec(PI), 16)
        fam = z_trace_family(model, ExponentialKernel(1.0, 1.0), grid)
        G = gram(fam)
        b8, b16 = leading_frame_bounds(G, [16, 32])
        assert b8.lower > 0
        assert b16.lower >= 0.3 * b8.lower

    def test_integrated_family_loses_lower_bound(self, grid):
        # min eigenvalue drains toward zero: the hallmark of frame failure
        model = build_spectral_model(OperatorSpec(PI), 32)
        fam = y_trace_family(model, ZeroKernel(), ConstantModulation(1.0), grid)
        G = gram(fam)
        b4, b32 = leading_frame_bounds(G, [4, 32])
        assert b32.lower < 0.05 * b4.lower

    @pytest.mark.parametrize("lower, upper, singular", [
        (1.0, 2.0, False), (1e-9, 1.0, False), (1e-11, 1.0, True), (0.0, 0.0, True),
        (-1.0, 1.0, True), (math.nan, 1.0, True), (1.0, math.nan, True),
    ])
    def test_singular_gate(self, lower, upper, singular):
        assert FrameBounds(lower, upper, 2, 1.0).singular is singular

    def test_leading_bounds_validation(self, grid):
        G = gram(sine_family(grid, 4))
        with pytest.raises(ValueError):
            leading_frame_bounds(G, [0])
        with pytest.raises(ValueError):
            leading_frame_bounds(G, [5])


def test_batched_y_family_matches_per_member_convolution(grid, model):
    # 8 members over an FFT of about 12.6k run as a chunk of 5 rows and one of 3
    kernel, modulation = ExponentialKernel(1.0, 1.0), AffineModulation(1.0, 0.5)
    fam = y_trace_family(model, kernel, modulation, grid)
    w = w_trace_family(model, kernel, grid)
    sigma = modulation.sample(grid)
    per_member = np.stack([convolve(sigma, ScalarSignal(grid, z)).values for z in w.scalars])
    assert fam.labels == w.labels
    np.testing.assert_array_equal(fam.psis, w.psis)
    assert np.linalg.norm(fam.scalars - per_member) <= 1e-15 * np.linalg.norm(per_member)


def materialised_duals(fam):
    return dual_values(fam, dual_coefficients(gram(fam)))


class TestDualFamily:
    def test_diagonal_inversion(self, grid):
        fam = sine_family(grid, 5)
        expected = 0.5 * family_values(fam)
        np.testing.assert_allclose(materialised_duals(fam), expected, atol=1e-9)

    def test_orthonormal_family_is_self_dual(self, grid):
        fam = sine_family(grid, 5, scale=math.sqrt(1 / PI))
        np.testing.assert_allclose(materialised_duals(fam), family_values(fam), atol=1e-9)

    def test_biorthogonality(self, grid):
        model = build_spectral_model(OperatorSpec(PI), 12)
        fam = w_trace_family(model, ExponentialKernel(1.0, 1.0), grid)
        G = gram(fam)
        assert biorthogonality_defect(G, dual_coefficients(G)) < 1e-8
        # the same defect on materialised members and duals
        inner = inner_products(family_values(fam), materialised_duals(fam), grid)
        assert np.max(np.abs(inner - np.eye(len(fam)))) < 1e-8

    def test_dual_norms_are_the_diagonal_coefficients(self, grid, model):
        # <p_k, p_k> = sum_m C[k, m] <member_m, p_k> = C[k, k] by biorthogonality
        fam = w_trace_family(model, ExponentialKernel(1.0, 1.0), grid)
        direct = np.einsum("j,kjc->k", grid.weights, np.abs(materialised_duals(fam)) ** 2)
        coefficients = dual_coefficients(gram(fam))
        np.testing.assert_allclose(np.diag(coefficients).real, direct, rtol=1e-10)

    def test_coefficient_round_trip(self, grid):
        model = build_spectral_model(OperatorSpec(PI), 16)
        fam = w_trace_family(model, ZeroKernel(), grid)
        coefficients = dual_coefficients(gram(fam))
        rng = np.random.default_rng(8)
        a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        a /= np.linalg.norm(a)
        rec = coefficients_via_duals(fam, coefficients, fam.synthesize(a))
        assert np.max(np.abs(rec - a)) < 1e-8

    def test_singular_gram_detected(self):
        # a horizon below the two-way travel time starves the exponentials
        grid = TimeGrid.from_step(PI, 5e-4)
        model = build_spectral_model(OperatorSpec(PI), 24)
        fam = z_trace_family(model, ZeroKernel(), grid)
        with pytest.raises(SingularGramError):
            dual_coefficients(gram(fam))

    def test_size_mismatch_rejected(self, grid):
        fam = sine_family(grid, 4)
        coefficients = dual_coefficients(gram(sine_family(grid, 3)))
        with pytest.raises(ValueError):
            coefficients_via_duals(fam, coefficients, fam.synthesize(np.ones(4)))


def test_perturbation_bracketing(grid):
    # a relative perturbation of size q < 1 keeps the frame bounds inside
    # [(1-q)^2 c, (1+q)^2 C] of the reference family
    base = sine_family(grid, 6)
    bump = np.stack([
        0.05 * math.sqrt(2 / PI) * np.sin((n + 6) * grid.nodes) for n in range(1, 7)
    ])
    perturbed = ModalFamily(grid, base.labels, base.scalars + bump, base.psis)
    diff = ModalFamily(grid, base.labels, bump, base.psis)
    G_base = gram(base)
    G_diff = gram(diff)
    # q^2 = sup ||sum a (e - f)||^2 / ||sum a e||^2, a generalized eigenproblem
    q = math.sqrt(eigh(G_diff.entries, G_base.entries, eigvals_only=True)[-1])
    assert q < 1
    b_base = frame_bounds(G_base)
    b_pert = frame_bounds(gram(perturbed))
    assert b_pert.lower >= (1 - q) ** 2 * b_base.lower - 1e-9
    assert b_pert.upper <= (1 + q) ** 2 * b_base.upper + 1e-9


class TestBesselRatio:
    def test_single_coefficient_closed_form(self, model):
        T = 2 * PI
        a = np.zeros(16)
        a[8] = 1.0  # mode +1 in storage order -8..-1, 1..8
        mode = model.mode(1)
        expected = float(np.sum(np.abs(mode.psi) ** 2)) / (1 / T + T * abs(mode.lam) ** 2)
        assert bessel_ratio(model, a, T, T) == pytest.approx(expected, rel=1e-12)

    def test_zero_coefficients_rejected(self, model):
        with pytest.raises(ValueError):
            bessel_ratio(model, np.zeros(16), 1.0, 2 * PI)

    def test_eps_range_enforced(self, model):
        a = np.zeros(16)
        a[8] = 1.0
        with pytest.raises(ValueError):
            bessel_ratio(model, a, 0.0, 2 * PI)
        with pytest.raises(ValueError):
            bessel_ratio(model, a, 7.0, 2 * PI)

    def test_defect_stays_bounded_as_truncation_doubles(self):
        d = []
        for N in (8, 16, 32):
            m = build_spectral_model(OperatorSpec(PI), N)
            d.append(bessel_defect(m, 2 * PI, trials=60, seed=4))
        assert all(np.isfinite(d))
        # the supremum must not blow up with truncation
        assert max(d) <= 3.0 * d[0] + 1.0

    def test_trials_validation(self, model):
        with pytest.raises(ValueError):
            bessel_defect(model, 2 * PI, trials=0, seed=1)
