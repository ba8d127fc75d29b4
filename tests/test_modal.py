import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from visco_inverse import (
    ExponentialKernel,
    NumericsError,
    OperatorSpec,
    PolynomialKernel,
    SampledKernel,
    TimeGrid,
    ZeroKernel,
    build_spectral_model,
    comparison_defect,
    comparison_defect_scan,
    comparison_exponential,
    solve_w,
    solve_w_many,
    solve_z,
    w_trace_family,
)
from oracles import (
    family_values,
    modal_history_loop,
    modal_oracle_exponential_kernel,
    modal_step_loop,
)
from visco_inverse import modal
from visco_inverse.modal import _integrate_family
from visco_inverse.volterra import _LEAF_STEPS

PI = math.pi


@pytest.fixture(scope="module")
def model():
    return build_spectral_model(OperatorSpec(PI), 16)


@pytest.fixture(scope="module")
def grid():
    return TimeGrid.from_step(1.0, 1e-3)


class TestMemoryless:
    def test_plain_exponential_solution(self, model, grid):
        traj = solve_z(model.mode(3), ZeroKernel(), grid)
        exact = np.exp(3j * grid.nodes)
        assert np.max(np.abs(traj.z.values - exact)) < 5e-6
        assert np.max(np.abs(np.abs(traj.z.values) - 1.0)) < 1e-10

    def test_w_is_plain_sine(self, model, grid):
        traj = solve_w(model.mode(2), ZeroKernel(), grid)
        assert np.max(np.abs(traj.z.values - np.sin(2 * grid.nodes))) < 5e-6

    def test_derivative_is_recovered_from_the_solution(self, model, grid):
        traj = solve_w(model.mode(2), ZeroKernel(), grid)
        assert np.max(np.abs(traj.z_prime.values - 2 * np.cos(2 * grid.nodes))) < 1e-5

    def test_imaginary_branch_grows_like_cosh(self, grid):
        # mu_1 = -1 makes lambda = i; the two signed trajectories are the
        # real exponentials e^(-t) and e^(t)
        model = build_spectral_model(OperatorSpec(PI, -2.0), 1)
        zp = solve_z(model.mode(1), ZeroKernel(), grid)
        zm = solve_z(model.mode(-1), ZeroKernel(), grid)
        assert np.max(np.abs(zp.z.values - np.exp(-grid.nodes))) < 1e-6
        assert np.max(np.abs(zm.z.values - np.exp(grid.nodes))) < 1e-6


@pytest.fixture(scope="module")
def j0_model():
    return build_spectral_model(OperatorSpec(PI, -1.0), 2)


class TestZeroBranch:
    def test_z_closed_form(self, j0_model, grid):
        for n, sign in ((1, 1.0), (-1, -1.0)):
            traj = solve_z(j0_model.mode(n), ExponentialKernel(1.0, 1.0), grid)
            np.testing.assert_array_equal(traj.z.values, 1.0 + 1j * sign * grid.nodes)

    def test_w_closed_form(self, j0_model, grid):
        traj = solve_w(j0_model.mode(1), ExponentialKernel(1.0, 1.0), grid)
        np.testing.assert_array_equal(traj.z.values.real, grid.nodes)

    def test_comparison_matches_z_exactly(self, j0_model, grid):
        cmp_sig = comparison_exponential(j0_model.mode(1), ZeroKernel(), grid)
        traj = solve_z(j0_model.mode(1), ZeroKernel(), grid)
        np.testing.assert_array_equal(cmp_sig.values, traj.z.values)

    def test_defect_rejected(self, j0_model, grid):
        with pytest.raises(ValueError):
            comparison_defect(j0_model.mode(1), ZeroKernel(), grid)


class TestAgainstAugmentedOracle:
    def test_memory_trajectory(self, model):
        g = TimeGrid.from_step(1.0, 1e-4)
        kernel = ExponentialKernel(0.5, 1.0)
        traj = solve_z(model.mode(2), kernel, g)
        exact = modal_oracle_exponential_kernel(2.0, 0.5, 1.0, g)
        assert np.max(np.abs(traj.z.values - exact)) < 1e-7

    def test_second_order_refinement(self, model):
        kernel = ExponentialKernel(0.5, 1.0)
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            g = TimeGrid.from_step(1.0, dt)
            traj = solve_z(model.mode(2), kernel, g)
            exact = modal_oracle_exponential_kernel(2.0, 0.5, 1.0, g)
            errs.append(np.max(np.abs(traj.z.values - exact)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)

    def test_initial_data(self, model, grid):
        kernel = ExponentialKernel(1.0, 1.0)
        z = solve_z(model.mode(4), kernel, grid)
        assert z.z.values[0] == 1.0
        assert z.z_prime.values[0] == 4j
        w = solve_w(model.mode(4), kernel, grid)
        assert w.z.values[0] == 0.0
        assert w.z_prime.values[0] == 4.0


class TestStructuralIdentities:
    def test_w_matches_z_difference_exactly(self, model, grid):
        kernel = ExponentialKernel(1.0, 1.0)
        zp = solve_z(model.mode(5), kernel, grid)
        zm = solve_z(model.mode(-5), kernel, grid)
        w = solve_w(model.mode(5), kernel, grid)
        gap = w.z.values - (zp.z.values - zm.z.values) / 2j
        assert np.max(np.abs(gap)) < 1e-14

    def test_conjugation_symmetry(self, model, grid):
        kernel = ExponentialKernel(0.8, 0.5)
        zp = solve_z(model.mode(6), kernel, grid)
        zm = solve_z(model.mode(-6), kernel, grid)
        assert np.max(np.abs(zm.z.values - np.conj(zp.z.values))) < 1e-14

    def test_w_is_real_for_real_data(self, model, grid):
        w = solve_w(model.mode(3), ExponentialKernel(1.0, 1.0), grid)
        assert np.max(np.abs(w.z.values.imag)) < 1e-10

    def test_exponential_recursion_equals_stored_history(self, model):
        # the O(1) history recursion must reproduce the naive trapezoid sum
        g = TimeGrid.from_step(1.0, 1e-2)
        kernel = ExponentialKernel(0.7, 1.3)
        sampled = SampledKernel(kernel.sample(g), m0=kernel.at_zero())
        fast = solve_z(model.mode(5), kernel, g)
        slow = solve_z(model.mode(5), sampled, g)
        assert np.max(np.abs(fast.z.values - slow.z.values)) < 1e-13

    def test_polynomial_kernel_matches_the_full_history_sum(self, model):
        g = TimeGrid.from_step(1.0, 1e-2)
        poly = PolynomialKernel((1.0, -0.5))
        mode = model.mode(4)
        traj = solve_z(mode, poly, g)
        expected = modal_history_loop(np.array([mode.mu]), [1.0], [1j * mode.lam],
                                      poly.sample(g), g.dt)[0]
        assert np.max(np.abs(traj.z.values - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_only_sampled_kernels_take_the_history_solve(self, model, monkeypatch):
        class HistorySolve(Exception):
            pass

        def refuse(*args):
            raise HistorySolve

        monkeypatch.setattr(modal, "_causal_blocks", refuse)
        g = TimeGrid.from_step(1.0, 1e-2)
        poly = PolynomialKernel((1.0, -0.5))
        for kernel in (poly, ExponentialKernel(0.7, 1.3), ZeroKernel()):
            solve_z(model.mode(4), kernel, g)
        with pytest.raises(HistorySolve):
            solve_z(model.mode(4), SampledKernel(poly.sample(g), m0=poly.at_zero()), g)

    def test_sampled_kernel_w_family_on_a_real_state(self):
        # past the first leaf, the blocked history solve adds real FFT
        # convolutions into the real rows; q = -1.5 makes lambda_1 imaginary
        g = TimeGrid(2.0, 3 * _LEAF_STEPS + 5)
        poly = PolynomialKernel((1.0, -0.5, 0.2))
        model = build_spectral_model(OperatorSpec(PI, -1.5), 4)
        family = w_trace_family(model, SampledKernel(poly.sample(g), m0=1.0), g)
        assert family.scalars.dtype == np.float64
        modes = model.positive_modes
        W = modal_history_loop(np.array([m.mu for m in modes]), np.zeros(4),
                               np.array([m.lam for m in modes]), poly.sample(g), g.dt)
        expected = W[:, :, None] * np.stack([m.psi for m in modes])[:, None, :]
        got = family_values(family)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_w_rows_are_real_with_the_phase_beside_them(self):
        # w_n = (lambda_n / |lambda_n|) r_n: a factor i where mu_n < 0, 1 on the zero branch
        g = TimeGrid.from_step(1.0, 1e-2)
        model = build_spectral_model(OperatorSpec(PI, -4.0), 3)  # mu = -3, 0, 5
        solution = solve_w_many(model.positive_modes, ExponentialKernel(1.0, 1.0), g)
        assert solution.rows.dtype == np.float64
        np.testing.assert_array_equal(solution.factors, [1j, 1.0, 1.0])
        np.testing.assert_array_equal(solution.rows[1], g.nodes)
        for traj, mode in zip(solution, model.positive_modes):
            assert traj.z_prime.values[0] == (mode.lam if mode.branch == "J1" else 1.0)

    def test_polynomial_past_170_coefficients_takes_the_history_solve(self, model):
        # its realization would need 171!, which overflows a float
        g = TimeGrid.from_step(1.0, 1e-2)
        poly = PolynomialKernel((1.0,) + (0.0,) * 170 + (1.0,))
        assert poly.realization(g.dt) is None
        sampled = SampledKernel(poly.sample(g), m0=poly.at_zero())
        np.testing.assert_array_equal(solve_z(model.mode(4), poly, g).z.values,
                                      solve_z(model.mode(4), sampled, g).z.values)


class TestComparison:
    def test_memoryless_comparison(self, model, grid):
        cmp_sig = comparison_exponential(model.mode(3), ZeroKernel(), grid)
        np.testing.assert_allclose(cmp_sig.values, np.exp(3j * grid.nodes), atol=1e-12)

    def test_growth_rate_is_half_m0(self, model, grid):
        cmp_sig = comparison_exponential(model.mode(2), ExponentialKernel(0.8, 3.0), grid)
        np.testing.assert_allclose(
            cmp_sig.values, np.exp((0.4 + 2j) * grid.nodes), atol=1e-12
        )

    def test_sampled_kernel_without_m0_rejected(self, model, grid):
        kernel = SampledKernel(np.ones(grid.steps + 1))
        with pytest.raises(ValueError):
            comparison_exponential(model.mode(2), kernel, grid)

    def test_zero_memory_defect_vanishes(self, model, grid):
        assert comparison_defect(model.mode(2), ZeroKernel(), grid) < 1e-9

    def test_defect_bounded_over_modes(self):
        model = build_spectral_model(OperatorSpec(PI), 24)
        g = TimeGrid.from_step(2 * PI + 0.5, 2e-4)
        defects = comparison_defect_scan(model, ExponentialKernel(1.0, 1.0), g, range(8, 25), chunk=8)
        # no growth trend: later values stay within a factor two of n = 8
        assert defects[1:].max() <= 2.0 * defects[0]

    def test_scan_matches_single_mode(self, model):
        g = TimeGrid.from_step(1.0, 1e-3)
        kernel = ExponentialKernel(1.0, 1.0)
        scan = comparison_defect_scan(model, kernel, g, [4, 7])
        assert scan[0] == pytest.approx(comparison_defect(model.mode(4), kernel, g), rel=1e-12)
        assert scan[1] == pytest.approx(comparison_defect(model.mode(7), kernel, g), rel=1e-12)

    def test_scan_rejects_zero_branch(self, grid):
        model = build_spectral_model(OperatorSpec(PI, -1.0), 2)
        with pytest.raises(ValueError):
            comparison_defect_scan(model, ZeroKernel(), grid, [1, 2])


#: step counts at the edges of one, two and three leaves, and others
LEAF_EDGE_STEPS = st.one_of(
    st.sampled_from([k * _LEAF_STEPS + d for k in (1, 2, 3) for d in (-1, 0, 1)]),
    st.integers(2, 3 * _LEAF_STEPS),
)
BOUNDED = {"min_value": -1.0, "max_value": 1.0}


@st.composite
def generic_families(draw):
    """A batch of modal equations with random mu and data under a polynomial
    or sampled kernel."""
    grid = TimeGrid(draw(st.floats(0.5, 4.0)), draw(LEAF_EDGE_STEPS))
    nm = draw(st.integers(1, 5))
    mus = draw(hnp.arrays(float, nm, elements=st.floats(-4.0, 100.0)))
    z0, p0 = (draw(hnp.arrays(complex, nm, elements=st.complex_numbers(max_magnitude=2.0)))
              for _ in range(2))
    if draw(st.booleans()):
        kernel = PolynomialKernel(draw(st.lists(st.floats(**BOUNDED), min_size=1, max_size=3)))
    else:
        kernel = SampledKernel(draw(hnp.arrays(float, grid.steps + 1, elements=st.floats(**BOUNDED))))
    return mus, z0, p0, kernel, grid


class TestBlockedHistoryProperties:
    @given(generic_families())
    def test_matches_the_full_history_sum(self, drawn):
        mus, z0, p0, kernel, grid = drawn
        Z = _integrate_family(mus, z0, p0, kernel, grid)
        expected = modal_history_loop(mus, z0, p0, kernel.sample(grid), grid.dt)
        assert np.max(np.abs(Z - expected)) <= 1e-12 * np.max(np.abs(expected))


@st.composite
def exponential_families(draw):
    """A batch of modal equations with random mu and data under the zero
    kernel or an exponential one."""
    grid = TimeGrid(draw(st.floats(0.5, 4.0)), draw(LEAF_EDGE_STEPS))
    nm = draw(st.integers(1, 5))
    mus = draw(hnp.arrays(float, nm, elements=st.floats(-4.0, 4000.0)))
    z0, p0 = (draw(hnp.arrays(complex, nm, elements=st.complex_numbers(max_magnitude=2.0)))
              for _ in range(2))
    kernel = draw(st.one_of(
        st.just(ZeroKernel()),
        st.builds(ExponentialKernel, st.floats(-2.0, 3.0), st.floats(-3.0, 5.0)),
    ))
    return mus, z0, p0, kernel, grid


@st.composite
def polynomial_families(draw, degree):
    """A batch of modal equations with random mu and data under a polynomial
    kernel of the given degree with random coefficients."""
    grid = TimeGrid(draw(st.floats(0.5, 4.0)), draw(LEAF_EDGE_STEPS))
    nm = draw(st.integers(1, 5))
    mus = draw(hnp.arrays(float, nm, elements=st.floats(-4.0, 4000.0)))
    z0, p0 = (draw(hnp.arrays(complex, nm, elements=st.complex_numbers(max_magnitude=2.0)))
              for _ in range(2))
    # coefficients from a drawn seed: hypothesis's own float draws favour 0
    # and tiny values, which leave few distinct kernels in 40 examples
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernel = PolynomialKernel(rng.uniform(-3.0, 3.0, degree + 1))
    return mus, z0, p0, kernel, grid


class TestPropagatedStepProperties:
    @given(exponential_families())
    def test_matches_the_step_loop(self, drawn):
        mus, z0, p0, kernel, grid = drawn
        Z = _integrate_family(mus, z0, p0, kernel, grid)
        expected = modal_step_loop(mus, z0, p0, kernel, grid)
        assert np.max(np.abs(Z - expected)) <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("degree", range(4))
    @given(data=st.data())
    def test_polynomial_matches_the_full_history_sum(self, degree, data):
        mus, z0, p0, kernel, grid = data.draw(polynomial_families(degree))
        Z = _integrate_family(mus, z0, p0, kernel, grid)
        expected = modal_history_loop(mus, z0, p0, kernel.sample(grid), grid.dt)
        assert np.max(np.abs(Z - expected)) <= 1e-10 * np.max(np.abs(expected))


class TestBatchedLeafProduct:
    # every full leaf of Z written by one batched product, the tail by one more
    @pytest.mark.parametrize("steps", [2, _LEAF_STEPS - 1, _LEAF_STEPS, _LEAF_STEPS + 1,
                                       3 * _LEAF_STEPS + 5, 700])
    @pytest.mark.parametrize("kernel", [ZeroKernel(), ExponentialKernel(0.7, 1.3),
                                        PolynomialKernel((1.0, -0.5, 0.2))],
                             ids=["zero", "exponential", "polynomial"])
    @pytest.mark.parametrize("family", ["w", "z"])
    def test_matches_the_step_loop(self, family, kernel, steps):
        grid = TimeGrid(2.0, steps)
        mus = np.array([-2.0, 0.5, 3.0, 40.0, 900.0])
        lams = np.sqrt(np.abs(mus))
        if family == "w":  # real data (0, |lambda_n|)
            z0, p0 = np.zeros(5), lams
        else:
            z0, p0 = np.ones(5, dtype=complex), 1j * lams
        Z = _integrate_family(mus, z0, p0, kernel, grid)
        assert Z.dtype == (np.float64 if family == "w" else np.complex128)
        assert Z.flags.c_contiguous
        expected = modal_step_loop(mus, z0, p0, kernel, grid)
        gap = np.max(np.abs(Z - expected)) / np.max(np.abs(expected))
        assert gap <= 1e-13, gap


class TestOverflow:
    @pytest.mark.parametrize("kernel, mu, grid, step", [
        # A^k overflows while the one-leaf power table is built
        (ExponentialKernel(1.0, -500.0), 4.0, TimeGrid(4.0, 400), 142),
        # the table is finite; the third leaf overflows, reported at its first step
        (ZeroKernel(), -1e6, TimeGrid(1.0, 1000), 513),
        # a cubic memory: A^193 overflows while the power table is built
        (PolynomialKernel((0.0, 0.0, 0.0, -1e12)), 100.0, TimeGrid(10.0, 1000), 193),
    ])
    def test_overflow_is_a_numerical_failure(self, kernel, mu, grid, step):
        ones = np.ones(1, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError,
                               match=f"non-finite modal state at step {step} of {grid.steps} "):
                _integrate_family(np.array([mu]), ones, ones, kernel, grid)
