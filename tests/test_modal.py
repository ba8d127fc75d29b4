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
    comparison_defect_scan,
    solve_w_many,
    solve_z_many,
    w_trace_family,
)
from oracles import (
    family_values,
    modal_history_loop,
    modal_oracle_exponential_kernel,
    modal_step_loop,
)
from visco_inverse import modal
from visco_inverse.modal import LeafTables, _exponential, _integrate_family, _leaf_tables
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
        traj = solve_z_many(model.select((3,)), ZeroKernel(), grid)[0]
        exact = np.exp(3j * grid.nodes)
        assert np.max(np.abs(traj.z.values - exact)) < 5e-6
        assert np.max(np.abs(np.abs(traj.z.values) - 1.0)) < 1e-10

    def test_w_is_plain_sine(self, model, grid):
        traj = solve_w_many(model.select((2,)), ZeroKernel(), grid)[0]
        assert np.max(np.abs(traj.z.values - np.sin(2 * grid.nodes))) < 5e-6

    def test_derivative_is_recovered_from_the_solution(self, model, grid):
        traj = solve_w_many(model.select((2,)), ZeroKernel(), grid)[0]
        assert np.max(np.abs(traj.z_prime.values - 2 * np.cos(2 * grid.nodes))) < 1e-5

    def test_imaginary_branch_grows_like_cosh(self, grid):
        # mu_1 = -1 makes lambda = i; the two signed trajectories are the
        # real exponentials e^(-t) and e^(t)
        model = build_spectral_model(OperatorSpec(PI, -2.0), 1)
        zp = solve_z_many(model.select((1,)), ZeroKernel(), grid)[0]
        zm = solve_z_many(model.select((-1,)), ZeroKernel(), grid)[0]
        assert np.max(np.abs(zp.z.values - np.exp(-grid.nodes))) < 1e-6
        assert np.max(np.abs(zm.z.values - np.exp(grid.nodes))) < 1e-6


@pytest.fixture(scope="module")
def j0_model():
    return build_spectral_model(OperatorSpec(PI, -1.0), 2)


class TestZeroBranch:
    def test_z_closed_form(self, j0_model, grid):
        for n, sign in ((1, 1.0), (-1, -1.0)):
            traj = solve_z_many(j0_model.select((n,)), ExponentialKernel(1.0, 1.0), grid)[0]
            np.testing.assert_array_equal(traj.z.values, 1.0 + 1j * sign * grid.nodes)

    def test_w_closed_form(self, j0_model, grid):
        traj = solve_w_many(j0_model.select((1,)), ExponentialKernel(1.0, 1.0), grid)[0]
        np.testing.assert_array_equal(traj.z.values.real, grid.nodes)

    def test_defect_rejected(self, j0_model, grid):
        with pytest.raises(ValueError):
            comparison_defect_scan(j0_model.select([1]), ZeroKernel(), grid)


class TestAgainstAugmentedOracle:
    def test_memory_trajectory(self, model):
        g = TimeGrid.from_step(1.0, 1e-4)
        kernel = ExponentialKernel(0.5, 1.0)
        traj = solve_z_many(model.select((2,)), kernel, g)[0]
        exact = modal_oracle_exponential_kernel(2.0, 0.5, 1.0, g)
        assert np.max(np.abs(traj.z.values - exact)) < 1e-7

    def test_second_order_refinement(self, model):
        kernel = ExponentialKernel(0.5, 1.0)
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            g = TimeGrid.from_step(1.0, dt)
            traj = solve_z_many(model.select((2,)), kernel, g)[0]
            exact = modal_oracle_exponential_kernel(2.0, 0.5, 1.0, g)
            errs.append(np.max(np.abs(traj.z.values - exact)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)

    def test_initial_data(self, model, grid):
        kernel = ExponentialKernel(1.0, 1.0)
        z = solve_z_many(model.select((4,)), kernel, grid)[0]
        assert z.z.values[0] == 1.0
        assert z.z_prime.values[0] == 4j
        w = solve_w_many(model.select((4,)), kernel, grid)[0]
        assert w.z.values[0] == 0.0
        assert w.z_prime.values[0] == 4.0


class TestStructuralIdentities:
    def test_w_matches_z_difference_exactly(self, model, grid):
        kernel = ExponentialKernel(1.0, 1.0)
        zp = solve_z_many(model.select((5,)), kernel, grid)[0]
        zm = solve_z_many(model.select((-5,)), kernel, grid)[0]
        w = solve_w_many(model.select((5,)), kernel, grid)[0]
        gap = w.z.values - (zp.z.values - zm.z.values) / 2j
        assert np.max(np.abs(gap)) < 1e-14

    def test_conjugation_symmetry(self, model, grid):
        kernel = ExponentialKernel(0.8, 0.5)
        zp = solve_z_many(model.select((6,)), kernel, grid)[0]
        zm = solve_z_many(model.select((-6,)), kernel, grid)[0]
        assert np.max(np.abs(zm.z.values - np.conj(zp.z.values))) < 1e-14

    def test_zero_kernel_tables_carry_no_memory_state(self, model, grid):
        # the zero kernel's realization has d = 0, so its step map acts on
        # (z, z') alone
        tables = solve_w_many(model.positive_modes, ZeroKernel(), grid).trajectories
        assert tables.rows.shape[1] == tables.starts.shape[1] == tables.step.shape[1] == 2

    def test_w_is_real_for_real_data(self, model, grid):
        w = solve_w_many(model.select((3,)), ExponentialKernel(1.0, 1.0), grid)[0]
        assert np.max(np.abs(w.z.values.imag)) < 1e-10

    def test_exponential_recursion_equals_stored_history(self, model):
        # the O(1) history recursion must reproduce the naive trapezoid sum
        g = TimeGrid.from_step(1.0, 1e-2)
        kernel = ExponentialKernel(0.7, 1.3)
        sampled = SampledKernel(kernel.sample(g), m0=kernel.at_zero())
        fast = solve_z_many(model.select((5,)), kernel, g)[0]
        slow = solve_z_many(model.select((5,)), sampled, g)[0]
        assert np.max(np.abs(fast.z.values - slow.z.values)) < 1e-13

    def test_polynomial_kernel_matches_the_full_history_sum(self, model):
        g = TimeGrid.from_step(1.0, 1e-2)
        poly = PolynomialKernel((1.0, -0.5))
        mode = model.mode(4)
        traj = solve_z_many(model.select((4,)), poly, g)[0]
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
            solve_z_many(model.select((4,)), kernel, g)[0]
        sampled = SampledKernel(poly.sample(g), m0=poly.at_zero())
        with pytest.raises(HistorySolve):
            solve_z_many(model.select((4,)), sampled, g)[0]

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
        assert solution.scalars.dtype == np.float64
        np.testing.assert_array_equal(solution.factors, [1j, 1.0, 1.0])
        np.testing.assert_array_equal(solution.scalars[1], g.nodes)
        for traj, mode in zip(solution, model.positive_modes):
            assert traj.z_prime.values[0] == (mode.lam if mode.branch == "J1" else 1.0)

    def test_polynomial_past_170_coefficients_takes_the_history_solve(self, model):
        # its realization would need 171!, which overflows a float
        g = TimeGrid.from_step(1.0, 1e-2)
        poly = PolynomialKernel((1.0,) + (0.0,) * 170 + (1.0,))
        assert poly.realization(g.dt) is None
        sampled = SampledKernel(poly.sample(g), m0=poly.at_zero())
        np.testing.assert_array_equal(solve_z_many(model.select((4,)), poly, g)[0].z.values,
                                      solve_z_many(model.select((4,)), sampled, g)[0].z.values)


class TestComparison:
    def test_memoryless_comparison(self, model, grid):
        cmp_sig = _exponential(1j * model.mode(3).lam, ZeroKernel(), grid)
        np.testing.assert_allclose(cmp_sig, np.exp(3j * grid.nodes), atol=1e-12)

    def test_growth_rate_is_half_m0(self, model, grid):
        cmp_sig = _exponential(1j * model.mode(2).lam, ExponentialKernel(0.8, 3.0), grid)
        np.testing.assert_allclose(
            cmp_sig, np.exp((0.4 + 2j) * grid.nodes), atol=1e-12
        )

    def test_sampled_kernel_without_m0_rejected(self, model, grid):
        kernel = SampledKernel(np.ones(grid.steps + 1))
        with pytest.raises(ValueError):
            comparison_defect_scan(model.select([2]), kernel, grid)

    def test_zero_memory_defect_vanishes(self, model, grid):
        assert comparison_defect_scan(model.select([2]), ZeroKernel(), grid)[0] < 1e-9

    def test_defect_bounded_over_modes(self, monkeypatch):
        # chunks of 8 over 17 modes cover a chunk edge and a short last chunk
        monkeypatch.setattr(modal, "_DEFECT_CHUNK", 8)
        model = build_spectral_model(OperatorSpec(PI), 24)
        g = TimeGrid.from_step(2 * PI + 0.5, 2e-4)
        defects = comparison_defect_scan(model.select(range(8, 25)), ExponentialKernel(1.0, 1.0), g)
        # no growth trend: later values stay within a factor two of n = 8
        assert defects[1:].max() <= 2.0 * defects[0]

    def test_scan_matches_single_mode(self, model):
        g = TimeGrid.from_step(1.0, 1e-3)
        kernel = ExponentialKernel(1.0, 1.0)
        scan = comparison_defect_scan(model.select([4, 7]), kernel, g)
        assert scan[0] == pytest.approx(comparison_defect_scan(model.select([4]), kernel, g)[0],
                                        rel=1e-12)
        assert scan[1] == pytest.approx(comparison_defect_scan(model.select([7]), kernel, g)[0],
                                        rel=1e-12)

    def test_scan_rejects_zero_branch(self, grid):
        model = build_spectral_model(OperatorSpec(PI, -1.0), 2)
        with pytest.raises(ValueError):
            comparison_defect_scan(model.select([1, 2]), ZeroKernel(), grid)


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


class TestHistoryAccuracyGate:
    # the blocked history solve's FFT error grows with the largest kernel
    # sample; random polynomial samples of high degree on T = 7 span many
    # decades, and the discrete Volterra equation checked at the leaf ends
    # turns such a solve into a numerical failure
    grid = TimeGrid(7.0, 3000)
    mus = np.arange(1.0, 17.0) ** 2

    def solve(self, kernel):
        return _integrate_family(self.mus, np.zeros(16), np.sqrt(self.mus), kernel, self.grid)

    def polynomial(self, degree):
        coefficients = np.random.default_rng(degree).uniform(-1.0, 1.0, degree + 1)
        return SampledKernel(PolynomialKernel(coefficients).sample(self.grid), m0=1.0)

    def test_passes_at_degree_12(self):
        kernel = self.polynomial(12)
        Z = self.solve(kernel)
        expected = modal_history_loop(self.mus, np.zeros(16), np.sqrt(self.mus),
                                      kernel.values, self.grid.dt)
        assert np.max(np.abs(Z - expected)) <= 1e-7 * np.max(np.abs(expected))

    def test_raises_at_degree_24(self):
        with pytest.raises(NumericsError, match="misses the discrete Volterra equation at step"):
            self.solve(self.polynomial(24))

    def test_fires_on_a_perturbed_history_block(self, monkeypatch):
        # a mutant blocked solve: the history that the FFT carries into leaf
        # 2 is off by 1e-4 of itself, which moves Z by 1e-5 of max |Z|; the
        # residual at step 512 reads z_513.  The same solve unperturbed passes
        kernel = SampledKernel(np.exp(-self.grid.nodes), m0=1.0)
        self.solve(kernel)
        blocks = modal._causal_blocks

        def perturbed(x, c):
            for k, (lo, hi) in enumerate(blocks(x, c)):
                if k == 2:
                    x[..., lo:hi] *= 1.0 + 1e-4
                yield lo, hi

        monkeypatch.setattr(modal, "_causal_blocks", perturbed)
        with pytest.raises(NumericsError, match=f"at step {2 * _LEAF_STEPS} of 3000"):
            self.solve(kernel)


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


def test_overflow_of_the_leaf_values_alone_is_a_numerical_failure():
    # mu dt^2 = -(ln 10)^2: the step grows 14x, so A^256 and the start of
    # the second leaf stay finite (near 1e295) while that leaf's values pass
    # 1e308 within it; the tables then fail at that leaf's first step, and
    # the blocked history solve of a zero sampled kernel at the step whose
    # state overflows
    grid = TimeGrid(1.0, 456)
    mus = np.array([-(math.log(10.0) / grid.dt) ** 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve, kernel, step in [(_leaf_tables, ZeroKernel(), 257),
                                    (_integrate_family, SampledKernel(np.zeros(457), m0=0.0), 266)]:
            message = f"non-finite modal state at step {step} of {grid.steps} "
            with pytest.raises(NumericsError, match=message):
                solve(mus, np.zeros(1), np.ones(1), kernel, grid)


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", [ZeroKernel(), ExponentialKernel(0.8, 1.5),
                                    PolynomialKernel((1.0, -0.5, 0.1)), "sampled"],
                         ids=["zero", "exponential", "polynomial", "sampled"])
@pytest.mark.parametrize("solve", [solve_w_many, solve_z_many], ids=["w", "z"])
def test_a_selected_mode_solves_as_its_member_of_the_full_solve(kernel, solve):
    # q = -(2 pi / L)^2 puts mode 1 below zero (imaginary lambda) and mode 2
    # on the zero branch; 600 steps span full leaves and a tail
    length = 1.3
    spec = OperatorSpec(length, -((2 * PI / length) ** 2), ("left", "right"))
    model = build_spectral_model(spec, 6)
    grid = TimeGrid(2.5, 600)
    if isinstance(kernel, str):
        kernel = SampledKernel(PolynomialKernel((1.0, -0.5, 0.1)).sample(grid), m0=1.0)
    full = solve(model.modes, kernel, grid)
    for i, n in enumerate(model.modes.index.tolist()):
        one = solve(model.select((n,)), kernel, grid)
        assert [t.mode.index for t in one] == [n]
        if isinstance(one.trajectories, LeafTables):
            for name in ("rows", "starts", "step"):
                _same_bits(getattr(one.trajectories, name),
                           getattr(full.trajectories, name)[i:i + 1])
            assert one.trajectories.linear.tolist() == [0] * (i in full.trajectories.linear)
        _same_bits(one.factors, full.factors[i:i + 1])
        _same_bits(one.p0, full.p0[i:i + 1])
        if isinstance(kernel, SampledKernel) and solve is solve_z_many:
            # the history's complex-by-real products round by batch size
            row = full.scalars[i]
            gap = np.max(np.abs(one.scalars[0] - row)) / np.max(np.abs(row))
            assert gap <= 1e-14, gap
        else:
            _same_bits(one.scalars, full.scalars[i:i + 1])
