import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from visco_inverse import (
    AffineModulation,
    ConstantModulation,
    ExponentialKernel,
    ExponentialModulation,
    ModalFamily,
    NumericsError,
    OperatorSpec,
    PolynomialKernel,
    SampledKernel,
    SampledModulation,
    ScalarSignal,
    TimeGrid,
    TraceSignal,
    ZeroKernel,
    build_reconstruction,
    build_spectral_model,
    convolve,
    convolve_adjoint,
    differentiate,
    gram,
    h1_norm,
    inner_products,
    l2_inner,
    l2_norm,
    resolvent_kernel,
)
from oracles import (
    family_values,
    naive_inner_products,
    naive_trapezoid_convolution,
    resolvent_kernel_loop,
)
import visco_inverse.inverse
from visco_inverse.inverse import _resolvent
from visco_inverse.modal import StoredRows
from visco_inverse.volterra import _FFT_ELEMENTS, _LEAF_STEPS, _REALIZED_LEAF_STEPS, _fast_len

# (steps, m) of the chunking cases; m None is a ScalarSignal.  5000 x 7 runs
# several rows per FFT chunk with a partial last chunk, 32768 has an FFT
# longer than _FFT_ELEMENTS, one row per chunk
CHUNK_CASES = pytest.mark.parametrize("steps, m", [
    (100, None), (5000, 7), (32768, None),
], ids=["scalar", "rows-beyond-chunk", "one-row-chunks"])


def random_signal(rng, grid, m):
    shape = (grid.steps + 1,) if m is None else (grid.steps + 1, m)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ScalarSignal(grid, values) if m is None else TraceSignal(grid, values)


def test_chunk_cases_cover_the_row_chunking():
    # the FFT length of a convolution and of an adjoint on J steps
    rows = [_FFT_ELEMENTS // _fast_len(2 * J + 1) for J in (5000, 32768)]
    assert 1 <= rows[0] < 7 and 7 % rows[0] != 0
    assert rows[1] == 0


def test_fast_len_is_the_next_5_smooth_length():
    def is_5_smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    smooth = [m for m in range(1, 40001) if is_5_smooth(m)]
    expected = np.array(smooth)[np.searchsorted(smooth, np.arange(1, 20001))]
    assert [_fast_len(n) for n in range(1, 20001)] == expected.tolist()
    # 2J + 1 for the workloads' J = 8192, 16384, 32768; the blocked solve's
    # convolutions run on powers of two
    assert [_fast_len(2 * J + 1) for J in (8192, 16384, 32768)] == [16875, 32805, 65610]
    assert all(_fast_len(2 ** k) == 2 ** k for k in range(31))


def grid_1s(dt=1e-3):
    return TimeGrid.from_step(1.0, dt)


def ones(grid):
    return ScalarSignal(grid, np.ones(grid.steps + 1))


class TestTimeGrid:
    def test_weights_sum_to_horizon(self):
        for T, J in ((1.0, 10), (2 * math.pi, 777), (0.3, 2)):
            g = TimeGrid(T, J)
            assert g.weights.sum() == pytest.approx(T, rel=1e-12)
            assert g.nodes[0] == 0.0
            assert g.nodes[-1] == pytest.approx(T)

    def test_from_step_rounds_to_nearest(self):
        g = TimeGrid.from_step(2 * math.pi, 1e-3)
        assert g.steps == 6283
        assert g.dt == pytest.approx(1e-3, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1)
        with pytest.raises(ValueError):
            TimeGrid.from_step(1.0, -2.0)


class TestConvolve:
    def test_unit_kernel_integrates_exactly(self):
        g = grid_1s()
        out = convolve(ones(g), ones(g))
        np.testing.assert_allclose(out.values.real, g.nodes, atol=1e-13)
        assert out.values[0] == 0.0

    def test_zero_kernel(self):
        g = grid_1s()
        z = ScalarSignal(g, np.zeros(g.steps + 1))
        out = convolve(z, ones(g))
        assert np.all(out.values == 0.0)

    def test_exponential_kernel_closed_form(self):
        g = grid_1s()
        rho = ScalarSignal.from_function(g, lambda t: np.exp(-t))
        out = convolve(rho, ones(g))
        assert out.values[-1].real == pytest.approx(1 - math.exp(-1), abs=1e-6)

    @CHUNK_CASES
    def test_matches_naive_quadrature(self, steps, m):
        g = TimeGrid(1.0, steps)
        rng = np.random.default_rng(42)
        rho = ScalarSignal(g, rng.standard_normal(g.steps + 1))
        v = random_signal(rng, g, m)
        naive = naive_trapezoid_convolution(rho.values, v.values, g.dt)
        np.testing.assert_allclose(convolve(rho, v).values, naive, atol=1e-12)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            convolve(ones(grid_1s()), ones(TimeGrid.from_step(1.0, 2e-3)))


class TestAdjoint:
    def test_zero_kernel(self):
        g = grid_1s()
        z = ScalarSignal(g, np.zeros(g.steps + 1))
        out = convolve_adjoint(z, ones(g))
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("steps, m, draws", [
        (1000, 2, 20), (100, None, 5), (5000, 7, 2), (32768, None, 2),
    ], ids=["pairs", "scalar", "rows-beyond-chunk", "one-row-chunks"])
    def test_adjoint_identity_exact(self, steps, m, draws):
        # V u from the FFT-free oracle, so the adjoint is checked on its own
        g = TimeGrid(1.0, steps)
        rng = np.random.default_rng(9)
        for _ in range(draws):
            rho = random_signal(rng, g, None)
            u, v = random_signal(rng, g, m), random_signal(rng, g, m)
            vu = type(u)(g, naive_trapezoid_convolution(rho.values, u.values, g.dt))
            gap = l2_inner(vu, v) - l2_inner(u, convolve_adjoint(rho, v))
            assert abs(gap) < 1e-13

    def test_unit_kernel_anticausal_integral(self):
        # V* of the constant 1 approximates T - t: exact at interior nodes,
        # with the O(dt) boundary artifact of the discrete adjoint at the ends
        g = grid_1s()
        out = convolve_adjoint(ones(g), ones(g))
        interior = out.values[1:-1].real
        np.testing.assert_allclose(interior, 1.0 - g.nodes[1:-1], atol=1e-12)
        assert abs(out.values[0].real - 1.0) <= g.dt
        assert abs(out.values[-1].real) <= g.dt


class TestResolvent:
    def test_constant_sigma_gives_zero(self):
        g = grid_1s()
        K = resolvent_kernel(ones(g), ScalarSignal(g, np.zeros(g.steps + 1)))
        assert np.all(K.values == 0.0)

    def test_exponential_sigma_gives_constant(self):
        a = 0.7
        g = TimeGrid.from_step(1.0, 1e-4)
        sigma = ScalarSignal.from_function(g, lambda t: np.exp(a * t))
        sigma_p = ScalarSignal.from_function(g, lambda t: a * np.exp(a * t))
        K = resolvent_kernel(sigma, sigma_p)
        np.testing.assert_allclose(K.values.real, -a, atol=1e-8)
        np.testing.assert_allclose(K.values.imag, 0.0, atol=1e-12)

    def test_operator_identity_on_random_signals(self):
        g = grid_1s()
        sigma = ScalarSignal(g, 1.0 + g.nodes)
        sigma_p = ones(g)
        K = resolvent_kernel(sigma, sigma_p)
        rng = np.random.default_rng(1)
        for _ in range(5):
            test = ScalarSignal(g, rng.uniform(-1.0, 1.0, g.steps + 1))
            inner = ScalarSignal(g, 1.0 * test.values + convolve(sigma_p, test).values)
            back = inner.values + convolve(K, inner).values
            assert np.max(np.abs(back - test.values)) < 1e-6

    def test_identity_residual_refines_second_order(self):
        errs = []
        for dt in (4e-3, 2e-3):
            g = TimeGrid.from_step(1.0, dt)
            sigma = ScalarSignal(g, 1.0 + g.nodes)
            sigma_p = ones(g)
            K = resolvent_kernel(sigma, sigma_p)
            test = ScalarSignal.from_function(g, lambda t: np.cos(3 * t))
            inner = ScalarSignal(g, test.values + convolve(sigma_p, test).values)
            back = inner.values + convolve(K, inner).values
            errs.append(np.max(np.abs(back - test.values)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_vanishing_sigma0_rejected(self):
        g = grid_1s()
        sigma = ScalarSignal(g, g.nodes)
        with pytest.raises(ValueError):
            resolvent_kernel(sigma, ones(g))

    def test_singular_trapezoid_system_is_a_numerical_failure(self):
        # sigma(0) + dt/2 sigma'(0) = -1 + 0.25 * 4 = 0
        g = TimeGrid(1.0, 2)
        with pytest.raises(NumericsError, match="singular resolvent"):
            resolvent_kernel(ScalarSignal(g, -1.0 + 4.0 * g.nodes),
                             ScalarSignal(g, np.full(g.steps + 1, 4.0)))


#: step counts at the edges of one, two and three leaves, and others
LEAF_EDGE_STEPS = st.one_of(
    st.sampled_from([k * _LEAF_STEPS + d for k in (1, 2, 3) for d in (-1, 0, 1)]),
    st.integers(3, 3 * _LEAF_STEPS),
)


@st.composite
def modulations(draw, form):
    """Constant, affine, exponential or sampled sigma with sigma(0) away from
    zero, on a grid."""
    grid = TimeGrid(draw(st.floats(0.1, 4.0)), draw(LEAF_EDGE_STEPS))
    a = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    if form == "constant":
        return ConstantModulation(a), grid
    if form == "affine":
        return AffineModulation(a, draw(st.floats(-2.0, 2.0)) * abs(a)), grid
    if form == "exponential":
        return ExponentialModulation(draw(st.floats(-2.0, 2.0))), grid
    # a smooth profile plus node-to-node noise of size dt, so sigma' stays O(1)
    noise = draw(hnp.arrays(float, grid.steps + 1, elements=st.floats(-1.0, 1.0)))
    values = a * (1.0 + 0.5 * np.sin(draw(st.floats(0.0, 3.0)) * grid.nodes)) + grid.dt * noise
    return SampledModulation(values), grid


class TestBlockedResolventProperties:
    # one test per form, so each form gets its own draws of the leaf edges
    @pytest.mark.parametrize("form", ["affine", "exponential", "sampled"])
    @given(data=st.data())
    def test_matches_forward_substitution(self, form, data):
        mod, grid = data.draw(modulations(form))
        sigma, sigma_p = mod.sample(grid), mod.sample_derivative(grid)
        expected = resolvent_kernel_loop(sigma.values, sigma_p.values, grid.dt)
        got = resolvent_kernel(sigma, sigma_p).values
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestClosedFormResolvent:
    """``inverse._resolvent``: K_n = K_0 rho^n when sigma' = c e^(at)."""

    @pytest.mark.parametrize("form", ["constant", "affine", "exponential"])
    @given(data=st.data())
    def test_matches_forward_substitution(self, form, data):
        mod, grid = data.draw(modulations(form))
        sigma, sigma_p = mod.sample(grid), mod.sample_derivative(grid)
        expected = resolvent_kernel_loop(sigma.values, sigma_p.values, grid.dt)
        got = _resolvent(mod, grid, sigma_p).values
        # the two routes differ only in how sigma' is rounded
        unit = 16 * np.finfo(float).eps * (
            1.0 + grid.horizon * np.max(np.abs(sigma_p.values)) / abs(mod.at_zero()))
        assert np.max(np.abs(got - expected)) <= unit * np.max(np.abs(expected))

    def test_no_drift_over_many_steps(self):
        # rho**n would carry the rounding of rho 2^18 times: 3e-11 here
        mod, grid = ExponentialModulation(0.7), TimeGrid(4.0, 1 << 18)
        sigma_p = mod.sample_derivative(grid)
        expected = resolvent_kernel(mod.sample(grid), sigma_p).values
        got = _resolvent(mod, grid, sigma_p).values
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("mod, blocked", [
        (AffineModulation(1.0, 0.5), False),
        (ExponentialModulation(-1.5), False),
        (ConstantModulation(-2.0), False),
        (AffineModulation(1.0, 16.0), True),  # h = dt c / (2 sigma(0)) = 2
        (ExponentialModulation(-12.0), True),  # h = -1.5
        (SampledModulation(np.linspace(1.0, 2.0, 5)), True),
    ], ids=["affine", "exponential", "constant", "h-above-one", "h-below-minus-one",
            "sampled"])
    def test_blocked_solve_only_without_a_usable_realization(self, mod, blocked, monkeypatch):
        grid = TimeGrid(1.0, 4)
        calls = []
        monkeypatch.setattr(visco_inverse.inverse, "resolvent_kernel",
                            lambda *args: calls.append(args) or resolvent_kernel(*args))
        sigma_p = mod.sample_derivative(grid)
        got = _resolvent(mod, grid, sigma_p).values
        expected = resolvent_kernel(mod.sample(grid), sigma_p).values
        assert len(calls) == blocked
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)

    def test_singular_trapezoid_system_fails_reconstruction(self):
        # sigma(0) + dt/2 sigma'(0) = -1 + 0.0625 * 16 = 0, so h = -1
        grid = TimeGrid(8.0, 64)
        model = build_spectral_model(OperatorSpec(math.pi), 2)
        with pytest.raises(NumericsError, match="singular resolvent"):
            build_reconstruction(model, ZeroKernel(), AffineModulation(-1.0, 16.0), grid)


class TestConvolutionBranches:
    def test_real_operands_take_real_transforms(self):
        grid = TimeGrid(3.0, 700)
        rng = np.random.default_rng(5)
        rho = ScalarSignal(grid, rng.standard_normal(701))
        v = TraceSignal(grid, rng.standard_normal((701, 3)))
        got = convolve(rho, v).values
        assert got.dtype == np.float64
        expected = naive_trapezoid_convolution(rho.values, v.values, grid.dt)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_zero_kernel_runs_no_fft(self, monkeypatch):
        calls = []
        monkeypatch.setattr(visco_inverse.volterra, "_convolve_rows",
                            lambda *args: calls.append(args))
        grid = TimeGrid(1.0, 300)
        values = np.random.default_rng(6).standard_normal((301, 2)) * (1.0 + 1j)
        got = convolve(ScalarSignal(grid, np.zeros(301)), TraceSignal(grid, values)).values
        assert calls == []
        assert got.dtype == np.complex128
        # the exact +0.0 that the FFT route gives on finite data
        assert not got.any()
        assert not (np.signbit(got.real).any() or np.signbit(got.imag).any())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_zero_kernel_keeps_non_finite_data_non_finite(self, bad):
        grid = TimeGrid(1.0, 300)
        values = np.ones((301, 1))
        values[7, 0] = bad
        got = convolve(ScalarSignal(grid, np.zeros(301)), TraceSignal(grid, values)).values
        assert not np.isfinite(got).all()


#: step counts at the edges of 1, 2, 3 and 9 leaves of the realized
#: convolution, and of 4, 8 and 12, which are the edges of 1, 2 and 3
#: blocked-solve leaves as well
REALIZED_EDGE_STEPS = st.sampled_from(
    [k * _REALIZED_LEAF_STEPS + d for k in (1, 2, 3, 4, 8, 9, 12) for d in (-1, 0, 1)])


@st.composite
def realized_kernels(draw, form):
    """A kernel with a realization, on a grid of J below, at or past one leaf:
    sigma or sigma' of a constant, affine or exponential modulation (rates of
    both signs), or the closed-form resolvent K = K_0 rho^n with rho near 0
    (h near 1), near 1 (h near 0) or above 1 (h < 0)."""
    steps = draw(st.one_of(st.integers(2, 3 * _LEAF_STEPS), REALIZED_EDGE_STEPS))
    grid = TimeGrid(draw(st.floats(0.1, 4.0)), steps)
    a = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    if form == "resolvent":
        h = draw(st.one_of(st.floats(0.9, 0.999), st.floats(-1e-3, 1e-3), st.floats(-0.02, -1e-3)))
        mod = AffineModulation(a, 2.0 * h * a / grid.dt)
        return _resolvent(mod, grid, mod.sample_derivative(grid))
    if form.startswith("constant"):
        mod = ConstantModulation(a)
    elif form.startswith("affine"):
        mod = AffineModulation(a, draw(st.floats(-2.0, 2.0)))
    else:
        mod = ExponentialModulation(draw(st.floats(-3.0, 3.0)))
    return mod.sample_derivative(grid) if form.endswith("prime") else mod.sample(grid)


@st.composite
def trace_data(draw, grid, shape=None):
    """A scalar or (J+1, m) signal, real or complex, m = 1..6, or of ``shape``."""
    if shape is None:
        m = draw(st.sampled_from([None, 1, 2, 3, 6]))
        shape = (grid.steps + 1,) if m is None else (grid.steps + 1, m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(shape)
    if draw(st.booleans()):
        values = values + 1j * rng.standard_normal(shape)
    return ScalarSignal(grid, values) if len(shape) == 1 else TraceSignal(grid, values)


REALIZED_FORMS = ["constant", "affine", "affine-prime", "exponential", "exponential-prime",
                  "resolvent"]


class TestRealizedConvolution:
    """``convolve`` by the leaf-blocked recurrence of a kernel's realization."""

    @pytest.mark.parametrize("form", REALIZED_FORMS)
    @given(data=st.data())
    def test_matches_the_trapezoid_sum(self, form, data):
        rho = data.draw(realized_kernels(form))
        v = data.draw(trace_data(rho.grid))
        E, b, c = rho.realization
        for n in {0, 1, rho.grid.steps}:
            kn = c @ np.linalg.matrix_power(E, n) @ b
            assert abs(kn - rho.values[n]) <= 1e-10 * max(abs(kn), np.max(np.abs(rho.values)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(visco_inverse.volterra, "_convolve_rows", None)  # no FFT
            got = convolve(rho, v).values
        expected = naive_trapezoid_convolution(rho.values, v.values, rho.grid.dt)
        assert got.dtype == (np.complex128 if np.iscomplexobj(v.values) else np.float64)
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_rows_past_one_chunk(self):
        # 5056 padded nodes a row in two working arrays, so 6 rows a chunk:
        # chunks of 6, 6, 6, 6 and 3
        grid = TimeGrid(2.0, 5000)
        assert -(-5001 // _REALIZED_LEAF_STEPS) * _REALIZED_LEAF_STEPS == 5056
        assert _FFT_ELEMENTS // (2 * 5056) == 6
        rho = AffineModulation(1.0, -0.7).sample(grid)
        v = random_signal(np.random.default_rng(8), grid, 27)
        got = convolve(rho, v).values
        expected = naive_trapezoid_convolution(rho.values, v.values, grid.dt)
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("form", ["affine", "resolvent"])
    @given(data=st.data())
    def test_adjoint_identity(self, form, data):
        # criterion 09's <V u, v> = <u, V* v> with V by the recurrence, V* by FFT
        rho = data.draw(realized_kernels(form))
        u = data.draw(trace_data(rho.grid))
        v = data.draw(trace_data(rho.grid, u.values.shape))
        gap = l2_inner(convolve(rho, u), v) - l2_inner(u, convolve_adjoint(rho, v))
        scale = rho.grid.horizon * np.max(np.abs(rho.values)) * l2_norm(u) * l2_norm(v)
        assert abs(gap) <= 1e-12 * scale

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_data_stay_non_finite(self, bad):
        grid = TimeGrid(1.0, 600)
        values = np.ones((601, 1))
        values[300, 0] = bad
        got = convolve(AffineModulation(1.0, 0.5).sample(grid), TraceSignal(grid, values)).values
        assert not np.isfinite(got[300:]).any()

    @pytest.mark.parametrize("E, b", [
        (np.eye(3), np.ones(3)),
        ([[1.0, 0.1], [0.0, 0.9]], [0.0, 1.0]),
    ], ids=["d=3", "not-jordan"])
    def test_unsupported_realization_rejected(self, E, b):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError, match="realization"):
            ScalarSignal(grid, np.ones(5), (E, b, np.ones(len(b))))


def test_convolutions_commute():
    g = TimeGrid.from_step(1.0, 1e-3)
    m = ScalarSignal.from_function(g, lambda t: np.exp(-t))
    s = ScalarSignal(g, 1.0 + 0.5 * g.nodes)
    v = ScalarSignal.from_function(g, lambda t: np.sin(2 * t))
    ab = convolve(m, convolve(s, v))
    ba = convolve(s, convolve(m, v))
    assert np.max(np.abs(ab.values - ba.values)) < 1e-7


class TestInnerProductsAndNorms:
    def test_l2_inner_examples(self):
        g = TimeGrid.from_step(2 * math.pi, 1e-3)
        one = TraceSignal(g, np.ones((g.steps + 1, 1)))
        assert l2_inner(one, one).real == pytest.approx(2 * math.pi, rel=1e-12)
        s1 = TraceSignal(g, np.sin(g.nodes)[:, None])
        s2 = TraceSignal(g, np.sin(2 * g.nodes)[:, None])
        assert abs(l2_inner(s1, s2)) < 1e-10
        assert l2_inner(s1, s1).real == pytest.approx(math.pi, rel=1e-10)

    def test_l2_inner_is_conjugate_in_second_argument(self):
        g = grid_1s(1e-2)
        rng = np.random.default_rng(3)
        u = ScalarSignal(g, rng.standard_normal(g.steps + 1) + 1j * rng.standard_normal(g.steps + 1))
        v = ScalarSignal(g, rng.standard_normal(g.steps + 1) + 1j * rng.standard_normal(g.steps + 1))
        assert l2_inner(u, v) == pytest.approx(np.conj(l2_inner(v, u)))

    def test_h1_norm_examples(self):
        g = grid_1s()
        const = TraceSignal(g, np.ones((g.steps + 1, 1)))
        assert h1_norm(const) == pytest.approx(1.0, rel=1e-12)
        ramp = TraceSignal(g, g.nodes[:, None])
        assert h1_norm(ramp) == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-6)
        g2 = TimeGrid.from_step(2 * math.pi, 1e-3)
        sine = TraceSignal(g2, np.sin(g2.nodes)[:, None])
        assert h1_norm(sine) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-6)

    def test_coarse_grid_rejected(self):
        g = TimeGrid(1.0, 2)
        with pytest.raises(ValueError):
            differentiate(ScalarSignal(g, np.ones(3)))

    @pytest.mark.parametrize("m", [None, 3, "sampled sigma"])
    def test_differentiate_is_numpy_gradient_bit_for_bit(self, m):
        if m == "sampled sigma":
            # its derivative takes the same stencils: real values of both
            # signs over ten decades, on grids down to the 3 steps they need
            for steps in (3, 4, 5, 97, 1001):
                g = TimeGrid(1.3, steps)
                rng = np.random.default_rng(steps)
                values = rng.choice([-1.0, 1.0], steps + 1) * 10.0 ** rng.uniform(-5, 5, steps + 1)
                got = SampledModulation(values).sample_derivative(g).values
                assert np.array_equal(got, np.gradient(values, g.dt, edge_order=2))
            return
        g = TimeGrid(1.3, 97)
        u = random_signal(np.random.default_rng(12), g, m)
        expected = np.gradient(u.values, g.dt, axis=0, edge_order=2)
        assert np.array_equal(differentiate(u).values, expected)

    def test_shape_mismatch_rejected(self):
        g = grid_1s(1e-2)
        u = TraceSignal(g, np.ones((g.steps + 1, 1)))
        v = TraceSignal(g, np.ones((g.steps + 1, 2)))
        with pytest.raises(ValueError):
            l2_inner(u, v)

    def test_l2_norm(self):
        g = grid_1s(1e-2)
        u = ScalarSignal(g, 2.0 * np.ones(g.steps + 1))
        assert l2_norm(u) == pytest.approx(2.0, rel=1e-12)


@st.composite
def signal_stacks(draw):
    """Two stacks of complex signals on one grid; per-signal shape (J+1,) or (J+1, m)."""
    grid = TimeGrid(draw(st.floats(0.1, 10.0)), draw(st.integers(2, 12)))
    tail = draw(st.sampled_from([(), (1,), (2,)]))
    elements = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    a, b = (
        draw(hnp.arrays(np.complex128, (draw(st.integers(1, 4)), grid.steps + 1) + tail,
                        elements=elements))
        for _ in range(2)
    )
    return a, b, grid


def stack_scale(a, b, grid):
    """Size of the largest term an inner product of the stacks can sum."""
    width = a[0].size // (grid.steps + 1)
    return grid.horizon * width * max(np.abs(a).max(), 1.0) * max(np.abs(b).max(), 1.0)


class TestInnerProductsProperties:
    @given(signal_stacks())
    def test_matches_the_pairwise_trapezoid_rule(self, stacks):
        a, b, grid = stacks
        got = inner_products(a, b, grid)
        assert got.shape == (len(a), len(b))
        np.testing.assert_allclose(got, naive_inner_products(a, b, grid.dt),
                                   rtol=1e-12, atol=1e-13 * stack_scale(a, b, grid))

    @given(signal_stacks())
    def test_conjugate_symmetric(self, stacks):
        a, b, grid = stacks
        np.testing.assert_allclose(inner_products(b, a, grid),
                                   inner_products(a, b, grid).conj().T,
                                   rtol=1e-12, atol=1e-13 * stack_scale(a, b, grid))

    @given(signal_stacks())
    def test_gram_is_hermitian_positive_semidefinite(self, stacks):
        # a factored family: trajectories from the stack, trace vectors from
        # its first node (or 1 for scalar signals)
        a, _, grid = stacks
        scalars, psis = (a, np.ones((len(a), 1))) if a.ndim == 2 else (a[:, :, 0], a[:, 0, :])
        family = ModalFamily(grid, tuple(range(len(a))), StoredRows(grid, scalars), psis)
        G = gram(family).entries
        np.testing.assert_array_equal(G, G.conj().T)
        members = family_values(family)
        scale = stack_scale(members, members, grid)
        assert np.linalg.eigvalsh(G).min() >= -1e-12 * scale
        raw = inner_products(members, members, grid)
        np.testing.assert_allclose(G, raw.T, rtol=1e-12, atol=1e-13 * scale)

    def test_mismatched_stacks_rejected(self):
        g = grid_1s(0.1)
        with pytest.raises(ValueError):
            inner_products(np.ones((2, g.steps + 1, 1)), np.ones((2, g.steps + 1, 2)), g)
        with pytest.raises(ValueError):
            inner_products(np.ones((2, g.steps)), np.ones((2, g.steps)), g)


class TestKernelsAndModulations:
    def test_exponential_kernel(self):
        g = grid_1s(1e-2)
        k = ExponentialKernel(0.5, 2.0)
        np.testing.assert_allclose(k.sample(g), 0.5 * np.exp(-2.0 * g.nodes))
        assert k.at_zero() == 0.5

    def test_polynomial_kernel(self):
        g = grid_1s(1e-2)
        k = PolynomialKernel((1.0, -2.0, 3.0))
        np.testing.assert_allclose(k.sample(g), 1.0 - 2.0 * g.nodes + 3.0 * g.nodes**2)
        assert k.at_zero() == 1.0
        with pytest.raises(ValueError):
            PolynomialKernel(())

    def test_sampled_kernel_needs_declared_m0(self):
        g = grid_1s(1e-2)
        k = SampledKernel(np.ones(g.steps + 1))
        with pytest.raises(ValueError):
            k.at_zero()
        assert SampledKernel(np.ones(g.steps + 1), m0=1.0).at_zero() == 1.0
        with pytest.raises(ValueError):
            SampledKernel(np.ones(5)).sample(g)

    def test_modulation_samples_and_derivatives(self):
        g = grid_1s(1e-2)
        cases = [
            (ConstantModulation(2.0), 2.0 + 0 * g.nodes, 0 * g.nodes, 2.0),
            (ExponentialModulation(0.3), np.exp(0.3 * g.nodes), 0.3 * np.exp(0.3 * g.nodes), 1.0),
            (AffineModulation(1.0, 0.5), 1.0 + 0.5 * g.nodes, 0.5 + 0 * g.nodes, 1.0),
        ]
        for mod, vals, dvals, s0 in cases:
            np.testing.assert_allclose(mod.sample(g).values.real, vals, atol=1e-14)
            np.testing.assert_allclose(mod.sample_derivative(g).values.real, dvals, atol=1e-14)
            assert mod.at_zero() == s0

    def test_sampled_modulation_derivative(self):
        g = grid_1s(1e-2)
        mod = SampledModulation(np.exp(0.4 * g.nodes))
        d = mod.sample_derivative(g).values.real
        np.testing.assert_allclose(d, 0.4 * np.exp(0.4 * g.nodes), atol=1e-4)
        assert mod.at_zero() == 1.0
        with pytest.raises(ValueError):
            mod.sample(grid_1s(1e-3))
