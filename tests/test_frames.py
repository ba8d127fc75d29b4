import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import eigh

from visco_inverse import (
    AffineModulation,
    ConstantModulation,
    ExponentialKernel,
    ExponentialModulation,
    FrameBounds,
    GramMatrix,
    ModalFamily,
    ModalTrajectory,
    OperatorSpec,
    PolynomialKernel,
    SampledKernel,
    SampledModulation,
    SingularGramError,
    TimeGrid,
    TraceSignal,
    ZeroKernel,
    biorthogonality_defect,
    build_spectral_model,
    coefficients_via_duals,
    dual_coefficients,
    inner_products,
    frame_bounds,
    gram,
    leading_frame_bounds,
    stability_gram,
    w_trace_family,
    z_trace_family,
)
from families import synthetic_family
from oracles import (
    bessel_defect,
    bessel_ratio,
    complex_w_route,
    dual_values,
    family_values,
    full_gram_route,
    naive_inner_products,
)
from visco_inverse.frames import SINGULAR_GRAM_RTOL, _member_gram, reflection_classes
from visco_inverse.modal import LeafTables, StoredRows, _leaf_tables
from visco_inverse.volterra import _LEAF_STEPS, _trapezoid_gram

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
    return synthetic_family(grid, StoredRows(grid, vals), np.ones((count, 1)))


class TestGram:
    def test_orthogonal_sines_give_twice_identity(self, grid):
        G = gram(sine_family(grid, 6))
        np.testing.assert_allclose(G.entries, 2.0 * np.eye(6), atol=1e-10)

    def test_family_holds_a_storage_not_bare_rows(self, grid):
        with pytest.raises(TypeError, match="LeafTables or StoredRows"):
            synthetic_family(grid, np.zeros((1, grid.steps + 1)), np.ones((1, 1)))

    def test_zero_member(self, grid):
        fam = synthetic_family(grid, StoredRows(grid, np.zeros((1, grid.steps + 1))),
                               np.ones((1, 1)))
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
        fam = w_trace_family(model, ZeroKernel(), grid)
        G = _member_gram(fam.trajectories.h1_gram(ConstantModulation(1.0).sample(grid))[0], fam)
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


@pytest.mark.parametrize("build", ["z", "w"])
def test_a_family_is_one_record_of_its_modes(build):
    # q = -1.5 gives mode 1 an imaginary lambda, so a w factor of i
    model = build_spectral_model(OperatorSpec(PI, -1.5, ("left", "right")), 4)
    grid = TimeGrid(2 * PI + 0.5, 600)
    kernel = ExponentialKernel(1.0, 1.0)
    family = {"z": lambda: z_trace_family(model, kernel, grid),
              "w": lambda: w_trace_family(model, kernel, grid)}[build]()
    assert family.labels == tuple(family.modes.index)
    expected = family.factors[:, None] * family.modes.psi
    assert family.psis.tobytes() == expected.tobytes() and not family.psis.flags.writeable
    # a solve, read as one ModalTrajectory view per member
    members = list(family)
    assert all(isinstance(m, ModalTrajectory) for m in members)
    assert [m.mode.index for m in members] == list(family.labels)


MEMORY = {
    "zero": lambda draw, grid: ZeroKernel(),
    "exponential": lambda draw, grid: ExponentialKernel(draw(st.floats(0.0, 2.0)),
                                                        draw(st.floats(0.0, 2.0))),
    "polynomial": lambda draw, grid: PolynomialKernel(draw(st.tuples(
        st.floats(0.0, 1.5), st.floats(-0.5, 0.5), st.floats(-0.1, 0.1)))),
    "sampled": lambda draw, grid: SampledKernel(draw(hnp.arrays(
        float, grid.steps + 1, elements=st.floats(-1.0, 1.0)))),
}


@st.composite
def real_route_cases(draw, memory, form):
    """A model with a random shift q, a kernel and sigma of the given kinds,
    and a grid at or past one leaf of the blocked history solve.

    With L = pi, mu_n = n^2 + q: q below -1 makes lambda_1 imaginary, and
    q = -1 or -4 puts mode 1 or 2 on the zero branch.
    """
    grid = TimeGrid(draw(st.floats(0.5, 7.0)), draw(st.sampled_from(
        [_LEAF_STEPS - 1, _LEAF_STEPS, _LEAF_STEPS + 1, 2 * _LEAF_STEPS + 1, 700])))
    shift = draw(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-1.0, -4.0])))
    endpoints = draw(st.sampled_from([("left",), ("left", "right")]))
    model = build_spectral_model(OperatorSpec(PI, shift, observed_endpoints=endpoints),
                                 draw(st.integers(1, 4)))
    s0 = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    rate = draw(st.floats(-1.0, 1.0))
    modulation = {
        "constant": lambda: ConstantModulation(s0),
        "affine": lambda: AffineModulation(s0, s0 * rate),
        "exponential": lambda: ExponentialModulation(rate),
        "sampled": lambda: SampledModulation(s0 * (1.0 + rate * np.sin(grid.nodes))),
    }[form]()
    seed = draw(st.integers(0, 2**32 - 1))
    return model, MEMORY[memory](draw, grid), modulation, grid, seed


def assert_close(got, expected):
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


class TestRealRouteProperties:
    # the real rows with folded factors against the complex route (tests/oracles.py)
    @pytest.mark.parametrize("memory", sorted(MEMORY))
    @pytest.mark.parametrize("form", ["constant", "affine", "exponential", "sampled"])
    @settings(max_examples=3)
    @given(data=st.data())
    def test_matches_the_complex_route(self, memory, form, data):
        model, kernel, modulation, grid, seed = data.draw(real_route_cases(memory, form))
        W, Y, psis = complex_w_route(model, kernel, modulation, grid)
        members = W[:, :, None] * psis[:, None, :]
        fam = w_trace_family(model, kernel, grid)
        assert fam.scalars.dtype == np.float64
        assert_close(family_values(fam), members)
        assert_close(gram(fam).entries, naive_inner_products(members, members, grid.dt).T)

        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(len(fam)) + 1j * rng.standard_normal(len(fam))
        assert_close(fam.synthesize(coeffs).values, np.tensordot(coeffs, members, axes=1))
        signal = TraceSignal(grid, rng.standard_normal((grid.steps + 1, model.dim))
                             + 1j * rng.standard_normal((grid.steps + 1, model.dim)))
        assert_close(fam.inner_with(signal),
                     naive_inner_products(signal.values[None], members, grid.dt)[0])

        # the y family's L2 Gram, the L2 half of the w trajectories' h1_gram
        l2 = fam.trajectories.h1_gram(modulation.sample(grid))[0]
        assert l2.dtype == np.float64
        ys = Y[:, :, None] * psis[:, None, :]
        assert_close(_member_gram(l2, fam).entries, naive_inner_products(ys, ys, grid.dt).T)


@pytest.mark.parametrize("shift", [0.0, -3.5], ids=["q=0", "q=-3.5"])
def test_real_gram_matches_the_complex_lapack_route(shift):
    # Psi of the w and y families is real once the factors are folded in (q
    # = -3.5 makes lambda_1 imaginary), so their Gram, its eigenvalues and
    # the dual solve stay real; the same Gram cast to complex is the old route
    grid = TimeGrid(2 * PI + 0.5, 2048)
    model = build_spectral_model(OperatorSpec(PI, shift, ("left", "right")), 16)
    kernel = ExponentialKernel(1.0, 1.0)
    w = w_trace_family(model, kernel, grid)
    l2 = w.trajectories.h1_gram(AffineModulation(1.0, 0.5).sample(grid))[0]
    for g in (gram(w), _member_gram(l2, w)):
        assert g.entries.dtype == np.float64
        complex_g = GramMatrix(g.entries.astype(complex), g.horizon, g.labels)
        assert_close(np.array([g.bounds.lower, g.bounds.upper]),
                     np.array([complex_g.bounds.lower, complex_g.bounds.upper]))
        assert_close(dual_coefficients(g), dual_coefficients(complex_g))
    assert gram(z_trace_family(model, kernel, grid)).entries.dtype == np.complex128


@pytest.mark.parametrize("steps", [3, _LEAF_STEPS + 1, 2049])
def test_real_gram_in_place_matches_the_weighted_route(steps):
    # dt Z Z^T less the halved end products against the weighted conjugate
    # of inner_products; rows rising to their largest value at t_J lose the
    # most to the end correction, and the w rows of a growing mode do too
    grid = TimeGrid(2 * PI + 0.5, steps)
    t = grid.nodes
    rng = np.random.default_rng(steps)
    model = build_spectral_model(OperatorSpec(PI, -3.5), 3)
    rows = np.concatenate([
        np.exp(np.outer([0.5, 2.0, 6.0], t)),
        [t ** 4 + 1e-3 * rng.standard_normal(len(t))],
        rng.standard_normal((3, len(t))),
        w_trace_family(model, ExponentialKernel(1.0, 1.0), grid).scalars,
    ])
    fam = synthetic_family(grid, StoredRows(grid, rows), np.ones((len(rows), 1)))
    assert rows.argmax(axis=1)[:4].tolist() == [steps] * 4
    raw = inner_products(rows, rows, grid)
    expected = 0.5 * (raw + raw.T)
    assert np.linalg.norm(gram(fam).entries - expected) <= 1e-14 * np.linalg.norm(expected)

    # complex rows take the same route with the conjugate: the rows above
    # turned by phases of several frequencies, and the z rows of the growing mode
    rows = np.concatenate([rows * np.exp(1j * np.outer(np.arange(len(rows)), t)),
                           z_trace_family(model, ExponentialKernel(1.0, 1.0), grid).scalars])
    expected = inner_products(rows, rows, grid)
    got = _trapezoid_gram(rows, grid.dt)
    assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)


@pytest.mark.parametrize("kernel, h1_bound", [(ExponentialKernel(1.0, 1.0), 1.75), ("sampled", 2.75)],
                         ids=["step-map", "history-solve"])
def test_real_family_allocates_no_complex_copy(kernel, h1_bound):
    # peaks in units of one real R (N x (J+1) floats); a complex copy of R
    # or of the y rows would add 2 R to each
    N, J = 64, 4096
    grid = TimeGrid(2 * PI + 0.5, J)
    model = build_spectral_model(OperatorSpec(PI, 0.0, ("left", "right")), N)
    if kernel == "sampled":
        kernel = SampledKernel(ExponentialKernel(1.0, 1.0).sample(grid), m0=1.0)
    modulation = AffineModulation(1.0, 0.5)
    R = N * (J + 1) * 8
    stability_gram(model, kernel, modulation, grid)  # the grid's cached nodes and weights
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in [("w_trace_family", lambda: w_trace_family(model, kernel, grid)),
                           ("gram", lambda: gram(family)),
                           ("stability_gram", lambda: stability_gram(model, kernel, modulation, grid))]:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = call()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / R
            if name == "w_trace_family":
                family = out
            del out
    finally:
        tracemalloc.stop()
    # measured: 0.40 (1.52 with the history solve), 0.06, and 1.52 (2.37).
    # The step map's H1 Gram reads leaf tables: the w table (D = 3
    # components of L = 256 columns) is 0.19 R, the y table and that of its
    # central differences (D + d = 5 components each) 0.31 R each, and the
    # orthonormal rows of one of them and the QR's working copy 0.64 R a
    # while; an N x (J+1) array would add 1 R to the 0.81 R of the tables.
    # The history solve convolves the w rows into the y rows, takes the
    # Grams in place, and the slopes need one buffer
    assert peaks["w_trace_family"] <= 1.75, peaks
    assert peaks["gram"] <= 0.25, peaks
    assert peaks["stability_gram"] <= h1_bound, peaks


@pytest.mark.parametrize("kernel, bound", [
    (ZeroKernel(), 0.75), (ExponentialKernel(1.0, 1.0), 0.75),
    (PolynomialKernel((1.0, -0.3, 0.05)), 0.75), ("sampled", 2.25),
], ids=["zero", "exponential", "polynomial", "sampled"])
def test_z_family_gram_reads_leaf_tables(kernel, bound):
    # the peak of the z family's solve and Gram in units of R, the bytes of
    # its complex (2N, J+1) rows.  Measured: 0.27, 0.34 and 0.50 R from the
    # tables (D = 2, 3 and 5 components of L = 256, the QR's copies a
    # while), 2.03 R for the stored rows of a sampled kernel and the
    # conjugate copy that the in-place Gram multiplies them by
    N, J = 64, 4096
    grid = TimeGrid(2 * PI + 0.5, J)
    model = build_spectral_model(OperatorSpec(PI, 0.0, ("left", "right")), N)
    if kernel == "sampled":
        kernel = SampledKernel(ExponentialKernel(1.0, 1.0).sample(grid), m0=1.0)
    R = 2 * N * (J + 1) * 16
    grid.nodes, grid.weights  # cached on the grid before the count starts
    tracemalloc.start()
    try:
        gram(z_trace_family(model, kernel, grid))
        peak = tracemalloc.get_traced_memory()[1] / R
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


@st.composite
def leaf_table_cases(draw):
    """Real modal rows under a zero, exponential or polynomial kernel drawn
    by its parameters, with mu of both signs (negative: growing rows; 0: a
    closed-form row), on grids at and beside the leaf edges, and trace
    vectors of one or two columns."""
    grid = TimeGrid(draw(st.floats(0.5, 4.0)),
                    draw(st.sampled_from([255, 256, 257, 4099, 20000])))
    nm = draw(st.integers(1, 6))
    mus = draw(hnp.arrays(float, nm, elements=st.one_of(st.floats(-4.0, 400.0), st.just(0.0))))
    z0 = draw(hnp.arrays(float, nm, elements=st.floats(-1.0, 1.0)))
    p0 = draw(hnp.arrays(float, nm, elements=st.floats(0.5, 20.0)))
    variant = draw(st.sampled_from(["zero", "exponential", "polynomial"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if variant == "zero":
        kernel = ZeroKernel()
    elif variant == "exponential":
        kernel = ExponentialKernel(draw(st.floats(-2.0, 3.0)), draw(st.floats(-1.0, 5.0)))
    else:
        # coefficients from the drawn seed: hypothesis's own float draws
        # favour 0 and tiny values
        degree = draw(st.integers(0, 3))
        kernel = PolynomialKernel(np.random.default_rng(seed).uniform(-3.0, 3.0, degree + 1))
    return _leaf_tables(mus, z0, p0, kernel, grid), draw(st.integers(1, 2)), seed


class TestLeafTableRoute:
    # the Gram, synthesis and inner products read from the step map's leaf
    # tables against the same sums over the stored rows Z
    @given(leaf_table_cases())
    def test_matches_the_stored_rows(self, drawn):
        tables, dim, seed = drawn
        rng = np.random.default_rng(seed)
        grid = tables.grid
        Z = tables.dense()
        nm = len(Z)
        psis = rng.standard_normal((nm, dim))
        leaf, stored = (synthetic_family(grid, rows, psis)
                        for rows in (tables, StoredRows(grid, Z)))

        scale = np.sqrt(np.diag(_trapezoid_gram(Z, grid.dt)))
        gap = np.abs(tables.gram() - _trapezoid_gram(Z, grid.dt)) / np.outer(scale, scale)
        assert gap.max() <= 1e-13, gap.max()
        assert np.abs(gram(leaf).entries - gram(stored).entries).max() <= 1e-13 * np.abs(
            gram(stored).entries).max()

        def close(got, expected, scale):
            assert np.linalg.norm(got - expected) <= 1e-13 * scale

        def norm(x):  # the trapezoid norm of a stack of signals, (J+1, ...)
            return np.sqrt(np.sum(grid.weights @ np.abs(x.reshape(len(x), -1)) ** 2))

        coeffs = rng.standard_normal(nm) + 1j * rng.standard_normal(nm)
        for c in (coeffs, coeffs.real):
            expected = stored.synthesize(c).values
            close(leaf.synthesize(c).values, expected, np.linalg.norm(expected))
        # inner products relative to the product of the operands' norms, the
        # scale of any summation's roundoff: a random signal against few
        # rows can cancel to 1e-4 of it
        signal = TraceSignal(grid, rng.standard_normal((grid.steps + 1, dim))
                             + 1j * rng.standard_normal((grid.steps + 1, dim)))
        members = norm(Z.T[:, :, None] * psis[None])
        close(leaf.inner_with(signal), stored.inner_with(signal), members * norm(signal.values))
        # the <c, w_m> of the identity residual, c real
        c = rng.standard_normal((grid.steps + 1, 1))
        close(leaf.trajectories.dot(c).T, stored.trajectories.dot(c).T, norm(Z.T) * norm(c))


@st.composite
def z_table_cases(draw):
    """A model and a kernel with a realization, drawn by their parameters,
    on grids at and beside the leaf edges.  The potential q gives lambda_n
    real and imaginary (a decaying z member beside a growing one), and
    q = -k^2 a zero-branch mode (L = pi)."""
    N = draw(st.integers(1, 6))
    q = draw(st.one_of(st.floats(-6.0, 20.0), st.integers(1, N).map(lambda k: -float(k * k))))
    endpoints = draw(st.sampled_from([("left",), ("left", "right")]))
    model = build_spectral_model(OperatorSpec(PI, q, endpoints), N)
    grid = TimeGrid(2 * PI + draw(st.floats(0.0, 1.0)),
                    draw(st.sampled_from([255, 256, 257, 511, 513, 4099])))
    variant = draw(st.sampled_from(["zero", "exponential", "polynomial"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if variant == "zero":
        kernel = ZeroKernel()
    elif variant == "exponential":
        kernel = ExponentialKernel(draw(st.floats(-2.0, 3.0)), draw(st.floats(-1.0, 5.0)))
    else:
        # coefficients from the drawn seed: hypothesis's own float draws
        # favour 0 and tiny values
        kernel = PolynomialKernel(np.random.default_rng(seed).uniform(
            -3.0, 3.0, draw(st.integers(1, 4))))
    return model, kernel, grid, seed


class TestZTableRoute:
    # the z family's leaf tables, complex starts over real rows, against the
    # complex route through inner_products on the same dense rows
    @given(z_table_cases())
    def test_matches_the_dense_rows(self, drawn):
        model, kernel, grid, seed = drawn
        family = z_trace_family(model, kernel, grid)
        tables = family.trajectories
        assert isinstance(tables, LeafTables) and np.iscomplexobj(tables.starts)
        rng = np.random.default_rng(seed)
        # z(0) = 1 for every member; a phase per mode makes node 0 complex too
        phase = np.exp(2j * PI * rng.uniform(size=len(family)))
        turned = LeafTables(tables.grid, tables.rows, tables.starts * phase[:, None, None],
                            tables.linear, tables.step)

        def norm(x):  # the trapezoid norm of a stack of signals, (J+1, ...)
            return np.sqrt(np.sum(grid.weights @ np.abs(x.reshape(len(x), -1)) ** 2))

        for rows in (tables, turned):
            leaf = ModalFamily(family.modes, grid, rows, family.factors, family.p0)
            Z = rows.dense()
            stored = ModalFamily(family.modes, grid, StoredRows(grid, Z), family.factors,
                                 family.p0)
            # c_m, row m's cancellation factor: the size of its table terms
            # over the size of its values, which a decaying member makes large
            terms = (np.abs(rows.starts).max(axis=2) * np.abs(rows.rows).max(axis=2)).sum(axis=1)
            c = terms / np.abs(Z).max(axis=1)
            expected = gram(stored).entries
            diag = np.diag(expected).real
            gap = np.abs(gram(leaf).entries - expected) / (
                np.sqrt(np.outer(diag, diag)) * np.maximum.outer(c, c))
            assert gap.max() <= 1e-13, gap.max()

            coeffs = rng.standard_normal(len(leaf)) + 1j * rng.standard_normal(len(leaf))
            for a in (coeffs, coeffs.real):  # real ones against complex rows too
                expected = stored.synthesize(a).values
                assert norm(leaf.synthesize(a).values - expected) <= 1e-13 * norm(expected)
            signal = TraceSignal(grid, rng.standard_normal((grid.steps + 1, model.dim))
                                 + 1j * rng.standard_normal((grid.steps + 1, model.dim)))
            expected = stored.inner_with(signal)
            gap = np.linalg.norm(leaf.inner_with(signal) - expected) / np.linalg.norm(expected)
            assert gap <= 1e-13, gap


class TestReflectionClasses:
    # the classes are read from the trace vectors alone, compared exactly
    def test_mirrored_trace_vectors_give_two_classes(self):
        psis = np.array([[0.0, 0.0], [1.5, -1.5], [2j, 2j], [-1.0, 1.0]])
        plus, minus = reflection_classes(psis)  # a zero psi goes in the first
        assert plus.tolist() == [0, 2] and minus.tolist() == [1, 3]

    @pytest.mark.parametrize("psis", [
        [[1.0, 1.0], [2.0, 2.0]],  # every row (1, 1): the other group is empty
        [[1.0, -1.0], [-3.0, 3.0]],
        [[1.0, 1.0], [1.0, -1.0], [1.0, 2.0]],  # one member in neither group
        [[1.0, 1.0], [1.0, -1.0 + 1e-16]],  # mirrored only to roundoff
        [[1.0], [-1.0], [2.0]],  # one end observed
    ], ids=["all-plus", "all-minus", "one-outside", "inexact", "one-end"])
    def test_any_other_family_is_one_class(self, psis):
        classes = reflection_classes(np.array(psis))
        assert len(classes) == 1 and classes[0].tolist() == list(range(len(psis)))

    def test_signed_z_labels_group_by_their_absolute_value(self):
        model = build_spectral_model(OperatorSpec(PI, -2.0, ("left", "right")), 5)
        family = z_trace_family(model, ZeroKernel(), TimeGrid(2 * PI, 512))
        labels = np.array(family.labels)
        classes = gram(family).classes
        assert [sorted(np.abs(labels[c]).tolist()) for c in classes] == [
            [2, 2, 4, 4], [1, 1, 3, 3, 5, 5]]

    @pytest.mark.parametrize("build", [z_trace_family, w_trace_family])
    def test_one_end_is_one_class_with_the_full_inverse(self, build, grid):
        # one class takes the whole matrix, LAPACK's solve of G X = I bit for bit
        model = build_spectral_model(OperatorSpec(PI, 0.0, ("right",)), 6)
        g = gram(build(model, ExponentialKernel(1.0, 1.0), grid))
        assert len(g.classes) == 1 and g.classes[0].tolist() == list(range(g.size))
        assert np.array_equal(dual_coefficients(g),
                              np.linalg.solve(g.entries, np.eye(g.size)).conj())
        assert len(GramMatrix(g.entries, g.horizon, g.labels).classes) == 1


@st.composite
def both_end_cases(draw):
    """A model observed at both ends over L, q and N: q = s (pi / L)^2 gives
    lambda_n real and imaginary, and s = -k^2 a zero-branch mode at n = k; a
    kernel with a realization (leaf tables) or sampled (stored rows); the z
    or the w family, on grids at and beside the leaf edges."""
    length = draw(st.floats(1.5, 4.0))
    N = draw(st.integers(1, 8))
    s = draw(st.one_of(st.floats(-3.0, 20.0), st.integers(1, min(N, 2)).map(lambda k: -k * k)))
    spec = OperatorSpec(length, s * (PI / length) ** 2, ("left", "right"))
    model = build_spectral_model(spec, N)
    grid = TimeGrid(2 * length + draw(st.floats(0.2, 1.0)),
                    draw(st.sampled_from([255, 256, 257, 1023, 2049])))
    variant = draw(st.sampled_from(["zero", "exponential", "polynomial", "sampled"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if variant == "zero":
        kernel = ZeroKernel()
    elif variant == "polynomial":
        # coefficients from the drawn seed: hypothesis's own float draws
        # favour 0 and tiny values
        kernel = PolynomialKernel(np.random.default_rng(seed).uniform(
            -3.0, 3.0, draw(st.integers(1, 4))))
    else:
        kernel = ExponentialKernel(draw(st.floats(-2.0, 3.0)), draw(st.floats(-1.0, 5.0)))
        if variant == "sampled":
            kernel = SampledKernel(kernel.sample(grid), m0=kernel.at_zero())
    build = draw(st.sampled_from([z_trace_family, w_trace_family]))
    return build(model, kernel, grid)


class TestReflectionClassProperties:
    # the Gram, bounds and duals found class by class against the whole
    # family at once (``oracles.full_gram_route``)
    @given(both_end_cases())
    def test_matches_the_full_gram(self, family):
        G, lower, upper, C = full_gram_route(family)
        g = gram(family)
        labels = np.abs(family.labels)
        assert len(g.classes) == 1 + (labels.max() > 1)  # |n| odd and even
        between = np.ones(G.shape, bool)
        for c in g.classes:
            assert len(set(labels[c] % 2)) == 1
            between[np.ix_(c, c)] = False
        scale = np.abs(G).max()
        # what the classes leave out is roundoff in the full Gram, and zero here
        assert np.abs(G[between]).max(initial=0.0) <= 1e-14 * scale
        assert not g.entries[between].any()
        assert np.abs(g.entries - G).max() <= 1e-13 * scale
        # Weyl: each eigenvalue moves by at most the norm of the difference
        bounds = g.bounds
        assert abs(bounds.lower - lower) <= 1e-12 * upper, (bounds.lower, lower, upper)
        assert abs(bounds.upper - upper) <= 1e-12 * upper, (bounds.upper, upper)
        steps = range(1, g.size + 1)
        for k, sub in zip(steps, leading_frame_bounds(g, steps)):
            eigs = np.linalg.eigvalsh(G[:k, :k])
            assert abs(sub.lower - eigs[0]) <= 1e-12 * upper
            assert abs(sub.upper - eigs[-1]) <= 1e-12 * upper
        # the duals, away from the singular-Gram threshold where the two
        # routes may decide differently.  The defect is held to the existing
        # 1e-8, or, where the family's conditioning takes the full route's own
        # defect near or past that (3e-5 was drawn), to 10 times the full
        # route's: 400 random draws measured at most 4.2 times
        if lower > 2 * SINGULAR_GRAM_RTOL * upper:
            coefficients = dual_coefficients(g)
            assert not coefficients[between].any()
            for entries in (g.entries, G):
                full = GramMatrix(entries, g.horizon, g.labels)
                defect = biorthogonality_defect(full, coefficients)
                assert defect <= max(1e-8, 10 * biorthogonality_defect(full, C)), defect
        elif lower < 0.5 * SINGULAR_GRAM_RTOL * upper:
            with pytest.raises(SingularGramError):
                dual_coefficients(g)


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
    perturbed = synthetic_family(grid, StoredRows(grid, base.scalars + bump), base.psis)
    diff = synthetic_family(grid, StoredRows(grid, bump), base.psis)
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
