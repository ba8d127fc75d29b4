"""Uniform time grids and the discrete Volterra convolution calculus.

Everything downstream lives on a shared uniform grid over ``[0, T]`` with
composite-trapezoid quadrature.  The causal convolution

    (V_rho v)(t) = integral of rho(t - s) v(s) over s in [0, t]

is discretized as a lower-triangular matrix acting on sampled signals, and
its adjoint is defined as the adjoint of that matrix with respect to the
trapezoid inner product, *not* as a separate quadrature of the transposed
integral.  This makes ``<V u, v> == <u, V* v>`` hold to machine precision,
which the biorthogonality and reconstruction machinery relies on.  The price
is an O(dt) artifact in the adjoint at the two boundary nodes; it washes out
under grid refinement and never couples to signals vanishing at t = 0.

Two routes apply the same matrix.  A kernel with a finite realization
rho_n = c^T E^n b (d <= 2: sigma and sigma' of a constant, affine or
exponential modulation, and the closed-form resolvent K) convolves by a
leaf-blocked recurrence: one lower-triangular Toeplitz product per leaf of
``_REALIZED_LEAF_STEPS`` nodes and a d-state carried across leaves (Lubich
& Schaedle, SIAM J. Sci. Comput. 24, 2002, for the state-space idea), with
no FFT.
Every other kernel (sampled sigma, sampled memory kernels, the blocked
history and resolvent solves) and every adjoint take the FFT.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from numpy.fft import fft, ifft, irfft, rfft
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericsError
from .record import Record, Value


class TimeGrid(Value):
    """Uniform grid t_j = j * dt, j = 0..steps, with steps * dt = horizon."""

    _fields = ("horizon", "steps")

    def __init__(self, horizon: float, steps: int):
        if not horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if steps < 2:
            raise ValueError(f"need at least 2 steps, got {steps}")
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "steps", steps)

    @classmethod
    def from_step(cls, horizon: float, dt: float) -> "TimeGrid":
        """Grid with the node count nearest to horizon / dt (at least 2)."""
        if not horizon > 0.0 or not dt > 0.0:
            raise ValueError("horizon and dt must be positive")
        return cls(horizon, max(2, int(round(horizon / dt))))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    @cached_property
    def weights(self) -> np.ndarray:
        """Composite-trapezoid weights; they sum to the horizon."""
        w = np.full(self.steps + 1, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return w


def _as_samples(values) -> np.ndarray:
    """float64 samples, or complex128 for complex ``values``."""
    return np.asarray(values, dtype=np.complex128 if np.iscomplexobj(values) else np.float64)


class ScalarSignal(Record):
    """A real- or complex-valued time series sampled on a ``TimeGrid``.

    A kernel may carry a ``realization`` (E, b, c): values[n] = c^T E^n b
    with d = len(b) = 1, or d = 2 and E a unit Jordan block (an affine
    kernel).  ``convolve`` then runs the leaf-blocked recurrence.
    """

    _fields = ("grid", "values", "realization")

    def __init__(self, grid: TimeGrid, values: np.ndarray, realization: tuple | None = None):
        arr = _as_samples(values)
        if arr.shape != (grid.steps + 1,):
            raise ValueError(f"ScalarSignal: expected shape {(grid.steps + 1,)}, "
                             f"got {arr.shape}")
        arr.setflags(write=False)
        if realization is not None:
            E, b, c = (np.atleast_1d(np.asarray(a, dtype=float)) for a in realization)
            E = E.reshape(len(b), len(b))
            if len(b) > 2 or len(b) == 2 and not (E[0, 0] == E[1, 1] == 1.0 and E[1, 0] == 0.0):
                raise ValueError("a realization needs d = 1, or d = 2 with a unit Jordan block")
            realization = (E, b, c)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "realization", realization)


class TraceSignal(Record):
    """A time series of vectors in the observation space G = R^m, real or
    complex like ``ScalarSignal``."""

    _fields = ("grid", "values")

    def __init__(self, grid: TimeGrid, values: np.ndarray):
        arr = _as_samples(values)
        if arr.ndim != 2 or arr.shape[0] != grid.steps + 1 or arr.shape[1] < 1:
            raise ValueError(
                f"TraceSignal: expected shape ({grid.steps + 1}, m>=1), got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[1]


Signal = ScalarSignal | TraceSignal


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("signals live on different time grids")


#: steps per leaf of the blocked causal-history solve and of the modal
#: step-map tables, a power of two; shorter leaves spend more in per-call FFT
#: overhead than they save, longer ones let the modal step's in-leaf history
#: sum dominate (timed at J = 16k..32k, N = 16)
_LEAF_STEPS = 256
#: nodes per leaf of the realized convolution ``_realized_rows``, which
#: costs O(J L) per row and a table of L^2.  convolve, ms, best of 9 on
#: 2 vCPUs (numpy 2.4), at L = 16 / 32 / 64 / 128 / 256:
#:   exponential sigma, J = 32768, 16 rows   13.2  12.1  12.4  12.3  16.5
#:   exponential sigma, J = 32768, 1 row     0.60  0.53  0.52  0.62  0.81
#:   affine sigma, J = 16384, 16 rows         6.6   5.2   5.5   6.1   7.3
#:   affine sigma, J = 8192, 256 rows        51.2  51.3  50.6  51.6  65.9
#: 32 and 64 are level within the spread of repeated runs; 64 has the
#: fewer leaves for the doubling scan
_REALIZED_LEAF_STEPS = 64
#: complex elements per row-chunk FFT of ``_convolve_rows``, and values in
#: the two working arrays of a row chunk of ``_realized_rows``, bounding
#: their temporaries
_FFT_ELEMENTS = 1 << 16


@lru_cache
def _fast_len(n: int) -> int:
    """Smallest 5-smooth length 2^a 3^b 5^c >= n, a fast size for ``numpy.fft``."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve_rows(x: np.ndarray, k: np.ndarray, lo: int, out: np.ndarray):
    """Add entries lo..lo+count-1 of the linear convolution of each row of
    ``x`` (rows, n) with the 1-D kernel ``k`` to ``out`` (rows, count).

    A circular convolution of length nfft >= max(lo + count, n + len(k) - 1 - lo)
    leaves them unwrapped; rows go through it in chunks of at most
    ``_FFT_ELEMENTS`` values, so many signals cost no more memory than one.
    Real ``x`` and ``k`` take real transforms, half the work, and add a real
    convolution, so a real ``out`` stays real.
    """
    count = out.shape[1]
    nfft = _fast_len(max(lo + count, x.shape[1] + len(k) - 1 - lo))
    forward, inverse = (fft, ifft) if np.iscomplexobj(x) or np.iscomplexobj(k) else (rfft, irfft)
    spectrum = forward(k, nfft)
    step = max(1, _FFT_ELEMENTS // nfft)
    for r in range(0, x.shape[0], step):
        part = forward(x[r:r + step], nfft, axis=1)
        part *= spectrum
        part = inverse(part, nfft, axis=1)
        out[r:r + step] += part[:, lo:lo + count]


def _toeplitz(v: np.ndarray, n: int) -> np.ndarray:
    """The n x n lower-triangular Toeplitz matrix T[i, m] = v[i - m], m <= i,
    a read-only view of the windows of (0, .., 0, v[:n]) reversed."""
    return sliding_window_view(np.concatenate([np.zeros(n - 1), v[:n]]), n)[:, ::-1]


def _gains(r: np.ndarray, d: int, n: np.ndarray) -> np.ndarray:
    """(len(n), d, d) gains that carry the state of a realized kernel n nodes on.

    The state at node s is h_s = sum over l < s of r[s - l] x_l, and for
    d = 2 also the sum of those x_l.  The gains are read from the samples,
    with r[n + i] = r[n] r[i] / r[0] (d = 1) or r[n] + r[i] - r[0] (d = 2).
    """
    if d == 1:
        return (r[n] / r[0])[:, None, None]
    gains = np.zeros((len(n), 2, 2), r.dtype)
    gains[:, 0, 0] = gains[:, 1, 1] = 1.0
    gains[:, 0, 1] = r[n] - r[0]
    return gains


def _carry(state: np.ndarray, r: np.ndarray, L: int):
    """Sum the d-states (..., leaves, d) of a realized kernel r with leaves
    of L nodes in place: state[..., b, :] holds leaf b - 1's own part of the
    state at the start of leaf b, and leaves the whole of it.  A doubling
    scan, log2 of the leaf count steps, each gain read from the samples."""
    shifts = 1 << np.arange((state.shape[-2] - 1).bit_length())
    for shift, carry in zip(shifts, _gains(r, state.shape[-1], shifts * L).transpose(0, 2, 1)):
        state[..., shift:, :] += state[..., :-shift, :] @ carry


def _realized_rows(x: np.ndarray, rho: ScalarSignal, out: np.ndarray):
    """Write the trapezoid convolution of each row of ``x`` (rows, J+1) with
    the realized kernel ``rho`` to ``out``, leaf by leaf.

    Inside a leaf of L = ``_REALIZED_LEAF_STEPS`` nodes it is one product
    with the lower-triangular Toeplitz matrix of dt times the samples,
    halved on the diagonal, with x_0 halved too.  The earlier leaves enter
    through the d-state at the leaf's start, read out by the first rows of
    ``_gains``; each leaf adds its own part of the state at the next start,
    and a doubling scan over leaves (log2 of their count steps, each gain
    read from the samples) sums them.  No table is a repeated product of E, so the operator stays
    the Toeplitz matrix of the samples to a few roundoffs.  Rows go in
    chunks whose padded input and product hold ``_FFT_ELEMENTS`` values
    together at most, so many rows cost no more memory than one.
    """
    r, dt, d = rho.values, rho.grid.dt, len(rho.realization[1])
    nodes = len(r)
    L = min(_REALIZED_LEAF_STEPS, nodes)
    leaves = -(-nodes // L)
    k = np.arange(L)
    toeplitz = dt * _toeplitz(r, L)
    toeplitz[k, k] *= 0.5
    if leaves > 1:  # then L <= J, so r[L] exists
        read = _gains(r, d, k)[:, 0]
        write = dt * np.stack([r[L - k], np.ones(L)])[:d].T
    step = max(1, _FFT_ELEMENTS // (2 * leaves * L))
    for lo in range(0, x.shape[0], step):
        rows = x[lo:lo + step]
        padded = np.zeros((len(rows), leaves, L), out.dtype)
        padded.reshape(len(rows), -1)[:, :nodes] = rows
        padded[:, 0, 0] *= 0.5
        part = (padded.reshape(-1, L) @ toeplitz.T).reshape(padded.shape)
        if leaves > 1:
            # state[:, b] = the state at the start of leaf b, from leaves < b
            state = np.zeros((len(rows), leaves, d), out.dtype)
            state[:, 1:] = padded[:, :-1] @ write
            _carry(state, r, L)
            part += np.matmul(state, read.T, out=padded)  # padded is spent
        out[lo:lo + step] = part.reshape(len(rows), -1)[:, :nodes]


def convolve(rho: ScalarSignal, v: Signal) -> Signal:
    """Apply the causal Volterra convolution with kernel ``rho`` to ``v``: trapezoid
    quadrature, zero at t_0, of each row of the (rows, J+1) view of its samples.

    A kernel with a realization takes the leaf-blocked recurrence of
    ``_realized_rows``, in O(J L) per row with no FFT; any other kernel
    takes the FFT.  The result is real when both are.  An all-zero kernel
    on finite samples gives the exact zeros of the FFT route without running
    it; non-finite samples still take it, and come out as NaN.
    """
    _check_same_grid(rho, v)
    r, x = rho.values, np.atleast_2d(v.values.T)
    out = np.zeros(x.shape, np.result_type(r, x))
    if rho.realization is not None and r.any():
        _realized_rows(x, rho, out)
        out[:, 0] = 0.0
    elif r.any() or not np.isfinite(x).all():
        _convolve_rows(x, r, 0, out)
        out -= 0.5 * r * x[:, :1]
        out -= 0.5 * r[0] * x
        out *= rho.grid.dt
        out[:, 0] = 0.0
    return type(v)(v.grid, out.T.reshape(v.values.shape))


def convolve_adjoint(rho: ScalarSignal, z: Signal) -> Signal:
    """Adjoint of ``convolve`` under the trapezoid inner product.

    Computed as the conjugate transpose of the discrete convolution matrix
    reweighted by the quadrature weights, so the adjoint identity with
    ``l2_inner`` is exact.  Approximates the anticausal integral of
    conj(rho(s - t)) z(s) over s in [t, T].
    """
    _check_same_grid(rho, z)
    grid = rho.grid
    w = grid.weights
    rbar = np.conj(rho.values)
    y = np.atleast_2d(z.values.T) * w
    corr = np.zeros_like(y)
    _convolve_rows(y, rbar[::-1], grid.steps, corr)
    out = grid.dt * (corr - 0.5 * rbar[0] * y)
    out[:, 0] = 0.5 * grid.dt * (corr[:, 0] - rbar[0] * y[:, 0])
    out /= w
    return type(z)(grid, out.T.reshape(z.values.shape))


def _causal_blocks(x: np.ndarray, c: np.ndarray):
    """Leaf ranges (lo, hi) of a causal-history solve for x[..., 1:], in order.

    The unknowns x_n, n = 1..J, each see the history
    H_n = sum over 1 <= l < n of c[n - l] x_l, with ``c`` a scalar kernel and
    ``x`` a C-contiguous (J+1,) or (rows, J+1) array.  When a leaf is
    yielded, every slot x[..., n] with lo <= n < hi holds the part of H_n
    from l < lo; the caller adds the part from lo <= l < n, overwrites the
    slots with the solution, and then asks for the next leaf.  Between
    leaves one FFT convolution adds a solved block's history to the equally
    long block after it, the divide-and-conquer Toeplitz solve of Hairer,
    Lubich & Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985), so the history
    costs O(J log^2 J) instead of O(J^2).
    """
    J = x.shape[-1] - 1
    rows = x.reshape(-1, J + 1)
    rows[:, 1:] = 0.0
    for k, lo in enumerate(range(1, J + 1, _LEAF_STEPS)):
        hi = min(lo + _LEAF_STEPS, J + 1)
        yield lo, hi
        # the 2^t leaves ending here, 2^t the largest power of two dividing
        # k + 1, are a left half of the recursion; the right half follows
        width = _LEAF_STEPS * ((k + 1) & -(k + 1))
        span = min(width, J + 1 - hi)
        if span > 0:
            _convolve_rows(rows[:, hi - width:hi], c[1:width + span], width - 1,
                           rows[:, hi:hi + span])


def resolvent_kernel(sigma: ScalarSignal, sigma_prime: ScalarSignal) -> ScalarSignal:
    """Kernel K with (I + V_K)(sigma(0) + V_sigma') = sigma(0) * I.

    Solves sigma(0) K + V_sigma' K = -sigma' on the lower-triangular
    trapezoid system, a Toeplitz system in K(t_1..t_J), by the blocked
    causal-history solve in O(J log^2 J), each leaf a convolution with the
    first column of its lower-triangular Toeplitz inverse.  The operator
    identity above then holds up to an O(dt^2) quadrature defect confined
    to the diagonal and the first column of the composed matrix.
    """
    _check_same_grid(sigma, sigma_prime)
    s0 = sigma.values[0]
    if abs(s0) == 0.0:
        raise ValueError("sigma(0) must be nonzero for the resolvent kernel")
    grid = sigma.grid
    dt = grid.dt
    sp = sigma_prime.values
    J = grid.steps
    dtype = np.result_type(sigma.values, sp)  # real for a real sigma
    K = np.empty(J + 1, dtype=dtype)
    K[0] = -sp[0] / s0
    denom = s0 + 0.5 * dt * sp[0]
    if denom == 0.0:
        raise NumericsError("singular resolvent system: sigma(0) + dt/2 sigma'(0) = 0")
    # u, the first column of the inverse of the leaf matrix, by forward substitution
    u = np.empty(min(_LEAF_STEPS, J), dtype=dtype)
    u[0] = 1.0 / denom
    for k in range(1, len(u)):
        u[k] = -dt * np.dot(sp[1:k + 1], u[k - 1::-1]) / denom
    forcing = sp * -(1.0 + 0.5 * dt * K[0])
    for lo, hi in _causal_blocks(K, sp):
        K[lo:hi] = np.convolve(u[:hi - lo], forcing[lo:hi] - dt * K[lo:hi])[:hi - lo]
    return ScalarSignal(grid, K)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-d factors.  A complex factor against a real one goes
    through real products of its real and imaginary parts, stacked: numpy
    would cast the real factor, typically the large one, to complex."""
    if np.iscomplexobj(b) and not np.iscomplexobj(a):
        return _matmul(b.T, a.T).T
    if np.iscomplexobj(a) and not np.iscomplexobj(b):
        re, im = np.split(np.concatenate((a.real, a.imag)) @ b, 2)
        return re + 1j * im
    return a @ b


def inner_products(a: np.ndarray, b: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Matrix of trapezoid inner products <a_i, b_k> of two stacks of signals.

    Both stacks run along axis 0, with per-signal shape (J+1,) or (J+1, m).
    The result is linear in ``a`` and conjugate-linear in ``b``, and real
    for real stacks.  Only a weighted conjugate of ``a`` is materialised, so
    pass the smaller stack as ``a``; a contiguous ``b`` is never copied,
    nor cast to complex against a complex ``a``.
    """
    if a.shape[1:] != b.shape[1:] or a.shape[1] != grid.steps + 1:
        raise ValueError(f"stacks of shape {a.shape} and {b.shape} do not match the grid")
    wa = np.conjugate(a, dtype=np.result_type(a, 1.0))
    wa *= grid.weights if a.ndim == 2 else grid.weights[:, None]
    return np.conj(_matmul(wa.reshape(len(a), -1), b.reshape(len(b), -1).T))


def _trapezoid_gram(x: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid inner products <x_i, x_k> of rows x (rows, J+1), real or
    complex, with no weighted copy of x: dt x x^H less dt/2 times the
    products of the end columns.  Real rows take one symmetric rank-k
    update, as .conj() of a real array is the array itself."""
    gram = x @ x.conj().T
    gram *= dt
    ends = x[:, [0, -1]]
    gram -= 0.5 * dt * (ends @ ends.conj().T)
    return gram


def l2_inner(u: Signal, v: Signal) -> complex:
    """Trapezoid approximation of the L2(0,T; G) inner product <u, v>.

    Linear in the first argument, conjugate-linear in the second; signals of
    different shapes are rejected by ``inner_products``.
    """
    _check_same_grid(u, v)
    return complex(inner_products(u.values[None], v.values[None], u.grid)[0, 0])


def l2_norm(u: Signal) -> float:
    return float(np.sqrt(max(l2_inner(u, u).real, 0.0)))


def _slopes(f: np.ndarray, dt: float, out: np.ndarray) -> np.ndarray:
    """np.gradient(f, dt, axis=0, edge_order=2), bit for bit, written into
    ``out`` with no temporary of the size of ``f``."""
    if len(f) < 4:
        raise ValueError("grid too coarse to differentiate (need steps >= 3)")
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * dt
    out[0] = -1.5 / dt * f[0] + 2.0 / dt * f[1] - 0.5 / dt * f[2]
    out[-1] = 0.5 / dt * f[-3] - 2.0 / dt * f[-2] + 1.5 / dt * f[-1]
    return out


def differentiate(u: Signal) -> Signal:
    """Centered-difference time derivative, second-order one-sided at the ends."""
    return type(u)(u.grid, _slopes(u.values, u.grid.dt, np.empty_like(u.values)))


def h1_norm(u: Signal) -> float:
    """Discrete H1(0,T; G) norm, (||u||^2 + ||u'||^2)^(1/2)."""
    du = differentiate(u)
    return float(np.sqrt(l2_norm(u) ** 2 + l2_norm(du) ** 2))


# ---------------------------------------------------------------------------
# Memory kernels M(t)


class MemoryKernel:
    """Convolution kernel encoding the history dependence of the system."""

    def sample(self, grid: TimeGrid) -> np.ndarray:
        raise NotImplementedError

    def at_zero(self) -> float:
        """M(0), needed for the comparison-exponential growth rate M(0)/2."""
        raise NotImplementedError

    def realization(self, dt: float):
        """(E, b, c) with M(t) = c^T e^(Rt) b and E = e^(R dt), a d x d matrix,
        or None for a kernel without a finite realization."""
        raise NotImplementedError


class ZeroKernel(MemoryKernel, Value):
    """No memory: the system reduces to the plain second-order evolution."""

    def sample(self, grid: TimeGrid) -> np.ndarray:
        return np.zeros(grid.steps + 1)

    def at_zero(self) -> float:
        return 0.0

    def realization(self, dt: float):
        # d = 0: no memory state
        return np.ones((0, 0)), np.zeros(0), np.zeros(0)


class ExponentialKernel(MemoryKernel, Value):
    """M(t) = beta * exp(-alpha * t)."""

    _fields = ("beta", "alpha")

    def __init__(self, beta: float, alpha: float):
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)

    def sample(self, grid: TimeGrid) -> np.ndarray:
        return self.beta * np.exp(-self.alpha * grid.nodes)

    def at_zero(self) -> float:
        return self.beta

    def realization(self, dt: float):
        return np.full((1, 1), np.exp(-self.alpha * dt)), np.array([self.beta]), np.ones(1)


class PolynomialKernel(MemoryKernel, Value):
    """M(t) = sum_k coefficients[k] * t^k."""

    _fields = ("coefficients",)

    def __init__(self, coefficients: tuple):
        coefficients = tuple(float(c) for c in coefficients)
        if not coefficients:
            raise ValueError("polynomial kernel needs at least one coefficient")
        object.__setattr__(self, "coefficients", coefficients)

    def sample(self, grid: TimeGrid) -> np.ndarray:
        # Horner's rule, bit for bit numpy's polyval, without numpy.polynomial
        y = np.full_like(grid.nodes, self.coefficients[-1])
        for c in self.coefficients[-2::-1]:
            y = y * grid.nodes + c
        return y

    def at_zero(self) -> float:
        return self.coefficients[0]

    def realization(self, dt: float):
        # R is the nilpotent shift, R e_i = e_(i-1), so e^(Rt) e_(d-1) has
        # entries t^k / k! at i = d-1-k and c_i = a_(d-1-i) (d-1-i)!
        if len(self.coefficients) > 170:  # 171! overflows a float
            return None
        k = np.arange(len(self.coefficients))
        factorials = np.cumprod(np.maximum(k, 1.0))
        E = np.triu((dt ** k / factorials)[np.abs(k[None, :] - k[:, None])])
        return E, np.eye(len(k))[-1], (np.array(self.coefficients) * factorials)[::-1]


class SampledKernel(MemoryKernel, Record):
    """Kernel given by samples on the grid it will be used with.

    ``m0`` must be supplied explicitly when the comparison exponential is
    needed; the sample at t = 0 is not trusted as a stand-in for M(0).
    """

    _fields = ("values", "m0")

    def __init__(self, values: np.ndarray, m0: float | None = None):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("sampled kernel values must be one-dimensional")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "m0", m0)

    def sample(self, grid: TimeGrid) -> np.ndarray:
        if self.values.shape != (grid.steps + 1,):
            raise ValueError(
                f"sampled kernel has {self.values.shape[0]} samples, grid has {grid.steps + 1} nodes"
            )
        return self.values

    def at_zero(self) -> float:
        if self.m0 is None:
            raise ValueError("sampled kernel used without a declared M(0)")
        return self.m0

    def realization(self, dt: float):
        return None


# ---------------------------------------------------------------------------
# Source modulations sigma(t)


class SourceModulation:
    """Time modulation of the unknown source, with an analytic derivative."""

    def sample(self, grid: TimeGrid) -> ScalarSignal:
        raise NotImplementedError

    def sample_derivative(self, grid: TimeGrid) -> ScalarSignal:
        raise NotImplementedError

    def at_zero(self) -> float:
        raise NotImplementedError

    def realization(self):
        """(c, a) with sigma'(t) = c e^(at), or None, as for a sampled modulation."""
        return None


def _geometric(grid: TimeGrid, values, ratio: float, scale: float) -> ScalarSignal:
    """Samples scale * ratio^n, carrying the d = 1 realization (ratio, 1, scale)."""
    return ScalarSignal(grid, values, (ratio, 1.0, scale))


def _exponential(grid: TimeGrid, rate: float, scale: float, name: str) -> ScalarSignal:
    """``_geometric`` samples scale * e^(rate t); an overflow raises
    ``NumericsError`` naming the signal instead of sampling inf."""
    try:
        with np.errstate(over="raise"):
            values = scale * np.exp(rate * grid.nodes)
            return _geometric(grid, values, np.exp(rate * grid.dt), scale)
    except FloatingPointError:
        raise NumericsError(f"{name} = {scale:g} e^({rate:g} t) overflows "
                            f"on [0, {grid.horizon:g}]") from None


class ConstantModulation(SourceModulation, Value):
    _fields = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", value)

    def sample(self, grid):
        return _geometric(grid, np.full(grid.steps + 1, self.value), 1.0, self.value)

    def sample_derivative(self, grid):
        return _geometric(grid, np.zeros(grid.steps + 1), 1.0, 0.0)

    def at_zero(self):
        return self.value

    def realization(self):
        return 0.0, 0.0


class ExponentialModulation(SourceModulation, Value):
    """sigma(t) = exp(rate * t)."""

    _fields = ("rate",)

    def __init__(self, rate: float):
        object.__setattr__(self, "rate", rate)

    def sample(self, grid):
        return _exponential(grid, self.rate, 1.0, "sigma")

    def sample_derivative(self, grid):
        return _exponential(grid, self.rate, self.rate, "sigma'")

    def at_zero(self):
        return 1.0

    def realization(self):
        return self.rate, self.rate


class AffineModulation(SourceModulation, Value):
    """sigma(t) = offset + slope * t."""

    _fields = ("offset", "slope")

    def __init__(self, offset: float, slope: float):
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "slope", slope)

    def sample(self, grid):
        # a unit Jordan block: E^n = [[1, n dt], [0, 1]]
        return ScalarSignal(grid, self.offset + self.slope * grid.nodes,
                            ([[1.0, grid.dt], [0.0, 1.0]], [0.0, 1.0], [self.slope, self.offset]))

    def sample_derivative(self, grid):
        return _geometric(grid, np.full(grid.steps + 1, self.slope), 1.0, self.slope)

    def at_zero(self):
        return self.offset

    def realization(self):
        return self.slope, 0.0


class SampledModulation(SourceModulation, Record):
    """Modulation given by samples; its derivative is ``differentiate`` of them."""

    _fields = ("values",)

    def __init__(self, values: np.ndarray):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size < 4:
            raise ValueError("sampled modulation needs a 1-d array of at least 4 samples")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def sample(self, grid):
        if self.values.shape != (grid.steps + 1,):
            raise ValueError(
                f"sampled modulation has {self.values.shape[0]} samples, grid has {grid.steps + 1} nodes"
            )
        return ScalarSignal(grid, self.values)

    def sample_derivative(self, grid):
        # One extra O(dt^2) error relative to the closed-form modulations.
        return differentiate(self.sample(grid))

    def at_zero(self):
        return float(self.values[0])
