"""Source recovery from a single boundary measurement.

With K the resolvent kernel of sigma'/sigma(0) and p_k the biorthogonal
duals of the w family, the kernels theta_k = sigma(0)^-1 (I + V_K*) p_k
recover f_k = < B u', theta_k >.  They are never formed: V_K* is the exact
discrete adjoint of V_K, so with C the dual coefficients

    f_k = sigma(0)^-1 sum_m conj(C[k, m]) < (I + V_K) B u', w_m psi_m >,

one causal convolution of the measurement and N m scalar inner products.
K has a closed form when sigma' = c e^(at) (constant, affine or exponential
sigma); a sampled sigma takes the blocked solve.  The resolvent identity is
checked without theta too.  Where the resolvent-equation residual
e = sigma' + sigma(0) K + V_sigma' K vanishes, the discrete defect
D = sigma(0)^-1 (I + V_K)(sigma(0) + V_sigma') - I is d I off row 0 plus a
first column c, zero at row 0, with

    sigma(0) c = (dt/2) (e - (dt/2) sigma'(0) K) off row 0,
    sigma(0) d = (dt/2) (sigma'(0) + K(0) (sigma(0) + (dt/2) sigma'(0))),

so d = -(dt^2 / 4) (sigma'(0) / sigma(0))^2 up to roundoff.  One convolution
of the K in hand, V_K sigma' = V_sigma' K, gives c and e; max |e| / max |sigma'|
is reported, as D's form takes e = 0 for granted.  Adjoint identity and
biorthogonality are exact by construction; the only systematic residual is
that O(dt^2) defect, which rescales every recovered coefficient by the same
factor 1 + d (B w vanishes at t = 0) and vanishes under refinement.  Every
product with the w family, and the stability scan's H1 Gram, goes through its
trajectories, which ``modal.StoredRows`` and ``modal.LeafTables`` answer alike.
"""

from __future__ import annotations

import math
import operator
from itertools import permutations

import numpy as np
from numpy.random import PCG64, Generator, default_rng
from numpy.random.bit_generator import ISeedSequence

from .errors import NumericsError
from .frames import (
    FrameBounds,
    _member_gram,
    coefficients_via_duals,
    dual_coefficients,
    gram,
    leading_frame_bounds,
    w_trace_family,
    y_trace_family,
)
from .forward import SourceCoefficients
from .modal import ModalFamily
from .record import Record
from .spectral import SpectralModel
from .volterra import (
    MemoryKernel,
    ScalarSignal,
    SourceModulation,
    TimeGrid,
    TraceSignal,
    ZeroKernel,
    convolve,
    h1_norm,
    resolvent_kernel,
)


class ReconstructionKernels(Record):
    """The w family, its dual coefficients and the resolvent of sigma."""

    _fields = ("family", "coefficients", "resolvent", "sigma0", "bounds",
               "identity_residual", "resolvent_residual")

    def __init__(self, family: ModalFamily,
                 coefficients: np.ndarray,  # p_k = sum_m coefficients[k, m] * w_m psi_m
                 resolvent: ScalarSignal, sigma0: float, bounds: FrameBounds,
                 identity_residual: float,  # max_k || (sigma0 + V_sigma'*) theta_k - p_k ||
                 resolvent_residual: float):  # max |sigma' + sigma0 K + V_sigma' K| / max |sigma'|
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "resolvent", resolvent)
        object.__setattr__(self, "sigma0", sigma0)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "identity_residual", identity_residual)
        object.__setattr__(self, "resolvent_residual", resolvent_residual)


def _resolvent(modulation: SourceModulation, grid: TimeGrid,
               sigma_prime: ScalarSignal) -> ScalarSignal:
    """``resolvent_kernel`` of the modulation, in closed form when sigma' = c e^(at).

    Equation n of the trapezoid system less e^(a dt) times equation n - 1
    leaves K_n = rho K_(n-1), rho = e^(a dt) (1 - h) / (1 + h) with
    h = dt c / (2 sigma(0)), so K_n = -rho^n c / sigma(0): one exp of n log rho,
    log1p for the factors in h, as rho**n would carry rho's rounding n times.
    K carries the realization (rho, 1, -c / sigma(0)), so V_K runs the
    leaf-blocked recurrence.  Without a realization, or unless |h| < 1, the
    blocked solve runs instead, and V_K takes the FFT.
    """
    c, a = modulation.realization() or (math.nan, 0.0)
    s0, dt = modulation.at_zero(), grid.dt
    h = 0.5 * dt * c / s0 if s0 != 0.0 else math.nan
    if not abs(h) < 1.0:
        return resolvent_kernel(modulation.sample(grid), sigma_prime)
    log_rho = a * dt + math.log1p(-h) - math.log1p(h)
    try:
        with np.errstate(over="raise"):
            K = -c / s0 * np.exp(np.arange(grid.steps + 1) * log_rho)
    except FloatingPointError:
        raise NumericsError(f"the resolvent of sigma overflows: K = {-c / s0:g} rho^n, "
                            f"log rho = {log_rho:g}, n <= {grid.steps}") from None
    return ScalarSignal(grid, K, (math.exp(log_rho), 1.0, -c / s0))


def _identity_residuals(
    family: ModalFamily, coefficients: np.ndarray, s0: float,
    sigma_prime: ScalarSignal, K: ScalarSignal,
) -> tuple:
    """|| D* p_k || for every dual p_k, with D = d I off row 0 plus c e_0^T,
    and max |e| / max |sigma'| (0 for a constant sigma).

    D* = W^-1 D^H W for the trapezoid weights W, so ||D* p||^2 =
    |d|^2 (||p||^2 - w_0 |p(0)|^2) + |<p, c>|^2 / w_0, where ||p_k||^2 =
    C[k, k] by biorthogonality and p_k(0) = 0 as the w family vanishes there.
    """
    grid = family.grid
    half, sp, k = 0.5 * grid.dt, sigma_prime.values, K.values
    # the one convolution: V_sigma' K = V_K sigma', a product of the K in hand
    e = sp + s0 * k + convolve(K, sigma_prime).values
    e[0] = 0.0
    # s0 c = V_sigma' e_0 + V_K (s0 e_0 + V_sigma' e_0), with V_sigma' e_0 = half sigma'
    # and, V_K being linear, V_K V_sigma' e_0 = half (V_K sigma' - half sigma'(0) K)
    c = half * (e - half * sp[0] * k) / s0
    c[0] = 0.0
    d = half * (sp[0] + k[0] * (s0 + half * sp[0])) / s0
    scale = np.max(np.abs(sp))
    resolvent_residual = float(np.max(np.abs(e)) / scale if scale else 0.0)
    # <p_k, c> = sum_m C[k, m] <w_m, c> psi_m, a vector in G
    with_c = coefficients @ (
        np.conj(family.trajectories.dot(c[:, None])[:, 0])[:, None] * family.psis
    )
    squares = (abs(d) ** 2 * np.diag(coefficients).real
               + np.sum(np.abs(with_c) ** 2, axis=1) / grid.weights[0])
    return np.sqrt(np.maximum(squares, 0.0)), resolvent_residual


def build_reconstruction(
    model: SpectralModel,
    kernel: MemoryKernel,
    modulation: SourceModulation,
    grid: TimeGrid,
) -> ReconstructionKernels:
    """Full pipeline: modal family, Gram, dual coefficients and resolvent.

    The defining identity (sigma(0) + V_sigma'*) theta_k = p_k is checked
    and its worst L2 residual stored on the result.  For constant
    modulations the resolvent vanishes and the residual is exactly zero;
    otherwise it carries the O(dt^2) interior defect of the discrete
    resolvent identity plus an O(dt) artifact at the initial node that is
    invisible to signals vanishing there.
    """
    s0 = modulation.at_zero()
    if s0 == 0.0:
        raise ValueError("modulation must have sigma(0) != 0 for reconstruction")
    sigma_prime = modulation.sample_derivative(grid)
    family = w_trace_family(model, kernel, grid)
    g = gram(family)
    coefficients = dual_coefficients(g)
    K = _resolvent(modulation, grid, sigma_prime)
    residuals, resolvent_residual = _identity_residuals(family, coefficients, s0, sigma_prime, K)
    # np.max, unlike the builtin max, propagates a NaN residual to the gate
    return ReconstructionKernels(family, coefficients, K, s0, g.bounds,
                                 float(residuals.max(initial=0.0)), resolvent_residual)


def _check_compatible(kernels: ReconstructionKernels, model: SpectralModel):
    # a measurement on another grid or of another dimension fails in
    # reconstruct_complex, before any inner product
    if kernels.family.labels != tuple(range(1, model.truncation + 1)):
        raise ValueError(
            "reconstruction kernels were built at a different truncation than the model"
        )


def reconstruct_complex(bu_prime: TraceSignal, kernels: ReconstructionKernels) -> np.ndarray:
    """Raw complex values <B u', theta_k> = sigma(0)^-1 <(I + V_K) B u', p_k>, k = 1..N."""
    lifted = bu_prime.values + convolve(kernels.resolvent, bu_prime).values
    return coefficients_via_duals(
        kernels.family, kernels.coefficients, TraceSignal(bu_prime.grid, lifted)
    ) / kernels.sigma0


def reconstruct(
    bu_prime: TraceSignal,
    kernels: ReconstructionKernels,
    model: SpectralModel,
) -> SourceCoefficients:
    """Recover the source coefficients from the measured trace derivative.

    The real parts are returned; for real data the imaginary parts sit at
    roundoff level and can be inspected via ``reconstruct_complex``.
    """
    _check_compatible(kernels, model)
    return SourceCoefficients(reconstruct_complex(bu_prime, kernels).real)


class ReconstructionReport(Record):
    """Outcome of a (possibly noisy) reconstruction run."""

    _fields = ("recovered", "truth", "per_mode_error", "relative_l2_error", "bounds",
               "noise_level", "imag_residual")

    def __init__(self, recovered: SourceCoefficients, truth: SourceCoefficients | None,
                 per_mode_error: np.ndarray | None, relative_l2_error: float | None,
                 bounds: FrameBounds, noise_level: float, imag_residual: float):
        object.__setattr__(self, "recovered", recovered)
        object.__setattr__(self, "truth", truth)
        object.__setattr__(self, "per_mode_error", per_mode_error)
        object.__setattr__(self, "relative_l2_error", relative_l2_error)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "noise_level", noise_level)
        object.__setattr__(self, "imag_residual", imag_residual)


def _report(recovered_c: np.ndarray, truth, bounds, noise_level) -> ReconstructionReport:
    recovered = SourceCoefficients(recovered_c.real)
    imag_res = float(np.max(np.abs(recovered_c.imag))) if recovered_c.size else 0.0
    per_mode = None
    rel = None
    if truth is not None:
        per_mode = np.abs(recovered.values - truth.values)
        denom = float(np.linalg.norm(truth.values))
        # undefined for a zero source: None, written as null, not a NaN
        rel = float(np.linalg.norm(per_mode) / denom) if denom > 0 else None
    return ReconstructionReport(
        recovered, truth, per_mode, rel, bounds, noise_level, imag_res
    )


def noisy_reconstruction(
    bu_prime: TraceSignal,
    noise_level: float,
    seed: int,
    kernels: ReconstructionKernels,
    model: SpectralModel,
    truth: SourceCoefficients | None = None,
) -> ReconstructionReport:
    """Reconstruct from a trace perturbed by seeded Gaussian noise.

    The perturbation is scaled so its H1 norm is ``noise_level`` times the
    H1 norm of the clean trace; the induced coefficient error is linear in
    the noise by construction.
    """
    if noise_level < 0.0:
        raise ValueError("noise level must be nonnegative")
    _check_compatible(kernels, model)
    values = bu_prime.values
    if noise_level > 0.0:
        rng = default_rng(seed)
        raw = rng.standard_normal(values.shape)
        noise = TraceSignal(bu_prime.grid, raw)
        scale = noise_level * h1_norm(bu_prime) / h1_norm(noise)
        values = values + scale * raw
    noisy = TraceSignal(bu_prime.grid, values)
    return _report(
        reconstruct_complex(noisy, kernels), truth, kernels.bounds, noise_level
    )


def stability_gram(
    model: SpectralModel,
    kernel: MemoryKernel,
    modulation: SourceModulation,
    grid: TimeGrid,
) -> np.ndarray:
    """Real H1 Gram Q of the y family, so that ||B u||_H1^2 = f^T Q f for real f.

    Q is the real part of the Gram matrices of the members (V_sigma w_n) psi_n
    and of their time derivatives; the square roots of its extreme
    eigenvalues are the exact extremes of ||B u||_H1 / ||f||.  Requires the
    horizon to reach the two-way travel time 2L, below which the boundary
    observation cannot control every mode and the ratio is meaningless.

    Both Grams are the w family's trajectories' ``h1_gram``: ``LeafTables``
    and ``StoredRows`` answer it alike, the tables with no (N, J+1) array
    where sigma has a realization.  An overflow in the Grams leaves a
    non-finite Q, which raises ``NumericsError``.
    """
    threshold = 2.0 * model.spec.length
    if grid.horizon < threshold * (1.0 - 1e-12):
        raise ValueError(
            f"horizon {grid.horizon:g} below the observability threshold {threshold:g}"
        )
    sigma = modulation.sample(grid)
    family = w_trace_family(model, kernel, grid)
    with np.errstate(over="ignore", invalid="ignore"):  # the gate below reports it
        Q = _member_gram(family.trajectories.h1_gram(sigma), family).entries.real
    if not np.isfinite(Q).all():
        raise NumericsError(f"non-finite H1 Gram (size {len(Q)}, horizon {grid.horizon:g})")
    return Q


_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants (pool of 4 words)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
#: trials that stability_ratios hashes and draws at once: its working set is
#: O(block x N) on top of the O(trials) ratios, whatever the trial count
_SCAN_BLOCK = 4096


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple:
    """SeedSequence's hash of uint32 words, and the hash constant after it."""
    nxt = const * mult & _MASK32
    value = (value ^ np.uint32(const)) * np.uint32(nxt)
    return value ^ (value >> np.uint32(16)), nxt


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return value ^ (value >> np.uint32(16))


def _seed_states(seed: int, start: int, stop: int) -> np.ndarray:
    """Row i - start is SeedSequence((seed, i)).generate_state(4, np.uint64),
    for start <= i < stop.

    numpy's SeedSequence mixing, run once over uint32 arrays indexed by
    trial.  The entropy words are those of ``seed``, least significant
    first, then i, which must fit one word.  The hash constant evolves
    alike for every trial, so it stays a scalar.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    trials = stop - start
    words = [np.full(trials, (seed >> s) & _MASK32, np.uint32)
             for s in range(0, max(seed.bit_length(), 1), 32)]
    words.append(np.uint32(start) + np.arange(trials, dtype=np.uint32))
    words += [np.zeros(trials, np.uint32)] * (4 - len(words))
    pool, const = [], _INIT_A
    for word in words[:4]:
        value, const = _hashmix(word, const, _MULT_A)
        pool.append(value)
    # every pool word into every other, then each entropy word past the pool
    for src, dst in permutations(range(4), 2):
        value, const = _hashmix(pool[src], const, _MULT_A)
        pool[dst] = _mix(pool[dst], value)
    for word in words[4:]:
        for dst in range(4):
            value, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    state, const = np.empty((trials, 8), np.uint32), _INIT_B
    for k in range(8):
        state[:, k], const = _hashmix(pool[k % 4], const, _MULT_B)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Hashed(ISeedSequence):
    """A seed sequence whose state is a row of ``_seed_states``, hashed already:
    the four uint64 words that PCG64 asks of its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _trial_draws(seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """Row i - start is default_rng((seed, i)).standard_normal(n) bit for bit,
    for start <= i < stop: each trial's PCG64 is seeded, in C, from its row
    of ``_seed_states``."""
    rows = np.empty((stop - start, n))
    for row, words in zip(rows, _seed_states(seed, start, stop)):
        Generator(PCG64(_Hashed(words))).standard_normal(out=row)
    return rows


def stability_ratios(h1_gram: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Per-trial values of ||B u||_H1 / ||f|| = sqrt(f^T Q f) over random unit
    sources f, for Q = ``h1_gram``, the (N, N) ``stability_gram``.

    Trial i draws f from ``default_rng((seed, i))``, bit for bit, so an
    ensemble at truncation 2N extends the ensemble at truncation N draw by
    draw.  The seeds of a block of trials are hashed in one vectorised pass,
    and numpy seeds each trial's generator from its hashed words.  Trial
    indices must fit 32 bits.
    """
    if not 1 <= trials <= 1 << 32:
        raise ValueError("trials must lie in 1..2^32")
    ratios = np.empty(trials)
    for start in range(0, trials, _SCAN_BLOCK):
        stop = min(start + _SCAN_BLOCK, trials)
        f = _trial_draws(seed, start, stop, len(h1_gram))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        ratios[start:stop] = np.sqrt(np.einsum("ij,ij->i", f @ h1_gram, f))
    return ratios


class CounterexampleTable(Record):
    """Decay data for the time-integrated family (V_sigma w_n) psi_n."""

    _fields = ("indices", "lams", "scaled_norms", "min_gram_eigs")

    def __init__(self, indices: np.ndarray, lams: np.ndarray,
                 scaled_norms: np.ndarray,  # |lambda_n| * ||y_n psi_n||
                 min_gram_eigs: np.ndarray):  # smallest Gram eigenvalue of the first n members
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "lams", lams)
        object.__setattr__(self, "scaled_norms", scaled_norms)
        object.__setattr__(self, "min_gram_eigs", min_gram_eigs)


def l2_only_counterexample(
    model: SpectralModel,
    modulation: SourceModulation,
    grid: TimeGrid,
    nmax: int,
) -> CounterexampleTable:
    """Witness that the integrated family is not a frame in plain L2.

    Uses the memoryless system: the scaled norms |lambda_n| ||y_n psi_n||
    stay bounded (the members themselves decay like 1/|lambda_n|), while the
    minimal Gram eigenvalue of the truncated family drains to zero, so no
    uniform lower frame bound survives.  Nested truncations reuse a single
    Gram matrix.
    """
    if not 1 <= nmax <= model.truncation:
        raise ValueError(f"nmax must lie in 1..{model.truncation}")
    family = y_trace_family(model, ZeroKernel(), modulation, grid)
    g = gram(family)
    norms = np.sqrt(np.diag(g.entries)[:nmax].real)
    lams = family.modes.lam[:nmax]
    bounds = leading_frame_bounds(g, range(1, nmax + 1))
    return CounterexampleTable(
        family.modes.index[:nmax],
        lams,
        np.abs(lams) * norms,
        np.array([b.lower for b in bounds]),
    )
