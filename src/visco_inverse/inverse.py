"""Source recovery from a single boundary measurement.

The reconstruction kernels theta_k turn the time-integrated measurement
back into biorthogonal test functions: with K the resolvent kernel of
sigma'/sigma(0),

    theta_k = sigma(0)^-1 (I + V_K*) p_k,

so that (sigma(0) + V_sigma'*) theta_k reproduces the dual p_k of the modal
family w_n psi_n, and

    f_k = < B u', theta_k >

recovers each source coefficient.  At the discrete level the adjoint
identity and biorthogonality are exact by construction; the only systematic
residual is the O(dt^2) quadrature defect of the discrete resolvent
identity, which rescales every recovered coefficient by the same factor
1 - (dt^2 / 4) (sigma'(0) / sigma(0))^2 to leading order and vanishes under
grid refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import (
    DualFamily,
    FrameBounds,
    ModalFamily,
    dual_family,
    frame_bounds,
    gram,
    leading_frame_bounds,
    w_trace_family,
    y_trace_family,
)
from .forward import SourceCoefficients
from .spectral import SpectralModel
from .volterra import (
    MemoryKernel,
    ScalarSignal,
    SourceModulation,
    TimeGrid,
    TraceSignal,
    ZeroKernel,
    convolve_adjoint,
    h1_norm,
    resolvent_kernel,
)


@dataclass(frozen=True, eq=False)
class ReconstructionKernels:
    """Test functions theta_k plus the ingredients they were built from."""

    duals: DualFamily
    resolvent: ScalarSignal
    sigma0: float
    thetas: np.ndarray  # (N, J+1, m)
    bounds: FrameBounds
    identity_residual: float  # max_k || (sigma0 + V_sigma'*) theta_k - p_k ||

    @property
    def grid(self) -> TimeGrid:
        return self.duals.family.grid

    @property
    def labels(self) -> tuple:
        return self.duals.family.labels

    def theta(self, k: int) -> TraceSignal:
        return TraceSignal(self.grid, self.thetas[k])


def build_thetas(
    duals: DualFamily,
    modulation: SourceModulation,
    grid: TimeGrid,
) -> ReconstructionKernels:
    """Assemble theta_k = sigma(0)^-1 (p_k + V_K* p_k) from the dual family.

    The defining identity (sigma(0) + V_sigma'*) theta_k = p_k is checked
    and its worst L2 residual stored on the result.  For constant
    modulations the resolvent vanishes and the residual is at roundoff;
    otherwise it carries the O(dt^2) interior defect of the discrete
    resolvent identity plus an O(dt) artifact at the initial node that is
    invisible to signals vanishing there.
    """
    if duals.family.grid != grid:
        raise ValueError("dual family lives on a different grid")
    s0 = modulation.at_zero()
    if s0 == 0.0:
        raise ValueError("modulation must have sigma(0) != 0 for reconstruction")
    sigma = modulation.sample(grid)
    sigma_prime = modulation.sample_derivative(grid)
    K = resolvent_kernel(sigma, sigma_prime)
    w = grid.weights
    thetas = np.empty_like(duals.values)
    residuals = np.zeros(len(duals))
    for k in range(len(duals)):
        p_k = duals.dual(k)
        theta = TraceSignal(grid, (p_k.values + convolve_adjoint(K, p_k).values) / s0)
        back = s0 * theta.values + convolve_adjoint(sigma_prime, theta).values
        diff = back - p_k.values
        residuals[k] = np.sqrt(np.dot(w, (diff * np.conj(diff)).real.sum(axis=1)))
        thetas[k] = theta.values
    # np.max, unlike the builtin max, propagates a NaN residual to the gate
    residual = float(residuals.max(initial=0.0))
    return ReconstructionKernels(
        duals, K, s0, thetas, frame_bounds(duals.gram), residual
    )


def build_reconstruction(
    model: SpectralModel,
    kernel: MemoryKernel,
    modulation: SourceModulation,
    grid: TimeGrid,
) -> ReconstructionKernels:
    """Full pipeline: modal family, Gram, biorthogonal dual, then thetas."""
    family = w_trace_family(model, kernel, grid)
    duals = dual_family(family, gram(family))
    return build_thetas(duals, modulation, grid)


def _check_compatible(bu_prime: TraceSignal, kernels: ReconstructionKernels, model: SpectralModel):
    if bu_prime.grid != kernels.grid:
        raise ValueError("measurement grid does not match the kernel grid")
    if kernels.labels != tuple(range(1, model.truncation + 1)):
        raise ValueError(
            "reconstruction kernels were built at a different truncation than the model"
        )
    if bu_prime.dim != kernels.thetas.shape[2]:
        raise ValueError("measurement dimension does not match the kernels")


def reconstruct_complex(bu_prime: TraceSignal, kernels: ReconstructionKernels) -> np.ndarray:
    """Raw complex inner products <B u', theta_k>, k = 1..N."""
    w = bu_prime.grid.weights
    weighted = (bu_prime.values * w[:, None]).reshape(-1)
    return kernels.thetas.reshape(len(kernels.labels), -1).conj() @ weighted


def reconstruct(
    bu_prime: TraceSignal,
    kernels: ReconstructionKernels,
    model: SpectralModel,
) -> SourceCoefficients:
    """Recover the source coefficients from the measured trace derivative.

    The real parts are returned; for real data the imaginary parts sit at
    roundoff level and can be inspected via ``reconstruct_complex``.
    """
    _check_compatible(bu_prime, kernels, model)
    return SourceCoefficients(reconstruct_complex(bu_prime, kernels).real)


@dataclass(frozen=True, eq=False)
class ReconstructionReport:
    """Outcome of a (possibly noisy) reconstruction run."""

    recovered: SourceCoefficients
    truth: SourceCoefficients | None
    per_mode_error: np.ndarray | None
    relative_l2_error: float | None
    bounds: FrameBounds
    noise_level: float
    imag_residual: float


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
    _check_compatible(bu_prime, kernels, model)
    values = bu_prime.values
    if noise_level > 0.0:
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(values.shape)
        noise = TraceSignal(bu_prime.grid, raw)
        scale = noise_level * h1_norm(bu_prime) / h1_norm(noise)
        values = values + scale * raw
    noisy = TraceSignal(bu_prime.grid, values)
    return _report(
        reconstruct_complex(noisy, kernels), truth, kernels.bounds, noise_level
    )


def stability_ratios(
    model: SpectralModel,
    kernel: MemoryKernel,
    modulation: SourceModulation,
    grid: TimeGrid,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Per-trial values of ||B u||_H1 / ||f|| over random unit sources.

    Requires the horizon to reach the two-way travel time 2L, below which
    the boundary observation cannot control every mode and the ratio is
    meaningless.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    threshold = 2.0 * model.spec.length
    if grid.horizon < threshold * (1.0 - 1e-12):
        raise ValueError(
            f"horizon {grid.horizon:g} below the observability threshold {threshold:g}"
        )
    # per-mode traces are reused across trials; only the mixing varies
    family = y_trace_family(model, kernel, modulation, grid)
    ratios = np.empty(trials)
    for i in range(trials):
        # one generator per trial, so an ensemble at truncation 2N extends
        # the ensemble at truncation N draw by draw
        rng = np.random.default_rng((seed, i))
        f = rng.standard_normal(model.truncation)
        f /= np.linalg.norm(f)
        ratios[i] = h1_norm(family.synthesize(f))
    return ratios


def stability_scan(
    model: SpectralModel,
    kernel: MemoryKernel,
    modulation: SourceModulation,
    grid: TimeGrid,
    trials: int,
    seed: int,
) -> tuple:
    """Extremes of ||B u||_H1 / ||f|| over random unit sources."""
    ratios = stability_ratios(model, kernel, modulation, grid, trials, seed)
    return float(ratios.min()), float(ratios.max())


@dataclass(frozen=True, eq=False)
class CounterexampleTable:
    """Decay data for the time-integrated family (V_sigma w_n) psi_n."""

    indices: np.ndarray
    lams: np.ndarray
    scaled_norms: np.ndarray  # |lambda_n| * ||y_n psi_n||
    min_gram_eigs: np.ndarray  # smallest Gram eigenvalue of the first n members


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
    sub = ModalFamily(grid, family.labels[:nmax], family.values[:nmax])
    g = gram(sub)
    norms = np.sqrt(np.diag(g.entries).real)
    lams = np.array([model.mode(n).lam for n in sub.labels])
    scaled = np.abs(lams) * norms
    bounds = leading_frame_bounds(g, range(1, nmax + 1))
    return CounterexampleTable(
        np.array(sub.labels),
        lams,
        scaled,
        np.array([b.lower for b in bounds]),
    )
