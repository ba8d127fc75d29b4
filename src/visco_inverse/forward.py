"""Boundary trace synthesis for the homogeneous and source-driven systems.

Solutions are synthesized mode by mode from the spectral data, so the only
discretization error is the time integration of the modal equations.  The
homogeneous trace uses the signed-mode expansion

    B w = (1/2) * sum over nonzero n of a_n z_n(t) psi_n,

whose coefficients a_n mix the initial data across the two branches; the
sign and scaling bookkeeping lives in one place here and is pinned by unit
tests against single-mode closed forms.  The source-driven traces follow
from the convolution identity u = V_sigma w.  Since V_sigma is linear and
psi_n does not depend on time, the modal sum B w = sum f_n w_n psi_n is
synthesized once from the factored family, as Z^T (f * Psi), and convolved
as a whole:

    B u  = V_sigma (B w)
    B u' = sigma(0) B w + V_sigma' (B w).
"""

from __future__ import annotations

import numpy as np

from .frames import w_trace_family, z_trace_family
from .modal import ModalFamily
from .record import Record
from .spectral import ModeArrays, SpectralModel
from .volterra import (
    MemoryKernel,
    SourceModulation,
    TimeGrid,
    TraceSignal,
    convolve,
)


class InitialData(Record):
    """Mode coefficients of the initial displacement and velocity."""

    _fields = ("xi", "eta")

    def __init__(self, xi: np.ndarray, eta: np.ndarray):
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        if xi.ndim != 1 or xi.shape != eta.shape:
            raise ValueError("xi and eta must be 1-d arrays of equal length")
        xi.setflags(write=False)
        eta.setflags(write=False)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", eta)

    def __len__(self) -> int:
        return self.xi.shape[0]


class SourceCoefficients(Record):
    """Coefficients <f, phi_n> of the unknown spatial source, n = 1..N."""

    _fields = ("values",)

    def __init__(self, values: np.ndarray):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("source coefficients must form a 1-d array")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.shape[0]

    @classmethod
    def unit(cls, k: int, truncation: int) -> "SourceCoefficients":
        if not 1 <= k <= truncation:
            raise ValueError(f"unit index {k} outside 1..{truncation}")
        vals = np.zeros(truncation)
        vals[k - 1] = 1.0
        return cls(vals)


def _signed_coefficients(data: InitialData, modes: ModeArrays) -> np.ndarray:
    """Coefficients a_n of the signed-mode expansion of the trace."""
    k = np.abs(modes.index) - 1
    xi = data.xi[k]
    # sgn(n) * lambda_|n| * xi_|n| collapses to lambda_n * xi_|n|, and to
    # sgn(n) * xi_|n| on the zero branch
    return np.where(modes.zero, np.sign(modes.index) * xi, modes.lam * xi) - 1j * data.eta[k]


def boundary_trace_homogeneous(
    data: InitialData,
    model: SpectralModel,
    kernel: MemoryKernel,
    grid: TimeGrid,
) -> TraceSignal:
    """Boundary trace of the homogeneous evolution from the given data.

    Real initial data and a real kernel produce a trace whose imaginary part
    is at roundoff level; it is kept so that downstream checks can see it.
    """
    if len(data) != model.truncation:
        raise ValueError("initial data length must equal the model truncation")
    family = z_trace_family(model, kernel, grid)
    a = _signed_coefficients(data, family.modes)
    return family.synthesize(0.5 * a)


def _trace_prime(bw: TraceSignal, modulation: SourceModulation) -> TraceSignal:
    dv = convolve(modulation.sample_derivative(bw.grid), bw)
    return TraceSignal(bw.grid, modulation.at_zero() * bw.values + dv.values)


def source_trace_prime(family: ModalFamily, coeffs: SourceCoefficients,
                       modulation: SourceModulation) -> TraceSignal:
    """Trace B u' of the source-driven system from its w trace family.

    ``family`` holds the members w_n psi_n, n = 1..N, as built by
    ``w_trace_family``.  B u' is assembled from sigma(0) B w + V_sigma' B w
    rather than by differencing B u, keeping it exactly adjoint-compatible
    with the reconstruction kernels built from the same family.
    """
    return _trace_prime(family.synthesize(coeffs.values), modulation)


def source_trace(family: ModalFamily, coeffs: SourceCoefficients,
                 modulation: SourceModulation) -> TraceSignal:
    """Trace B u = V_sigma B w alone, from the w trace family as in
    ``source_trace_prime``."""
    bw = family.synthesize(coeffs.values)
    return convolve(modulation.sample(bw.grid), bw)


def source_traces(
    family: ModalFamily,
    coeffs: SourceCoefficients,
    modulation: SourceModulation,
) -> tuple:
    """Traces (B u, B u') of the source-driven system from one B w, as in
    ``source_trace`` and ``source_trace_prime``."""
    bw = family.synthesize(coeffs.values)
    return convolve(modulation.sample(bw.grid), bw), _trace_prime(bw, modulation)


def boundary_trace_source(
    coeffs: SourceCoefficients,
    modulation: SourceModulation,
    model: SpectralModel,
    kernel: MemoryKernel,
    grid: TimeGrid,
) -> tuple:
    """Traces (B u, B u') of the source-driven system with source f."""
    return source_traces(w_trace_family(model, kernel, grid), coeffs, modulation)


def verify_convolution_relation(
    coeffs: SourceCoefficients,
    modulation: SourceModulation,
    model: SpectralModel,
    kernel: MemoryKernel,
    grid: TimeGrid,
) -> float:
    """Max-norm gap between the two routes to the source trace.

    Route one convolves the trace synthesized from the w family; route two
    applies V_sigma to the homogeneous trace, built from the z family,
    started from rest with velocity f.  The two coincide in exact
    arithmetic, so the value returned is pure discretization and roundoff
    error.
    """
    bu, _ = boundary_trace_source(coeffs, modulation, model, kernel, grid)
    data = InitialData(np.zeros(len(coeffs)), coeffs.values)
    bw = boundary_trace_homogeneous(data, model, kernel, grid)
    sigma = modulation.sample(grid)
    via_w = convolve(sigma, bw)
    return float(np.max(np.abs(bu.values - via_w.values)))
