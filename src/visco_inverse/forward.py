"""Boundary trace synthesis for the source-driven system.

Solutions are synthesized mode by mode from the spectral data, so the only
discretization error is the time integration of the modal equations.  The
source-driven traces follow from the convolution identity u = V_sigma w.
Since V_sigma is linear and psi_n does not depend on time, the modal sum
B w = sum f_n w_n psi_n is synthesized once from the factored family, as
Z^T (f * Psi), and convolved as a whole:

    B u  = V_sigma (B w)
    B u' = sigma(0) B w + V_sigma' (B w).
"""

from __future__ import annotations

import numpy as np

from .frames import w_trace_family
from .modal import ModalFamily
from .record import Record
from .spectral import SpectralModel
from .volterra import (
    MemoryKernel,
    SourceModulation,
    TimeGrid,
    TraceSignal,
    convolve,
)


class SourceCoefficients(Record):
    """Coefficients <f, phi_n> of the unknown spatial source, n = 1..N."""

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("source coefficients must form a 1-d array")
        values.setflags(write=False)
        self._set(locals())

    def __len__(self) -> int:
        return self.values.shape[0]

    @classmethod
    def unit(cls, k: int, truncation: int) -> "SourceCoefficients":
        if not 1 <= k <= truncation:
            raise ValueError(f"unit index {k} outside 1..{truncation}")
        vals = np.zeros(truncation)
        vals[k - 1] = 1.0
        return cls(vals)


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
