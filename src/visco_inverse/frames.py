"""Frame analysis of modal trace families and their biorthogonal duals.

A modal family collects the boundary signals g_n(t) * psi_n for a scalar
trajectory family g (the z, w or convolved-w trajectories), stored factored
as the trajectories Z (members, J+1) and trace vectors Psi (members, m).
The family record is the modal solve's own ``modal.ModalFamily``: the z and
w families are the solves themselves, and the y family is the w solve with
its rows convolved.  For the w and y families Z is real: the real rows of
the modal solve, with each mode's factor (1, or i for an imaginary
lambda_n) folded into Psi, so Psi is real, every product that reads Z is a
real one and the Gram is real.  The z family's Z is complex.  A family's
trajectories are the step map's ``LeafTables`` under a kernel with a
realization and ``StoredRows`` under a sampled one, and both answer one
interface (``modal``): the Gram, the synthesis Z^T (a * Psi), the inner
products with a signal and the y rows V_sigma Z come from either alike, so
this module reads no storage of its own.  Tables give them in O(N d J) time
and O(N d L + N^2) memory, with no (members, J+1) array; ``scalars`` builds
Z on request.
Its Gram matrix under the discrete L2(0,T; G) inner product, the trajectory
Gram times the trace-vector Gram entry by entry, yields sharp two-sided
frame constants for the truncated span (extreme eigenvalues).  Its inverse
gives the biorthogonal dual family within that span, held as coefficients
alone.  Because the inner product is a fixed discrete bilinear form,
biorthogonality holds to linear solver precision rather than quadrature
accuracy.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import NumericsError, SingularGramError
from .modal import ModalFamily, solve_w_many, solve_z_many
from .record import Record, Value
from .spectral import SpectralModel
from .volterra import MemoryKernel, SourceModulation, TimeGrid, TraceSignal

#: Gram matrices with min eigenvalue below this times the max eigenvalue are
#: treated as singular (frame failure at this truncation/horizon).
SINGULAR_GRAM_RTOL = 1e-10


def z_trace_family(model: SpectralModel, kernel: MemoryKernel, grid: TimeGrid) -> ModalFamily:
    """Members z_n * psi_n over signed indices, ordered (+1, -1, +2, -2, ...).

    The interleaving makes every leading block of 2k members the family at
    truncation k, so nested truncation scans reuse one Gram matrix.
    """
    labels = [sign * n for n in range(1, model.truncation + 1) for sign in (1, -1)]
    return solve_z_many(model.select(labels), kernel, grid)


def w_trace_family(model: SpectralModel, kernel: MemoryKernel, grid: TimeGrid) -> ModalFamily:
    """Members w_n * psi_n over positive indices 1..N, on real rows."""
    return solve_w_many(model.positive_modes, kernel, grid)


def y_trace_family(
    model: SpectralModel,
    kernel: MemoryKernel,
    modulation: SourceModulation,
    grid: TimeGrid,
) -> ModalFamily:
    """Members (V_sigma w_n) * psi_n, the time-integrated source responses,
    on stored rows; a real sigma keeps the rows real, and a realized one
    convolves them by the leaf-blocked recurrence.  The w family's modes and
    factors carry over, and y'(0) = sigma(0) w(0) = 0."""
    w = w_trace_family(model, kernel, grid)
    return ModalFamily(w.modes, grid, w.trajectories.convolved(modulation.sample(grid)),
                       w.factors, np.zeros(len(w), np.complex128))


class GramMatrix(Record):
    """Hermitian Gram of a modal family, entries[k, n] = <member_n, member_k>;
    real for the w and y families, complex for the z family."""

    _fields = ("entries", "horizon", "labels")

    def __init__(self, entries: np.ndarray, horizon: float, labels: tuple):
        arr = np.asarray(entries, dtype=np.complex128
                         if np.iscomplexobj(entries) else np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("Gram matrix must be square")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def bounds(self) -> FrameBounds:
        """``frame_bounds`` of this Gram, from one eigen-decomposition per Gram."""
        return frame_bounds(self)


def gram(family: ModalFamily) -> GramMatrix:
    """Assemble and symmetrize the Gram matrix of the family, with
    <g_i psi_i, g_k psi_k> = <g_i, g_k> (psi_i . conj psi_k).

    The trajectory Gram is the ``gram`` of the storage, ``StoredRows`` or
    ``LeafTables``.  An overflow leaves non-finite entries, which
    ``frame_bounds`` reports."""
    if len(family) == 0:
        raise ValueError("cannot form the Gram matrix of an empty family")
    with np.errstate(over="ignore", invalid="ignore"):
        return _member_gram(family.trajectories.gram(), family)


def _member_gram(traj: np.ndarray, family: ModalFamily) -> GramMatrix:
    """The Gram of the members g_n psi_n from the Gram <g_n, g_k> of their
    trajectories, symmetrized; real when both are, as for the w and y
    families, whose Psi is real once the factors are folded in."""
    psis = family.psis
    if not psis.imag.any():
        psis = psis.real
    raw = traj * (psis @ psis.conj().T)
    return GramMatrix(0.5 * (raw.T + raw.conj()), family.grid.horizon, family.labels)


class FrameBounds(Value):
    """Sharp two-sided constants of the truncated family."""

    _fields = ("lower", "upper", "size", "horizon")

    def __init__(self, lower: float, upper: float, size: int, horizon: float):
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "horizon", horizon)

    @property
    def singular(self) -> bool:
        """Lower bound lost: lower not above SINGULAR_GRAM_RTOL * upper, or NaN."""
        return not (self.upper > 0.0 and self.lower > SINGULAR_GRAM_RTOL * self.upper)


def frame_bounds(g: GramMatrix) -> FrameBounds:
    """Extreme eigenvalues of the Gram matrix.

    These are the best constants c, C with
    c * sum |a|^2 <= ||sum a_n member_n||^2 <= C * sum |a|^2
    over the truncated family.  A non-finite entry, the mark of an
    overflowing modal solve, raises ``NumericsError``.
    """
    entries = g.entries
    if not np.isfinite(entries).all():
        raise NumericsError(f"non-finite Gram matrix (size {g.size}, horizon {g.horizon:g})")
    hermitian_defect = np.max(np.abs(entries - entries.conj().T))
    scale = max(1.0, float(np.max(np.abs(entries))))
    if hermitian_defect > 1e-8 * scale:
        raise ValueError("Gram matrix is not Hermitian within tolerance")
    eigs = np.linalg.eigvalsh(entries)
    return FrameBounds(float(eigs[0]), float(eigs[-1]), g.size, g.horizon)


def leading_frame_bounds(g: GramMatrix, sizes) -> list:
    """Frame bounds of nested leading sub-families, one per requested size."""
    out = []
    for k in sizes:
        if not 1 <= k <= g.size:
            raise ValueError(f"sub-family size {k} outside 1..{g.size}")
        sub = GramMatrix(g.entries[:k, :k], g.horizon, g.labels[:k])
        out.append(frame_bounds(sub))
    return out


def dual_coefficients(g: GramMatrix) -> np.ndarray:
    """Coefficients C = conj(G^-1) of the biorthogonal dual family.

    The dual members are p_k = sum_m C[k, m] member_m, so that
    <member_n, p_k> = (G^-1 G)[k, n] = delta_nk.  Raises
    ``SingularGramError`` when the bounds are ``FrameBounds.singular``, i.e.
    when the family has numerically lost its lower frame bound at this
    truncation and horizon.
    """
    bounds = g.bounds
    if bounds.singular:
        raise SingularGramError(
            "singular Gram: min eigenvalue "
            f"{bounds.lower:.3e} vs max {bounds.upper:.3e} "
            f"(size {g.size}, horizon {g.horizon:g})"
        )
    return np.conj(np.linalg.solve(g.entries, np.eye(g.size)))


def biorthogonality_defect(g: GramMatrix, coefficients: np.ndarray) -> float:
    """max |<member_n, p_k> - delta_nk| over the family, a health check.

    <member_n, p_k> = sum_m conj(C[k, m]) G[m, n], from the Gram alone.
    """
    inner = np.conj(coefficients) @ g.entries
    return float(np.max(np.abs(inner - np.eye(g.size))))


def coefficients_via_duals(
    family: ModalFamily, coefficients: np.ndarray, signal: TraceSignal
) -> np.ndarray:
    """Recover expansion coefficients a_k = <signal, p_k> = conj(C) <signal, member>."""
    if coefficients.shape != (len(family), len(family)):
        raise ValueError("dual coefficients do not match the family size")
    return np.conj(coefficients) @ family.inner_with(signal)
