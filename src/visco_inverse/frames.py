"""Frame analysis of modal trace families and their biorthogonal duals.

A modal family collects the boundary signals g_n(t) * psi_n for a scalar
trajectory family g (the z or w trajectories), stored factored as the
trajectories Z (members, J+1) and trace vectors Psi (members, m).  The
family record is the modal solve's own ``modal.ModalFamily``.  For the w
family Z is real: the real rows of the modal solve, with each mode's factor
(1, or i for an imaginary lambda_n) folded into Psi, so Psi is real, every
product that reads Z is a real one and the Gram is real.  The z family's Z
is complex.  The y family (V_sigma w_n) psi_n has no record of its own: it
shares the w family's Psi, and its L2 and H1 trajectory Grams are the w
trajectories' ``h1_gram``.  A family's trajectories are the step map's
``LeafTables`` under a kernel with a realization and ``StoredRows`` under a
sampled one, and both answer one interface (``modal``): the Gram, the
synthesis Z^T (a * Psi), the inner products with a signal and the Grams of
V_sigma Z come from either alike, so this module reads no storage of its own.  Tables give them in O(N d J) time
and O(N d L + N^2) memory, with no (members, J+1) array; ``scalars`` builds
Z on request.
Its Gram matrix under the discrete L2(0,T; G) inner product, the trajectory
Gram times the trace-vector Gram entry by entry, yields sharp two-sided
frame constants for the truncated span (extreme eigenvalues).  Its inverse
gives the biorthogonal dual family within that span, held as coefficients
alone.  Because the inner product is a fixed discrete bilinear form,
biorthogonality holds to linear solver precision rather than quadrature
accuracy.
With both ends observed, the string's reflection mirrors each trace vector,
psi_right = (-1)^n psi_left, so members of opposite signs are orthogonal and
the family is the direct sum of its two ``reflection_classes`` (any other
family is one class): its Gram, like the y family's in ``inverse``, is
assembled class by class with exact zeros between, the frame bounds are the
min and max over the classes, and the duals are found class by class.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import NumericsError, SingularGramError
from .modal import ModalFamily, solve_w_many, solve_z_many
from .record import Record, Value
from .spectral import SpectralModel
from .volterra import MemoryKernel, TimeGrid, TraceSignal

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


def reflection_classes(psis: np.ndarray) -> tuple:
    """Index arrays of the members whose trace vectors (members, m) have
    psi[1] == psi[0] (a zero psi among them) and psi[1] == -psi[0], compared
    exactly, when every member is in one of two non-empty groups; else one
    class of every member."""
    if psis.shape[1] == 2:
        even = psis[:, 1] == psis[:, 0]
        if (even | (psis[:, 1] == -psis[:, 0])).all() and 0 < even.sum() < len(psis):
            return np.flatnonzero(even), np.flatnonzero(~even)
    return (np.arange(len(psis)),)


class GramMatrix(Record):
    """Hermitian Gram of a modal family, entries[k, n] = <member_n, member_k>;
    real for the w and y families, complex for the z family.  ``classes``
    (one by default) index the members of blocks with exact zeros between."""

    def __init__(self, entries: np.ndarray, horizon: float, labels: tuple,
                 classes: tuple = ()):
        entries = np.asarray(entries, dtype=np.complex128
                             if np.iscomplexobj(entries) else np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("Gram matrix must be square")
        entries.setflags(write=False)
        labels = tuple(labels)
        classes = tuple(classes) or (np.arange(len(entries)),)
        self._set(locals())

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
    ``LeafTables``, over the family's ``reflection_classes``.  An overflow
    leaves non-finite entries, which ``frame_bounds`` reports."""
    if len(family) == 0:
        raise ValueError("cannot form the Gram matrix of an empty family")
    classes = reflection_classes(family.psis)
    with np.errstate(over="ignore", invalid="ignore"):
        return _member_gram(family.trajectories.gram(classes=classes), family)


def _member_gram(traj: np.ndarray, family: ModalFamily) -> GramMatrix:
    """The Gram of the members g_n psi_n from the Gram <g_n, g_k> of their
    trajectories, symmetrized, built per ``reflection_classes`` from their
    blocks of ``traj`` alone, with zeros between; real when both are, as for
    the w and y families, whose Psi is real once the factors are folded in."""
    psis = family.psis
    if not psis.imag.any():
        psis = psis.real
    classes = reflection_classes(psis)
    raw = np.zeros(traj.shape, np.result_type(traj, psis))
    for c in classes:
        block = np.ix_(c, c)
        raw[block] = traj[block] * (psis[c] @ psis[c].conj().T)
    return GramMatrix(0.5 * (raw.T + raw.conj()), family.grid.horizon, family.labels, classes)


class FrameBounds(Value):
    """Sharp two-sided constants of the truncated family."""

    def __init__(self, lower: float, upper: float, size: int, horizon: float):
        self._set(locals())

    @property
    def singular(self) -> bool:
        """Lower bound lost: lower not above SINGULAR_GRAM_RTOL * upper, or NaN."""
        return not (self.upper > 0.0 and self.lower > SINGULAR_GRAM_RTOL * self.upper)


def frame_bounds(g: GramMatrix) -> FrameBounds:
    """Extreme eigenvalues of the Gram matrix.

    These are the best constants c, C with
    c * sum |a|^2 <= ||sum a_n member_n||^2 <= C * sum |a|^2
    over the truncated family: over a direct sum, the min and max over its
    classes.  A non-finite entry, the mark of an overflowing modal solve,
    raises ``NumericsError``.
    """
    entries = g.entries
    if not np.isfinite(entries).all():
        raise NumericsError(f"non-finite Gram matrix (size {g.size}, horizon {g.horizon:g})")
    hermitian_defect = np.max(np.abs(entries - entries.conj().T))
    scale = max(1.0, float(np.max(np.abs(entries))))
    if hermitian_defect > 1e-8 * scale:
        raise ValueError("Gram matrix is not Hermitian within tolerance")
    eigs = [np.linalg.eigvalsh(entries[np.ix_(c, c)]) for c in g.classes]
    return FrameBounds(float(min(e[0] for e in eigs)), float(max(e[-1] for e in eigs)),
                       g.size, g.horizon)


def leading_frame_bounds(g: GramMatrix, sizes) -> list:
    """Frame bounds of nested leading sub-families, one per requested size."""
    out = []
    for k in sizes:
        if not 1 <= k <= g.size:
            raise ValueError(f"sub-family size {k} outside 1..{g.size}")
        classes = [c[c < k] for c in g.classes if c[0] < k]
        sub = GramMatrix(g.entries[:k, :k], g.horizon, g.labels[:k], classes)
        out.append(frame_bounds(sub))
    return out


def dual_coefficients(g: GramMatrix) -> np.ndarray:
    """Coefficients C = conj(G^-1) of the biorthogonal dual family.

    The dual members are p_k = sum_m C[k, m] member_m, so that
    <member_n, p_k> = (G^-1 G)[k, n] = delta_nk.  Raises
    ``SingularGramError`` when the bounds are ``FrameBounds.singular``, i.e.
    when the family has numerically lost its lower frame bound at this
    truncation and horizon.  The inverse of a direct sum is that of each
    class, with zeros between them.
    """
    bounds = g.bounds
    if bounds.singular:
        raise SingularGramError(
            "singular Gram: min eigenvalue "
            f"{bounds.lower:.3e} vs max {bounds.upper:.3e} "
            f"(size {g.size}, horizon {g.horizon:g})"
        )
    inverse = np.zeros_like(g.entries)
    for c in g.classes:
        inverse[np.ix_(c, c)] = np.linalg.inv(g.entries[np.ix_(c, c)])
    return inverse.conj()


def biorthogonality_defect(g: GramMatrix, coefficients: np.ndarray) -> float:
    """max |<member_n, p_k> - delta_nk| over the family, a health check.

    <member_n, p_k> = sum_m conj(C[k, m]) G[m, n], from the Gram alone.
    """
    inner = coefficients.conj() @ g.entries
    return float(np.max(np.abs(inner - np.eye(g.size))))


def coefficients_via_duals(
    family: ModalFamily, coefficients: np.ndarray, signal: TraceSignal
) -> np.ndarray:
    """Recover expansion coefficients a_k = <signal, p_k> = conj(C) <signal, member>."""
    if coefficients.shape != (len(family), len(family)):
        raise ValueError("dual coefficients do not match the family size")
    return coefficients.conj() @ family.inner_with(signal)
