"""Frame analysis of modal trace families and their biorthogonal duals.

A modal family collects the boundary signals g_n(t) * psi_n for a scalar
trajectory family g (the z, w or convolved-w trajectories), stored factored
as the trajectories Z (members, J+1) and trace vectors Psi (members, m).
For the w and y families Z is real: the real rows of the modal solve, with
each mode's factor (1, or i for an imaginary lambda_n) folded into Psi, so
Psi is real, every product that reads Z is a real one and the Gram is real.
The z family stays complex.
Its Gram matrix under the discrete L2(0,T; G) inner product, the trajectory
Gram times the trace-vector Gram entry by entry, yields sharp two-sided
frame constants for the truncated span (extreme eigenvalues).  Its inverse
gives the biorthogonal dual family within that span, held as coefficients
alone.  Because the inner product is a fixed discrete bilinear form,
biorthogonality holds to linear solver precision rather than quadrature
accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import default_rng

from .errors import NumericsError, SingularGramError
from .modal import solve_w_many, solve_z_many
from .spectral import SpectralModel
from .volterra import (
    MemoryKernel,
    SourceModulation,
    TimeGrid,
    TraceSignal,
    _matmul,
    _real_gram,
    convolve,
    inner_products,
)

#: Gram matrices with min eigenvalue below this times the max eigenvalue are
#: treated as singular (frame failure at this truncation/horizon).
SINGULAR_GRAM_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class ModalFamily:
    """Members scalars[n] * psis[n] sharing one grid; labels name the modes."""

    grid: TimeGrid
    labels: tuple
    scalars: np.ndarray  # (members, J+1), the trajectories g_n: real or complex
    psis: np.ndarray  # (members, m), the complex trace vectors psi_n

    def __post_init__(self):
        labels = tuple(self.labels)
        scalars = np.asarray(self.scalars, dtype=np.complex128
                             if np.iscomplexobj(self.scalars) else np.float64)
        psis = np.asarray(self.psis, dtype=np.complex128)
        if scalars.shape != (len(labels), self.grid.steps + 1):
            raise ValueError("family scalars must be (members, nodes) on the grid")
        if psis.ndim != 2 or psis.shape[0] != len(labels) or psis.shape[1] < 1:
            raise ValueError("family trace vectors must be (members, dim)")
        scalars.setflags(write=False)
        psis.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "scalars", scalars)
        object.__setattr__(self, "psis", psis)

    def __len__(self) -> int:
        return len(self.labels)

    def synthesize(self, coeffs) -> TraceSignal:
        """Linear combination sum_n coeffs[n] * member_n, as Z^T (coeffs * Psi)."""
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (len(self),):
            raise ValueError("coefficient vector does not match the family size")
        return TraceSignal(self.grid, _matmul(self.scalars.T, coeffs[:, None] * self.psis))

    def inner_with(self, signal: TraceSignal) -> np.ndarray:
        """Vector of <signal, member_n> = sum_c <signal_c, g_n> conj(psi_n,c)."""
        if signal.grid != self.grid or signal.dim != self.psis.shape[1]:
            raise ValueError("signal does not match the family grid and dimension")
        per_dim = inner_products(signal.values.T, self.scalars, self.grid)
        return np.einsum("cn,nc->n", per_dim, self.psis.conj())


def _trace_family(solution, labels) -> ModalFamily:
    """The members factor_n row_n psi_n, with the factors folded into Psi."""
    psis = solution.factors[:, None] * np.stack([m.psi for m in solution.modes])
    return ModalFamily(solution.grid, labels, solution.rows, psis)


def z_trace_family(model: SpectralModel, kernel: MemoryKernel, grid: TimeGrid) -> ModalFamily:
    """Members z_n * psi_n over signed indices, ordered (+1, -1, +2, -2, ...).

    The interleaving makes every leading block of 2k members the family at
    truncation k, so nested truncation scans reuse one Gram matrix.
    """
    labels = [sign * n for n in range(1, model.truncation + 1) for sign in (1, -1)]
    return _trace_family(solve_z_many([model.mode(n) for n in labels], kernel, grid), labels)


def w_trace_family(model: SpectralModel, kernel: MemoryKernel, grid: TimeGrid) -> ModalFamily:
    """Members w_n * psi_n over positive indices 1..N, on real rows."""
    modes = model.positive_modes
    return _trace_family(solve_w_many(modes, kernel, grid), [m.index for m in modes])


def y_trace_family(
    model: SpectralModel,
    kernel: MemoryKernel,
    modulation: SourceModulation,
    grid: TimeGrid,
) -> ModalFamily:
    """Members (V_sigma w_n) * psi_n, the time-integrated source responses;
    a real sigma keeps the rows real, and a realized one convolves them by
    the leaf-blocked recurrence."""
    family = w_trace_family(model, kernel, grid)
    ys = convolve(modulation.sample(grid), TraceSignal(grid, family.scalars.T)).values.T
    return ModalFamily(grid, family.labels, ys, family.psis)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Hermitian Gram of a modal family, entries[k, n] = <member_n, member_k>;
    real for the w and y families, complex for the z family."""

    entries: np.ndarray
    horizon: float
    labels: tuple

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.complex128
                         if np.iscomplexobj(self.entries) else np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("Gram matrix must be square")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "labels", tuple(self.labels))

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

    Real trajectories take their trapezoid Gram from Z in place, one
    symmetric rank-k update and a rank-2 correction at the ends
    (``volterra._real_gram``)."""
    if len(family) == 0:
        raise ValueError("cannot form the Gram matrix of an empty family")
    Z = family.scalars
    if np.iscomplexobj(Z):
        traj = inner_products(Z, Z, family.grid)
    else:
        traj = _real_gram(Z, family.grid.dt)
    return _member_gram(traj, family)


def _member_gram(traj: np.ndarray, family: ModalFamily) -> GramMatrix:
    """The Gram of the members g_n psi_n from the Gram <g_n, g_k> of their
    trajectories, symmetrized; real when both are, as for the w and y
    families, whose Psi is real once the factors are folded in."""
    psis = family.psis
    if not psis.imag.any():
        psis = psis.real
    raw = traj * (psis @ psis.conj().T)
    return GramMatrix(0.5 * (raw.T + raw.conj()), family.grid.horizon, family.labels)


@dataclass(frozen=True)
class FrameBounds:
    """Sharp two-sided constants of the truncated family."""

    lower: float
    upper: float
    size: int
    horizon: float

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


# ---------------------------------------------------------------------------
# Trace-vector almost-orthogonality check


def bessel_ratio(model: SpectralModel, coeffs, eps: float, horizon: float) -> float:
    """Ratio ||sum a_n psi_n||^2 / (eps^-1 sum |a_n|^2 + eps sum |lam_n a_n|^2).

    ``coeffs`` runs over the signed modes of the model in storage order.
    Boundedness of this ratio over eps in (0, T] expresses the partial
    orthogonality that the scaled trace vectors inherit from the upper frame
    inequality of the exponential family.
    """
    a = np.asarray(coeffs, dtype=np.complex128)
    if a.shape != (2 * model.truncation,):
        raise ValueError("coefficient vector must cover all signed modes")
    if not np.any(a):
        raise ValueError("all-zero coefficients give a degenerate quotient")
    if not 0.0 < eps <= horizon:
        raise ValueError("eps must lie in (0, horizon]")
    psis = np.stack([m.psi for m in model.modes])
    lams = np.array([m.lam for m in model.modes])
    num = float(np.sum(np.abs(a @ psis) ** 2))
    den = float(np.sum(np.abs(a) ** 2)) / eps + eps * float(np.sum(np.abs(lams * a) ** 2))
    return num / den


def bessel_defect(
    model: SpectralModel,
    horizon: float,
    trials: int,
    seed: int,
    eps_count: int = 12,
) -> float:
    """Monte-Carlo supremum of ``bessel_ratio`` over random coefficients.

    Coefficients are drawn uniformly from the complex unit disc with a seeded
    generator; eps scans a geometric grid up to the horizon.  The returned
    maximum should stay of one size as the truncation grows.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = default_rng(seed)
    eps_grid = np.geomspace(1e-3 * horizon, horizon, eps_count)
    worst = 0.0
    K = 2 * model.truncation
    for _ in range(trials):
        r = np.sqrt(rng.uniform(size=K))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=K)
        a = r * np.exp(1j * phase)
        for eps in eps_grid:
            worst = max(worst, bessel_ratio(model, a, float(eps), horizon))
    return worst
