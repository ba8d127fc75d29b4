"""Frame analysis of modal trace families and their biorthogonal duals.

A modal family collects the boundary signals g_n(t) * psi_n for a scalar
trajectory family g (the z, w or convolved-w trajectories).  Its Gram matrix
under the discrete L2(0,T; G) inner product yields sharp two-sided frame
constants for the truncated span (extreme eigenvalues), and inverting it
yields the biorthogonal dual family within that span.  Because the inner
product is a fixed discrete bilinear form, biorthogonality holds to linear
solver precision rather than quadrature accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, SingularGramError
from .modal import solve_w_many, solve_z_many
from .spectral import SpectralModel
from .volterra import (
    MemoryKernel,
    SourceModulation,
    TimeGrid,
    TraceSignal,
    convolve,
    inner_products,
)

#: Gram matrices with min eigenvalue below this times the max eigenvalue are
#: treated as singular (frame failure at this truncation/horizon).
SINGULAR_GRAM_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class ModalFamily:
    """Stacked trace signals sharing one grid; labels name the modes."""

    grid: TimeGrid
    labels: tuple
    values: np.ndarray  # (members, J+1, m)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.ndim != 3 or arr.shape[0] != len(self.labels):
            raise ValueError("family values must be (members, nodes, dim)")
        if arr.shape[1] != self.grid.steps + 1:
            raise ValueError("family values do not match the grid")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return len(self.labels)

    def synthesize(self, coeffs) -> TraceSignal:
        """Linear combination sum_n coeffs[n] * member_n."""
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (len(self),):
            raise ValueError("coefficient vector does not match the family size")
        return TraceSignal(self.grid, np.tensordot(coeffs, self.values, axes=1))


def _interleaved_indices(truncation: int):
    out = []
    for n in range(1, truncation + 1):
        out.extend((n, -n))
    return out


def _trace_values(model: SpectralModel, modes, signals, grid: TimeGrid) -> np.ndarray:
    """(members, J+1, m) array of signal_n * psi_n, filled member by member."""
    out = np.empty((len(modes), grid.steps + 1, model.dim), dtype=np.complex128)
    for row, m, sig in zip(out, modes, signals):
        np.multiply(sig.values[:, None], m.psi[None, :], out=row)
    return out


def z_trace_family(model: SpectralModel, kernel: MemoryKernel, grid: TimeGrid) -> ModalFamily:
    """Members z_n * psi_n over signed indices, ordered (+1, -1, +2, -2, ...).

    The interleaving makes every leading block of 2k members the family at
    truncation k, so nested truncation scans reuse one Gram matrix.
    """
    labels = _interleaved_indices(model.truncation)
    modes = [model.mode(n) for n in labels]
    trajs = solve_z_many(modes, kernel, grid)
    vals = _trace_values(model, modes, (t.z for t in trajs), grid)
    return ModalFamily(grid, tuple(labels), vals)


def w_trace_family(model: SpectralModel, kernel: MemoryKernel, grid: TimeGrid) -> ModalFamily:
    """Members w_n * psi_n over positive indices 1..N."""
    modes = model.positive_modes
    trajs = solve_w_many(modes, kernel, grid)
    vals = _trace_values(model, modes, (t.z for t in trajs), grid)
    return ModalFamily(grid, tuple(m.index for m in modes), vals)


def y_trace_family(
    model: SpectralModel,
    kernel: MemoryKernel,
    modulation: SourceModulation,
    grid: TimeGrid,
) -> ModalFamily:
    """Members (V_sigma w_n) * psi_n, the time-integrated source responses."""
    sigma = modulation.sample(grid)
    modes = model.positive_modes
    trajs = solve_w_many(modes, kernel, grid)
    # a generator, so one convolved trajectory exists at a time
    ys = (convolve(sigma, t.z) for t in trajs)
    vals = _trace_values(model, modes, ys, grid)
    return ModalFamily(grid, tuple(m.index for m in modes), vals)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Hermitian Gram of a modal family, entries[k, n] = <member_n, member_k>."""

    entries: np.ndarray
    horizon: float
    labels: tuple

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("Gram matrix must be square")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def gram(family: ModalFamily) -> GramMatrix:
    """Assemble and symmetrize the Gram matrix of the family."""
    if len(family) == 0:
        raise ValueError("cannot form the Gram matrix of an empty family")
    raw = inner_products(family.values, family.values, family.grid)
    return GramMatrix(0.5 * (raw.T + raw.conj()), family.grid.horizon, family.labels)


@dataclass(frozen=True)
class FrameBounds:
    """Sharp two-sided constants of the truncated family."""

    lower: float
    upper: float
    size: int
    horizon: float


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


@dataclass(frozen=True, eq=False)
class DualFamily:
    """Biorthogonal dual of a modal family within its span."""

    family: ModalFamily
    gram: GramMatrix
    coefficients: np.ndarray  # dual_k = sum_m coefficients[k, m] * member_m
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.family)

    def dual(self, k: int) -> TraceSignal:
        return TraceSignal(self.family.grid, self.values[k])


def dual_family(family: ModalFamily, g: GramMatrix | None = None) -> DualFamily:
    """Construct the biorthogonal dual family by inverting the Gram matrix.

    Raises ``SingularGramError`` when the smallest eigenvalue is below
    ``SINGULAR_GRAM_RTOL`` times the largest, i.e. when the family has
    numerically lost its lower frame bound at this truncation and horizon.
    """
    if g is None:
        g = gram(family)
    if g.size != len(family):
        raise ValueError("Gram matrix size does not match the family")
    bounds = frame_bounds(g)
    if bounds.upper <= 0.0 or bounds.lower <= SINGULAR_GRAM_RTOL * bounds.upper:
        raise SingularGramError(
            "singular Gram: min eigenvalue "
            f"{bounds.lower:.3e} vs max {bounds.upper:.3e} "
            f"(size {g.size}, horizon {g.horizon:g})"
        )
    coeffs = np.conj(np.linalg.solve(g.entries, np.eye(g.size)))
    vals = np.tensordot(coeffs, family.values, axes=1)
    return DualFamily(family, g, coeffs, vals)


def biorthogonality_defect(duals: DualFamily) -> float:
    """max |<member_n, dual_k> - delta_nk| over the family, a health check."""
    fam = duals.family
    inner = inner_products(fam.values, duals.values, fam.grid)
    return float(np.max(np.abs(inner - np.eye(len(fam)))))


def coefficients_via_duals(duals: DualFamily, signal: TraceSignal) -> np.ndarray:
    """Recover expansion coefficients a_k = <signal, dual_k>."""
    if signal.grid != duals.family.grid:
        raise ValueError("signal grid does not match the family grid")
    return inner_products(signal.values[None], duals.values, signal.grid)[0]


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
    rng = np.random.default_rng(seed)
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
