"""Modal trajectories of the memory-perturbed oscillator equations.

For each nonzero branch value the scalar unknown g solves

    g''(t) + mu g(t) = -mu * integral of M(t - s) g(s) ds over [0, t]

with mode-specific initial data: (1, i*lambda_n) for the z family and
(0, lambda_n) for the w family.  Zero-branch modes bypass the solver and use
their closed forms 1 + i*sgn(n)*t and t.

Integration is an implicit-trapezoid step in (g, g'), solved in closed form,
with the memory integral evaluated by the trapezoid rule over the stored
history.  Exponential kernels use an algebraically identical one-step
recursion for the history sum (no approximation beyond the quadrature that
the naive sum already commits), which drops the cost from O(J^2) to O(J) per
mode.  Modes sharing a grid and kernel are advanced together as a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Mode
from .volterra import (
    ExponentialKernel,
    MemoryKernel,
    ScalarSignal,
    TimeGrid,
    ZeroKernel,
)


@dataclass(frozen=True, eq=False)
class ModalTrajectory:
    """Solution of one modal equation together with its derivative."""

    mode: Mode
    z: ScalarSignal
    z_prime: ScalarSignal
    kernel: MemoryKernel


def _integrate_family(
    mus: np.ndarray,
    z0: np.ndarray,
    p0: np.ndarray,
    kernel: MemoryKernel,
    grid: TimeGrid,
    keep_derivative: bool = True,
):
    """Advance a batch of modal equations sharing one grid and kernel.

    ``mus`` holds the real stiffness coefficients lambda_n^2 = mu_n; the
    state is complex.  Returns (Z, P) arrays of shape (len(mus), J+1); P is
    None when ``keep_derivative`` is false.
    """
    nm = mus.shape[0]
    J = grid.steps
    dt = grid.dt
    Z = np.empty((nm, J + 1), dtype=np.complex128)
    Z[:, 0] = z0
    p = np.array(p0, dtype=np.complex128)
    P = np.empty_like(Z) if keep_derivative else None
    if P is not None:
        P[:, 0] = p

    zero_memory = isinstance(kernel, ZeroKernel)
    exponential = isinstance(kernel, ExponentialKernel)
    if zero_memory:
        m0 = 0.0
        mv = None
    elif exponential:
        m0 = kernel.beta
        decay = np.exp(-kernel.alpha * dt)
        mv = None
    else:
        mv = kernel.sample(grid)
        m0 = float(mv[0])

    kappa = 0.5 * dt * mus * m0
    denom = 1.0 + 0.25 * dt * dt * (mus + kappa)
    g = np.zeros(nm, dtype=np.complex128)  # memory forcing -mu * S_j
    S = np.zeros(nm, dtype=np.complex128)  # trapezoid history sum at t_j

    for j in range(J):
        zj = Z[:, j]
        if zero_memory:
            rhs = zj + dt * p - 0.25 * dt * dt * mus * zj
            znew = rhs / denom
            p = p + 0.5 * dt * (-mus * (zj + znew))
        else:
            if exponential:
                h = decay * (S + 0.5 * dt * m0 * zj)
            else:
                h = 0.5 * mv[j + 1] * Z[:, 0]
                if j >= 1:
                    h = h + Z[:, 1:j + 1] @ mv[j:0:-1]
                h = dt * h
            ghat = -mus * h
            rhs = zj + dt * p + 0.25 * dt * dt * (-mus * zj + g + ghat)
            znew = rhs / denom
            gnew = ghat - kappa * znew
            p = p + 0.5 * dt * (-mus * zj + g - mus * znew + gnew)
            S = h + 0.5 * dt * m0 * znew
            g = gnew
        Z[:, j + 1] = znew
        if P is not None:
            P[:, j + 1] = p
    return Z, P


def _closed_form_zero_branch(mode: Mode, grid: TimeGrid, family: str):
    t = grid.nodes
    if family == "z":
        vals = 1.0 + 1j * mode.sign * t
        dvals = np.full(t.shape, 1j * mode.sign, dtype=np.complex128)
    else:
        vals = t.astype(np.complex128)
        dvals = np.ones_like(t, dtype=np.complex128)
    return vals, dvals


def _initial_data(mode: Mode, family: str):
    if family == "z":
        return 1.0 + 0.0j, 1j * mode.lam
    return 0.0 + 0.0j, mode.lam


def _solve_many(modes, kernel, grid, family: str):
    solved_idx = [i for i, m in enumerate(modes) if m.branch == "J1"]
    out = [None] * len(modes)
    if solved_idx:
        mus = np.array([modes[i].mu for i in solved_idx], dtype=float)
        init = [_initial_data(modes[i], family) for i in solved_idx]
        z0 = np.array([a for a, _ in init])
        p0 = np.array([b for _, b in init])
        Z, P = _integrate_family(mus, z0, p0, kernel, grid)
        for row, i in enumerate(solved_idx):
            out[i] = ModalTrajectory(
                modes[i],
                ScalarSignal(grid, Z[row]),
                ScalarSignal(grid, P[row]),
                kernel,
            )
    for i, m in enumerate(modes):
        if out[i] is None:
            vals, dvals = _closed_form_zero_branch(m, grid, family)
            out[i] = ModalTrajectory(
                m, ScalarSignal(grid, vals), ScalarSignal(grid, dvals), kernel
            )
    return out


def solve_z_many(modes, kernel: MemoryKernel, grid: TimeGrid):
    """Trajectories with data (1, i*lambda_n) for several modes at once."""
    return _solve_many(tuple(modes), kernel, grid, "z")


def solve_w_many(modes, kernel: MemoryKernel, grid: TimeGrid):
    """Trajectories with data (0, lambda_n); these vanish at t = 0."""
    return _solve_many(tuple(modes), kernel, grid, "w")


def solve_z(mode: Mode, kernel: MemoryKernel, grid: TimeGrid) -> ModalTrajectory:
    return solve_z_many((mode,), kernel, grid)[0]


def solve_w(mode: Mode, kernel: MemoryKernel, grid: TimeGrid) -> ModalTrajectory:
    return solve_w_many((mode,), kernel, grid)[0]


def comparison_exponential(mode: Mode, kernel: MemoryKernel, grid: TimeGrid) -> ScalarSignal:
    """The reference signal exp((M(0)/2 + i*lambda_n) t).

    Zero-branch modes return their closed form 1 + i*sgn(n)*t, for which the
    difference to the z trajectory vanishes identically.
    """
    if mode.branch == "J0":
        vals, _ = _closed_form_zero_branch(mode, grid, "z")
        return ScalarSignal(grid, vals)
    gamma = 0.5 * kernel.at_zero()
    return ScalarSignal(grid, np.exp((gamma + 1j * mode.lam) * grid.nodes))


def _comparison_defects(modes, kernel: MemoryKernel, grid: TimeGrid, chunk: int) -> np.ndarray:
    """|lambda_n|^2 ||z_n - comparison_n||^2 for nonzero-branch modes.

    Modes are solved in chunks to bound memory on long grids, and each
    defect is reduced row by row so no (chunk, J+1) comparison array exists.
    """
    if any(m.branch == "J0" for m in modes):
        raise ValueError("the comparison defect is identically zero on the zero branch")
    w = grid.weights
    out = np.empty(len(modes))
    for start in range(0, len(modes), chunk):
        block = modes[start:start + chunk]
        mus = np.array([m.mu for m in block], dtype=float)
        z0 = np.ones(len(block), dtype=np.complex128)
        p0 = np.array([1j * m.lam for m in block])
        Z, _ = _integrate_family(mus, z0, p0, kernel, grid, keep_derivative=False)
        for row, m in enumerate(block):
            diff = Z[row] - comparison_exponential(m, kernel, grid).values
            out[start + row] = abs(m.lam) ** 2 * float(
                np.dot(w, (diff * np.conj(diff)).real)
            )
    return out


def comparison_defect(mode: Mode, kernel: MemoryKernel, grid: TimeGrid) -> float:
    """|lambda_n|^2 times the squared L2 distance of z_n from its comparison.

    The distance decays like 1/|lambda_n|, so this product stays bounded over
    the mode range; it is the quantity scanned for growth trends.
    """
    return float(_comparison_defects([mode], kernel, grid, 1)[0])


def comparison_defect_scan(
    model,
    kernel: MemoryKernel,
    grid: TimeGrid,
    indices,
    chunk: int = 32,
) -> np.ndarray:
    """Vector of comparison defects for the listed positive mode indices."""
    modes = [model.mode(n) for n in indices]
    return _comparison_defects(modes, kernel, grid, chunk)
