"""Modal trajectories of the memory-perturbed oscillator equations.

For each nonzero branch value the scalar unknown g solves

    g''(t) + mu g(t) = -mu * integral of M(t - s) g(s) ds over [0, t]

with mode-specific initial data: (1, i*lambda_n) for the z family and
(0, lambda_n) for the w family.  Zero-branch modes bypass the solver and use
their closed forms 1 + i*sgn(n)*t and t.

Integration is an implicit-trapezoid step in (g, g'), solved in closed form,
with the memory integral evaluated by the trapezoid rule over the stored
history; ``_trapezoid_step`` is the one statement of that step.  For the
zero and exponential kernels the history is one extra state, the trapezoid
memory sum S, so each step is a fixed real 3x3 map A on (g, g', S) per mode
(the zero kernel is its M(0) = 0 case).  Powers A^1..A^L over one leaf of
L = 256 steps are tabulated once; each leaf's values are their first rows
applied to the leaf's start state, which A^L then carries to the next leaf.
That is L + J/L Python iterations instead of J, with the discretisation
unchanged.  Generic (polynomial or sampled) kernels step through leaves of
the blocked causal-history solve in ``volterra``, which adds the history of
earlier leaves by FFT convolution: O(J log^2 J) per mode instead of O(J^2).
Modes sharing a grid and kernel are advanced together as a batch.  Only g is
stored; g' is recovered on demand.  A state that overflows stops the solve
with ``NumericsError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .spectral import Mode
from .volterra import (
    ExponentialKernel,
    MemoryKernel,
    ScalarSignal,
    TimeGrid,
    ZeroKernel,
    _LEAF_STEPS,
    _causal_blocks,
    inner_products,
)


@dataclass(frozen=True, eq=False)
class ModalTrajectory:
    """Solution of one modal equation and its initial derivative."""

    mode: Mode
    z: ScalarSignal
    p0: complex
    kernel: MemoryKernel

    @property
    def z_prime(self) -> ScalarSignal:
        """The step's derivative, recovered from the solution on demand.

        Every implicit-trapezoid step satisfies z_(n+1) - z_n =
        dt/2 (p_n + p_(n+1)), so (-1)^n p_n = p_0 + sum over 1 <= k <= n of
        (-1)^k 2 (z_k - z_(k-1)) / dt.
        """
        grid = self.z.grid
        sign = np.where(np.arange(grid.steps + 1) % 2, -1.0, 1.0)
        q = np.empty(grid.steps + 1, dtype=np.complex128)
        q[0] = self.p0
        q[1:] = np.diff(self.z.values) * sign[1:] * (2.0 / grid.dt)
        return ScalarSignal(grid, sign * np.cumsum(q))


def _trapezoid_step(mus, m0: float, dt: float):
    """The implicit-trapezoid step (z_j, p_j, g_j, h) -> (z_j+1, p_j+1, g_j+1).

    g_j is the memory forcing -mu times the memory integral at t_j, and h
    the trapezoid history at t_j+1 without its own M(0)/2 term, which the
    step takes implicitly.  The step is linear in (z, p, g, h).
    """
    kappa = 0.5 * dt * mus * m0
    denom = 1.0 + 0.25 * dt * dt * (mus + kappa)

    def step(z, p, g, h):
        ghat = -mus * h
        znew = (z + dt * p + 0.25 * dt * dt * (-mus * z + g + ghat)) / denom
        gnew = ghat - kappa * znew
        return znew, p + 0.5 * dt * (-mus * z + g - mus * znew + gnew), gnew

    return step


def _exponential_step_map(mus: np.ndarray, m0: float, decay: float, dt: float) -> np.ndarray:
    """Real (modes, 3, 3) matrices A with (z, p, S)_(j+1) = A (z, p, S)_j.

    For M(t) = m0 e^(-alpha t) the history at t_j+1 is
    h = decay (S_j + dt/2 m0 z_j), decay = e^(-alpha dt), with S the
    trapezoid memory sum (S_0 = 0) and g_j = -mu S_j, so each step is one
    fixed linear map.  Its columns are the step applied to the unit states.
    """
    mu = mus[:, None]
    z, p, S = np.eye(3)
    h = decay * (S + 0.5 * dt * m0 * z)
    znew, pnew, _ = _trapezoid_step(mu, m0, dt)(z, p, -mu * S, h)
    return np.stack([znew, pnew, h + 0.5 * dt * m0 * znew], axis=1)


def _integrate_family(
    mus: np.ndarray,
    z0: np.ndarray,
    p0: np.ndarray,
    kernel: MemoryKernel,
    grid: TimeGrid,
) -> np.ndarray:
    """Advance a batch of modal equations sharing one grid and kernel.

    ``mus`` holds the real stiffness coefficients lambda_n^2 = mu_n; the
    state is complex.  Returns Z of shape (len(mus), J+1).
    """
    nm = mus.shape[0]
    J = grid.steps
    dt = grid.dt
    Z = np.empty((nm, J + 1), dtype=np.complex128)
    Z[:, 0] = z0
    n = 0
    try:
        # stop at the first overflow instead of stepping on inf/NaN
        with np.errstate(over="raise", invalid="raise"):
            if isinstance(kernel, (ZeroKernel, ExponentialKernel)):
                # the zero kernel is the m0 = 0 case of the exponential map
                alpha = kernel.alpha if isinstance(kernel, ExponentialKernel) else 0.0
                A = _exponential_step_map(mus, kernel.at_zero(), np.exp(-alpha * dt), dt)
                # powers[:, k - 1] = A^k over one leaf; each leaf's columns of
                # Z are their first rows applied to the leaf's start state
                L = min(_LEAF_STEPS, J)
                powers = np.empty((nm, L, 3, 3))
                powers[:, 0] = A
                for n in range(2, L + 1):
                    np.matmul(powers[:, n - 2], A, out=powers[:, n - 1])
                state = np.stack([z0, p0, np.zeros(nm)], axis=1).astype(np.complex128)[..., None]
                for n in range(1, J + 1, L):
                    hi = min(n + L, J + 1)
                    Z[:, n:hi] = (powers[:, :hi - n, 0] @ state)[..., 0]
                    state = powers[:, L - 1] @ state
                return Z

            mv = kernel.sample(grid)
            step = _trapezoid_step(mus, float(mv[0]), dt)
            p = np.array(p0, dtype=np.complex128)
            g = np.zeros(nm, dtype=np.complex128)  # memory forcing -mu * S_j
            # the unsolved slots Z[:, n] hold the history sum over the
            # earlier leaves (see volterra._causal_blocks)
            for lo, hi in _causal_blocks(Z, mv):
                for n in range(lo, hi):
                    h = dt * (0.5 * mv[n] * Z[:, 0] + Z[:, n] + Z[:, lo:n] @ mv[n - lo:0:-1])
                    Z[:, n], p, g = step(Z[:, n - 1], p, g, h)
    except FloatingPointError as exc:
        raise NumericsError(
            f"non-finite modal state at step {n} of {J} ({exc})"
        ) from None
    return Z


def _closed_form_zero_branch(mode: Mode, grid: TimeGrid, family: str):
    """Values and initial derivative of a zero-branch trajectory."""
    t = grid.nodes
    if family == "z":
        return 1.0 + 1j * mode.sign * t, 1j * mode.sign
    return t.astype(np.complex128), 1.0 + 0.0j


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
        Z = _integrate_family(mus, z0, p0, kernel, grid)
        for row, i in enumerate(solved_idx):
            out[i] = ModalTrajectory(modes[i], ScalarSignal(grid, Z[row]), complex(p0[row]), kernel)
    for i, m in enumerate(modes):
        if out[i] is None:
            vals, p0 = _closed_form_zero_branch(m, grid, family)
            out[i] = ModalTrajectory(m, ScalarSignal(grid, vals), p0, kernel)
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
    out = np.empty(len(modes))
    for start in range(0, len(modes), chunk):
        block = modes[start:start + chunk]
        mus = np.array([m.mu for m in block], dtype=float)
        z0 = np.ones(len(block), dtype=np.complex128)
        p0 = np.array([1j * m.lam for m in block])
        Z = _integrate_family(mus, z0, p0, kernel, grid)
        for row, m in enumerate(block):
            diff = (Z[row] - comparison_exponential(m, kernel, grid).values)[None]
            out[start + row] = abs(m.lam) ** 2 * inner_products(diff, diff, grid)[0, 0].real
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
