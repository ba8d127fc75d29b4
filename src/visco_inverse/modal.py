"""Modal trajectories of the memory-perturbed oscillator equations.

For each nonzero branch value the scalar unknown g solves

    g''(t) + mu g(t) = -mu * integral of M(t - s) g(s) ds over [0, t]

with mode-specific initial data: (1, i*lambda_n) for the z family and
(0, lambda_n) for the w family.  Zero-branch modes bypass the solver: their
trajectories are z(0) + z'(0)*t, with z'(0) = i*sgn(n) for z and 1 for w.

Integration is an implicit-trapezoid step in (g, g'), solved in closed form,
with the memory integral evaluated by the trapezoid rule over the stored
history; ``_trapezoid_step`` is the one statement of that step.  For the
zero, exponential and polynomial kernels, which have a finite realization
M(t) = c^T e^(Rt) b (``MemoryKernel.realization``), the history is a d-vector
state X, the trapezoid memory sum taken with e^(R(t - s)) b, so each step is
a fixed real (2+d)x(2+d) map A on (g, g', X) per mode: d = 1 for the zero and
exponential kernels, d = degree + 1 for a polynomial.  Powers A^1..A^L over
one leaf of L = 256 steps are tabulated once; each leaf's values are their
first rows applied to the leaf's start state, which A^L then carries to the
next leaf.  That is L + J/L Python iterations instead of J, with the
discretisation unchanged.  Only sampled kernels step through leaves of the
blocked causal-history solve in ``volterra``, which adds the history of
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
    MemoryKernel,
    ScalarSignal,
    TimeGrid,
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


def _step_map(mus: np.ndarray, realization, dt: float) -> np.ndarray:
    """Real (modes, 2+d, 2+d) matrices A with (z, p, X)_(j+1) = A (z, p, X)_j.

    For M(t) = c^T e^(Rt) b, X_j is the trapezoid memory sum at t_j with the
    d-vector e^(R(t_j - s)) b in place of M(t_j - s) (X_0 = 0), so g_j =
    -mu c^T X_j, and the history at t_j+1 without its own term is h = c^T H,
    H = E (X_j + dt/2 b z_j), E = e^(R dt).  Each step is then one fixed
    linear map; its columns are the step applied to the unit states.
    """
    E, b, c = realization
    mu = mus[:, None]
    unit = np.eye(2 + len(b))
    z, p, X = unit[0], unit[1], unit[2:]
    H = E @ (X + 0.5 * dt * b[:, None] * z)
    znew, pnew, _ = _trapezoid_step(mu, float(c @ b), dt)(z, p, -mu * (c @ X), c @ H)
    Xnew = H + 0.5 * dt * b[:, None] * znew[:, None]
    return np.concatenate([znew[:, None], pnew[:, None], Xnew], axis=1)


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
            realization = kernel.realization(dt)
            if realization is not None:
                A = _step_map(mus, realization, dt)
                D = A.shape[1]
                # rows[:, k - 1] = the first row of A^k over one leaf; each
                # leaf's columns of Z are these rows applied to the leaf's
                # start state, which power = A^L carries to the next leaf
                L = min(_LEAF_STEPS, J)
                rows = np.empty((nm, L, D))
                rows[:, 0] = A[:, 0]
                power = A
                for n in range(2, L + 1):
                    power = power @ A
                    rows[:, n - 1] = power[:, 0]
                state = np.zeros((nm, D, 1), dtype=np.complex128)
                state[:, 0, 0], state[:, 1, 0] = z0, p0
                for n in range(1, J + 1, L):
                    hi = min(n + L, J + 1)
                    Z[:, n:hi] = (rows[:, :hi - n] @ state)[..., 0]
                    state = power @ state
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


def _initial_data(mode: Mode, family: str):
    """(z(0), z'(0)); the zero branch takes sgn(n) and 1 in place of lambda_n."""
    if family == "z":
        return 1.0 + 0.0j, 1j * (mode.lam if mode.branch == "J1" else mode.sign)
    return 0.0 + 0.0j, mode.lam if mode.branch == "J1" else 1.0 + 0.0j


def _solve_many(modes, kernel, grid, family: str):
    init = [_initial_data(m, family) for m in modes]
    solved = [i for i, m in enumerate(modes) if m.branch == "J1"]
    rows = {}
    if solved:
        mus = np.array([modes[i].mu for i in solved], dtype=float)
        Z = _integrate_family(mus, *np.array([init[i] for i in solved]).T, kernel, grid)
        rows = dict(zip(solved, Z))  # views of the one integrated Z
    return [ModalTrajectory(m, ScalarSignal(grid, rows[i] if i in rows else z0 + p0 * grid.nodes),
                            complex(p0), kernel) for i, (m, (z0, p0)) in enumerate(zip(modes, init))]


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

    Zero-branch modes return their z trajectory 1 + i*sgn(n)*t, so the
    difference vanishes identically.
    """
    z0, p0 = _initial_data(mode, "z")
    if mode.branch == "J0":
        return ScalarSignal(grid, z0 + p0 * grid.nodes)
    return ScalarSignal(grid, np.exp((0.5 * kernel.at_zero() + p0) * grid.nodes))


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
        z0, p0 = np.array([_initial_data(m, "z") for m in block]).T
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
