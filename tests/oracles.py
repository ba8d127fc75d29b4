"""Independent reference computations used by several test modules.

These deliberately avoid the production code paths: the modal oracle
augments the state with the running memory integral and propagates the
resulting constant-coefficient linear system with a matrix exponential, and
the source-trace oracle convolves every mode separately instead of the
synthesized modal sum.
"""

import numpy as np
from scipy.linalg import expm

from visco_inverse import TimeGrid, convolve, solve_w_many


def modal_oracle_exponential_kernel(
    lam: float, beta: float, alpha: float, grid: TimeGrid,
    z0=1.0, p0=None,
) -> np.ndarray:
    """Exact trajectory for the memory oscillator with kernel beta*e^(-alpha t).

    With y(t) the running integral of e^(-alpha (t-s)) z(s), the triple
    (z, z', y) obeys v' = A v, solved by stepping with expm(A dt).
    """
    if p0 is None:
        p0 = 1j * lam
    A = np.array(
        [
            [0.0, 1.0, 0.0],
            [-lam**2, 0.0, -lam**2 * beta],
            [1.0, 0.0, -alpha],
        ],
        dtype=complex,
    )
    step = expm(A * grid.dt)
    v = np.array([z0, p0, 0.0], dtype=complex)
    out = np.empty(grid.steps + 1, dtype=complex)
    out[0] = v[0]
    for j in range(grid.steps):
        v = step @ v
        out[j + 1] = v[0]
    return out


def naive_trapezoid_convolution(rho: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
    """Direct O(J^2) trapezoid convolution, kept free of FFTs on purpose."""
    J = len(v) - 1
    out = np.zeros_like(v, dtype=complex)
    for j in range(1, J + 1):
        acc = 0.5 * rho[j] * v[0] + 0.5 * rho[0] * v[j]
        for l in range(1, j):
            acc += rho[j - l] * v[l]
        out[j] = dt * acc
    return out


def source_traces_per_mode(coeffs, modulation, model, kernel, grid):
    """(B u, B u') summed mode by mode from the w trajectories:

        B u  = sum f_n (V_sigma w_n) psi_n
        B u' = sum f_n (sigma(0) w_n + V_sigma' w_n) psi_n.
    """
    sigma = modulation.sample(grid)
    sigma_prime = modulation.sample_derivative(grid)
    s0 = modulation.at_zero()
    modes = model.positive_modes
    bu = np.zeros((grid.steps + 1, model.dim), dtype=complex)
    bu_prime = np.zeros_like(bu)
    for f_n, mode, traj in zip(coeffs.values, modes, solve_w_many(modes, kernel, grid)):
        y = convolve(sigma, traj.z).values
        dv = s0 * traj.z.values + convolve(sigma_prime, traj.z).values
        bu += f_n * y[:, None] * mode.psi[None, :]
        bu_prime += f_n * dv[:, None] * mode.psi[None, :]
    return bu, bu_prime
