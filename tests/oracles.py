"""Independent reference computations used by several test modules.

These deliberately avoid the production code paths: the modal oracle
augments the state with the running memory integral and propagates the
resulting constant-coefficient linear system with a matrix exponential, and
the source-trace oracle convolves every mode separately instead of the
synthesized modal sum, the inner-product oracle writes the trapezoid rule
out pair by pair, the stability oracle takes the H1 norm of every
trial's synthesized trace instead of a Gram quadratic form, and the two
Volterra oracles solve the resolvent and the generic-kernel modal history by
O(J^2) forward substitution instead of the blocked FFT solve.
"""

import numpy as np
from scipy.linalg import expm

from visco_inverse import TimeGrid, convolve, h1_norm, solve_w_many, y_trace_family


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


def naive_inner_products(a, b, dt: float) -> np.ndarray:
    """<a_i, b_k> pair by pair, with the trapezoid rule written out."""
    out = np.empty((len(a), len(b)), dtype=complex)
    for i in range(len(a)):
        for k in range(len(b)):
            prod = a[i] * np.conj(b[k])
            if prod.ndim == 2:
                prod = prod.sum(axis=1)
            out[i, k] = dt * (prod.sum() - 0.5 * (prod[0] + prod[-1]))
    return out


def stability_ratios_per_trial(model, kernel, modulation, grid, trials, seed):
    """||B u||_H1 / ||f|| by synthesizing and differentiating every trial's trace."""
    family = y_trace_family(model, kernel, modulation, grid)
    ratios = np.empty(trials)
    for i in range(trials):
        f = np.random.default_rng((seed, i)).standard_normal(model.truncation)
        f /= np.linalg.norm(f)
        ratios[i] = h1_norm(family.synthesize(f))
    return ratios


def resolvent_kernel_loop(sigma: np.ndarray, sigma_prime: np.ndarray, dt: float) -> np.ndarray:
    """sigma(0) K + V_sigma' K = -sigma' by forward substitution, one node at a time."""
    s0, sp = sigma[0], sigma_prime
    K = np.empty(len(sp), dtype=complex)
    K[0] = -sp[0] / s0
    denom = s0 + 0.5 * dt * sp[0]
    for j in range(1, len(sp)):
        hist = 0.5 * sp[j] * K[0]
        if j > 1:
            hist += np.dot(sp[j - 1:0:-1], K[1:j])
        K[j] = (-sp[j] - dt * hist) / denom
    return K


def modal_history_loop(mus, z0, p0, mv: np.ndarray, dt: float):
    """(Z, P) of the implicit-trapezoid modal step with a sampled kernel ``mv``,
    summing the whole trapezoid history at every step."""
    nm, J = len(mus), len(mv) - 1
    Z = np.empty((nm, J + 1), dtype=complex)
    P = np.empty_like(Z)
    Z[:, 0] = z0
    p = np.array(p0, dtype=complex)
    P[:, 0] = p
    m0 = float(mv[0])
    kappa = 0.5 * dt * mus * m0
    denom = 1.0 + 0.25 * dt * dt * (mus + kappa)
    g = np.zeros(nm, dtype=complex)
    for j in range(J):
        zj = Z[:, j]
        h = 0.5 * mv[j + 1] * Z[:, 0]
        if j >= 1:
            h = h + Z[:, 1:j + 1] @ mv[j:0:-1]
        ghat = -mus * dt * h
        znew = (zj + dt * p + 0.25 * dt * dt * (-mus * zj + g + ghat)) / denom
        gnew = ghat - kappa * znew
        p = p + 0.5 * dt * (-mus * zj + g - mus * znew + gnew)
        g = gnew
        Z[:, j + 1] = znew
        P[:, j + 1] = p
    return Z, P
