"""Independent reference computations used by several test modules.

These deliberately avoid the production code paths: the modal oracle
augments the state with the running memory integral and propagates the
resulting constant-coefficient linear system with a matrix exponential, and
the source-trace oracle convolves every mode separately instead of the
synthesized modal sum, the inner-product oracle writes the trapezoid rule
out pair by pair, the stability oracle takes the H1 norm of every
trial's synthesized trace instead of a Gram quadratic form, the two
Volterra oracles solve the resolvent and the generic-kernel modal history by
O(J^2) forward substitution instead of the blocked FFT solve, and the step
oracle advances the zero- and exponential-kernel modal equations one step at
a time instead of by powers of the step map.  The reconstruction oracle
materialises every family member, dual and reconstruction kernel theta_k as
a (members, J+1, m) array and recovers through <B u', theta_k>, the route
the factored family replaces.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from visco_inverse import (
    ExponentialKernel,
    TimeGrid,
    TraceSignal,
    ZeroKernel,
    convolve,
    convolve_adjoint,
    h1_norm,
    inner_products,
    resolvent_kernel,
    solve_w_many,
    y_trace_family,
)


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
    """Direct O(J^2) trapezoid convolution, kept free of FFTs on purpose.

    ``v`` may be (J+1,) or (J+1, m); each node's interior sum over
    l = 1..j-1 of rho[j - l] v[l] is one dot product.
    """
    J = len(v) - 1
    reversed_rho = np.ascontiguousarray(rho[::-1], dtype=complex)  # [J - k] is rho[k]
    out = np.zeros_like(v, dtype=complex)
    for j in range(1, J + 1):
        interior = reversed_rho[J - j + 1:J] @ v[1:j]
        out[j] = dt * (0.5 * rho[j] * v[0] + 0.5 * rho[0] * v[j] + interior)
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


def _ldexp(x, shift: int) -> np.ndarray:
    """x * 2**shift for complex x, exact while the result stays a normal float."""
    x = np.asarray(x, dtype=complex)
    return np.ldexp(x.real, shift) + 1j * np.ldexp(x.imag, shift)


def modal_history_loop(mus, z0, p0, mv: np.ndarray, dt: float) -> np.ndarray:
    """Z of the implicit-trapezoid modal step with a sampled kernel ``mv``,
    summing the whole trapezoid history at every step.

    The step is linear in (z0, p0), so the loop runs on data scaled by a power
    of two to unit size and Z is scaled back.  Both scalings are exact for
    normal floats; subnormal data, whose own loop would round in absolute
    steps of 5e-324, keep the full relative accuracy of the scaled run.
    """
    shift = int(np.frexp(max(np.max(np.abs(z0)), np.max(np.abs(p0))))[1])
    return _ldexp(_modal_history_steps(mus, _ldexp(z0, -shift), _ldexp(p0, -shift), mv, dt),
                  shift)


def _modal_history_steps(mus, z0, p0, mv: np.ndarray, dt: float) -> np.ndarray:
    nm, J = len(mus), len(mv) - 1
    Z = np.empty((nm, J + 1), dtype=complex)
    Z[:, 0] = z0
    p = np.array(p0, dtype=complex)
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
    return Z


def modal_step_loop(mus, z0, p0, kernel, grid: TimeGrid) -> np.ndarray:
    """Z of the implicit-trapezoid modal step under a zero or exponential
    kernel, one step at a time with the O(1) exponential history recursion."""
    nm = mus.shape[0]
    J = grid.steps
    dt = grid.dt
    Z = np.empty((nm, J + 1), dtype=np.complex128)
    Z[:, 0] = z0
    p = np.array(p0, dtype=np.complex128)

    zero_memory = isinstance(kernel, ZeroKernel)
    assert zero_memory or isinstance(kernel, ExponentialKernel)
    if zero_memory:
        m0 = 0.0
    else:
        m0 = kernel.beta
        decay = np.exp(-kernel.alpha * dt)

    kappa = 0.5 * dt * mus * m0
    denom = 1.0 + 0.25 * dt * dt * (mus + kappa)
    g = np.zeros(nm, dtype=np.complex128)  # memory forcing -mu * S_j
    S = np.zeros(nm, dtype=np.complex128)  # trapezoid history sum at t_j
    for n in range(1, J + 1):
        zj = Z[:, n - 1]
        if zero_memory:
            rhs = zj + dt * p - 0.25 * dt * dt * mus * zj
            znew = rhs / denom
            p = p + 0.5 * dt * (-mus * (zj + znew))
        else:
            h = decay * (S + 0.5 * dt * m0 * zj)
            ghat = -mus * h
            rhs = zj + dt * p + 0.25 * dt * dt * (-mus * zj + g + ghat)
            znew = rhs / denom
            gnew = ghat - kappa * znew
            p = p + 0.5 * dt * (-mus * zj + g - mus * znew + gnew)
            S = h + 0.5 * dt * m0 * znew
            g = gnew
        Z[:, n] = znew
    return Z


def family_values(family) -> np.ndarray:
    """(members, J+1, m) array of the members scalars[n] * psis[n]."""
    return family.scalars[:, :, None] * family.psis[:, None, :]


def dual_values(family, coefficients) -> np.ndarray:
    """(members, J+1, m) array of the duals p_k = sum_m C[k, m] member_m."""
    return np.tensordot(coefficients, family_values(family), axes=1)


@dataclass
class ThetaRoute:
    """Every intermediate of the materialised reconstruction."""

    gram: np.ndarray
    duals: np.ndarray  # (N, J+1, m)
    thetas: np.ndarray  # (N, J+1, m)
    identity_residual: float
    recovered: np.ndarray  # complex <B u', theta_k>


def reconstruct_via_thetas(family, modulation, bu_prime) -> ThetaRoute:
    """Gram, duals, theta_k = sigma(0)^-1 (p_k + V_K* p_k) and <B u', theta_k>,
    with every member, dual and theta materialised."""
    grid = family.grid
    values = family_values(family)
    raw = inner_products(values, values, grid)
    g = 0.5 * (raw.T + raw.conj())
    coeffs = np.conj(np.linalg.solve(g, np.eye(len(g))))
    duals = np.tensordot(coeffs, values, axes=1)
    s0 = modulation.at_zero()
    sigma = modulation.sample(grid)
    sigma_prime = modulation.sample_derivative(grid)
    K = resolvent_kernel(sigma, sigma_prime)
    thetas = np.empty_like(duals)
    residuals = np.zeros(len(duals))
    for k in range(len(duals)):
        p_k = TraceSignal(grid, duals[k])
        theta = TraceSignal(grid, (p_k.values + convolve_adjoint(K, p_k).values) / s0)
        back = s0 * theta.values + convolve_adjoint(sigma_prime, theta).values
        diff = (back - p_k.values)[None]
        residuals[k] = np.sqrt(inner_products(diff, diff, grid)[0, 0].real)
        thetas[k] = theta.values
    recovered = inner_products(bu_prime.values[None], thetas, grid)[0]
    return ThetaRoute(g, duals, thetas, float(residuals.max(initial=0.0)), recovered)
