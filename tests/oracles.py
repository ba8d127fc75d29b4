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
oracle advances the modal equations of a realized (zero, exponential or
polynomial) kernel one step at a time instead of by powers of the step map
and batched leaf products.  The reconstruction oracle
materialises every family member, dual and reconstruction kernel theta_k as
a (members, J+1, m) array and recovers through <B u', theta_k>, the route
the factored family replaces.  The complex w route solves the w family on a
complex state with its own data (0, lambda_n) and convolves it by complex
FFTs, the route the real rows with folded factors replace.  The y family
is the w family's stored rows convolved as one array, the dense route that
``h1_gram`` of the w trajectories replaces.  The weighted stability and L2
Grams form each trapezoid Gram of the y rows from a weighted copy of them,
the route the in-place rule replaces, and the dense L2 counterexample takes
one eigenvalue decomposition of every leading block of that L2 Gram, with
no reflection classes; the long-double stability Gram
takes the double w rows through every later step in long double, with
V_sigma a dense matrix, the reference for the y family's leaf tables.
The spectral loop builds the signed modes one ``Mode`` at a time from
``OperatorSpec.eigenvalue`` and ``trace_vector``, the route the model's
vectorised arrays replace.  The full-Gram route forms the Gram of every
member at once, takes its extreme eigenvalues from one ``eigvalsh`` of the
whole matrix and its duals from ``solve(G, I)``, the route that the
reflection classes of a family observed at both ends replace.

The last group states intermediate results of the paper that no study
reports.  The homogeneous trace B w, from initial data given by mode
coefficients (xi, eta), is synthesized from the z family through the
signed-mode expansion

    B w = (1/2) * sum over nonzero n of a_n z_n(t) psi_n,

whose coefficients a_n mix the initial data across the two branches.  The
convolution-relation gap compares V_sigma of that trace, started from rest
with velocity f, against the source trace of the w family.  Beside them
stand the norms of the initial data and the Bessel-type ratio of the trace
vectors with its Monte-Carlo supremum.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from visco_inverse import (
    ModalFamily,
    Mode,
    ScalarSignal,
    TimeGrid,
    TraceSignal,
    ZeroKernel,
    boundary_trace_source,
    convolve,
    convolve_adjoint,
    h1_norm,
    inner_products,
    resolvent_kernel,
    solve_w_many,
    w_trace_family,
    z_trace_family,
)
from visco_inverse.modal import StoredRows, _integrate_family


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


def y_trace_family(model, kernel, modulation, grid) -> ModalFamily:
    """Members (V_sigma w_n) psi_n on stored rows: the w rows convolved as
    one (members, J+1) array by ``volterra.convolve``, the dense route that
    ``h1_gram`` of the w family's trajectories replaces.  The w family's modes
    and factors carry over, and y'(0) = sigma(0) w(0) = 0."""
    w = w_trace_family(model, kernel, grid)
    Y = convolve(modulation.sample(grid), TraceSignal(grid, w.scalars.T)).values.T
    return ModalFamily(w.modes, grid, StoredRows(grid, Y), w.factors,
                       np.zeros(len(w), np.complex128))


def stability_ratios_per_trial(model, kernel, modulation, grid, trials, seed):
    """||B u||_H1 / ||f|| by synthesizing and differentiating every trial's trace."""
    family = y_trace_family(model, kernel, modulation, grid)
    ratios = np.empty(trials)
    for i in range(trials):
        f = np.random.default_rng((seed, i)).standard_normal(model.truncation)
        f /= np.linalg.norm(f)
        ratios[i] = h1_norm(family.synthesize(f))
    return ratios


def stability_gram_weighted(model, kernel, modulation, grid) -> np.ndarray:
    """The H1 Gram of ``inverse.stability_gram`` by its weighted-buffer form:
    S = Y W^(1/2) for the y rows Y and the trapezoid weights W, S S^T, then
    the same for the slopes of Y (``np.gradient``), and the trace-vector
    Gram entry by entry."""
    family = y_trace_family(model, kernel, modulation, grid)
    root = np.sqrt(grid.weights)
    S = family.scalars * root
    traj = S @ S.T
    S = np.gradient(family.scalars, grid.dt, axis=1, edge_order=2) * root
    traj += S @ S.T
    return _real_member_gram(traj, family)


def l2_gram_weighted(model, kernel, modulation, grid) -> np.ndarray:
    """The L2 Gram of the y family by the weighted-buffer form, S S^T for
    S = Y W^(1/2), and the trace-vector Gram entry by entry: the L2 half of
    the w trajectories' ``h1_gram`` as a member Gram."""
    family = y_trace_family(model, kernel, modulation, grid)
    S = family.scalars * np.sqrt(grid.weights)
    return _real_member_gram(S @ S.T, family)


def _real_member_gram(traj, family) -> np.ndarray:
    raw = traj * (family.psis @ family.psis.conj().T)
    return (0.5 * (raw.T + raw.conj())).real


def l2_counterexample_dense(model, modulation, grid, nmax: int) -> tuple:
    """(G, scaled norms, min Gram eigenvalues) of
    ``inverse.l2_only_counterexample`` by the dense route: G the
    ``l2_gram_weighted`` of the zero kernel's y rows, |lambda_n| sqrt(G_nn)
    and the least eigenvalue of each leading k x k block of the whole G, with
    no reflection classes."""
    G = l2_gram_weighted(model, ZeroKernel(), modulation, grid)
    lams = model.positive_modes.lam[:nmax]
    return (G, np.abs(lams) * np.sqrt(np.diag(G)[:nmax]),
            np.array([np.linalg.eigvalsh(G[:k, :k])[0] for k in range(1, nmax + 1)]))


def stability_gram_longdouble(model, kernel, rate: float, grid) -> np.ndarray:
    """The H1 Gram of ``inverse.stability_gram`` for sigma = e^(rate t), in
    numpy's long double from the w rows on: sigma's samples as exponentials
    of long-double nodes, V_sigma as the dense (J+1) x (J+1) trapezoid
    matrix, the slopes by np.gradient's stencils and the trapezoid Grams,
    O(N J^2).  The w rows are the double rows of ``w_trace_family``, so it
    measures the roundoff of the y family's construction alone."""
    family = w_trace_family(model, kernel, grid)
    Z = family.scalars.astype(np.longdouble)
    J, dt = grid.steps, np.longdouble(grid.dt)
    lag = np.subtract.outer(np.arange(J + 1), np.arange(J + 1))
    sigma = np.exp(np.longdouble(rate) * dt * np.arange(J + 1))
    V = np.where(lag >= 0, dt * sigma[np.maximum(lag, 0)], np.longdouble(0))
    V[:, 0] *= 0.5
    V[np.arange(J + 1), np.arange(J + 1)] *= 0.5
    V[0] = 0.0
    Y = Z @ V.T
    S = np.empty_like(Y)
    S[:, 1:-1] = (Y[:, 2:] - Y[:, :-2]) / (2 * dt)
    S[:, 0] = (-1.5 * Y[:, 0] + 2 * Y[:, 1] - 0.5 * Y[:, 2]) / dt
    S[:, -1] = (0.5 * Y[:, -3] - 2 * Y[:, -2] + 1.5 * Y[:, -1]) / dt
    weights = np.full(J + 1, dt)
    weights[[0, -1]] = 0.5 * dt
    psis = family.psis.real.astype(np.longdouble)
    return ((Y * weights) @ Y.T + (S * weights) @ S.T) * (psis @ psis.T)


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
    """Z of the implicit-trapezoid modal step under a kernel with a finite
    realization M(t) = c^T e^(Rt) b (zero, exponential or polynomial), one
    step at a time.  The trapezoid history sum is carried as the d-vector S
    of its e^(R(t_j - s)) b terms, S_(j+1) = E (S_j + dt/2 b z_j) +
    dt/2 b z_(j+1) with E = e^(R dt), and read out as c^T S.  The loop runs
    in numpy's long double on the same double inputs (dt, E, b, c), so on
    x86 its own roundoff stays well below that of the double routes."""
    nm = mus.shape[0]
    J = grid.steps
    E, b, c = (np.asarray(a, dtype=np.longdouble) for a in kernel.realization(grid.dt))
    dt = np.longdouble(grid.dt)
    mus = np.asarray(mus, dtype=np.longdouble)
    m0 = c @ b
    Z = np.empty((nm, J + 1), dtype=np.clongdouble)
    Z[:, 0] = z0
    p = np.array(p0, dtype=np.clongdouble)

    kappa = 0.5 * dt * mus * m0
    denom = 1.0 + 0.25 * dt * dt * (mus + kappa)
    g = np.zeros(nm, dtype=np.clongdouble)  # memory forcing -mu * c^T S_j
    S = np.zeros((nm, len(b)), dtype=np.clongdouble)
    for n in range(1, J + 1):
        zj = Z[:, n - 1]
        H = (S + 0.5 * dt * zj[:, None] * b) @ E.T
        ghat = -mus * (H @ c)
        rhs = zj + dt * p + 0.25 * dt * dt * (-mus * zj + g + ghat)
        znew = rhs / denom
        gnew = ghat - kappa * znew
        p = p + 0.5 * dt * (-mus * zj + g - mus * znew + gnew)
        S = H + 0.5 * dt * znew[:, None] * b
        g = gnew
        Z[:, n] = znew
    return Z


def family_values(family) -> np.ndarray:
    """(members, J+1, m) array of the members scalars[n] * psis[n]."""
    return family.scalars[:, :, None] * family.psis[:, None, :]


def dual_values(family, coefficients) -> np.ndarray:
    """(members, J+1, m) array of the duals p_k = sum_m C[k, m] member_m."""
    return np.tensordot(coefficients, family_values(family), axes=1)


def full_gram_route(family) -> tuple:
    """(G, lower, upper, C) of the whole family, with no reflection classes:
    the storage's trajectory Gram of all its rows times psi_n . conj psi_k,
    symmetrized, the first and last eigenvalue of G, and C = conj(G^-1)."""
    psis = family.psis
    raw = family.trajectories.gram() * (psis @ psis.conj().T)
    G = 0.5 * (raw.T + raw.conj())
    eigs = np.linalg.eigvalsh(G)
    return G, eigs[0], eigs[-1], np.linalg.solve(G, np.eye(len(G))).conj()


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


def complex_w_route(model, kernel, modulation, grid) -> tuple:
    """(W, Y, Psi): the w family solved mode by mode on a complex state from
    its data (0, lambda_n), t on the zero branch; Y = V_sigma W by complex
    FFTs, sigma cast to complex; Psi the trace vectors psi_n, no factor folded in."""
    modes = model.positive_modes
    W = np.array([grid.nodes + 0j if m.branch == "J0" else _integrate_family(
        np.array([m.mu]), np.zeros(1, dtype=complex), np.array([m.lam]), kernel, grid)[0]
        for m in modes])
    sigma = ScalarSignal(grid, modulation.sample(grid).values.astype(complex))
    Y = convolve(sigma, TraceSignal(grid, W.T)).values.T
    return W, Y, np.stack([m.psi for m in modes])


def spectral_modes_loop(spec, truncation: int) -> tuple:
    """The signed modes -N..-1, 1..N of ``build_spectral_model``, mode by mode:
    mu_n from ``spec.eigenvalue``, lambda_n its principal complex square root
    and psi_n the trace vector over lambda_n, or lambda_n = 0 and the bare
    trace vector where |mu_n| < 1e-12 max(1, |q|); each negative mode negates
    lambda and psi of its positive twin."""
    zero_tol = 1e-12 * max(1.0, abs(spec.potential_shift))
    positives = []
    for n in range(1, truncation + 1):
        mu = spec.eigenvalue(n)
        trace = spec.trace_vector(n)
        if abs(mu) < zero_tol:
            positives.append(Mode(n, 0.0, 0.0 + 0.0j, trace, "J0"))
        else:
            lam = complex(np.sqrt(np.complex128(mu)))
            positives.append(Mode(n, mu, lam, trace / lam, "J1"))
    negatives = [Mode(-m.index, m.mu, -m.lam, -m.psi, m.branch) for m in reversed(positives)]
    return tuple(negatives + positives)


def boundary_trace_homogeneous(xi, eta, model, kernel, grid) -> TraceSignal:
    """Boundary trace of the homogeneous evolution from the mode coefficients
    (xi, eta) of the initial displacement and velocity.

    Real initial data and a real kernel produce a trace whose imaginary part
    is at roundoff level; it is kept so that checks can see it.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if xi.shape != (model.truncation,) or eta.shape != (model.truncation,):
        raise ValueError("initial data length must equal the model truncation")
    family = z_trace_family(model, kernel, grid)
    modes = family.modes
    k = np.abs(modes.index) - 1
    # sgn(n) * lambda_|n| * xi_|n| collapses to lambda_n * xi_|n|, and to
    # sgn(n) * xi_|n| on the zero branch
    a = np.where(modes.zero, np.sign(modes.index) * xi[k], modes.lam * xi[k]) - 1j * eta[k]
    return family.synthesize(0.5 * a)


def verify_convolution_relation(coeffs, modulation, model, kernel, grid) -> float:
    """Max-norm gap between the two routes to the source trace.

    Route one convolves the trace synthesized from the w family; route two
    applies V_sigma to the homogeneous trace, built from the z family,
    started from rest with velocity f.  The two coincide in exact
    arithmetic, so the value returned is pure discretization and roundoff
    error.
    """
    bu, _ = boundary_trace_source(coeffs, modulation, model, kernel, grid)
    bw = boundary_trace_homogeneous(np.zeros(len(coeffs)), coeffs.values, model, kernel, grid)
    via_w = convolve(modulation.sample(grid), bw)
    return float(np.max(np.abs(bu.values - via_w.values)))


def hilbert_norms(xi, eta, model) -> tuple:
    """Norms (||w0||_1, ||w1||) of initial data given by mode coefficients.

    The graph norm uses 1 + |mu_n| weights, matching the completion of the
    operator domain under ||x||^2 + || |A|^(1/2) x ||^2.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if xi.shape != (model.truncation,) or eta.shape != (model.truncation,):
        raise ValueError(
            f"coefficient length must equal the truncation {model.truncation}"
        )
    mus = model.modes.mu[model.truncation:]
    n0 = math.sqrt(float(np.sum((1.0 + np.abs(mus)) * xi**2)))
    n1 = math.sqrt(float(np.sum(eta**2)))
    return n0, n1


def bessel_ratio(model, coeffs, eps: float, horizon: float) -> float:
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
    modes = model.modes
    num = float(np.sum(np.abs(a @ modes.psi) ** 2))
    den = float(np.sum(np.abs(a) ** 2)) / eps + eps * float(np.sum(np.abs(modes.lam * a) ** 2))
    return num / den


def bessel_defect(model, horizon: float, trials: int, seed: int, eps_count: int = 12) -> float:
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
