"""Modal trajectories of the memory-perturbed oscillator equations.

For each nonzero branch value the scalar unknown g solves

    g''(t) + mu g(t) = -mu * integral of M(t - s) g(s) ds over [0, t]

with mode-specific initial data: (1, i*lambda_n) for the z family and
(0, lambda_n) for the w family.  Zero-branch modes have the closed form
z(0) + z'(0)*t, with z'(0) = i*sgn(n) for z and 1 for w.

The equation has real coefficients, so the w family is solved on a real
state: w_n = (lambda_n / |lambda_n|) r_n, with r_n the real solution with
data (0, |lambda_n|) and a factor that is 1, or i where q makes mu_n
negative.  A solve returns its family (``ModalFamily``), the one record of it
that frames, forward and inverse read: the rows, real for w and complex for
z, beside the per-mode factors and z'(0).

Integration is an implicit-trapezoid step in (g, g'), solved in closed form,
with the memory integral evaluated by the trapezoid rule over the stored
history; ``_trapezoid_step`` is the one statement of that step.  For the
zero, exponential and polynomial kernels, which have a finite realization
M(t) = c^T e^(Rt) b (``MemoryKernel.realization``), the history is a d-vector
state X, the trapezoid memory sum taken with e^(R(t - s)) b, so each step is
a fixed real (2+d)x(2+d) map A on (g, g', X) per mode: d = 0 for the zero
kernel, 1 for the exponential, degree + 1 for a polynomial.  The first rows of
A^1..A^L over one leaf of L = 256 steps are tabulated once, by doubling.
A^L carries the start state of each leaf to the next, and each leaf's
values are the rows applied to its start state.  That is log2(L) + J/L
small Python iterations instead of J, with the discretisation unchanged.
Both families keep these tables (``LeafTables``) in place of their rows,
the z family's starts complex.  Only sampled kernels, whose families keep
stored rows (``StoredRows``), step through leaves of the blocked solve in
``volterra``, which adds the history of earlier leaves by FFT convolution:
O(J log^2 J) per mode instead of O(J^2).  Its FFT error grows with the
largest kernel sample, so the solve checks the discrete Volterra equation by
direct sums at the last step of every leaf (``HISTORY_RESIDUAL_RTOL``).
``LeafTables`` and ``StoredRows`` answer one interface (Z on request, its
Gram, the products conj(Z) y and Z^T x, the L2 and H1 Grams of V_sigma Z), the
tables in O(N d J) with no (modes, J+1) array, the rows from Z in place;
which of the two a solve returns is decided here alone.
Every entry point is batched and takes the modes as ``ModeArrays``:
``solve_z_many`` and ``solve_w_many`` advance them together, and
``comparison_defect_scan`` solves them in chunks; one member is read from a
family as a ``ModalTrajectory`` view.  Only g is stored; g' is recovered
on demand.  A state that overflows stops the solve with ``NumericsError``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericsError
from .record import Record
from .spectral import Mode, ModeArrays
from .volterra import (
    MemoryKernel,
    ScalarSignal,
    TimeGrid,
    TraceSignal,
    _FFT_ELEMENTS,
    _LEAF_STEPS,
    _as_samples,
    _carry,
    _causal_blocks,
    _gains,
    _matmul,
    _slopes,
    _toeplitz,
    _trapezoid_gram,
    convolve,
    inner_products,
)

#: residual of the discrete Volterra equation at the last step of a leaf of
#: the blocked history solve, relative to the same sums over the absolute
#: values of its terms, past which the solve is a numerical failure.  Exact
#: history sums leave about 1e-16 of it; the FFT error of sampled polynomial
#: kernels of degree 12, 16 and 24 (T = 7, J = 3000) left 7e-12, 2e-8 and
#: 3e-2, and their rows missed the O(J^2) loop by about 1e3 times as much:
#: 5e-9, 1e-6 and 10 of max |Z|.  This bound passes the first and fails the
#: others: at that size a solve that passes is within about 1e-6 of max |Z|
HISTORY_RESIDUAL_RTOL = 1e-9

#: modes per solve of ``comparison_defect_scan``
_DEFECT_CHUNK = 32


class ModalTrajectory(Record):
    """Solution z = factor * row of one modal equation, and z'(0)."""

    def __init__(self, mode: Mode, grid: TimeGrid, row: np.ndarray, factor: complex,
                 p0: complex):
        self._set(locals())

    @property
    def z(self) -> ScalarSignal:
        """The complex solution, built from the row on demand."""
        return ScalarSignal(self.grid, self.factor * self.row)

    @property
    def z_prime(self) -> ScalarSignal:
        """The step's derivative, recovered from the solution on demand.

        Every implicit-trapezoid step satisfies z_(n+1) - z_n =
        dt/2 (p_n + p_(n+1)), so (-1)^n p_n = p_0 + sum over 1 <= k <= n of
        (-1)^k 2 (z_k - z_(k-1)) / dt.
        """
        grid = self.grid
        sign = np.where(np.arange(grid.steps + 1) % 2, -1.0, 1.0)
        q = np.empty(grid.steps + 1, dtype=np.complex128)
        q[0] = self.p0
        q[1:] = np.diff(self.z.values) * sign[1:] * (2.0 / grid.dt)
        return ScalarSignal(grid, sign * np.cumsum(q))


class LeafTables(Record):
    """Rows Z (modes, J+1) of a step-map solve, held as the leaf tables they
    are read from: with L the leaf length,

        Z[:, 0] = starts[:, 0, 0],  Z[:, 1 + kL + l] = starts[:, :, k] . rows[:, :, l].

    ``rows[:, :, l]`` is the first row of A^(l+1), ``starts[:, :, k]`` the
    state at the start of leaf k, complex for the z family.  The sums over
    time (a Hermitian Gram, a synthesis Z^T x, products conj(Z) y) read them in
    O(N D J) and build no (modes, J+1) array; ``dense`` builds Z.  Modes
    in ``linear`` have mu = 0, so their rows are z(0) + z'(0) t, which
    ``dense`` writes in closed form.  The same form holds other rows
    linear in a leaf's start state, such as V_sigma Z and its differences in
    ``h1_gram``, which reads ``step``, A, of a step-map solve.  ``StoredRows``
    answers the same methods from Z itself.
    """

    def __init__(self, grid: TimeGrid,
                 rows: np.ndarray,  # (modes, D, L)
                 starts: np.ndarray,  # (modes, D, leaves)
                 linear: np.ndarray,  # indices of the modes with mu = 0
                 step: np.ndarray | None = None):  # A (modes, D, D), for a step-map solve
        self._set(locals())

    @property
    def shape(self) -> tuple:
        return len(self.starts), self.grid.steps + 1

    def _leaves(self) -> tuple:
        """(L, the number of full leaves, the values (modes, rest) of the tail leaf)."""
        L = self.rows.shape[2]
        full, rest = divmod(self.grid.steps, L)
        return L, full, (self.starts[:, None, :, full] @ self.rows[:, :, :rest])[:, 0]

    def dense(self) -> np.ndarray:
        """Z, read-only, each full leaf written by one batched product."""
        L, full, tail = self._leaves()
        Z = np.empty(self.shape, self.starts.dtype)
        Z[:, 0] = self.starts[:, 0, 0]
        np.matmul(self.starts[:, :, :full].transpose(0, 2, 1), self.rows,
                  out=Z[:, 1:full * L + 1].reshape(len(Z), full, L))
        Z[:, full * L + 1:] = tail
        z0, p0 = self.starts[self.linear, :2, 0].T
        Z[self.linear] = z0[:, None] + p0[:, None] * self.grid.nodes
        Z.setflags(write=False)
        return Z

    def column(self, n: int) -> np.ndarray:
        """Z[:, n], read from the tables."""
        if n == 0:
            return self.starts[:, 0, 0]
        k, l = divmod(n - 1, self.rows.shape[2])
        return np.einsum("na,na->n", self.starts[:, :, k], self.rows[:, :, l])

    def gram(self, orthonormal: bool = False, classes: tuple = ()) -> np.ndarray:
        """Trapezoid inner products <z_m, z_n> of the rows, as in
        ``volterra.inner_products``: over the full leaves, sum over k, l of
        Z_m conj(Z_n) = sum over a, b of (R_a R_b^T)(S_a S_b^H) entrywise,
        R_a = rows[:, a] and S_a = starts[:, a, :full], pair by pair (every
        temporary is (modes, modes)); .conj() leaves real tables as they are.

        Where the values cancel terms far larger than themselves, the pair
        sums lose the square of that factor.  ``orthonormal`` first rotates
        each mode's rows to orthonormal ones, R^T = Q T and S to T S, which
        leaves no such terms, at the cost of a QR per mode and two more
        (modes, D, L) arrays a while.  Complex starts, those of the z family,
        whose decaying members cancel terms far larger than themselves, are
        always rotated.  With more than one class of modes (``frames``), each
        class's Gram comes from its own tables, with zeros between them."""
        if len(classes) > 1:
            g = np.zeros((len(self.starts),) * 2, self.starts.dtype)
            for c in classes:
                tables = LeafTables(self.grid, self.rows[c], self.starts[c], self.linear[:0])
                g[np.ix_(c, c)] = tables.gram(orthonormal)
            return g
        L, full, tail = self._leaves()
        R, S = self.rows, self.starts[:, :, :full]
        if orthonormal or np.iscomplexobj(S):
            q, t = np.linalg.qr(R.transpose(0, 2, 1))
            R, S = q.transpose(0, 2, 1), t @ S
        ends = np.stack([self.column(0), self.column(self.grid.steps)], 1)
        g = (tail @ tail.conj().T + np.outer(ends[:, 0], ends[:, 0].conj())
             - 0.5 * (ends @ ends.conj().T))
        for a in range(R.shape[1]):
            for b in range(a, R.shape[1]):
                pair = S[:, a] @ S[:, b].conj().T
                pair *= R[:, a] @ R[:, b].T
                g += pair
                if b != a:
                    g += pair.T.conj()
        g *= self.grid.dt
        return g

    def cancellation(self) -> np.ndarray:
        """c_m, the size of row m's table terms over the size of its values:
        ||sum over a of |S_a| |R_a| || / ||z_m|| over the full leaves.  Its
        values hold about eps c_m of relative accuracy, whatever the route
        that reads them.  The terms' norm is the diagonal of the pair sums of
        |R| and |S|; the values' is that of T S, R^T = Q T, as Q has
        orthonormal columns."""
        R, S = np.abs(self.rows), self.starts[:, :, :self.grid.steps // self.rows.shape[2]]
        terms = np.einsum("nab,nab->n", R @ R.transpose(0, 2, 1),
                          np.abs(S) @ np.abs(S).transpose(0, 2, 1))
        values = np.linalg.qr(self.rows.transpose(0, 2, 1), mode="r") @ S
        return np.sqrt(terms / np.einsum("nak,nak->n", values, values.conj()).real)

    def dot(self, x: np.ndarray) -> np.ndarray:
        """<x_c, z_n>, (modes, k), for x (J+1, k): conj(Z) y, y the trapezoid
        weights times x; per leaf, the rows against its part of y in one
        (N D x L) (L x leaves k) product, then the conjugate starts."""
        y = self.grid.weights[:, None] * x
        L, full, tail = self._leaves()
        nm, D = self.starts.shape[:2]
        k = y.shape[1]
        blocks = y[1:full * L + 1].reshape(full, L, k).transpose(1, 0, 2).reshape(L, full * k)
        per_leaf = _matmul(self.rows.reshape(nm * D, L), blocks).reshape(nm, D * full, k)
        starts = self.starts[:, :, :full].conj().reshape(nm, 1, D * full)
        out = (starts @ per_leaf)[:, 0]
        out += np.outer(self.starts[:, 0, 0].conj(), y[0]) + _matmul(tail.conj(), y[full * L + 1:])
        return out

    def tdot(self, x: np.ndarray) -> np.ndarray:
        """Z^T x for x (modes, k): the start states times x, then one
        (leaves k x N D) (N D x L) product with the rows."""
        L, full, tail = self._leaves()
        nm, D = self.starts.shape[:2]
        k = x.shape[1]
        out = np.empty((self.grid.steps + 1, k), np.result_type(x, self.starts, 1.0))
        out[0] = self.starts[:, 0, 0] @ x
        scaled = np.einsum("nal,nc->lcna", self.starts[:, :, :full], x, order="C")
        per_leaf = _matmul(scaled.reshape(full * k, nm * D), self.rows.reshape(nm * D, L))
        leaves = out[1:full * L + 1].reshape(full, L, k)  # a view of out
        leaves[...] = per_leaf.reshape(full, k, L).transpose(0, 2, 1)
        out[full * L + 1:] = _matmul(tail.T, x)
        return out

    def h1_gram(self, sigma: ScalarSignal) -> tuple:
        """Trapezoid Grams <y_m, y_n> (L2) and <y_m, y_n> + <y_m', y_n'> (H1) of
        Y = V_sigma Z, for rows of a step map that vanish at t = 0 and a sigma
        with a realization; y' is ``volterra._slopes``': central differences
        (Y[:, n + 1] - Y[:, n - 1]) / 2dt inside, one-sided stencils at nodes
        0 and J.

        Y and its central differences are tables on these leaves, with the
        starts (S_k, h_k), h_k sigma's d-state at the start of leaf k as in
        ``volterra._realized_rows``: h_k = dt sum over 1 <= i <= kL of
        sigma_(kL+1-i) z_i, and for d = 2 also dt sum of z_i.  Leaf j adds its
        rows against dt sigma_(L-l) (and dt) to h_(j+1); ``volterra._carry``
        sums those parts.  Y's rows are the rows times the in-leaf Toeplitz
        block of dt sigma, halved on the diagonal, beside the first row of the
        gain at l, which reads h_k out at node kL+1+l.  The differences take
        that block's rows l + 1 and l - 1 from differences of sigma's samples,
        over the first rows of A^1..A^(L+1); at l = 0 the state counts z_kL
        whole, so node kL adds sigma_0 z_kL / 4.  Every gain is read from
        sigma's samples: powers of E drift from sigma_n by n roundoffs.  The
        difference tables stop at node J - 1, on a grid one step shorter, so
        nothing past the grid enters the sums.  Both Grams rotate each mode's
        rows to orthonormal ones: where sigma changes sign, y is far smaller
        than w, and y' than sigma(0) w and V_sigma' w.  Any other sigma, or
        one identically 0 (the gains divide by sigma_0), takes the stored route.
        """
        if sigma.realization is None or not sigma.values.any():
            return StoredRows(self.grid, self.dense()).h1_gram(sigma)
        r, J, dt = sigma.values, self.grid.steps, self.grid.dt
        d = len(sigma.realization[1])
        nm, D, L = self.rows.shape
        rows = self.rows.reshape(nm * D, L)
        values = np.empty((nm, D + d, L))
        values[:, :D] = (rows @ (dt * _toeplitz(np.concatenate([[0.5 * r[0]], r[1:L]]), L)).T
                         ).reshape(nm, D, L)
        values[:, D:] = _gains(r, d, np.arange(L))[:, 0].T
        # sigma_(l+1) - sigma_(l-1), with sigma_-1 = sigma_0^2 / sigma_1 (d = 1)
        # or 2 sigma_0 - sigma_1 (d = 2), as the gains extend sigma
        delta = np.empty(L)
        delta[1:] = r[2:L + 1] - r[:L - 1]
        delta[0] = (r[1] - r[0]) * ((r[1] + r[0]) / r[1] if d == 1 else 2.0)
        # block[l, m] = (T[l + 1, m] - T[l - 1, m]) / 2dt = v[l + 1 - m]
        v = np.concatenate([[0.25 * r[0], 0.5 * r[1], 0.5 * r[2] - 0.25 * r[0]], 0.5 * delta[2:]])
        central = np.empty((nm, D + d, L))
        central[:, :D] = (rows @ _toeplitz(v, L + 1)[1:, :L].T).reshape(nm, D, L)
        last = (self.rows[:, None, :, L - 1] @ self.step)[:, 0]  # the first row of A^(L+1)
        central[:, :D, L - 1] += 0.25 * r[0] * last
        central[:, 0, 0] += 0.25 * r[0]
        central[:, D:] = (delta / r[0] if d == 1 else np.stack([np.zeros(L), delta])) / (2.0 * dt)
        write = self.rows @ (dt * np.stack([r[L:0:-1], np.ones(L)])[:d].T)
        h = np.zeros((nm, self.starts.shape[2], d))
        h[:, 1:] = self.starts[:, :, :-1].transpose(0, 2, 1) @ write
        _carry(h, r, L)
        starts = np.concatenate([self.starts, h.transpose(0, 2, 1)], 1)
        none = self.linear[:0]
        Y = LeafTables(self.grid, values, starts, none)
        # the end stencils read the first and last three nodes, and reject J < 3
        # before the shorter grid would; that grid's trapezoid halves node J - 1
        ends = np.stack([Y.column(n) for n in sorted({0, 1, 2, J - 2, J - 1, J})])
        ends = _slopes(ends, dt, np.empty_like(ends))[[0, -1]]
        slopes = LeafTables(TimeGrid(dt * (J - 1), J - 1), central, starts, none)
        c = slopes.column(J - 1)
        l2 = Y.gram(orthonormal=True)
        return l2, l2 + slopes.gram(orthonormal=True) + 0.5 * dt * (ends.T @ ends + np.outer(c, c))


class StoredRows(Record):
    """Rows Z (modes, J+1) held as they are, read-only, real or complex: the
    ``LeafTables`` methods answered from Z in place.  ``gram`` is
    ``volterra._trapezoid_gram``, with no table terms to rotate away, ``dot``
    is ``volterra.inner_products`` and ``h1_gram`` reads ``volterra.convolve``
    of the rows; ``cancellation`` is 1, as the values are the terms."""

    def __init__(self, grid: TimeGrid, rows: np.ndarray):
        rows = _as_samples(rows)
        rows.setflags(write=False)
        self._set(locals())

    @property
    def shape(self) -> tuple:
        return self.rows.shape

    def dense(self) -> np.ndarray:
        return self.rows

    def gram(self, classes: tuple = ()) -> np.ndarray:
        """The whole Gram, whatever the classes: no class's rows are copied."""
        return _trapezoid_gram(self.rows, self.grid.dt)

    def dot(self, x: np.ndarray) -> np.ndarray:
        return inner_products(x.T, self.rows, self.grid).T

    def tdot(self, x: np.ndarray) -> np.ndarray:
        return _matmul(self.rows.T, x)

    def cancellation(self) -> np.ndarray:
        return np.ones(len(self.rows))

    def h1_gram(self, sigma: ScalarSignal) -> tuple:
        """The L2 Gram of the y rows, and that plus the Gram of their
        ``volterra._slopes``.  Z stays held, so the slopes overwrite the y
        rows, which this call alone holds, one row at a time: no third
        (modes, J+1) array."""
        dt = self.grid.dt
        Y = convolve(sigma, TraceSignal(self.grid, self.rows.T)).values.T
        gram = _trapezoid_gram(Y, dt)
        Y.setflags(write=True)
        slope = np.empty(Y.shape[1], Y.dtype)
        for row in Y:
            row[...] = _slopes(row, dt, slope)
        return gram, gram + _trapezoid_gram(Y, dt)


class ModalFamily(Record):
    """The solved members factors[n] g_n psi_n of a batch of modes on one
    grid, g_n the rows of ``trajectories``, and their z'(0) = ``p0``.
    ``psis`` folds the factors into the trace vectors and ``scalars`` builds
    the rows on request.  ``family[i]`` is member i as a ``ModalTrajectory``."""

    def __init__(self, modes: ModeArrays, grid: TimeGrid,
                 trajectories: LeafTables | StoredRows,  # g_n
                 factors: np.ndarray,  # (members,) complex
                 p0: np.ndarray):  # (members,) complex z'(0)
        if not isinstance(trajectories, (LeafTables, StoredRows)):
            raise TypeError("family trajectories must be LeafTables or StoredRows")
        if trajectories.shape != (len(modes), grid.steps + 1):
            raise ValueError("family scalars must be (members, nodes) on the grid")
        if modes.psi.ndim != 2 or modes.psi.shape[0] != len(modes) or modes.psi.shape[1] < 1:
            raise ValueError("family trace vectors must be (members, dim)")
        self._set(locals())

    @property
    def labels(self) -> tuple:
        return tuple(self.modes.index.tolist())

    @cached_property
    def psis(self) -> np.ndarray:
        """(members, m), read-only: the trace vectors times the factors."""
        psis = self.factors[:, None] * self.modes.psi
        psis.setflags(write=False)
        return psis

    @cached_property
    def scalars(self) -> np.ndarray:
        """The trajectories g_n as one read-only (members, J+1) array, real
        for the w family, complex for z; built from leaf tables on first use."""
        return self.trajectories.dense()

    def __len__(self) -> int:
        return len(self.modes)

    def __getitem__(self, i: int) -> ModalTrajectory:
        # an index past the end raises IndexError, which ends iteration
        return ModalTrajectory(self.modes[i], self.grid, self.scalars[i],
                               complex(self.factors[i]), complex(self.p0[i]))

    def synthesize(self, coeffs) -> TraceSignal:
        """Linear combination sum_n coeffs[n] * member_n, as Z^T (coeffs * Psi)."""
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (len(self),):
            raise ValueError("coefficient vector does not match the family size")
        weighted = coeffs[:, None] * self.psis
        if not weighted.imag.any():  # real rows then give a real trace
            weighted = weighted.real
        return TraceSignal(self.grid, self.trajectories.tdot(weighted))

    def inner_with(self, signal: TraceSignal) -> np.ndarray:
        """Vector of <signal, member_n> = sum_c <signal_c, g_n> conj(psi_n,c)."""
        if signal.grid != self.grid or signal.dim != self.psis.shape[1]:
            raise ValueError("signal does not match the family grid and dimension")
        return np.einsum("cn,nc->n", self.trajectories.dot(signal.values).T, self.psis.conj())


def _overflow(n: int, J: int, exc) -> NumericsError:
    return NumericsError(f"non-finite modal state at step {n} of {J} ({exc})")


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


def _first_overflow(A: np.ndarray) -> int:
    """The least k <= _LEAF_STEPS with a non-finite entry in A^k (0 if none),
    the step reported when the doubling that fills a leaf table overflows."""
    power = A
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, _LEAF_STEPS + 1):
            power = power @ A
            if not np.isfinite(power).all():
                return k
    return 0


def _first_bad_leaf(rows: np.ndarray, starts: np.ndarray, J: int) -> int:
    """The first step of the first leaf, of those with the given finite
    start states, whose values are non-finite (0 if none): the step
    reported when the leaf products overflow."""
    L = rows.shape[2]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(starts.shape[2]):
            if not np.isfinite(starts[:, None, :, k] @ rows[:, :, :J - k * L]).all():
                return 1 + k * L
    return 0


def _leaf_tables(mus: np.ndarray, z0: np.ndarray, p0: np.ndarray,
                 kernel: MemoryKernel, grid: TimeGrid) -> LeafTables | None:
    """The step map's ``LeafTables`` of a batch of modal equations, or None
    for a kernel without a realization.  An overflow in the tables, the
    leaf start states or the values they give raises ``NumericsError``."""
    nm, J, dt = len(mus), grid.steps, grid.dt
    n = 0
    try:
        # stop at the first overflow instead of stepping on inf/NaN
        with np.errstate(over="raise", invalid="raise"):
            realization = kernel.realization(dt)
            if realization is None:
                return None
            A = _step_map(mus, realization, dt)
            D = A.shape[1]
            # rows[:, :, k - 1] = the first row of A^k over one leaf, filled
            # by doubling, power = A^m: the first rows of A^(m+1..2m) are
            # those of A^(1..m) times A^m.  _LEAF_STEPS is a power of two,
            # so power ends at A^L whenever a second leaf follows; it
            # carries each leaf's start state to the next
            L = min(_LEAF_STEPS, J)
            rows = np.empty((nm, D, L))
            rows[:, :, 0] = A[:, 0]
            power, m = A, 1
            try:
                while m < L:
                    rows[:, :, m:2 * m] = power.transpose(0, 2, 1) @ rows[:, :, :min(m, L - m)]
                    power, m = power @ power, 2 * m
            except FloatingPointError:
                n = _first_overflow(A)
                raise
            full, rest = divmod(J, L)
            starts = np.zeros((nm, D, full + 1), dtype=np.result_type(z0, p0, 1.0))
            starts[:, 0, 0], starts[:, 1, 0] = z0, p0
            try:
                for k in range(1, full + (rest > 0)):
                    starts[:, :, k] = (power @ starts[:, :, k - 1, None])[..., 0]
            except FloatingPointError:
                # the state carried out of leaf k - 1 overflowed
                n = _first_bad_leaf(rows, starts[:, :, :k], J) or 1 + (k - 1) * L
                raise
            # the values starts . rows can overflow with both tables finite;
            # where a bound on them does, the leaves are replayed to find out
            with np.errstate(over="ignore"):
                bound = (np.abs(starts).max(axis=2) * np.abs(rows).max(axis=2)).sum(axis=1)
            if not np.isfinite(bound).all():
                n = _first_bad_leaf(rows, starts, J)
                if n:
                    raise FloatingPointError("overflow encountered in the leaf products")
    except FloatingPointError as exc:
        raise _overflow(n, J, exc) from None
    return LeafTables(grid, rows, starts, np.flatnonzero(mus == 0.0), A)


def _integrate_family(
    mus: np.ndarray,
    z0: np.ndarray,
    p0: np.ndarray,
    kernel: MemoryKernel,
    grid: TimeGrid,
) -> np.ndarray:
    """Advance a batch of modal equations sharing one grid and kernel.

    ``mus`` holds the real stiffness coefficients lambda_n^2 = mu_n; the
    state is real for real data and complex otherwise.  Returns Z of shape
    (len(mus), J+1), the rows of mu = 0 in closed form, z(0) + z'(0) t.
    A kernel without a realization takes the blocked history solve, whose
    rows are checked by ``_check_history``.
    """
    tables = _leaf_tables(mus, z0, p0, kernel, grid)
    if tables is not None:
        return tables.dense()
    nm = mus.shape[0]
    J = grid.steps
    dt = grid.dt
    dtype = np.result_type(z0, p0, 1.0)
    Z = np.empty((nm, J + 1), dtype=dtype)
    Z[:, 0] = z0
    n = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            mv = kernel.sample(grid)
            step = _trapezoid_step(mus, float(mv[0]), dt)
            p = np.array(p0, dtype=dtype)
            g = np.zeros(nm, dtype=dtype)  # memory forcing -mu * S_j
            # the unsolved slots Z[:, n] hold the history sum over the
            # earlier leaves (see volterra._causal_blocks)
            for lo, hi in _causal_blocks(Z, mv):
                for n in range(lo, hi):
                    h = dt * (0.5 * mv[n] * Z[:, 0] + Z[:, n] + Z[:, lo:n] @ mv[n - lo:0:-1])
                    Z[:, n], p, g = step(Z[:, n - 1], p, g, h)
    except FloatingPointError as exc:
        raise _overflow(n, J, exc) from None
    linear = mus == 0.0
    Z[linear] = z0[linear, None] + p0[linear, None] * grid.nodes
    _check_history(Z, mus, mv, dt)
    return Z


def _check_history(Z: np.ndarray, mus: np.ndarray, mv: np.ndarray, dt: float):
    """Raise ``NumericsError`` where the rows Z of a blocked history solve
    miss the discrete Volterra equation by more than ``HISTORY_RESIDUAL_RTOL``
    at the last step n of a leaf (or J - 1 for the last leaf).

    Every step satisfies z_(n+1) - z_n = dt/2 (p_n + p_(n+1)) and p_(n+1) -
    p_n = dt/2 (a_n + a_(n+1)), with a_j = -mu (z_j + S_j) and S_j the
    trapezoid memory sum dt (M_j z_0 / 2 + sum over 0 < l < j of M_(j-l) z_l +
    M_0 z_j / 2), S_0 = 0.  So, with c = mu dt^2 / 4, the residual

        z_(n+1) - 2 z_n + z_(n-1) + c (z_(n+1) + 2 z_n + z_(n-1) + S_(n+1) + 2 S_n + S_(n-1))

    vanishes up to roundoff.  The S are summed directly, O(J) per node, for
    blocks of nodes and of history; the scale takes the same sums over
    absolute values, plus the least normal float, below which values round
    in absolute steps.
    """
    J = Z.shape[1] - 1
    nodes = np.unique(np.minimum(np.arange(_LEAF_STEPS, J + _LEAF_STEPS, _LEAF_STEPS), J - 1))
    nodes = nodes[nodes >= 1]
    # history columns per block, |block| of at most _FFT_ELEMENTS values for
    # up to 256 modes, and nodes per group, at most 2^18 weights per block
    width = min(max(_LEAF_STEPS, _FFT_ELEMENTS // len(Z)), J + 2)
    group = max(1, (1 << 18) // width)
    # row J - j + t of the windows holds M_(j-l) at l = t.., 0 past l = j
    windows = sliding_window_view(np.concatenate([mv[::-1], np.zeros(J + width)]), width)
    c = 0.25 * dt * dt * mus[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(nodes), group):
            n = nodes[lo:lo + group]
            sums = np.zeros((len(Z), len(n)), Z.dtype)
            sizes = np.zeros((len(Z), len(n)))
            for t in range(0, n[-1] + 2, width):
                # weights of S_(n+1) + 2 S_n + S_(n-1) at l = t.., less the halving
                K = windows[J - n + t - 1] + 2.0 * windows[J - n + t] + windows[J - n + t + 1]
                block = Z[:, t:t + width]
                K = K[:, :block.shape[1]]
                sums += _matmul(block, K.T)
                sizes += np.abs(block) @ np.abs(K).T
            z = Z[:, n + 1] + 2.0 * Z[:, n] + Z[:, n - 1]
            size = np.abs(Z[:, n + 1]) + 2.0 * np.abs(Z[:, n]) + np.abs(Z[:, n - 1])
            # the halved end terms: l = 0 of every S, and l = j of S_j
            sums -= 0.5 * (np.outer(Z[:, 0], mv[n + 1] + 2.0 * mv[n] + mv[n - 1]) + mv[0] * z)
            residual = np.abs(Z[:, n + 1] - 2.0 * Z[:, n] + Z[:, n - 1] + c * (z + dt * sums))
            ratio = residual / (size + np.abs(c) * (size + dt * sizes) + np.finfo(float).tiny)
            bad = ~(ratio <= HISTORY_RESIDUAL_RTOL)
            if bad.any():
                k = np.flatnonzero(bad.any(axis=0))[0]
                raise NumericsError(
                    f"the blocked history solve misses the discrete Volterra equation at "
                    f"step {n[k]} of {J} by {np.max(ratio[:, k]):.3g} of its terms "
                    f"(tolerance {HISTORY_RESIDUAL_RTOL:g})")


def _initial_data(modes: ModeArrays, family: str):
    """(z(0), z'(0)) per mode; the zero branch takes sgn(n) and 1 in place of lambda_n."""
    if family == "z":
        return np.ones(len(modes), np.complex128), 1j * np.where(modes.zero, np.sign(modes.index),
                                                              modes.lam)
    return np.zeros(len(modes), np.complex128), np.where(modes.zero, 1.0 + 0.0j, modes.lam)


def _solve_many(modes: ModeArrays, kernel, grid, family: str) -> ModalFamily:
    z0, p0 = _initial_data(modes, family)
    factors = np.ones(len(modes), dtype=np.complex128)
    data = z0, p0
    if family == "w":
        # w = (p0 / |p0|) r, r the real solution with data (0, |p0|)
        scale = np.abs(p0)
        factors, data = p0 / scale, (z0.real, scale)
    # zero-branch modes take mu = 0, which gives their rows in closed form;
    # a kernel with a realization gives leaf tables, any other stored rows
    mus = np.where(modes.zero, 0.0, modes.mu)
    trajectories = _leaf_tables(mus, *data, kernel, grid)
    if trajectories is None:
        trajectories = StoredRows(grid, _integrate_family(mus, *data, kernel, grid))
    return ModalFamily(modes, grid, trajectories, factors, p0)


def solve_z_many(modes: ModeArrays, kernel: MemoryKernel, grid: TimeGrid) -> ModalFamily:
    """Trajectories with data (1, i*lambda_n) for the given modes at once, as
    ``model.modes``, ``model.select(labels)`` or ``model.positive_modes``
    give them.  The rows are complex, held as ``LeafTables`` with complex
    starts over real rows for a kernel with a realization."""
    return _solve_many(modes, kernel, grid, "z")


def solve_w_many(modes: ModeArrays, kernel: MemoryKernel, grid: TimeGrid) -> ModalFamily:
    """Trajectories with data (0, lambda_n) for the given modes at once; these
    vanish at t = 0.  The rows are real: the solutions with data
    (0, |lambda_n|), held as ``LeafTables`` for a kernel with a realization."""
    return _solve_many(modes, kernel, grid, "w")


def _exponential(p0: complex, kernel: MemoryKernel, grid: TimeGrid) -> np.ndarray:
    """exp((M(0)/2 + p0) t) on the grid, the comparison of z'(0) = p0."""
    return np.exp((0.5 * kernel.at_zero() + p0) * grid.nodes)


def comparison_defect_scan(modes: ModeArrays, kernel: MemoryKernel,
                           grid: TimeGrid) -> np.ndarray:
    """|lambda_n|^2 times the squared L2 distance of z_n from its comparison
    exp((M(0)/2 + i*lambda_n) t), for the given nonzero-branch modes.

    The distance decays like 1/|lambda_n|, so this product stays bounded over
    the mode range; it is the quantity scanned for growth trends.  Modes are
    solved ``_DEFECT_CHUNK`` at a time to bound memory on long grids, and each
    defect is reduced row by row so no (chunk, J+1) comparison array exists.
    """
    if modes.zero.any():
        raise ValueError("the comparison defect is identically zero on the zero branch")
    out = np.empty(len(modes))
    for start in range(0, len(modes), _DEFECT_CHUNK):
        family = solve_z_many(modes[start:start + _DEFECT_CHUNK], kernel, grid)
        for row, (z, p0) in enumerate(zip(family.scalars, family.p0)):
            diff = (z - _exponential(p0, kernel, grid))[None]
            lam = complex(modes.lam[start + row])
            out[start + row] = abs(lam) ** 2 * inner_products(diff, diff, grid)[0, 0].real
    return out
