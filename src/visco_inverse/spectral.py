"""Concrete spectral data for the string operator -d^2/dx^2 + q on [0, L].

Dirichlet boundary conditions give the classical eigenpairs

    phi_n(x) = sqrt(2/L) sin(n pi x / L),    mu_n = (n pi / L)^2 + q,

and the observation is the Neumann trace (endpoint slope) at a nonempty
subset of the two endpoints.  Branch values lambda_n = sgn(n) sqrt(mu_|n|)
use the principal square root, so negative eigenvalues produce purely
imaginary lambda.  Modes with lambda_n = 0 form the zero branch "J0" and are
handled by closed forms throughout the package; all others are "J1".

The 2N signed modes of a model are data indexed by n, held as arrays
(``ModeArrays``): the indices, mu, lambda, the scaled trace vectors psi_n as
one (2N, m) array and the zero-branch mask, computed by vectorised numpy.
The modal solves take modes in that form alone, as a model's ``modes``,
``select(labels)`` and ``positive_modes`` give them; a single mode is read
as a ``Mode`` view, built on request.
"""

from __future__ import annotations

import math

import numpy as np

from .record import Record, Value

LEFT = "left"
RIGHT = "right"

#: detection threshold for an exactly-zero eigenvalue, relative to |q|
ZERO_EIG_RTOL = 1e-12


class OperatorSpec(Value):
    """Domain size, constant potential shift and observed endpoints."""

    _fields = ("length", "potential_shift", "observed_endpoints")

    def __init__(self, length: float, potential_shift: float = 0.0,
                 observed_endpoints: tuple = (LEFT,)):
        if not length > 0.0:
            raise ValueError(f"domain length must be positive, got {length}")
        eps = tuple(observed_endpoints)
        if not eps:
            raise ValueError("at least one endpoint must be observed")
        bad = [e for e in eps if e not in (LEFT, RIGHT)]
        if bad:
            raise ValueError(f"unknown endpoints {bad}; use {LEFT!r} and/or {RIGHT!r}")
        if len(set(eps)) != len(eps):
            raise ValueError("duplicate observed endpoints")
        # canonical order: left before right
        ordered = tuple(e for e in (LEFT, RIGHT) if e in eps)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "potential_shift", potential_shift)
        object.__setattr__(self, "observed_endpoints", ordered)

    @property
    def dim(self) -> int:
        """Dimension m of the observation space G."""
        return len(self.observed_endpoints)

    def eigenvalue(self, n: int) -> float:
        return (n * math.pi / self.length) ** 2 + self.potential_shift

    def trace_vector(self, n: int) -> np.ndarray:
        """Endpoint slopes of the n-th eigenfunction, n >= 1."""
        amp = math.sqrt(2.0 / self.length) * (n * math.pi / self.length)
        comps = {LEFT: amp, RIGHT: amp * (-1.0) ** n}
        return np.array([comps[e] for e in self.observed_endpoints])


class Mode(Record):
    """One signed mode: eigenvalue, branch value and scaled trace vector.

    A ``SpectralModel`` holds its modes as ``ModeArrays``; a ``Mode`` is a
    view of one of them, built on request, with psi a read-only row of the
    model's trace vectors.
    """

    _fields = ("index", "mu", "lam", "psi", "branch")

    def __init__(self, index: int, mu: float, lam: complex, psi: np.ndarray,
                 branch: str):  # branch "J0" (lambda = 0) or "J1"
        psi = np.asarray(psi, dtype=np.complex128)
        psi.setflags(write=False)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "branch", branch)

    @property
    def sign(self) -> int:
        return 1 if self.index > 0 else -1


class ModeArrays(Record):
    """Signed modes as read-only arrays, one entry per mode: the indices n,
    mu_|n|, lambda_n, the trace vectors psi_n as rows of one (modes, m)
    array, and the zero-branch mask.

    It reads as a sequence of ``Mode``: an integer position gives a view of
    that mode, and a slice or an index array the ``ModeArrays`` of those
    modes.
    """

    _fields = ("index", "mu", "lam", "psi", "zero")

    def __init__(self, index: np.ndarray, mu: np.ndarray, lam: np.ndarray,
                 psi: np.ndarray,  # (modes, m)
                 zero: np.ndarray):  # True where lambda_n = 0, branch "J0"
        for name, value, dtype in (("index", index, np.intp), ("mu", mu, np.float64),
                                   ("lam", lam, np.complex128), ("psi", psi, np.complex128),
                                   ("zero", zero, np.bool_)):
            value = np.asarray(value, dtype=dtype)
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, key):
        # a position past the end raises IndexError, which ends iteration
        if isinstance(key, (int, np.integer)):
            return Mode(int(self.index[key]), float(self.mu[key]), complex(self.lam[key]),
                        self.psi[key], "J0" if self.zero[key] else "J1")
        return ModeArrays(self.index[key], self.mu[key], self.lam[key], self.psi[key],
                          self.zero[key])


class SpectralModel(Record):
    """Modes n in {-N, ..., -1, 1, ..., N} for a concrete operator, held as
    one ``ModeArrays`` in that order; ``select``, ``mode`` and
    ``positive_modes`` read them."""

    _fields = ("spec", "truncation", "modes")

    def __init__(self, spec: OperatorSpec, truncation: int, modes: ModeArrays):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "modes", modes)

    def select(self, labels) -> ModeArrays:
        """The modes of the signed indices ``labels``, in their order."""
        n = np.asarray(labels)
        if n.size and n.dtype.kind not in "iu":
            raise TypeError(f"mode indices must be integers, got {labels!r}")
        n = n.astype(np.intp)
        bad = n[(n == 0) | (np.abs(n) > self.truncation)]
        if bad.size:
            raise ValueError(f"mode index {bad[0]} outside +-1..{self.truncation}")
        # modes are stored in index order -N..-1, 1..N
        return self.modes[n + self.truncation - (n > 0)]

    def mode(self, n: int) -> Mode:
        return self.select((n,))[0]

    @property
    def positive_modes(self) -> ModeArrays:
        return self.modes[self.truncation:]

    @property
    def dim(self) -> int:
        return self.spec.dim


def build_spectral_model(spec: OperatorSpec, truncation: int) -> SpectralModel:
    """Assemble the first ``truncation`` signed mode pairs of the operator.

    An eigenvalue counts as zero (branch "J0") when |mu_n| falls below
    ``ZERO_EIG_RTOL * max(1, |q|)``, which guards the closed form against
    float noise when q is chosen to cancel (k pi / L)^2 exactly.  Each array
    holds the value that ``OperatorSpec.eigenvalue`` and ``trace_vector``
    give mode by mode, bit for bit.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be at least 1, got {truncation}")
    zero_tol = ZERO_EIG_RTOL * max(1.0, abs(spec.potential_shift))
    n = np.arange(1, truncation + 1)
    wave = n * math.pi / spec.length
    # float_power is libm's pow, as Python's ** is; squaring differs in the last bit
    mu = np.float_power(wave, 2) + spec.potential_shift
    amp = math.sqrt(2.0 / spec.length) * wave
    comps = {LEFT: amp, RIGHT: np.where(n % 2, -amp, amp)}
    trace = np.stack([comps[e] for e in spec.observed_endpoints], axis=1)
    zero = np.abs(mu) < zero_tol
    mu[zero] = 0.0
    lam = np.sqrt(mu.astype(np.complex128))
    psi = trace.astype(np.complex128)
    psi[~zero] = trace[~zero] / lam[~zero, None]
    # the negative modes, -N..-1, mirror the positive ones
    return SpectralModel(spec, truncation, ModeArrays(
        np.concatenate([-n[::-1], n]), np.concatenate([mu[::-1], mu]),
        np.concatenate([-lam[::-1], lam]), np.concatenate([-psi[::-1], psi]),
        np.concatenate([zero[::-1], zero])))
