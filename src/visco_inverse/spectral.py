"""Concrete spectral data for the string operator -d^2/dx^2 + q on [0, L].

Dirichlet boundary conditions give the classical eigenpairs

    phi_n(x) = sqrt(2/L) sin(n pi x / L),    mu_n = (n pi / L)^2 + q,

and the observation is the Neumann trace (endpoint slope) at a nonempty
subset of the two endpoints.  Branch values lambda_n = sgn(n) sqrt(mu_|n|)
use the principal square root, so negative eigenvalues produce purely
imaginary lambda.  Modes with lambda_n = 0 form the zero branch "J0" and are
handled by closed forms throughout the package; all others are "J1".
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


def eigenfunction(spec: OperatorSpec, n: int, x: np.ndarray) -> np.ndarray:
    """Normalized Dirichlet eigenfunction sqrt(2/L) sin(n pi x / L)."""
    return np.sqrt(2.0 / spec.length) * np.sin(n * math.pi * x / spec.length)


class Mode(Record):
    """One signed mode: eigenvalue, branch value and scaled trace vector."""

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


class SpectralModel(Record):
    """Modes n in {-N, ..., -1, 1, ..., N} for a concrete operator."""

    _fields = ("spec", "truncation", "modes")

    def __init__(self, spec: OperatorSpec, truncation: int, modes: tuple):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "modes", modes)

    def mode(self, n: int) -> Mode:
        if n == 0 or abs(n) > self.truncation:
            raise ValueError(f"mode index {n} outside +-1..{self.truncation}")
        # modes are stored in index order -N..-1, 1..N
        pos = n + self.truncation if n < 0 else n + self.truncation - 1
        return self.modes[pos]

    @property
    def positive_modes(self) -> tuple:
        return self.modes[self.truncation:]

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def semibound_constant(self) -> float:
        """c = max(0, -mu_1); every |Im lambda_n| is bounded by sqrt(c)."""
        return max(0.0, -self.modes[self.truncation].mu)

    def mus(self) -> np.ndarray:
        """Eigenvalues mu_1..mu_N."""
        return np.array([m.mu for m in self.positive_modes])


def build_spectral_model(spec: OperatorSpec, truncation: int) -> SpectralModel:
    """Assemble the first ``truncation`` signed mode pairs of the operator.

    An eigenvalue counts as zero (branch "J0") when |mu_n| falls below
    ``ZERO_EIG_RTOL * max(1, |q|)``, which guards the closed form against
    float noise when q is chosen to cancel (k pi / L)^2 exactly.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be at least 1, got {truncation}")
    zero_tol = ZERO_EIG_RTOL * max(1.0, abs(spec.potential_shift))
    positives = []
    for n in range(1, truncation + 1):
        mu = spec.eigenvalue(n)
        trace = spec.trace_vector(n)
        if abs(mu) < zero_tol:
            positives.append(Mode(n, 0.0, 0.0 + 0.0j, trace, "J0"))
        else:
            lam = complex(np.sqrt(np.complex128(mu)))
            positives.append(Mode(n, mu, lam, trace / lam, "J1"))
    negatives = [
        Mode(-m.index, m.mu, -m.lam, -m.psi, m.branch) for m in reversed(positives)
    ]
    return SpectralModel(spec, truncation, tuple(negatives + positives))


def hilbert_norms(xi, eta, model: SpectralModel) -> tuple:
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
    mus = model.mus()
    n0 = math.sqrt(float(np.sum((1.0 + np.abs(mus)) * xi**2)))
    n1 = math.sqrt(float(np.sum(eta**2)))
    return n0, n1
