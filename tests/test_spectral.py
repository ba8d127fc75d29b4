import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hilbert_norms, spectral_modes_loop
from visco_inverse import (
    ModeArrays,
    OperatorSpec,
    build_spectral_model,
)

PI = math.pi


def test_unit_interval_modes():
    model = build_spectral_model(OperatorSpec(PI, 0.0, ("left",)), 3)
    for n in (1, 2, 3):
        assert model.mode(n).lam == pytest.approx(n)
        assert model.mode(-n).lam == pytest.approx(-n)
        # slope of sqrt(2/pi) sin(nx) at x = 0 is n sqrt(2/pi); dividing by
        # lambda_n leaves sgn(n) sqrt(2/pi)
        assert model.mode(n).psi[0] == pytest.approx(math.sqrt(2 / PI))
        assert model.mode(-n).psi[0] == pytest.approx(-math.sqrt(2 / PI))
        assert model.mode(n).branch == "J1"


def test_zero_branch_when_potential_cancels():
    model = build_spectral_model(OperatorSpec(PI, -1.0), 2)
    assert model.mode(1).branch == "J0"
    assert model.mode(-1).branch == "J0"
    assert model.mode(1).lam == 0
    assert model.mode(2).mu == pytest.approx(3.0)
    assert model.mode(2).lam == pytest.approx(math.sqrt(3.0))
    assert model.mode(-2).lam == pytest.approx(-math.sqrt(3.0))


def test_negative_eigenvalue_gives_imaginary_branch():
    model = build_spectral_model(OperatorSpec(PI, -2.0), 1)
    mode = model.mode(1)
    assert mode.mu == pytest.approx(-1.0)
    assert mode.lam == pytest.approx(1j)
    # c = max(0, -mu_1) bounds every |Im lambda_n| by sqrt(c)
    semibound_constant = max(0.0, -float(model.modes.mu[model.truncation]))
    assert abs(mode.lam.imag) <= math.sqrt(semibound_constant) + 1e-12
    assert semibound_constant == pytest.approx(1.0)


def test_mode_symmetry_any_model():
    for q in (0.0, -1.0, 2.5, -7.3):
        model = build_spectral_model(OperatorSpec(1.7, q, ("left", "right")), 6)
        for n in range(1, 7):
            plus, minus = model.mode(n), model.mode(-n)
            assert minus.lam == -plus.lam
            np.testing.assert_allclose(minus.psi, -plus.psi, atol=1e-15)
            assert minus.branch == plus.branch


def test_zero_branch_requires_exact_cancellation():
    # J0 nonempty iff q = -(k pi / L)^2 for some k <= N
    L = 1.3
    model = build_spectral_model(OperatorSpec(L, -((2 * PI / L) ** 2)), 4)
    branches = [model.mode(n).branch for n in range(1, 5)]
    assert branches == ["J1", "J0", "J1", "J1"]
    model2 = build_spectral_model(OperatorSpec(L, -((2 * PI / L) ** 2) * 1.001), 4)
    assert all(model2.mode(n).branch == "J1" for n in range(1, 5))


def test_right_endpoint_trace_alternates_sign():
    model = build_spectral_model(OperatorSpec(PI, 0.0, ("left", "right")), 4)
    for n in range(1, 5):
        psi = model.mode(n).psi
        assert psi[1] == pytest.approx((-1.0) ** n * psi[0])


def test_hilbert_norms_examples():
    model = build_spectral_model(OperatorSpec(PI), 2)
    n0, n1 = hilbert_norms([1.0, 0.0], [0.0, 0.0], model)
    assert (n0, n1) == (pytest.approx(math.sqrt(2)), 0.0)
    n0, n1 = hilbert_norms([0.0, 0.0], [0.0, 1.0], model)
    assert (n0, n1) == (0.0, pytest.approx(1.0))
    n0, n1 = hilbert_norms([1.0, 1.0], [0.0, 0.0], model)
    assert n0 == pytest.approx(math.sqrt(7.0))


def test_validation_errors():
    with pytest.raises(ValueError):
        OperatorSpec(-1.0)
    with pytest.raises(ValueError):
        OperatorSpec(1.0, 0.0, ())
    with pytest.raises(ValueError):
        OperatorSpec(1.0, 0.0, ("left", "middle"))
    with pytest.raises(ValueError):
        build_spectral_model(OperatorSpec(1.0), 0)
    model = build_spectral_model(OperatorSpec(1.0), 3)
    with pytest.raises(ValueError):
        hilbert_norms([1.0], [1.0], model)
    with pytest.raises(ValueError):
        model.mode(0)
    with pytest.raises(ValueError):
        model.mode(4)


def test_endpoints_are_canonicalized():
    spec = OperatorSpec(1.0, 0.0, ("right", "left"))
    assert spec.observed_endpoints == ("left", "right")
    assert spec.dim == 2


ENDPOINTS = st.sampled_from([("left",), ("right",), ("left", "right"), ("right", "left")])


@st.composite
def spectral_cases(draw):
    """An operator and a truncation; q is drawn continuously, or as a
    cancellation -(k pi / L)^2, exact or off by a few ulps, that puts mode k
    on the zero branch with mu_k 0 or a float residue below the threshold."""
    length = draw(st.one_of(st.sampled_from([PI, 1.0, 1.3]), st.floats(0.05, 20.0)))
    truncation = draw(st.integers(1, 300))
    cancel = st.tuples(st.integers(1, truncation + 2), st.integers(-4, 4)).map(
        lambda k_ulps: -((k_ulps[0] * PI / length) ** 2) + k_ulps[1] * math.ulp(
            (k_ulps[0] * PI / length) ** 2))
    q = draw(st.one_of(st.just(0.0), st.floats(-400.0, 400.0), cancel))
    return OperatorSpec(length, q, draw(ENDPOINTS)), truncation


def _bits(value) -> bytes:
    return np.asarray(value).tobytes()


@settings(max_examples=150)
@given(spectral_cases())
def test_mode_views_equal_the_per_mode_loop(case):
    spec, truncation = case
    model = build_spectral_model(spec, truncation)
    expected = spectral_modes_loop(spec, truncation)
    assert isinstance(model.modes, ModeArrays) and len(model.modes) == len(expected)
    assert model.modes.psi.shape == (2 * truncation, spec.dim)
    assert not any(getattr(model.modes, name).flags.writeable for name in ModeArrays._fields)
    for got, want in zip(model.modes, expected):
        assert type(got.index) is int and got.index == want.index
        assert type(got.mu) is float and _bits(got.mu) == _bits(want.mu)
        assert type(got.lam) is complex and _bits(got.lam) == _bits(want.lam)
        assert got.psi.dtype == want.psi.dtype and got.psi.shape == want.psi.shape
        assert _bits(got.psi) == _bits(want.psi) and not got.psi.flags.writeable
        assert got.branch == want.branch
    for n in (1, -1, truncation, -truncation):
        got, want = model.mode(n), expected[n + truncation - (n > 0)]
        assert (got.index, got.branch) == (want.index, want.branch)
        assert _bits(got.lam) == _bits(want.lam) and _bits(got.psi) == _bits(want.psi)
    assert [m.index for m in model.positive_modes] == list(range(1, truncation + 1))


def test_mode_arrays_and_their_selection():
    model = build_spectral_model(OperatorSpec(1.3, -((2 * PI / 1.3) ** 2), ("left", "right")), 5)
    assert model.select([2, -2]).zero.tolist() == [True, True]
    assert model.modes[[0, -1]].index.tolist() == [-5, 5]
    assert len(model.select([])) == 0
    with pytest.raises(TypeError):
        model.mode(1.5)
    with pytest.raises(ValueError, match="mode index 6 outside"):
        model.select([1, 6, 0])

