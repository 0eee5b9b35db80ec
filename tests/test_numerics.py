"""Tests for the dense linear-algebra substrate."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qcpusim import (
    DimensionMismatch,
    GridSpec,
    InvalidSpec,
    NonHermitianInput,
    NonSquareInput,
    PotentialSpec,
    SystemSpec,
    ZeroVector,
    exact_evolution,
    fidelity,
    hermiticity_defect,
    kinetic_operator,
    require_hermitian,
    spectral_kinetic_matrix,
    spectral_norm_upper_bound,
    tensor,
)
from qcpusim.systems import system_route
from test_grid import shift_matrix, transposition_matrix


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


# ---------------------------------------------------------------------------
# Shift and transposition conventions of the reference matrices
# ---------------------------------------------------------------------------

def test_cyclic_shift_moves_components_forward():
    """The +1 shift acting on psi gives psi'[m] = psi[m+1]."""
    psi = np.array([10.0, 20.0, 30.0, 40.0], dtype=complex)
    s_plus = shift_matrix(4, 1)
    assert np.array_equal(s_plus @ psi, np.array([20.0, 30.0, 40.0, 10.0]))


def test_cyclic_shift_wraps_periodically():
    s = shift_matrix(4, -1)
    psi = np.arange(4).astype(complex)
    assert np.array_equal(s @ psi, np.array([3.0, 0.0, 1.0, 2.0]))


def test_opposite_shifts_are_inverse():
    n = 8
    fwd = shift_matrix(n, 1)
    back = shift_matrix(n, -1)
    assert np.array_equal(fwd @ back, np.eye(n))


def test_transposition_swaps_two_entries():
    t = transposition_matrix(4, 0, 2)
    psi = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    assert np.array_equal(t @ psi, np.array([3.0, 2.0, 1.0, 4.0]))
    assert np.array_equal(t @ t, np.eye(4))


def test_transposition_identity_when_indices_equal():
    assert np.array_equal(transposition_matrix(3, 1, 1), np.eye(3))


def test_tensor_matches_kron_layout():
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[0, 1], [1, 0]])
    assert np.array_equal(tensor(a, b), np.kron(a, b))


# ---------------------------------------------------------------------------
# Hermiticity and the eigendecomposition oracle
# ---------------------------------------------------------------------------

def test_hermiticity_defect_zero_for_hermitian():
    h = random_hermitian(np.random.default_rng(0), 5)
    assert hermiticity_defect(h) == 0.0


def test_require_hermitian_rejects_skew_part():
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonHermitianInput):
        require_hermitian(h)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)])
def test_require_hermitian_rejects_non_finite(bad):
    """A NaN defect must not pass the tolerance test, and inf - inf must not
    leak a RuntimeWarning; the exact oracle refuses such an H too."""
    h = np.array([[0.0, bad], [np.conj(bad), 0.0]])
    with pytest.raises(NonHermitianInput):
        require_hermitian(h)
    with pytest.raises(NonHermitianInput):
        require_hermitian(np.diag([bad, 1.0]))
    with pytest.raises(NonHermitianInput):
        exact_evolution(h, 0.5, np.array([1.0, 0.0]))


def test_require_hermitian_rejects_rectangular():
    with pytest.raises(NonSquareInput):
        require_hermitian(np.ones((2, 3)))


def test_exact_evolution_is_unitary():
    h = random_hermitian(np.random.default_rng(2), 6)
    u = exact_evolution(h, 0.7, np.eye(6))
    assert np.max(np.abs(u @ u.conj().T - np.eye(6))) < 1e-12


def test_exact_evolution_group_property():
    """exp(-iH(t1+t2)) must equal exp(-iHt1) exp(-iHt2)."""
    h = random_hermitian(np.random.default_rng(3), 5)
    u1 = exact_evolution(h, 0.3, np.eye(5))
    u2 = exact_evolution(h, 0.5, np.eye(5))
    u12 = exact_evolution(h, 0.8, np.eye(5))
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-12


def test_exact_evolution_sign_conjugate():
    h = random_hermitian(np.random.default_rng(4), 4)
    fwd = exact_evolution(h, 1.1, np.eye(4), sign=-1)
    back = exact_evolution(h, 1.1, np.eye(4), sign=1)
    assert np.max(np.abs(fwd @ back - np.eye(4))) < 1e-12


def test_exact_evolution_phases_eigenvector():
    vals = np.array([0.5, 1.5, -2.0])
    u = exact_evolution(np.diag(vals), 2.0, np.eye(3))
    e1 = np.zeros(3, dtype=complex)
    e1[1] = 1.0
    assert np.max(np.abs(u @ e1 - np.exp(-1j * vals[1] * 2.0) * e1)) < 1e-14


def test_exact_evolution_invalid_sign():
    for sign in (0, True, -1.0):
        with pytest.raises(InvalidSpec):
            exact_evolution(np.eye(2), 1.0, np.eye(2), sign=sign)


@st.composite
def hermitian_cases(draw):
    """A random Hermitian h (real-valued with a complex dtype, or truly
    complex), a horizon, a sign and a state."""
    n = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = random_hermitian(rng, n)
    if draw(st.booleans()):
        h = h.real.astype(complex)
    t = draw(st.floats(-3.0, 3.0, allow_nan=False))
    sign = draw(st.sampled_from((-1, 1)))
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return h, t, sign, psi


@settings(max_examples=60, deadline=None)
@given(hermitian_cases())
def test_exact_evolution_matches_dense_propagator(case):
    h, t, sign, psi = case
    eigenvalues, v = np.linalg.eigh(h)
    propagator = (v * np.exp(1j * sign * eigenvalues * t)) @ v.conj().T
    assert np.max(np.abs(exact_evolution(h, t, psi, sign) - propagator @ psi)) < 1e-12
    n = h.shape[0]
    assert np.max(np.abs(exact_evolution(h, t, np.eye(n), sign) - propagator)) < 1e-12


def test_exact_evolution_diagonalises_real_h_in_real_arithmetic(monkeypatch):
    """The stencil H has a zero imaginary part and reaches eigh as float64;
    the spectral free-particle H is truly complex and stays complex128."""
    g = GridSpec(length=10.0, qubits=5)
    system = SystemSpec(
        kind="grid_schrodinger", mu=0.7, potential=PotentialSpec(form="quadratic", coefficient=0.5)
    )
    stencil_h = system_route(system, g).hamiltonian
    spectral_h = spectral_kinetic_matrix(g, 0.7)
    seen = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        seen.append(a.dtype)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    psi = np.ones(g.size, dtype=complex)
    exact_evolution(stencil_h, 0.5, psi)
    exact_evolution(spectral_h, 0.5, psi)
    assert seen == [np.dtype(np.float64), np.dtype(np.complex128)]


def test_exact_evolution_of_real_h_forms_no_complex_propagator():
    """Only the Hermiticity check's two N x N complex temporaries remain;
    the complex eigh and propagator product held four."""
    g = GridSpec(length=32.0, qubits=8)
    h = kinetic_operator(g, 1.0) + np.diag(np.linspace(0.0, 1.0, g.size))
    psi = np.ones(g.size, dtype=complex)
    tracemalloc.start()
    try:
        exact_evolution(h, 0.25, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * h.nbytes


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        (4, 4),
        elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
)
def test_spectral_norm_upper_bound_dominates(matrix):
    bound = spectral_norm_upper_bound(matrix)
    true_norm = float(np.linalg.norm(matrix, ord=2))
    assert bound >= true_norm - 1e-9


def test_spectral_norm_bound_rejects_rectangular():
    with pytest.raises(NonSquareInput):
        spectral_norm_upper_bound(np.ones((1, 2)))


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------

def test_fidelity_phase_and_scale_invariant():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert fidelity(a, 3.0 * np.exp(0.7j) * a) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_states():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0], dtype=complex)
    assert fidelity(a, b) == 0.0


def test_fidelity_never_exceeds_one():
    a = np.array([1.0 + 1e-17j, 2.0], dtype=complex)
    assert fidelity(a, a) <= 1.0


def test_fidelity_zero_vector_rejected():
    a = np.ones(3, dtype=complex)
    with pytest.raises(ZeroVector):
        fidelity(a, np.zeros(3))


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fidelity(np.ones(2), np.ones(3))


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.complex128,
        (5,),
        elements=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    ).filter(lambda v: np.linalg.norm(v) > 1e-6),
    arrays(
        np.complex128,
        (5,),
        elements=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    ).filter(lambda v: np.linalg.norm(v) > 1e-6),
)
def test_fidelity_symmetric_and_bounded(a, b):
    f = fidelity(a, b)
    assert 0.0 <= f <= 1.0
    assert f == pytest.approx(fidelity(b, a), abs=1e-12)
