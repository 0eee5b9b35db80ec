"""Tests for the dense linear-algebra substrate."""

import json
import math
import re
import tracemalloc
import warnings

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
    NumericalFailure,
    PotentialSpec,
    SystemSpec,
    ZeroVector,
    build_network,
    exact_evolution,
    fidelity,
    hermiticity_defect,
    kinetic_operator,
    raising_block,
    require_hermitian,
    spectral_kinetic_matrix,
    spectral_norm_upper_bound,
    tensor,
)
from qcpusim.cli import main
from qcpusim.numerics import (
    BESSEL_FLOOR, SparseOperator, _chebyshev_evolution, bessel_series, nonzero_pattern,
    nonzero_product,
)
from qcpusim.systems import system_route
from test_grid import shift_matrix, transposition_matrix


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def exact_propagator(h, t, sign=-1):
    """The propagator e^{sign i h t}, built column by column from the oracle."""
    return np.column_stack([exact_evolution(h, t, e, sign) for e in np.eye(len(h))])


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
# Hermiticity and the exact-evolution oracle
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


@pytest.mark.parametrize("shape", [(1, 3), (3, 1), (0, 3)])
def test_hermiticity_defect_rejects_non_square(shape):
    """A row or column vector does not broadcast against its transpose into a
    zero defect: the defect of a non-square matrix is refused, and every
    function that takes a square matrix refuses it with the same message."""
    for check in (hermiticity_defect, spectral_norm_upper_bound, build_network, raising_block):
        with pytest.raises(NonSquareInput, match=re.escape(f"square matrix, got {shape}")):
            check(np.ones(shape))


def test_exact_evolution_is_unitary():
    h = random_hermitian(np.random.default_rng(2), 6)
    u = exact_propagator(h, 0.7)
    assert np.max(np.abs(u @ u.conj().T - np.eye(6))) < 1e-12


def test_exact_evolution_group_property():
    """exp(-iH(t1+t2)) must equal exp(-iHt1) exp(-iHt2)."""
    h = random_hermitian(np.random.default_rng(3), 5)
    u1 = exact_propagator(h, 0.3)
    u2 = exact_propagator(h, 0.5)
    u12 = exact_propagator(h, 0.8)
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-12


def test_exact_evolution_sign_conjugate():
    h = random_hermitian(np.random.default_rng(4), 4)
    fwd = exact_propagator(h, 1.1, sign=-1)
    back = exact_propagator(h, 1.1, sign=1)
    assert np.max(np.abs(fwd @ back - np.eye(4))) < 1e-12


def test_exact_evolution_phases_eigenvector():
    vals = np.array([0.5, 1.5, -2.0])
    u = exact_propagator(np.diag(vals), 2.0)
    e1 = np.zeros(3, dtype=complex)
    e1[1] = 1.0
    assert np.max(np.abs(u @ e1 - np.exp(-1j * vals[1] * 2.0) * e1)) < 1e-14


def test_exact_evolution_invalid_sign():
    for sign in (0, True, -1.0):
        with pytest.raises(InvalidSpec):
            exact_propagator(np.eye(2), 1.0, sign=sign)


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
    assert np.max(np.abs(exact_propagator(h, t, sign) - propagator)) < 1e-12


@pytest.mark.parametrize("psi", [np.eye(3), np.ones((3, 1)), np.ones(2), np.ones(4), np.ones(0)])
def test_exact_evolution_takes_one_state_of_h_dimension(psi):
    """A matrix of states, or a state of another length, is refused: a
    longer one must not come back cut short or zero-padded."""
    h = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        exact_evolution(h, 0.5, psi)


def test_exact_evolution_diagonalises_real_h_in_real_arithmetic(monkeypatch):
    """On the eigh branch, the stencil H has a zero imaginary part and
    reaches eigh as float64; the spectral free-particle H is truly complex
    and stays complex128.  At t = 50 the Chebyshev series would be dearer
    than eigh for both, so eigh is what runs."""
    g = GridSpec(length=10.0, qubits=5)
    system = SystemSpec(
        kind="grid_schrodinger", mu=0.7, potential=PotentialSpec(form="quadratic", coefficient=0.5)
    )
    stencil_h = system_route(system, g).hamiltonian
    spectral_h = spectral_kinetic_matrix(g, 0.7)
    psi = np.ones(g.size, dtype=complex)
    for h in (stencil_h, spectral_h):
        assert _chebyshev_evolution(h, 50.0, psi, -1, g.size ** 3) is None
    seen = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        seen.append(a.dtype)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    exact_evolution(stencil_h, 50.0, psi)
    exact_evolution(spectral_h, 50.0, psi)
    assert seen == [np.dtype(np.float64), np.dtype(np.complex128)]


def test_exact_evolution_of_real_h_forms_no_complex_propagator():
    """On the eigh branch (t = 50) a real H costs real temporaries only; the
    complex eigh and propagator product held four N x N complex arrays."""
    g = GridSpec(length=32.0, qubits=8)
    h = kinetic_operator(g, 1.0) + np.diag(np.linspace(0.0, 1.0, g.size))
    psi = np.ones(g.size, dtype=complex)
    assert _chebyshev_evolution(h, 50.0, psi, -1, g.size ** 3) is None
    tracemalloc.start()
    try:
        exact_evolution(h, 50.0, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * h.nbytes


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0),
       empty_rows=st.floats(0.0, 1.0))
def test_nonzero_product_matches_the_dense_product(n, seed, density, empty_rows):
    """On a random complex sparse A, some of its rows empty, the product on
    A's row-major nonzeros equals A @ v to 1e-12 relative to |A| @ |v|, and
    the zeros of a filled diagonal leave its bits alone."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a[rng.random((n, n)) >= density] = 0.0
    a[rng.random(n) < empty_rows] = 0.0
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rows, cols = np.nonzero(a)
    expected = a @ v
    out = nonzero_product(rows, cols, a[rows, cols], v)
    assert out.shape == (n,)
    assert np.all(np.abs(out - expected) <= 1e-12 * (np.abs(a) @ np.abs(v)))
    assert np.max(np.abs(nonzero_product(*nonzero_pattern(a), v) - out)) == 0.0


def test_hermiticity_defect_compares_in_row_blocks():
    """At N = 1024 the check holds one block of rows at a time, far under
    the two N x N complex temporaries (33.7 MB) of h - h^dag."""
    n = 1024
    h = np.zeros((n, n), dtype=complex)
    h[np.arange(n), (np.arange(n) + 1) % n] = 1.0 + 0.5j
    h[(np.arange(n) + 1) % n, np.arange(n)] = 1.0 - 0.5j
    h[700, 3] += 1e-3
    tracemalloc.start()
    try:
        defect = hermiticity_defect(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert defect == np.max(np.abs(h - h.conj().T)) == pytest.approx(1e-3)
    assert peak < 4 * 2**20


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 160),
    seed=st.integers(0, 2**32 - 1),
    bad=st.sampled_from([0.0, math.inf, -math.inf, math.nan, complex(math.inf, 1.0),
                         complex(0.0, math.nan), 1e-3]),
    in_last_block=st.booleans(),
)
def test_hermiticity_defect_matches_whole_matrix_difference(n, seed, bad, in_last_block):
    """The blocked defect equals the whole-matrix max |h - h^dag| bit for
    bit, an inf (inf - inf) or NaN entry giving NaN in both, also when only
    the last block of rows holds it."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n)
    i, j = (n - 1, n - 1) if in_last_block else rng.integers(0, n, 2)
    h[i, j] += bad
    with np.errstate(invalid="ignore"):
        expected = float(np.max(np.abs(h - h.conj().T)))
    defect = hermiticity_defect(h)
    assert defect == expected or (math.isnan(defect) and math.isnan(expected))


def sparse_of(h) -> SparseOperator:
    """h as a SparseOperator: its nonzero_pattern, with dense() giving h."""
    return SparseOperator(h.shape[0], *nonzero_pattern(h), lambda: h)


@settings(max_examples=120, deadline=None)
@given(
    n=st.one_of(st.sampled_from([1, 2, 4, 8, 16, 64, 128, 256, 512]), st.integers(1, 200)),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 1.0),
    bad=st.sampled_from([0.0, math.inf, math.nan, complex(0.0, math.nan), 1e-3, 1e300]),
    hermitian=st.booleans(),
)
def test_sparse_operator_checks_equal_the_dense_ones(n, seed, density, bad, hermitian):
    """On a random sparse matrix held as a SparseOperator, the Hermiticity
    defect, the refusal and its text, and the norm bound all equal those of
    the dense matrix bit for bit: the bound's row sums are rounded in
    numpy's pairwise order at power-of-two sizes up to 4 blocks of 128,
    and other sizes bound dense()."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n) if hermitian else rng.standard_normal((n, n)) + 0j
    scale = rng.lognormal(0.0, 1.5, n)
    h = scale[:, None] * h * scale  # rows and columns of very different weight
    h[rng.random((n, n)) >= density] = 0.0
    h[rng.integers(0, n), rng.integers(0, n)] += bad
    op = sparse_of(h)
    with np.errstate(over="ignore", invalid="ignore"):
        expected, defect = hermiticity_defect(h), hermiticity_defect(op)
        bounds = spectral_norm_upper_bound(h), spectral_norm_upper_bound(op)
    assert defect == expected or (math.isnan(defect) and math.isnan(expected))
    assert bounds[0] == bounds[1] or (math.isnan(bounds[0]) and math.isnan(bounds[1]))
    messages = []
    for operator in (h, op):
        try:
            require_hermitian(operator)
            messages.append(None)
        except NonHermitianInput as exc:
            messages.append(str(exc))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("z", [0.0, 1e-300, 1e-67, 1e-5, 0.5, 3.0, 40.0, 500.0])
def test_bessel_series_satisfies_the_generating_function(z):
    """e^{iz cos theta} = J_0 + 2 sum_k i^k J_k cos(k theta), and the
    series ends at the first order past z whose J_k is below the floor."""
    j = bessel_series(z)
    k = np.arange(len(j))
    weights = np.where(k == 0, 1.0, 2.0) * (1j ** (k % 4))
    for theta in (0.0, 0.3, 1.1, math.pi / 2, 2.5, math.pi):
        series = np.sum(weights * j * np.cos(k * theta))
        assert abs(series - np.exp(1j * z * math.cos(theta))) < 1e-13 * max(1.0, z)
    assert len(j) > z
    assert abs(j[-1]) >= BESSEL_FLOOR or len(j) == 1
    if z == 0.0:
        assert j.tolist() == [1.0]


def test_bessel_series_known_values():
    """J_0(10), J_1(10) and J_0(100) against tabulated values."""
    assert bessel_series(10.0)[:2] == pytest.approx([-0.2459357644513483, 0.04347274616886144], abs=1e-15)
    assert bessel_series(100.0)[0] == pytest.approx(0.019985850304223122, abs=1e-15)


@st.composite
def chebyshev_cases(draw):
    """A dense or periodic-banded, real or complex Hermitian h of N = 1..64,
    a horizon t in [-3, 3] (0 and +-1e-67 included), h scaled so that |t|
    times its Gershgorin half-width is up to about 500, a sign, and unit
    column states."""
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = random_hermitian(rng, n)
    if draw(st.booleans()):
        offset = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        h = np.where((offset == 0) | (offset == 1) | (offset == n - 1), h, 0.0)
    if draw(st.booleans()):
        h = h.real.astype(complex)
    t = draw(st.one_of(st.sampled_from([0.0, 1e-67, -1e-67]), st.floats(-3.0, 3.0)))
    if abs(t) > 1e-3:
        radius = np.max(np.sum(np.abs(h), axis=1))
        h = h * (draw(st.floats(0.0, 500.0)) / (abs(t) * radius))
    sign = draw(st.sampled_from((-1, 1)))
    columns = rng.standard_normal((n, draw(st.integers(1, 3)))) + 1j * rng.standard_normal((n, 1))
    return h, t, sign, columns / np.linalg.norm(columns, axis=0)


@settings(max_examples=80, deadline=None)
@given(chebyshev_cases())
def test_chebyshev_series_matches_eigh(case):
    """The Chebyshev branch, run whatever its cost, agrees with the
    eigendecomposition propagator to 1e-12 on each state."""
    h, t, sign, columns = case
    eigenvalues, v = np.linalg.eigh(h)
    propagator = (v * np.exp(1j * sign * eigenvalues * t)) @ v.conj().T
    for psi in columns.T:
        out = _chebyshev_evolution(h, t, psi, sign, math.inf)
        assert np.max(np.abs(out - propagator @ psi)) < 1e-12


def _count_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


README_HARMONIC = {
    "system": {"kind": "harmonic", "omega": 1.0},
    "grid": {"L": 16.0, "k": 4},
    "evolution": {"dt": 0.19634954084936207, "total_time": 6.283185307179586},
    "initial_state": {"basis_state": 3},
    "outputs": {"snapshot_every": 8},
}
README_GRID = {
    "system": {"kind": "grid_schrodinger", "mu": 1.0,
               "potential": {"form": "quadratic", "coefficient": 0.05}},
    "grid": {"L": 16.0, "k": 4, "centered": True},
    "evolution": {"dt": 0.0625, "total_time": 1.0},
    "initial_state": {"gaussian": {"x0": 0.0, "p0": 0.5, "sigma": 1.5}},
    "outputs": {},
}


def _simulate(tmp_path, config, name):
    config = json.loads(json.dumps(config))
    config["outputs"]["directory"] = str(tmp_path / name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the k = 8 grid run warns of its dt * ||H||
        assert main(["simulate", "--config", str(path)]) == 0


def test_oracle_branch_follows_the_cost_inequality(tmp_path, monkeypatch):
    """The grid kind at k = 8 runs the oracle as a Chebyshev series; the
    README configs, a stream-like dense spectral H and an oscillator at
    t * ||H|| about 1e5 take eigh."""
    calls = _count_eigh(monkeypatch)
    grid_k8 = json.loads(json.dumps(README_GRID))
    grid_k8["grid"]["k"] = 8
    _simulate(tmp_path, grid_k8, "grid_k8")
    assert calls == []
    _simulate(tmp_path, README_GRID, "readme_grid")
    _simulate(tmp_path, README_HARMONIC, "readme_harmonic")
    assert calls == [(16, 16), (16, 16)]
    g = GridSpec(length=32.0, qubits=8, centered=True)
    exact_evolution(spectral_kinetic_matrix(g, 1.0), 2.0, np.ones(g.size, dtype=complex))
    assert calls[-1] == (256, 256)
    harmonic = json.loads(json.dumps(README_HARMONIC))
    harmonic["grid"]["k"] = 6  # energies up to 63.5: t * ||H|| = 1.0e5
    harmonic["evolution"] = {"dt": 15.75, "total_time": 1575.0}
    harmonic["outputs"]["snapshot_every"] = 1000
    _simulate(tmp_path, harmonic, "harmonic")
    assert calls[-1] == (64, 64) and len(calls) == 4
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


@pytest.mark.parametrize("a", [[math.nan, 1.0], [math.inf, 0.0], [complex(0.0, math.inf), 1.0]])
def test_fidelity_refuses_a_state_that_is_not_finite(a):
    """min(1.0, NaN) is 1.0: a non-finite state must not read as perfect agreement."""
    for pair in ((a, [1.0, 0.0]), ([1.0, 0.0], a)):
        with pytest.raises(NumericalFailure):
            fidelity(*pair)


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
