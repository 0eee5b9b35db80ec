"""Tests for the dense linear-algebra substrate."""

import dataclasses
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
from qcpusim import numerics
from qcpusim.cli import main
from qcpusim.grid import kinetic_nonzeros, momentum_nonzeros
from qcpusim.numerics import (
    BESSEL_FLOOR, CHEBYSHEV_COST, COMPLEX_EIGH_COST, EIGH_MAX_SIZE, FOURIER_DENSE_COST,
    MAX_SERIES_TERMS, FourierOperator, SparseOperator, _chebyshev_evolution, as_operator,
    bessel_series, nonzero_product, oracle_gate,
)
from qcpusim.systems import spectral_evolution, system_route
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


def test_exact_evolution_of_an_empty_h_is_the_empty_state():
    out = exact_evolution(np.zeros((0, 0)), 1.0, np.zeros(0))
    assert out.shape == (0,) and out.dtype == complex


def test_exact_evolution_invalid_sign():
    for sign in (0, True, -1.0):
        with pytest.raises(InvalidSpec):
            exact_propagator(np.eye(2), 1.0, sign=sign)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_exact_evolution_refuses_a_time_that_is_not_finite(t):
    """A time that is not finite is refused, as spectral_evolution refuses
    it, before any work and with no numpy warning: on a stencil H whose
    oracle runs the series at t = 0.5 and on a dense H that takes eigh."""
    stencil = system_route(SystemSpec(kind="grid_schrodinger", mu=1.0,
                                      potential=PotentialSpec(form="constant", value=0.0)),
                           GridSpec(length=16.0, qubits=6, centered=True)).hamiltonian
    dense = random_hermitian(np.random.default_rng(5), 4)
    psi = np.ones(64, dtype=complex)
    assert _chebyshev_evolution(stencil, 0.5, psi, -1, oracle_gate(stencil, 0.5)) is not None
    assert _chebyshev_evolution(dense, 0.5, psi[:4], -1, oracle_gate(dense, 0.5)) is None
    for h, state in ((stencil, psi), (dense, psi[:4])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidSpec, match=re.escape(f"time must be finite, got {t!r}")):
                exact_evolution(h, t, state)


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
        assert _chebyshev_evolution(h, 50.0, psi, -1, oracle_gate(h, 50.0)) is None
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
    assert _chebyshev_evolution(h, 50.0, psi, -1, oracle_gate(h, 50.0)) is None
    tracemalloc.start()
    try:
        exact_evolution(h, 50.0, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * h.nbytes


def test_above_eigh_max_size_a_complex_h_runs_the_series_whatever_it_costs(monkeypatch):
    """At N = 2048, above EIGH_MAX_SIZE, a complex eigh is priced at inf: the
    free particle's FourierOperator takes its series (z = 60000 terms) over a
    horizon where it costs more than the 5 N^3 its eigh would cost below the
    ceiling, and eigh is never called; its state is the closed form
    F^dag e^{-i E t} F psi."""

    def refuse(*args, **kwargs):
        raise AssertionError("a complex eigh ran above EIGH_MAX_SIZE")

    g = GridSpec(length=2048.0, qubits=11)
    h = system_route(SystemSpec(kind="free_particle", mu=1.0), g).hamiltonian
    t = 60000.0 / oracle_gate(h, 1.0).width
    gate = oracle_gate(h, t)
    assert g.size > EIGH_MAX_SIZE and h.eigh_cost() == gate.budget == math.inf
    below_ceiling = (COMPLEX_EIGH_COST + FOURIER_DENSE_COST) * g.size ** 3
    assert (gate.z + 1) * gate.nonzeros * CHEBYSHEV_COST > below_ceiling
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    psi = np.exp(-(g.points - 1024.0) ** 2 / 1600.0 + 0.5j * g.points)
    closed_form = np.fft.fft(np.exp(-1j * h.energies * t) * np.fft.ifft(psi, norm="ortho"),
                             norm="ortho")
    assert np.max(np.abs(exact_evolution(h, t, psi) - closed_form)) < 1e-9


@pytest.mark.parametrize("t, terms", [(1e300, "3.15827e+302"), (1e306, "inf")],
                         ids=["t1e300", "t1e306"])
def test_a_series_past_max_series_terms_is_refused_before_any_bessel_term(monkeypatch, t, terms):
    """The k = 11 free particle's FourierOperator has no eigh to fall back on:
    over a horizon whose series would need more than MAX_SERIES_TERMS terms
    (z = 3.2e302, or inf) exact_evolution refuses it with the sentence
    `EvolutionSettings.resolve` prints, before `bessel_series` runs."""
    def refuse(z):
        raise AssertionError("bessel_series ran")

    g = GridSpec(length=181.01933598375618, qubits=11, centered=True)
    h = system_route(SystemSpec(kind="free_particle", mu=1.0), g).hamiltonian
    monkeypatch.setattr(numerics, "bessel_series", refuse)
    psi = np.zeros(g.size, dtype=complex)
    psi[0] = 1.0
    with pytest.raises(InvalidSpec) as caught:
        exact_evolution(h, t, psi)
    assert str(caught.value).startswith(
        f"the exact oracle would need a Chebyshev series of at least {terms} terms, more than "
        f"{MAX_SERIES_TERMS}, as a complex eigh does not run above N = {EIGH_MAX_SIZE}")


@pytest.mark.parametrize("h, t", [
    (np.diag([1e300, 2e300]), 1e10),
    (np.diag([1e300, 1e300]), 1e10),
    (np.diag([-1e308, 1.0]), -2.0),
], ids=["wide", "narrow", "negative"])
def test_a_horizon_whose_phases_overflow_is_refused(h, t):
    """|t| max(|lo|, |hi|) of the Gershgorin interval past double range makes
    e^{i E t} NaN on either route; the gate refuses it, even where z = |t| w
    is finite because the interval is narrow (w = 1e288 at [1e300, 1e300])."""
    gate = oracle_gate(h, t)
    assert gate.phase == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpec, match=r"^the exact oracle's phases e\^\(i E t\) would "
                                              r"overflow: \|t\| max \|E\| is not finite on H's"):
            exact_evolution(h, t, np.ones(2))


def test_above_eigh_max_size_only_a_real_h_keeps_its_eigh_price():
    """At N = 2048 the grid kind's real stencil keeps the N^3 price of a real
    eigh, which stands in for its series over a long horizon as below the
    ceiling, while the same stencil with a Peierls phase on its hopping, a
    complex Hermitian H, is priced at inf."""
    g = GridSpec(length=2048.0, qubits=11)
    h = system_route(SystemSpec(kind="grid_schrodinger", mu=1.0,
                                potential=PotentialSpec(form="constant", value=0.0)), g).hamiltonian
    gate = oracle_gate(h, 45000.0 / oracle_gate(h, 1.0).width)
    assert h.eigh_cost() == gate.budget == g.size ** 3
    assert not gate.affords(gate.z + 1)
    phases = np.exp(0.3j * np.sign(h.cols - h.rows))
    phased = dataclasses.replace(h, values=h.values * phases)
    assert phased.defect == 0.0
    assert phased.eigh_cost() == oracle_gate(phased, 1.0).budget == math.inf


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
    out = nonzero_product(rows, cols, a[rows, cols], n)(v)
    assert out.shape == (n,)
    assert np.all(np.abs(out - expected) <= 1e-12 * (np.abs(a) @ np.abs(v)))
    assert np.max(np.abs(nonzero_product(*as_operator(a).nonzeros, n)(v) - out)) == 0.0


def bincount_product(rows, cols, values, v):
    """A @ v as np.bincount sums each row's terms: ((0.0 + t_0) + t_1) + ...
    in the order of the nonzeros, real and imaginary parts apart."""
    terms = values * v[cols]
    return np.bincount(rows, terms.real, len(v)) + 1j * np.bincount(rows, terms.imag, len(v))


@st.composite
def product_operators(draw):
    """(rows, cols, values, n, holds_diagonal): a stencil or diagonal H at
    N = 4..64, or a random ragged pattern from np.nonzero (empty rows, no
    diagonal) or from as_operator (every row holds its diagonal)."""
    kind = draw(st.sampled_from(("kinetic", "momentum", "harmonic", "stepped", "nonzero", "pattern")))
    if kind in ("nonzero", "pattern"):
        n = draw(st.integers(1, 64))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a[rng.random((n, n)) >= draw(st.floats(0.0, 1.0))] = 0.0
        a[rng.random(n) < draw(st.floats(0.0, 1.0))] = 0.0
        if kind == "pattern":
            return (*as_operator(a).nonzeros, n, True)
        rows, cols = np.nonzero(a)
        return rows, cols, a[rows, cols], n, False
    grid = GridSpec(length=draw(st.floats(1.0, 100.0)), qubits=draw(st.integers(2, 6)),
                    centered=draw(st.booleans()))
    mu = draw(st.floats(0.1, 10.0))
    if kind == "kinetic":
        return (*kinetic_nonzeros(grid, mu), grid.size, True)
    if kind == "momentum":
        return (*momentum_nonzeros(grid), grid.size, True)
    system = (SystemSpec(kind="harmonic", omega=mu) if kind == "harmonic" else SystemSpec(
        kind="grid_schrodinger", mu=mu,
        potential=PotentialSpec(form="quadratic", coefficient=draw(st.floats(-5.0, 5.0)))))
    return (*system_route(system, grid).hamiltonian.nonzeros, grid.size, True)


SPECIAL_PARTS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0)


@settings(max_examples=300, deadline=None)
@given(case=product_operators(), data=st.data())
def test_nonzero_product_is_the_bincount_sum_bit_for_bit(case, data):
    """The padded row-ordered product equals the bincount sum byte for byte
    on states with zeros, -0.0 and subnormal parts, and on basis states at
    the wrap indices; with an inf in the state, the same entries are not
    finite wherever every row reads its own entry."""
    rows, cols, values, n, holds_diagonal = case
    product = nonzero_product(rows, cols, values, n)
    part = st.one_of(st.sampled_from(SPECIAL_PARTS), st.floats(-1e3, 1e3),
                     st.floats(-1e-300, 1e-300))
    re, im = (data.draw(arrays(np.float64, n, elements=part)) for _ in range(2))
    states = []
    for a, b in ((re, im), (im, re)):
        v = a.astype(complex)
        v.imag = b  # a + 1j * b would turn -0.0 parts into +0.0
        states += [v, v.conj()]
    for i in sorted({0, 1 % n, (n - 2) % n, n - 1}):
        basis = np.zeros(n, dtype=complex)
        basis[i] = data.draw(st.sampled_from((1.0, -1.0, 1j, -0.0, 5e-324)))
        states.append(basis)
    for v in states:
        out = product(v)
        assert out.shape == (n,) and out.tobytes() == bincount_product(rows, cols, values, v).tobytes()
    if holds_diagonal:
        v = states[0].copy()
        v[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from((np.inf, -np.inf, complex(0.0, np.inf))))
        with np.errstate(invalid="ignore", over="ignore"):
            assert np.array_equal(np.isfinite(product(v)), np.isfinite(bincount_product(rows, cols, values, v)))


def test_hermiticity_defect_compares_in_row_blocks():
    """At N = 1024 the check compares each nonzero with its mirror, far under
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
    """The defect on h's nonzeros equals the whole-matrix max |h - h^dag| bit
    for bit, an inf (inf - inf) or NaN entry giving NaN in both, also when
    only the last row holds it."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n)
    i, j = (n - 1, n - 1) if in_last_block else rng.integers(0, n, 2)
    h[i, j] += bad
    with np.errstate(invalid="ignore"):
        expected = float(np.max(np.abs(h - h.conj().T)))
    defect = hermiticity_defect(h)
    assert defect == expected or (math.isnan(defect) and math.isnan(expected))


def sparse_of(h) -> SparseOperator:
    """h as a SparseOperator: as_operator's nonzeros, with dense() giving h."""
    return SparseOperator(h.shape[0], *as_operator(h).nonzeros, lambda: h)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.complex_numbers(max_magnitude=2.0), st.floats(-2.0, 2.0),
       st.integers(0, 2**32 - 1))
def test_affine_operators_and_sums_match_their_dense_forms(k, beta, alpha, seed):
    """alpha I + beta H in each form, and the sum of two operators of one form
    or, by the dense fallback, of two patterns or forms: dense() is byte for
    byte alpha I + beta H.dense() or A.dense() + B.dense(), and matvec, the
    Hermiticity defect and scaled_product agree with the dense arithmetic to
    1e-12 of its scale."""
    grid = GridSpec(length=8.0, qubits=k, centered=True)
    sparse = system_route(SystemSpec(kind="grid_schrodinger", mu=1.0,
                                     potential=PotentialSpec(form="quadratic", coefficient=0.05)),
                          grid).hamiltonian
    fourier = system_route(SystemSpec(kind="constant_field", mu=1.0, u=0.5), grid).hamiltonian
    rng = np.random.default_rng(seed)
    other = as_operator(random_hermitian(rng, grid.size))
    v = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    eye = np.eye(grid.size, dtype=complex)
    cases = [(op.affine(beta, alpha), alpha * eye + beta * op.dense()) for op in (sparse, fourier)]
    cases += [(a + b, a.dense() + b.dense())
              for a, b in [(sparse, sparse.affine(beta, alpha)), (fourier, fourier.affine(beta, alpha)),
                           (sparse, other), (sparse, fourier), (fourier, sparse)]]
    for op, expected in cases:
        scale = 1e-12 * max(1.0, np.max(np.abs(expected)))
        assert op.dense().tobytes() == expected.tobytes()
        assert np.max(np.abs(op.matvec(v) - expected @ v)) <= scale * np.max(np.abs(v)) * grid.size
        assert abs(op.defect - hermiticity_defect(expected)) <= scale
    for op in (sparse, fourier):
        centre, width = alpha, 1.5 + abs(beta)
        expected = 2 * (op.dense() - centre * eye) / width @ v
        assert np.max(np.abs(op.scaled_product(centre, width)(v) - expected)) \
            <= 1e-12 * max(1.0, np.max(np.abs(op.dense()))) * np.max(np.abs(v)) * grid.size
    with pytest.raises(DimensionMismatch, match=re.escape(f"operator dims differ: {grid.size} vs 1")):
        fourier + as_operator(np.eye(1))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_an_operator_plus_a_matrix_reads_the_matrix_as_an_operator(n):
    """H + G with G a square matrix is H + as_operator(G), for either form of
    H: at n = 2 no dims mismatch against G's 4 entries, at n = 1 no bare
    AttributeError; a matrix of another size is refused by its dimension."""
    energies = np.arange(n, dtype=float)
    fourier = FourierOperator(n, energies, lambda: np.fft.fft(
        energies[:, None] * np.fft.ifft(np.eye(n), axis=0, norm="ortho"), axis=0, norm="ortho"))
    for h in (as_operator(np.eye(n)), fourier):
        total = h + np.eye(n)
        assert isinstance(total, SparseOperator)
        assert total.dense().tobytes() == (h.dense() + np.eye(n)).tobytes()
        with pytest.raises(DimensionMismatch, match=re.escape(f"operator dims differ: {n} vs {n + 1}")):
            h + np.eye(n + 1)


@pytest.mark.parametrize("form", ["sparse", "fourier"])
def test_made_operators_build_dense_from_their_parents_dense(form):
    """An operator made by affine or + builds its dense() from its parents'
    dense() alone: H's dense() here is a matrix other than its data's, and each
    made operator's dense() is the rule on that matrix, read once per parent,
    not its own data's matrix."""
    rng = np.random.default_rng(35)
    n = 5
    shown = random_hermitian(rng, n)  # what H's dense() gives; H's data is another H
    calls = []

    def dense():
        calls.append(1)
        return shown

    if form == "sparse":
        h = SparseOperator(n, *as_operator(random_hermitian(rng, n)).nonzeros, dense)
    else:
        h = FourierOperator(n, rng.standard_normal(n), dense)
    eye = np.eye(n, dtype=complex)
    step = h.affine(0.25j, 1)
    cases = [(step, eye + 0.25j * shown), (h + h, shown + shown),
             (step + h, (eye + 0.25j * shown) + shown),
             (h + as_operator(eye), shown + eye),
             (step.affine(2.0, -1.0), -1.0 * eye + 2.0 * (eye + 0.25j * shown))]
    for op, expected in cases:
        assert op.dense().tobytes() == expected.tobytes()
    assert len(calls) == 1  # h's dense() is built once and every made one reads it


def test_as_operator_decides_the_form_once():
    """as_operator returns an operator as it is and holds a square matrix as
    a SparseOperator on its nonzeros and whole diagonal, whose dense() is the
    matrix itself, not a copy; require_hermitian returns that operator."""
    h = random_hermitian(np.random.default_rng(3), 5)
    h[0, 0], h[1, 3], h[3, 1] = 0.0, 0.0, 0.0
    op = as_operator(h)
    assert isinstance(op, SparseOperator) and op.dense() is h and op.size == 5
    assert as_operator(op) is op and require_hermitian(op) is op
    rows, cols, values = op.nonzeros
    keep = (h != 0) | np.eye(5, dtype=bool)
    assert np.array_equal(rows, np.nonzero(keep)[0]) and np.array_equal(cols, np.nonzero(keep)[1])
    assert values.tobytes() == h[keep].tobytes()
    fourier = FourierOperator(2, np.array([0.0, 1.0]), lambda: np.eye(2, dtype=complex))
    assert as_operator(fourier) is fourier and require_hermitian(fourier) is fourier
    assert not hasattr(fourier, "nonzeros")  # its Euler product is two FFTs, not N^2 entries
    v = np.array([1.0 + 2.0j, -0.5j])
    h_v = fourier.scaled_product(0.0, 2.0)(v)  # 2 (H - 0) / 2 @ v
    assert np.allclose(fourier.affine(0.25j, 1).matvec(v), v + 0.25j * h_v, rtol=0, atol=1e-15)
    assert isinstance(as_operator(np.eye(3)).dense()[0, 0], np.complex128)
    with pytest.raises(NonSquareInput):
        as_operator(np.ones((2, 3)))


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
    the dense matrix bit for bit."""
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


def index_order_sum(values) -> float:
    total = 0.0
    for value in values:
        total += float(value)
    return total


@settings(max_examples=60, deadline=None)
@given(n=st.integers(9, 300), seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 1.0))
def test_norm_bound_adds_each_row_and_column_in_index_order(n, seed, density):
    """The bound of H is sqrt(max row sum * max column sum) of |H|, bit for
    bit, with every row and column added in index order: on a matrix whose
    heaviest row, one entry of 1 and the rest below half its ulp, numpy's
    pairwise summation rounds otherwise."""
    rng = np.random.default_rng(seed)
    small = rng.uniform(0.6e-16, 1e-16, (n, n)) * np.exp(2j * np.pi * rng.random((n, n)))
    h = np.where(rng.random((n, n)) < density, small, 0.0)
    heavy = rng.integers(0, n)
    h[heavy] = small[heavy]
    h[heavy, 0] = 1.0
    absh = np.abs(h)
    row_sum = max(index_order_sum(row) for row in absh)
    col_sum = max(index_order_sum(col) for col in absh.T)
    assert row_sum == 1.0 < float(np.max(absh.sum(axis=1)))  # pairwise rounds the heavy row up
    expected = math.sqrt(row_sum * col_sum)
    for op in (h, sparse_of(h)):
        assert spectral_norm_upper_bound(op) == expected


def test_norm_bound_of_a_finite_h_is_finite():
    """The grid kind with mu 1e-305 and a constant potential 1e308 at L = 1,
    k = 4 is a finite stencil H (entries up to 1.06e308) whose max row and
    column sums multiply past double range: its bound is sqrt(row sum) *
    sqrt(column sum), finite and above every |h|, and the Hermiticity
    tolerance scales with such a bound, so a relative rounding defect of 4e-16
    at 1e300 passes."""
    op = system_route(SystemSpec(kind="grid_schrodinger", mu=1e-305,
                                 potential=PotentialSpec(form="constant", value=1e308)),
                      GridSpec(length=1.0, qubits=4, centered=True)).hamiltonian
    row_sum = float(np.max(np.bincount(op.rows, np.abs(op.values), op.size)))
    assert math.isinf(row_sum * row_sum)
    bound = spectral_norm_upper_bound(op)
    assert bound == math.sqrt(row_sum) * math.sqrt(row_sum) >= np.max(np.abs(op.values))
    h = np.array([[0.0, 1e300], [1e300 * (1 + 4e-16), 0.0]])
    assert math.isfinite(spectral_norm_upper_bound(h)) and hermiticity_defect(h) > 1e284
    assert np.array_equal(require_hermitian(h).dense(), h)  # not refused


def test_sparse_operator_builds_its_dense_form_once():
    """dense() returns the one array its builder made, however often it is
    called; a builder that raises is called again on the next call."""
    h = random_hermitian(np.random.default_rng(4), 6)
    built = []

    def build():
        built.append(len(built))
        if len(built) == 1:
            raise NumericalFailure("the first build fails")
        return h.copy()

    op = SparseOperator(6, *as_operator(h).nonzeros, build)
    with pytest.raises(NumericalFailure):
        op.dense()
    first = op.dense()
    assert op.dense() is first and len(built) == 2
    assert np.array_equal(first, h)


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
        out = _chebyshev_evolution(h, t, psi, sign, oracle_gate(h, t)._replace(budget=math.inf))
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


FREE_STREAM = {
    "system": {"kind": "free_particle", "mu": 1.0},
    "grid": {"L": 32.0, "k": 8},
    "evolution": {"dt": 0.0078125, "total_time": 2.0},
    "initial_state": {"gaussian": {"x0": 0.0, "p0": 1.0, "sigma": 1.5}},
    "outputs": {"snapshot_every": 10**6},
}


def test_oracle_branch_follows_the_cost_inequality(tmp_path, monkeypatch):
    """The grid kind at k = 8, the free particle in the `stream` workload's
    shape and at k = 10 run the oracle as a Chebyshev series; the README
    configs, the spectral H as a matrix, an oscillator at t * ||H|| about 1e5,
    and the free particle in the `stream` self-test's shape take eigh."""
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
    # z = 2 * 158 = 316: within the 5 N^2 / (32 log2 N) = 1280 terms that a complex
    # eigh, after building the dense F^dag diag(E) F, affords
    _simulate(tmp_path, FREE_STREAM, "stream")
    assert len(calls) == 4
    # z = 2.5, but its 22 Bessel terms cost 11 units of N^3 at N = 16, over 5
    tiny = json.loads(json.dumps(FREE_STREAM))
    tiny["grid"], tiny["evolution"] = {"L": 8.0, "k": 4}, {"dt": 0.0625, "total_time": 0.25}
    _simulate(tmp_path, tiny, "stream_tiny")
    assert calls[4:] == [(16, 16)]
    free_k10 = json.loads(json.dumps(FREE_STREAM))
    free_k10["grid"] = {"L": 128.0, "k": 10}
    free_k10["evolution"] = {"auto_epsilon": 0.05, "total_time": 0.0625}
    _simulate(tmp_path, free_k10, "free_k10")
    assert len(calls) == 5


@st.composite
def fourier_cases(draw):
    """A free particle or constant field on a grid of k = 1..6 with random
    mu, L and u, a horizon t of either sign with |t| max |E + u| up to 300,
    a sign and a unit state."""
    kind = draw(st.sampled_from(["free_particle", "constant_field"]))
    u = draw(st.floats(-20.0, 20.0)) if kind == "constant_field" else None
    system = SystemSpec(kind=kind, mu=draw(st.floats(0.2, 5.0)), u=u)
    grid = GridSpec(length=draw(st.floats(4.0, 40.0)), qubits=draw(st.integers(1, 6)),
                    centered=draw(st.booleans()))
    op = system_route(system, grid).hamiltonian
    t = draw(st.floats(-1.0, 1.0)) * 300.0 / max(op.norm_bound(), 1e-300)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    return system, grid, op, t, draw(st.sampled_from((-1, 1))), psi / np.linalg.norm(psi)


@settings(max_examples=80, deadline=None)
@given(fourier_cases())
def test_fourier_operator_matches_the_dense_spectral_h(case):
    """The spectral kinds' H held as its mode energies has the product, the
    spectral interval, the norm bound and the oracle, series or eigh, of the
    dense spectral_kinetic_matrix (+ u I) to 1e-12 relative, and its oracle
    is spectral_evolution's closed form."""
    system, grid, op, t, sign, psi = case
    u = system.u or 0.0
    dense = spectral_kinetic_matrix(grid, system.mu) + u * np.eye(grid.size)
    scale = op.norm_bound()
    eigenvalues, v = np.linalg.eigh(dense)
    assert abs(scale - np.max(np.abs(eigenvalues))) <= 1e-12 * scale
    centres, radii, _ = op.gershgorin()
    lo, hi = np.min(centres - radii), np.max(centres + radii)
    assert abs(lo - eigenvalues[0]) <= 1e-12 * scale and abs(hi - eigenvalues[-1]) <= 1e-12 * scale
    centre, width = (lo + hi) / 2, max((hi - lo) / 2, 1e-3 * scale)
    product = op.scaled_product(centre, width)(psi)
    assert np.max(np.abs(product - 2 * (dense - centre * np.eye(grid.size)) / width @ psi)) \
        <= 1e-12 * 2 * scale / width
    reference = v @ (np.exp(1j * sign * eigenvalues * t) * (v.conj().T @ psi))
    closed_form = spectral_evolution(grid, system.mu, t, psi, sign, u)
    series = _chebyshev_evolution(op, t, psi, sign, oracle_gate(op, t)._replace(budget=math.inf))
    for out in (exact_evolution(op, t, psi, sign), series):
        assert np.max(np.abs(out - reference)) <= 1e-12
        assert np.max(np.abs(out - closed_form)) <= 1e-12


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
