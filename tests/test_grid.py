"""Grids, discretized operators, Fourier basis, and pair-space lifts."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcpusim import (
    DegenerateGrid,
    DimensionMismatch,
    GridSpec,
    IndexOutOfRange,
    InvalidSpec,
    NonFiniteValue,
    NonPositiveMass,
    NumericalFailure,
    dft_operator,
    hermiticity_defect,
    kinetic_eigenvalue,
    kinetic_operator,
    lift_one,
    momentum_eigenvalue,
    momentum_operator,
    plane_wave_mode,
    potential_operator,
    sample,
    spectral_momentum_values,
    tensor,
    two_body_potential,
    wavefunction_header,
    wavefunction_records,
)
from qcpusim.grid import kinetic_nonzeros, momentum_nonzeros, spectrum_rows, stencil_nonzeros
from qcpusim.numerics import as_operator


# ---------------------------------------------------------------------------
# GridSpec and sampling
# ---------------------------------------------------------------------------

def test_grid_size_and_spacing():
    g = GridSpec(length=10.0, qubits=4)
    assert g.size == 16
    assert g.spacing == 0.625


def test_default_grid_starts_at_origin():
    g = GridSpec(length=8.0, qubits=2)
    assert np.array_equal(g.points, np.array([0.0, 2.0, 4.0, 6.0]))


def test_centered_grid_straddles_origin():
    g = GridSpec(length=8.0, qubits=2, centered=True)
    assert np.array_equal(g.points, np.array([-4.0, -2.0, 0.0, 2.0]))


@pytest.mark.parametrize("bad", [0, -1, 2.0, True])
def test_grid_rejects_bad_qubit_count(bad):
    with pytest.raises(InvalidSpec):
        GridSpec(length=1.0, qubits=bad)


@pytest.mark.parametrize("bad", ["no", 1, None])
def test_grid_rejects_non_bool_centered(bad):
    """A truthy "no" would center the grid, and to_dict would echo a value
    that parse_run_config refuses."""
    with pytest.raises(InvalidSpec, match="centered must be True or False"):
        GridSpec(length=16.0, qubits=4, centered=bad)


# float() would read "16" and b"8" as lengths and True as L = 1; the parser
# refuses them, and so does the spec
@pytest.mark.parametrize("bad", [0.0, -3.0, float("inf"), float("nan"), "16", b"8", True, False,
                                 None, 16j])
def test_grid_rejects_bad_length(bad):
    with pytest.raises(InvalidSpec):
        GridSpec(length=bad, qubits=2)


def test_grid_keeps_numpy_and_integer_lengths():
    assert GridSpec(length=np.float32(2.0), qubits=1).length == 2.0
    assert GridSpec(length=np.int64(8), qubits=1).length == 8.0
    assert GridSpec(length=16, qubits=1).length == 16.0


def test_sample_position_only_callable():
    g = GridSpec(length=4.0, qubits=2)
    assert np.array_equal(sample(lambda x: 2.0 * x, g), 2.0 * g.points)


def test_sample_calls_f_with_position_only():
    g = GridSpec(length=4.0, qubits=2)
    scaled = sample(lambda x, scale=2.0: scale * x, g)
    assert np.array_equal(scaled, 2.0 * g.points)
    assert np.array_equal(sample(np.sin, g), np.sin(g.points))


def test_sample_rejects_non_finite_values():
    g = GridSpec(length=4.0, qubits=2)
    with pytest.raises(NonFiniteValue):
        sample(lambda x: float("inf") if x == 1.0 else 1.0, g)


# ---------------------------------------------------------------------------
# Momentum and kinetic operators
# ---------------------------------------------------------------------------

def test_momentum_operator_is_hermitian():
    g = GridSpec(length=10.0, qubits=4)
    assert hermiticity_defect(momentum_operator(g)) == 0.0


def test_momentum_eigenvalue_on_plane_waves():
    g = GridSpec(length=10.0, qubits=4)
    p = momentum_operator(g)
    for n in range(g.size):
        mode = plane_wave_mode(g, n)
        expected = momentum_eigenvalue(g, n) * mode
        assert np.max(np.abs(p @ mode - expected)) < 1e-12


def test_momentum_needs_three_points():
    with pytest.raises(DegenerateGrid):
        momentum_operator(GridSpec(length=1.0, qubits=1))


def test_kinetic_operator_is_hermitian_and_real():
    g = GridSpec(length=10.0, qubits=4)
    t = kinetic_operator(g, 1.0)
    assert hermiticity_defect(t) == 0.0
    assert np.max(np.abs(t.imag)) == 0.0


def test_kinetic_is_momentum_squared_over_2mu():
    g = GridSpec(length=10.0, qubits=5)
    mu = 1.7
    p = momentum_operator(g)
    t = kinetic_operator(g, mu)
    assert np.max(np.abs(t - (p @ p) / (2.0 * mu))) < 1e-12


def test_kinetic_eigenvalue_on_plane_waves():
    g = GridSpec(length=10.0, qubits=4)
    t = kinetic_operator(g, 2.0)
    for n in range(g.size):
        mode = plane_wave_mode(g, n)
        expected = kinetic_eigenvalue(g, 2.0, n) * mode
        assert np.max(np.abs(t @ mode - expected)) < 1e-12


@pytest.mark.parametrize("k", range(2, 8))
@pytest.mark.parametrize("length, mu", [(10.0, 1.0), (1.0, 0.3)])
def test_spectrum_rows_match_the_dense_operators(k, length, mu):
    """Each mode's numeric columns equal <mode|op @ mode> on the dense
    operators to 1e-12 relative to the column's largest value."""
    g = GridSpec(length=length, qubits=k)
    rows = spectrum_rows(g, mu)
    assert [row["mode"] for row in rows] == list(range(g.size))
    modes = [plane_wave_mode(g, n) for n in range(g.size)]
    for key, op in (("momentum", momentum_operator(g)), ("kinetic", kinetic_operator(g, mu))):
        reference = np.array([np.vdot(mode, op @ mode).real for mode in modes])
        numeric = np.array([row[f"{key}_numeric"] for row in rows])
        assert np.max(np.abs(numeric - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("k", range(2, 10))
@pytest.mark.parametrize("length, mu, kinetic_entries", [
    (10.0, 1.0, "stencil"), (1.0, 0.3, "stencil"), (1e200, 1.0, "diagonal"), (3.0, 5e-324, None),
], ids=["plain", "short-box", "scale-underflows", "scale-overflows"])
def test_stencil_nonzeros_equal_the_dense_patterns(k, length, mu, kinetic_entries):
    """The O(N) nonzeros of each stencil equal as_operator(.).nonzeros of the dense
    operator byte for byte: the wrap rows' column order, the collided
    +-2 entry at N = 4, and the diagonal's signed zeros.  A kinetic scale
    that underflows leaves -0.0 off the diagonal, which is no nonzero; one
    that overflows is refused by both forms."""
    g = GridSpec(length=length, qubits=k, centered=True)
    pairs = [(momentum_nonzeros(g), as_operator(momentum_operator(g)).nonzeros)]
    if kinetic_entries is None:
        for build in (kinetic_nonzeros, kinetic_operator):
            with pytest.raises(NonFiniteValue, match=r"^kinetic scale \(N/L\)\^2/2mu overflows at N = "):
                build(g, mu)
    else:
        pairs.append((kinetic_nonzeros(g, mu), as_operator(kinetic_operator(g, mu)).nonzeros))
        per_row = {"stencil": 3 if k > 2 else 2, "diagonal": 1}[kinetic_entries]
        assert len(pairs[1][0][0]) == per_row * g.size
    for fast, reference in pairs:
        for a, b in zip(fast, reference):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_kinetic_needs_four_points():
    with pytest.raises(DegenerateGrid):
        kinetic_operator(GridSpec(length=1.0, qubits=1), 1.0)


@pytest.mark.parametrize("mu", [0.0, -1.0, float("nan")])
def test_kinetic_rejects_bad_mass(mu):
    with pytest.raises(NonPositiveMass, match=f"^mu must be positive and finite, got {mu!r}$"):
        kinetic_operator(GridSpec(length=1.0, qubits=3), mu)


def shift_matrix(n, offset):
    """Cyclic shift psi'[m] = psi[(m + offset) % n], one entry per row."""
    out = np.zeros((n, n), dtype=complex)
    out[np.arange(n), (np.arange(n) + offset) % n] = 1.0
    return out


def transposition_matrix(n, a, b):
    """Permutation exchanging basis states a and b, identity elsewhere."""
    out = np.eye(n, dtype=complex)
    if a != b:
        out[a, a] = out[b, b] = 0.0
        out[a, b] = out[b, a] = 1.0
    return out


def _shift_product_stencils(grid, mu):
    """Momentum and kinetic matrices as products of cyclic shift matrices."""
    n = grid.size
    s_plus = shift_matrix(n, 1)
    s_minus = shift_matrix(n, -1)
    momentum = -0.5j * (n / grid.length) * (s_plus - s_minus)
    pref = (n / grid.length) ** 2
    kinetic = -(pref / (8.0 * mu)) * (s_plus @ s_plus + s_minus @ s_minus - 2.0 * np.eye(n))
    return momentum, kinetic


@pytest.mark.parametrize("qubits, mu", [(2, 1.0), (3, 0.5), (4, 1.7), (8, 2.25)])
def test_stencils_match_shift_products(qubits, mu):
    """The rolled-identity stencils equal the shift products bit for bit,
    signed zeros included.  At N = 4 the +2 and -2 shifts land on the same
    entry and must add up."""
    g = GridSpec(length=7.0, qubits=qubits, centered=True)
    momentum, kinetic = _shift_product_stencils(g, mu)
    for fast, reference in (
        (momentum_operator(g), momentum),
        (kinetic_operator(g, mu), kinetic),
    ):
        assert np.array_equal(fast, reference)
        assert fast.tobytes() == reference.tobytes()
    if qubits == 2:
        assert kinetic[0, 2] == -kinetic[0, 0]  # both shifts: 2 * coefficient


def _kinetic_exchange_payload(grid, mu):
    """Kinetic matrix assembled dyad by dyad from exchange permutations.

    Each off-diagonal term |x_m><x_{m+/-2}| is the projector |x_m><x_m|
    times the transposition exchanging basis states m and m+/-2; the
    diagonal part is the identity-proportional remainder.
    """
    n = grid.size
    pref = (n / grid.length) ** 2
    coef = -(pref / (8.0 * mu))
    out = (pref / (4.0 * mu)) * np.eye(n, dtype=float)
    for m in range(n):
        projector = np.zeros((n, n))
        projector[m, m] = 1.0
        for shift in (2, -2):
            target = (m + shift) % n
            out = out + coef * (projector @ transposition_matrix(n, m, target).real)
    return out.astype(complex)


def test_kinetic_exchange_payload_matches_exactly():
    """The dyad-by-dyad exchange assembly reproduces the stencil matrix
    entry for entry, with no floating-point discrepancy at all."""
    for qubits, mu in ((2, 1.0), (3, 0.5), (5, 2.25)):
        g = GridSpec(length=7.0, qubits=qubits)
        assert np.array_equal(
            _kinetic_exchange_payload(g, mu), kinetic_operator(g, mu)
        )


def test_kinetic_eigenvalue_degeneracy_is_exact():
    g = GridSpec(length=10.0, qubits=5)
    for n in range(1, g.size // 2):
        assert kinetic_eigenvalue(g, 1.0, n) == kinetic_eigenvalue(g, 1.0, g.size - n)


@pytest.mark.parametrize("call, message", [
    (lambda: kinetic_eigenvalue(GridSpec(1e-160, 4), 1.0, 1),
     "kinetic scale (N/L)^2/2mu overflows at N = 16, L = 1e-160, mu = 1.0"),
    (lambda: kinetic_eigenvalue(GridSpec(10.0, 4), 1e-310, 1),
     "kinetic scale (N/L)^2/2mu overflows at N = 16, L = 10.0, mu = 1e-310"),
    (lambda: momentum_eigenvalue(GridSpec(1e-320, 4), 1),
     "momentum scale N/L overflows at N = 16, L = 1e-320"),
], ids=["kinetic-short-box", "kinetic-light-mass", "momentum-short-box"])
def test_analytic_eigenvalues_refuse_the_stencils_scales(call, message):
    """The analytic eigenvalues read the stencils' one checked scale, so they
    refuse what the stencils refuse, with the same NonFiniteValue."""
    with pytest.raises(NonFiniteValue) as caught:
        call()
    assert str(caught.value) == message


def test_stencil_refusals_keep_their_order():
    """Mass first, then grid size, then scale."""
    with pytest.raises(NonPositiveMass):
        kinetic_operator(GridSpec(1e-160, 1), 0.0)
    with pytest.raises(DegenerateGrid):
        kinetic_operator(GridSpec(1e-160, 1), 1.0)
    with pytest.raises(NonFiniteValue):
        kinetic_operator(GridSpec(1e-160, 2), 1.0)
    with pytest.raises(DegenerateGrid):
        momentum_operator(GridSpec(1e-320, 1))


def test_a_huge_mass_keeps_the_kinetic_scale():
    """A mass past 2.2e307, where 8 mu overflows, divides last: the stencil
    and its analytic eigenvalues keep (N/L)^2 / 8 mu = 3.2e-7, not 0."""
    g = GridSpec(length=1e-150, qubits=4)
    scale = (16.0 / 1e-150) ** 2 / 8.0 / 1e308
    assert scale == pytest.approx(3.2e-7)
    rows, cols, values = kinetic_nonzeros(g, 1e308)
    assert np.array_equal(values[rows == cols], np.full(16, 2.0 * scale, dtype=complex))
    for n in range(g.size):
        expected = 2.0 * scale * (1.0 - math.cos(4.0 * math.pi * min(n, 16 - n) / 16))
        assert kinetic_eigenvalue(g, 1e308, n) == expected


@settings(max_examples=200, deadline=None)
@given(k=st.integers(2, 11), log_length=st.floats(-100.0, 100.0),
       log_mu=st.floats(-100.0, 100.0), n=st.integers(0, 2047))
def test_dividing_by_the_mass_last_keeps_every_bit(k, log_length, log_mu, n):
    """On normal doubles (N/L)^2 / 8 / mu is (N/L)^2 / (8 mu) bit for bit,
    and 2 * that is (N/L)^2 / (4 mu): the stencil and the analytic
    eigenvalue keep the bytes of the formulas that multiplied the mass."""
    g, mu = GridSpec(length=10.0 ** log_length, qubits=k), 10.0 ** log_mu
    pref = (g.size / g.length) ** 2
    if not math.isfinite(pref / (2.0 * mu)) or pref / (8.0 * mu) < 2.3e-308:
        return  # refused, or subnormal
    scale = pref / (8.0 * mu)
    stencil = stencil_nonzeros(g.size, (2, -2),
                               lambda shift: -scale * (shift(2) + shift(-2) - 2.0 * shift(0)))
    for a, b in zip(kinetic_nonzeros(g, mu), stencil):
        assert a.tobytes() == b.tobytes()
    folded = min(n % g.size, g.size - n % g.size)
    expected = (pref / (4.0 * mu)) * (1.0 - math.cos(4.0 * math.pi * folded / g.size))
    assert kinetic_eigenvalue(g, mu, n) == expected


def test_momentum_eigenvalue_formula():
    g = GridSpec(length=10.0, qubits=4)
    n = 3
    expected = (16 / 10.0) * math.sin(2.0 * math.pi * 3 / 16)
    assert momentum_eigenvalue(g, n) == pytest.approx(expected, abs=1e-15)


def test_potential_operator_values():
    g = GridSpec(length=4.0, qubits=2, centered=True)
    diag = potential_operator(g, lambda x: x * x)
    assert np.array_equal(np.diag(diag).real, g.points ** 2)
    assert diag.tobytes() == np.diag((g.points ** 2).astype(complex)).tobytes()


def test_potential_operator_non_finite():
    g = GridSpec(length=4.0, qubits=2, centered=True)
    with pytest.raises(NonFiniteValue):
        potential_operator(g, lambda x: float("nan") if x == 0.0 else 1.0)


@pytest.mark.parametrize(
    "build, size",
    [
        (momentum_operator, 8),
        (lambda g: kinetic_operator(g, 1.5), 8),
        (lambda g: potential_operator(g, lambda x: x * x), 8),
        (lambda g: two_body_potential(g, GridSpec(length=2.0, qubits=1), lambda a, b: a - b), 16),
    ],
    ids=["momentum", "kinetic", "potential", "two_body"],
)
def test_operators_are_dense_complex_matrices(build, size):
    op = build(GridSpec(length=4.0, qubits=3))
    assert type(op) is np.ndarray
    assert op.dtype == np.complex128
    assert op.shape == (size, size)


# ---------------------------------------------------------------------------
# Fourier basis
# ---------------------------------------------------------------------------

def test_dft_is_unitary():
    g = GridSpec(length=5.0, qubits=4)
    f = dft_operator(g)
    assert np.max(np.abs(f @ f.conj().T - np.eye(g.size))) < 1e-13


def test_dft_columns_are_plane_wave_modes():
    g = GridSpec(length=5.0, qubits=3)
    f = dft_operator(g)
    for n in range(g.size):
        assert np.array_equal(f[:, n], plane_wave_mode(g, n))


def test_plane_wave_modes_are_orthonormal():
    g = GridSpec(length=5.0, qubits=3)
    for a in range(g.size):
        for b in range(g.size):
            overlap = np.vdot(plane_wave_mode(g, a), plane_wave_mode(g, b))
            assert abs(overlap - (1.0 if a == b else 0.0)) < 1e-13


def test_signed_mode_wraps_upper_half():
    """Mode n carries momentum index n below N/2 and n - N from N/2 up."""
    g = GridSpec(length=8.0, qubits=3)
    modes = spectral_momentum_values(g) * g.length / (2.0 * math.pi)
    assert modes[0] == pytest.approx(0.0)
    assert modes[3] == pytest.approx(3.0)
    assert modes[4] == pytest.approx(-4.0)
    assert modes[7] == pytest.approx(-1.0)


def test_signed_momentum_values():
    g = GridSpec(length=8.0, qubits=3)
    values = spectral_momentum_values(g)
    assert values[1] == pytest.approx(2.0 * math.pi / 8.0)
    assert values[7] == pytest.approx(-2.0 * math.pi / 8.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=-20, max_value=20))
def test_momentum_eigenvalue_periodic_in_mode_index(n):
    g = GridSpec(length=6.0, qubits=3)
    assert momentum_eigenvalue(g, n) == pytest.approx(
        momentum_eigenvalue(g, n + g.size), abs=1e-12
    )


# ---------------------------------------------------------------------------
# Two-particle helpers
# ---------------------------------------------------------------------------

def test_two_body_potential_index_layout():
    g1 = GridSpec(length=4.0, qubits=1)
    g2 = GridSpec(length=6.0, qubits=1)
    diag = two_body_potential(g1, g2, lambda a, b: 10.0 * a + b)
    # particle 1 slow: entry m1 * N2 + m2
    expected = [10 * a + b for a in g1.points for b in g2.points]
    assert np.array_equal(np.diag(diag).real, np.array(expected))


def test_lift_one_slot_placement():
    g = GridSpec(length=4.0, qubits=1)
    op = potential_operator(g, lambda x: x)
    dims = (2, 2)
    lifted1 = lift_one(op, 1, dims)
    lifted2 = lift_one(op, 2, dims)
    assert np.array_equal(lifted1, tensor(op, np.eye(2)))
    assert np.array_equal(lifted2, tensor(np.eye(2), op))


def test_lift_one_bad_slot():
    g = GridSpec(length=4.0, qubits=1)
    op = potential_operator(g, lambda x: x)
    with pytest.raises(IndexOutOfRange):
        lift_one(op, 3, (2, 2))


def test_lift_one_dimension_check():
    g = GridSpec(length=4.0, qubits=2)
    op = potential_operator(g, lambda x: x)
    with pytest.raises(DimensionMismatch):
        lift_one(op, 1, (2, 2))


def test_lifted_operators_on_different_slots_commute():
    g = GridSpec(length=4.0, qubits=2)
    a = lift_one(momentum_operator(g), 1, (4, 4))
    b = lift_one(potential_operator(g, lambda x: x), 2, (4, 4))
    assert np.max(np.abs(a @ b - b @ a)) == 0.0


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def test_wavefunction_header_fields():
    g = GridSpec(length=10.0, qubits=4, centered=True)
    assert wavefunction_header(g) == {"L": 10.0, "k": 4, "N": 16, "centered": True}


def test_wavefunction_records_contents():
    g = GridSpec(length=4.0, qubits=1)
    lines = wavefunction_records(g, np.array([1.0 + 1.0j, 0.5]))
    assert lines == [
        '{"im": 1.0, "m": 0, "prob": 2.0000000000000004, "re": 1.0, "x": 0.0}',
        '{"im": 0.0, "m": 1, "prob": 0.25, "re": 0.5, "x": 2.0}',
    ]
    rows = [json.loads(line) for line in lines]
    assert rows[0]["m"] == 0
    assert rows[0]["x"] == 0.0
    assert rows[0]["re"] == 1.0
    assert rows[0]["im"] == 1.0
    assert rows[0]["prob"] == pytest.approx(2.0, abs=1e-15)
    assert rows[1]["x"] == 2.0
    assert rows[1]["prob"] == 0.25


def reference_records(grid, amplitudes):
    """The snapshot rows as json.dumps of each row's dict over numpy scalars,
    the formatter the direct f-string rows must match byte for byte."""
    return [
        json.dumps(
            {"m": m, "x": float(x), "re": float(z.real), "im": float(z.imag),
             "prob": float(abs(z) ** 2)},
            sort_keys=True,
        )
        for m, (x, z) in enumerate(zip(grid.points, np.asarray(amplitudes, dtype=complex)))
    ]


# sqrt of the largest double: |z| above it overflows |z|^2
_PROB_OVERFLOW = math.sqrt(np.finfo(float).max)
_ABOVE_PROB_OVERFLOW = math.nextafter(_PROB_OVERFLOW, math.inf)
# parts of at most 1e153, so that any two give a finite |z|^2
_FINITE_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e153]),
    st.floats(min_value=-1.0, max_value=1.0),
    st.builds(lambda s, e: s * 10.0 ** e, st.floats(min_value=-10.0, max_value=10.0),
              st.integers(min_value=-300, max_value=152)),
)
_EDGE = (_PROB_OVERFLOW, -_PROB_OVERFLOW)
_EDGE_PARTS = st.sampled_from(_EDGE)
# rows at the edge |z| = sqrt(max), whose |z|^2 is still finite
_EDGE_ROWS = st.sampled_from([complex(p, 0.0) for p in _EDGE] + [complex(0.0, p) for p in _EDGE])
# parts that put a row out of JSON's reach: inf and nan, |z|^2 overflowing
# (just above the threshold, and far above it), and |z| itself overflowing
_EXTREME_PARTS = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, _ABOVE_PROB_OVERFLOW, -1e200,
                     1.7976931348623157e308]),
    st.floats(min_value=_ABOVE_PROB_OVERFLOW, max_value=1e155),
)
_EXTREME_ROWS = st.one_of(st.builds(complex, _EXTREME_PARTS, _FINITE_PARTS),
                          st.builds(complex, _FINITE_PARTS, _EXTREME_PARTS),
                          st.builds(complex, _EXTREME_PARTS, _EXTREME_PARTS),
                          st.builds(complex, _EDGE_PARTS, _EDGE_PARTS))
_GRIDS = st.builds(GridSpec, length=st.floats(min_value=1e-3, max_value=1e3),
                   qubits=st.integers(min_value=1, max_value=6), centered=st.booleans())


def drawn_state(data, grid, rows, min_rows):
    """A state of finite parts with min_rows to 2 rows drawn from `rows` put
    in; returns it and the first grid point those rows were put at."""
    amps = np.array(data.draw(st.lists(st.builds(complex, _FINITE_PARTS, _FINITE_PARTS),
                                       min_size=grid.size, max_size=grid.size)), dtype=complex)
    put = data.draw(st.lists(st.tuples(st.integers(0, grid.size - 1), rows),
                             min_size=min_rows, max_size=2))
    for m, z in put:
        amps[m] = z
    return amps, min((m for m, _ in put), default=None)


@settings(max_examples=200, deadline=None)
@given(g=_GRIDS, data=st.data())
def test_wavefunction_records_match_json_dumps(g, data):
    """A state whose parts and |z|^2 are all finite is written byte for byte
    as json.dumps writes its rows."""
    amps, _ = drawn_state(data, g, _EDGE_ROWS, 0)
    assert wavefunction_records(g, amps) == reference_records(g, amps)


@settings(max_examples=200, deadline=None)
@given(g=_GRIDS, data=st.data())
def test_wavefunction_records_refuse_a_row_json_cannot_hold(g, data):
    """JSON has no inf or NaN: a state with a part that is not finite, or
    with a |z|^2 that overflows, raises NumericalFailure at its first such
    grid point."""
    amps, first = drawn_state(data, g, _EXTREME_ROWS, 1)
    with pytest.raises(NumericalFailure, match=rf"^grid point {first} has amplitude "):
        wavefunction_records(g, amps)


def test_wavefunction_length_check():
    g = GridSpec(length=4.0, qubits=2)
    with pytest.raises(DimensionMismatch):
        wavefunction_records(g, np.ones(3))
    with pytest.raises(DimensionMismatch):
        wavefunction_records(g, np.ones((2, 2)))
