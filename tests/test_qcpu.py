"""Auxiliary-qubit network construction and composition rules.

The load-bearing identities (closed form, factor-order independence, sum
and product composition) hold exactly in floating point because every
cross term is structurally zero, so most assertions here use strict
equality rather than tolerances.
"""

import functools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qcpusim import (
    AUX_ANNIHILATE,
    AUX_CREATE,
    DimensionMismatch,
    EvolutionConfig,
    GridSpec,
    IndexOutOfRange,
    NonSquareInput,
    PotentialSpec,
    QcpuFactor,
    QcpuNetwork,
    SystemSpec,
    apply_network,
    build_network,
    compose_product,
    compose_sum,
    connector,
    connector_dagger,
    dense_from_factors,
    diagonal_phase_network,
    evolve_euler,
    factor_matrix,
    harmonic_network,
    project_aux,
    raising_block,
    tensor,
    whole_network,
)
from qcpusim.numerics import FourierOperator, Operator, SparseOperator, as_operator
from qcpusim.systems import system_route

complex_entries = st.complex_numbers(
    max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


def random_payload(rng, n):
    return rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))


def test_aux_operators_square_to_zero():
    assert np.array_equal(AUX_ANNIHILATE @ AUX_ANNIHILATE, np.zeros((2, 2)))
    assert np.array_equal(AUX_CREATE @ AUX_CREATE, np.zeros((2, 2)))


def test_aux_anticommutator_is_identity():
    anti = AUX_ANNIHILATE @ AUX_CREATE + AUX_CREATE @ AUX_ANNIHILATE
    assert np.array_equal(anti, np.eye(2))


def test_connector_dagger_is_adjoint():
    assert np.array_equal(connector_dagger(3), connector(3).conj().T)


def test_closed_form_block_structure():
    """dense() must equal I (x) I + payload (x) |1><0| in the interleaved basis."""
    rng = np.random.default_rng(11)
    u = random_payload(rng, 4)
    net = build_network(u)
    expected = np.eye(8, dtype=complex) + tensor(u, AUX_CREATE)
    assert np.array_equal(net.dense(), expected)


def test_build_network_rejects_rectangular_payload():
    with pytest.raises(NonSquareInput):
        build_network(np.ones((2, 3)))


def test_build_network_one_factor_per_nonzero_entry():
    u = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    net = build_network(u)
    assert net.factors == (QcpuFactor(m=0, n=1, u=2.0 + 0.0j),)


def test_factor_matrix_places_entry_on_raised_branch():
    f = QcpuFactor(m=1, n=0, u=3.0 - 1.0j)
    mat = factor_matrix(f, 2)
    expected = np.eye(4, dtype=complex)
    expected[2 * 1 + 1, 2 * 0] = 3.0 - 1.0j
    assert np.array_equal(mat, expected)


def test_factor_matrix_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        factor_matrix(QcpuFactor(m=2, n=0, u=1.0), 2)


def test_factors_multiply_to_closed_form():
    rng = np.random.default_rng(12)
    net = build_network(random_payload(rng, 3))
    assert np.array_equal(dense_from_factors(net), net.dense())


def test_factor_order_is_irrelevant():
    rng = np.random.default_rng(13)
    net = build_network(random_payload(rng, 3))
    reference = net.dense()
    for _ in range(5):
        order = rng.permutation(len(net.factors))
        assert np.array_equal(dense_from_factors(net, order), reference)


@settings(max_examples=25, deadline=None)
@given(arrays(np.complex128, (3, 3), elements=complex_entries))
def test_closed_form_holds_for_arbitrary_payloads(u):
    net = build_network(u)
    expected = np.eye(6, dtype=complex) + tensor(u, AUX_CREATE)
    assert np.array_equal(net.dense(), expected)
    assert np.array_equal(dense_from_factors(net), expected)


@settings(max_examples=60, deadline=None)
@given(
    arrays(np.complex128, st.integers(1, 6).map(lambda n: (n, n)), elements=complex_entries),
    st.data(),
)
def test_dense_from_factors_equals_factor_matrix_product(u, data):
    """The column updates reproduce the dense factor-matrix product bit for bit."""
    net = build_network(u)
    order = data.draw(st.permutations(range(len(net.factors))))
    n = net.register_dim
    reference = functools.reduce(
        np.matmul, [factor_matrix(net.factors[i], n) for i in order], np.eye(2 * n, dtype=complex)
    )
    assert np.array_equal(dense_from_factors(net, order), reference)


def one_factor_at_a_time(net, order=None):
    """The factor product as one column update per factor, in order: the
    loop that dense_from_factors's rounds replace, kept as their reference."""
    count = len(net.factors)
    indices = range(count) if order is None else np.asarray(order)
    if order is not None and (indices.size and indices.dtype.kind not in "iu"
                              or not np.array_equal(np.sort(indices), np.arange(count))):
        raise IndexOutOfRange(f"factor order must be a permutation of range({count})")
    out = np.eye(2 * net.register_dim, dtype=complex)
    for i in indices:
        f = net.factors[i]
        out[:, 2 * f.n] += f.u * out[:, 2 * f.m + 1]
    return out


def ragged_payload(rng: np.random.Generator, n: int) -> np.ndarray:
    """An n x n payload whose column c holds a random count of 0 to n factors,
    on random rows, so the columns' counts are ragged and often tied."""
    u = random_payload(rng, n)
    counts = rng.integers(0, n + 1, n)
    return np.where(rng.random((n, n)).argsort(axis=0) < counts, u, 0.0)


@st.composite
def sparse_payloads_and_orders(draw):
    """A payload at n = 1..40 whose columns hold 0 to n factors, and an order
    given as None, a list, an int32 array, or an empty list on a zero payload.
    At n <= 12 Hypothesis draws each entry and the order; above, up to the
    identity workload's n = 40, a drawn seed draws a `ragged_payload` and its
    order."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(13, 40)))
    form = draw(st.sampled_from(["none", "list", "int32", "empty"]))
    if form == "empty":
        return np.zeros((n, n), dtype=complex), []
    if n <= 12:
        u = draw(arrays(np.complex128, (n, n), elements=complex_entries))
        u = np.where(draw(arrays(np.bool_, (n, n))), u, 0.0)
        order = None if form == "none" else draw(st.permutations(range(np.count_nonzero(u))))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        u = ragged_payload(rng, n)
        order = None if form == "none" else rng.permutation(np.count_nonzero(u)).tolist()
    if order is None:
        return u, None
    return u, order if form == "list" else np.array(order, dtype=np.int32)


@settings(max_examples=150, deadline=None)
@given(sparse_payloads_and_orders())
def test_dense_from_factors_in_rounds_equals_one_factor_at_a_time(payload_and_order):
    """Each column takes its updates in the given order, so the rounds give
    the one-at-a-time product bit for bit, C-contiguous."""
    u, order = payload_and_order
    net = build_network(u)
    out = dense_from_factors(net, order)
    assert out.tobytes() == one_factor_at_a_time(net, order).tobytes()
    assert out.flags.c_contiguous


def test_dense_from_factors_at_the_dim_cap_equals_one_factor_at_a_time():
    """At dim 64, the CI and --dim cap, a ragged payload in a shuffled order
    gives the one-at-a-time product bit for bit."""
    rng = np.random.default_rng(64)
    net = build_network(ragged_payload(rng, 64))
    order = rng.permutation(len(net.factors))
    assert dense_from_factors(net, order).tobytes() == one_factor_at_a_time(net, order).tobytes()


def test_identity_suite_builds_no_factor_objects(monkeypatch):
    """The suite draws its orders from the payload's nonzero count and
    dense_from_factors reads the nonzeros as arrays: no QcpuFactor is made,
    and the report keeps its bytes."""
    from qcpusim import qcpu

    expected = json.dumps(qcpu.identity_suite(7, 8), sort_keys=True, indent=2)

    def refuse(net):
        raise AssertionError("QcpuNetwork.factors was built")

    monkeypatch.setattr(QcpuNetwork, "factors", property(refuse))
    assert json.dumps(qcpu.identity_suite(7, 8), sort_keys=True, indent=2) == expected


def test_apply_network_branches():
    rng = np.random.default_rng(14)
    u = random_payload(rng, 4)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lifted = apply_network(build_network(u), psi)
    assert np.array_equal(project_aux(lifted, 0), psi)
    assert np.array_equal(project_aux(lifted, 1), as_operator(u).matvec(psi))
    reference = u @ psi
    assert np.max(np.abs(project_aux(lifted, 1) - reference)) <= 1e-14 * np.max(np.abs(reference))


def test_apply_network_matches_dense_action():
    """Feeding psi (x) |0> through the dense matrix gives the same vector."""
    rng = np.random.default_rng(15)
    u = random_payload(rng, 3)
    net = build_network(u)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    fed = np.zeros(6, dtype=complex)
    fed[0::2] = psi
    # tolerance, not equality: the interleaved matvec associates the sum
    # differently than the compact payload @ psi
    assert np.max(np.abs(apply_network(net, psi) - net.dense() @ fed)) < 1e-13


def test_apply_network_dimension_check():
    net = build_network(np.eye(3))
    with pytest.raises(DimensionMismatch):
        apply_network(net, np.ones(4))


def test_project_aux_invalid_branch():
    with pytest.raises(IndexOutOfRange):
        project_aux(np.zeros(4), 2)


@pytest.mark.parametrize("call", [
    lambda: project_aux(np.zeros(4), 1.0),
    lambda: project_aux(np.zeros(4), np.float64(0.0)),
    lambda: factor_matrix(QcpuFactor(m=1.0, n=0, u=1.0), 2),
    lambda: factor_matrix(QcpuFactor(m=0, n=0.5, u=1.0), 2),
    lambda: project_aux(np.zeros(4), True),
    lambda: project_aux(np.zeros(4), False),
    lambda: factor_matrix(QcpuFactor(m=True, n=False, u=1.0), 2),
    lambda: factor_matrix(QcpuFactor(m=0, n=True, u=1.0), 2),
], ids=["branch-float", "branch-numpy-float", "factor-row-float", "factor-column-half",
        "branch-true", "branch-false", "factor-bools", "factor-column-bool"])
def test_a_non_integer_index_is_out_of_range(call):
    """An index that is not an integer, or is a bool, is refused as
    IndexOutOfRange, a QcpuSimError, before it reaches numpy's slicing;
    numpy integers are kept."""
    with pytest.raises(IndexOutOfRange, match="1.0|0.0|0.5|True|False"):
        call()
    assert np.array_equal(project_aux(np.arange(4.0), np.int64(1)), [1.0, 3.0])
    assert factor_matrix(QcpuFactor(m=np.int64(1), n=0, u=2.0), 2)[3, 0] == 2.0


@pytest.mark.parametrize("branch", [0, 1])
def test_project_aux_refuses_an_odd_length(branch):
    """A network state holds 2N amplitudes; three would split into 2 and 1."""
    with pytest.raises(DimensionMismatch, match="2N amplitudes, got 3"):
        project_aux(np.ones(3), branch)


def test_raising_block_roundtrip():
    rng = np.random.default_rng(16)
    u = random_payload(rng, 5)
    assert np.array_equal(raising_block(build_network(u).dense()), u)


def test_raising_block_refuses_an_odd_size():
    """A 3 x 3 matrix is no network's 2N x 2N form; it sliced to a (1, 2) block."""
    with pytest.raises(DimensionMismatch, match=re.escape("2N x 2N, got (3, 3)")):
        raising_block(np.eye(3))


# ---------------------------------------------------------------------------
# Composition rules
# ---------------------------------------------------------------------------

def test_sum_rule_pairs_and_triples():
    """Multiplying networks composes their payloads additively, exactly."""
    rng = np.random.default_rng(17)
    for count in (2, 3):
        nets = [build_network(random_payload(rng, 4)) for _ in range(count)]
        product = np.eye(8, dtype=complex)
        for net in nets:
            product = product @ net.dense()
        assert np.array_equal(product, compose_sum(nets).dense())


def test_sum_rule_order_independent():
    rng = np.random.default_rng(18)
    a, b = (build_network(random_payload(rng, 3)) for _ in range(2))
    assert np.array_equal(a.dense() @ b.dense(), b.dense() @ a.dense())


def test_compose_sum_payload_is_plain_sum():
    a = build_network(np.eye(2))
    b = build_network(2.0 * np.eye(2))
    assert np.array_equal(compose_sum([a, b]).payload, 3.0 * np.eye(2))


def test_compose_sum_rejects_empty():
    with pytest.raises(DimensionMismatch):
        compose_sum([])


def test_compose_sum_rejects_mixed_dims():
    with pytest.raises(DimensionMismatch):
        compose_sum([build_network(np.eye(2)), build_network(np.eye(3))])


@pytest.mark.parametrize("r", [1, 2, 3])
def test_product_rule_matches_matrix_product(r):
    rng = np.random.default_rng(100 + r)
    payloads = [random_payload(rng, 4) for _ in range(r)]
    nets = [build_network(u) for u in payloads]
    chained = compose_product(nets).dense()
    product = payloads[0]
    for u in payloads[1:]:
        product = product @ u
    assert np.max(np.abs(chained - build_network(product).dense())) < 1e-13
    assert np.max(np.abs(raising_block(chained) - product)) < 1e-13


def test_product_rule_is_left_to_right():
    """compose_product([A, B]) carries payload A @ B, so applying A after B
    ("B then A") is written compose_product([net_A, net_B])."""
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    b = np.array([[0.0, 0.0], [2.0, 0.0]], dtype=complex)
    chained = compose_product([build_network(a), build_network(b)])
    assert np.array_equal(chained.payload, a @ b)


def literal_sandwich(nets):
    """I + C^dag (prod_j C . dense_j) C C^dag, multiplied out in 2N x 2N."""
    n = nets[0].register_dim
    c, c_dag = connector(n), connector_dagger(n)
    chain = np.eye(2 * n, dtype=complex)
    for net in nets:
        chain = chain @ (c @ net.dense())
    return np.eye(2 * n, dtype=complex) + c_dag @ chain @ c @ c_dag


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_compose_product_equals_literal_sandwich(n, r, seed):
    """The payload-block evaluation equals the connector algebra multiplied
    out on the full 2N x 2N chain, to 1e-12 of the largest entry."""
    rng = np.random.default_rng(seed)
    nets = [build_network(random_payload(rng, n)) for _ in range(r)]
    reference = literal_sandwich(nets)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(compose_product(nets).dense() - reference)) <= 1e-12 * scale


@pytest.mark.parametrize(
    "wrong_connector",
    [connector_dagger, lambda n: tensor(AUX_ANNIHILATE, np.eye(n))],
    ids=["raising", "aux_slow_ordering"],
)
def test_identity_suite_product_rule_can_fail(monkeypatch, wrong_connector):
    """verify-identities multiplies out the literal connector sandwich, so a
    connector that does not feed each raised output into the next input
    makes its product rule fail."""
    from qcpusim import qcpu

    monkeypatch.setattr(qcpu, "connector", wrong_connector)
    report = qcpu.identity_suite(42, 4)
    assert not report["identities"]["product_rule"]["pass"]
    assert not report["all_pass"]


def test_compose_product_builds_one_dense_form(monkeypatch):
    """A chain of 32 networks builds no 2N x 2N matrix: it returns the network
    of the payload product, and only a caller's .dense() forms the matrix."""
    calls = []
    dense = QcpuNetwork.dense

    def counting_dense(self):
        calls.append(self)
        return dense(self)

    monkeypatch.setattr(QcpuNetwork, "dense", counting_dense)
    net = build_network(random_payload(np.random.default_rng(21), 4))
    compose_product([net] * 32)
    assert calls == []


def chained_stage(rng, n, kind):
    """One stage of a chain and the eager matrix of its payload: a built
    network, a nested compose_product, or a compose_sum of a product and a
    built network."""
    a, b, c = (random_payload(rng, n) for _ in range(3))
    if kind == "built":
        return build_network(a), a
    product = compose_product([build_network(a), build_network(b)])
    if kind == "product":
        return product, a @ b
    return compose_sum([product, build_network(c)]), a @ b + c


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 24),
    st.lists(st.sampled_from(["built", "product", "sum"]), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_chained_network_runs_stage_by_stage(n, kinds, seed):
    """apply_network feeds psi through a chain's stages right to left, which
    matches payload @ psi to 1e-12 of its largest amplitude and does not
    depend on whether the payload was read first; the payload, read when
    wanted, is bit-equal to the eager left-to-right product of every chained
    block, and equals the stages' matrices multiplied out to 1e-12."""
    rng = np.random.default_rng(seed)
    stages, matrices = zip(*(chained_stage(rng, n, kind) for kind in kinds))
    chain = compose_product(stages)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    staged = apply_network(chain, psi)

    eager = functools.reduce(np.matmul, [b.dense() for s in stages for b in s.blocks])
    assert np.array_equal(chain.payload, eager)
    staged_matrices = functools.reduce(np.matmul, matrices)
    assert np.max(np.abs(eager - staged_matrices)) <= 1e-12 * np.max(np.abs(staged_matrices))
    reference = chain.payload @ psi
    assert np.max(np.abs(project_aux(staged, 1) - reference)) <= 1e-12 * np.max(np.abs(reference))
    assert np.array_equal(project_aux(staged, 0), psi)
    assert np.array_equal(apply_network(chain, psi), staged)


def test_network_needs_blocks_on_one_register():
    """A network is refused where it is made, not first where it is used."""
    with pytest.raises(DimensionMismatch, match=r"^need at least one network$"):
        QcpuNetwork(blocks=())
    with pytest.raises(DimensionMismatch,
                       match=re.escape("networks live on different registers: [3, 4]")):
        QcpuNetwork(blocks=(np.eye(3), np.eye(4)))
    with pytest.raises(NonSquareInput, match=re.escape("square matrix, got (2, 3)")):
        QcpuNetwork(blocks=(np.eye(2), np.ones((2, 3))))


def test_network_copies_a_matrix_block():
    """A network made on a caller's matrix holds a copy: writing to the matrix
    afterwards changes neither its payload nor what apply_network runs."""
    m = np.eye(2, dtype=complex)
    net = QcpuNetwork(blocks=(m,))
    m[0, 1] = 5.0
    psi = np.array([0.0, 1.0])
    assert np.array_equal(net.payload, np.eye(2))
    assert np.array_equal(net.payload @ psi, project_aux(apply_network(net, psi), 1))


def test_network_stores_complex_blocks():
    net = QcpuNetwork(blocks=[np.eye(2), [[0, 1], [1, 0]]])
    assert isinstance(net.blocks, tuple)
    assert all(block.dense().dtype == complex for block in net.blocks)
    assert np.array_equal(net.payload, [[0, 1], [1, 0]])


@pytest.mark.parametrize("order", [[0, 0], [7], [0, 1], [0, 1, 2, 3], [0, 1, 1], [-1, 0, 1],
                                   np.array([1.0, 0.0, 2.0])])
def test_dense_from_factors_refuses_a_non_permutation(order):
    """Repeating or dropping a factor would silently give a wrong matrix:
    [0, 0] puts 2, not 1, in the [1, 0] entry.  A float order sorts to the
    indices but cannot index the factors."""
    net = build_network([[1, 2], [0, 3]])
    with pytest.raises(IndexOutOfRange, match=re.escape("permutation of range(3)")):
        dense_from_factors(net, order)


def test_compose_product_empty_needs_dim():
    with pytest.raises(DimensionMismatch):
        compose_product([])


def test_compose_product_dim_conflict():
    with pytest.raises(DimensionMismatch):
        compose_product([build_network(np.eye(2)), build_network(np.eye(3))])


# ---------------------------------------------------------------------------
# Every block is a numerics operator
# ---------------------------------------------------------------------------

GRID = GridSpec(length=8.0, qubits=3, centered=True)


def stencil_operator():
    """The README grid kind's H on GRID, a SparseOperator."""
    return system_route(SystemSpec(kind="grid_schrodinger", mu=1.0, potential=PotentialSpec(
        form="quadratic", coefficient=0.05)), GRID).hamiltonian


def mode_operator():
    """The free particle's H on GRID, a FourierOperator of its mode energies."""
    return system_route(SystemSpec(kind="free_particle", mu=1.0), GRID).hamiltonian


def test_build_network_makes_every_payload_an_operator():
    """A matrix, a list or an operator all become one `Operator` block: an
    operator is kept as it is, a matrix is copied and wrapped on its nonzeros."""
    u = random_payload(np.random.default_rng(30), 8)
    for payload, form in ((u, SparseOperator), (u.tolist(), SparseOperator),
                          (stencil_operator(), SparseOperator), (mode_operator(), FourierOperator)):
        (block,) = build_network(payload).blocks
        assert isinstance(block, form) and block.size == 8
    h, f = stencil_operator(), mode_operator()
    assert build_network(h).blocks[0] is h and build_network(f).blocks[0] is f
    held = build_network(u)
    assert np.array_equal(held.payload, u)
    u[0, 0] = 99.0  # the network holds a copy
    assert held.payload[0, 0] != 99.0


def test_compose_sum_mixes_matrix_and_operator_nets():
    """A matrix-built net and an operator-built net add as operators, to the
    matrix sum; a chain joins as its payload's operator."""
    rng = np.random.default_rng(31)
    u, h = random_payload(rng, 8), stencil_operator()
    mixed = compose_sum([build_network(u), build_network(h)])
    assert isinstance(mixed.blocks[0], Operator) and len(mixed.blocks) == 1
    assert np.array_equal(mixed.payload, u + h.dense())
    chain = compose_product([build_network(u), build_network(mode_operator())])
    summed = compose_sum([chain, build_network(h)])
    assert isinstance(summed.blocks[0], Operator) and len(summed.blocks) == 1
    assert np.array_equal(summed.payload, chain.payload + h.dense())


def test_nested_compose_product_keeps_every_block():
    """A chain of chains flattens to every block, operators as they are, and
    runs them right to left as the payload product does."""
    rng = np.random.default_rng(32)
    u, h, f = random_payload(rng, 8), stencil_operator(), mode_operator()
    inner = compose_product([build_network(h), build_network(f)])
    outer = compose_product([build_network(u), inner, inner])
    assert len(outer.blocks) == 5 and all(isinstance(b, Operator) for b in outer.blocks)
    assert outer.blocks[1] is h and outer.blocks[2] is f and outer.blocks[3] is h
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    reference = outer.payload @ psi
    raised = project_aux(apply_network(outer, psi), 1)
    assert np.max(np.abs(raised - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_phase_networks_hold_their_n_phases_as_nonzeros():
    """diagonal_phase_network's one block holds exactly the N phases on the
    diagonal, no N x N array; harmonic_network is one such network."""
    values = np.array([0.5, -1.0, 2.0, 0.0, 3.5])
    (block,) = diagonal_phase_network(values, 0.75).blocks
    assert isinstance(block, SparseOperator)
    assert np.array_equal(block.rows, np.arange(5)) and np.array_equal(block.cols, np.arange(5))
    assert np.array_equal(block.values, np.exp(-0.75j * values))
    assert np.array_equal(block.dense(), np.diag(np.exp(-0.75j * values)))
    (oscillator,) = harmonic_network(2.0, 3, 0.5, sign=1).blocks
    assert isinstance(oscillator, SparseOperator) and len(oscillator.values) == 8
    assert np.array_equal(oscillator.values, np.exp(0.5j * 2.0 * (np.arange(8) + 0.5)))


def swapped_branches(net, register_state):
    """apply_network mis-wired: the raised and lowered branches swapped."""
    fed = apply_network(net, register_state)
    out = np.empty_like(fed)
    out[0::2], out[1::2] = fed[1::2], fed[0::2]
    return out


def unfed_raised_branch(net, register_state):
    """apply_network mis-wired: psi, not U psi, left on the raised branch."""
    fed = apply_network(net, register_state)
    fed[1::2] = fed[0::2]
    return fed


@pytest.mark.parametrize("wrong_apply", [swapped_branches, unfed_raised_branch],
                         ids=["swapped", "unfed"])
def test_identity_suite_apply_project_can_fail(monkeypatch, wrong_apply):
    """The apply_project reference is the operator product built from u
    alone, so a mis-wired apply_network makes that identity fail."""
    from qcpusim import qcpu

    monkeypatch.setattr(qcpu, "apply_network", wrong_apply)
    report = qcpu.identity_suite(42, 8)
    assert not report["identities"]["apply_project"]["pass"]
    assert not report["all_pass"]


@pytest.mark.parametrize("make_h", [stencil_operator, mode_operator], ids=["stencil", "modes"])
def test_chained_whole_networks_run_without_dense(make_h):
    """apply_network on compose_product of two whole_networks runs every
    step's operator by its matvec and reads no dense(): H's refuses, and every
    block is made from H, whose dense() a made operator's is built from.  The
    state is the two Euler runs one after the other, bit for bit."""
    rng = np.random.default_rng(33)
    h = make_h()
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    first = EvolutionConfig(dt=0.125, total_time=0.5)
    second = EvolutionConfig(dt=0.0625, total_time=0.25)
    expected = evolve_euler(h, evolve_euler(h, psi, first)[0], second)[0]

    def refuse():
        raise AssertionError("apply_network read a block's dense()")

    if isinstance(h, FourierOperator):
        h = FourierOperator(h.size, h.energies, refuse)
    else:
        h = SparseOperator(h.size, *h.nonzeros, refuse)
    chain = compose_product([whole_network(h, second), whole_network(h, first)])
    assert len(chain.blocks) == 8
    assert np.array_equal(project_aux(apply_network(chain, psi), 1), expected)
    with pytest.raises(AssertionError, match="read a block's dense"):
        chain.blocks[0].dense()
