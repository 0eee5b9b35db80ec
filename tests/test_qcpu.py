"""Auxiliary-qubit network construction and composition rules.

The load-bearing identities (closed form, factor-order independence, sum
and product composition) hold exactly in floating point because every
cross term is structurally zero, so most assertions here use strict
equality rather than tolerances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qcpusim import (
    AUX_ANNIHILATE,
    AUX_CREATE,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidSpec,
    NonSquareInput,
    QcpuFactor,
    QcpuNetwork,
    apply_network,
    build_network,
    compose_product,
    compose_sum,
    connector,
    connector_dagger,
    dense_from_factors,
    factor_matrix,
    full_multiplication_form,
    network_from_dict,
    network_to_dict,
    project_aux,
    raising_block,
    tensor,
)

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


def test_apply_network_branches():
    rng = np.random.default_rng(14)
    u = random_payload(rng, 4)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lifted = apply_network(build_network(u), psi)
    assert np.array_equal(project_aux(lifted, 0), psi)
    assert np.array_equal(project_aux(lifted, 1), u @ psi)


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


def test_raising_block_roundtrip():
    rng = np.random.default_rng(16)
    u = random_payload(rng, 5)
    assert np.array_equal(raising_block(build_network(u).dense()), u)


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
    chained = compose_product(nets)
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
    assert np.array_equal(raising_block(chained), a @ b)


def test_compose_product_empty_needs_dim():
    with pytest.raises(DimensionMismatch):
        compose_product([])
    chained = compose_product([], register_dim=3)
    assert np.array_equal(raising_block(chained), np.eye(3))


def test_compose_product_dim_conflict():
    net = build_network(np.eye(2))
    with pytest.raises(DimensionMismatch):
        compose_product([net], register_dim=3)


def test_full_multiplication_form_structure():
    rng = np.random.default_rng(19)
    nets = [build_network(random_payload(rng, 2)) for _ in range(2)]
    doubled = full_multiplication_form(nets)
    sandwich = compose_product(nets) - np.eye(4, dtype=complex)
    assert doubled.shape == (8, 8)
    assert np.array_equal(doubled, tensor(np.eye(2), sandwich))


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def test_network_dict_roundtrip():
    rng = np.random.default_rng(20)
    net = build_network(random_payload(rng, 3))
    restored = network_from_dict(network_to_dict(net))
    assert restored.register_dim == net.register_dim
    assert np.array_equal(restored.payload, net.payload)
    assert restored.factors == net.factors


def test_network_dict_is_json_serializable():
    import json

    net = build_network(np.eye(2, dtype=complex))
    text = json.dumps(network_to_dict(net))
    assert np.array_equal(network_from_dict(json.loads(text)).payload, net.payload)


def test_network_from_dict_length_check():
    data = network_to_dict(build_network(np.eye(2)))
    data["payload"] = data["payload"][:-1]
    with pytest.raises(DimensionMismatch):
        network_from_dict(data)


def test_network_from_dict_rejects_factors_that_disagree_with_payload():
    data = network_to_dict(build_network(np.eye(2)))
    data["factors"][1]["m"] = 0  # a factor at (0, 1) where the payload holds 0
    with pytest.raises(InvalidSpec, match="factors differ"):
        network_from_dict(data)
    data = network_to_dict(build_network(np.eye(2)))
    data["factors"] = data["factors"][:1]
    with pytest.raises(InvalidSpec, match="factors differ"):
        network_from_dict(data)


def test_network_from_dict_rejects_out_of_range_factor_index():
    data = network_to_dict(build_network(np.eye(2)))
    data["factors"][0]["m"] = 5
    with pytest.raises(InvalidSpec, match="factors differ"):
        network_from_dict(data)


_UNIT = {"register_dim": 1, "payload": [[2.0, 0.0]], "factors": [{"m": 0, "n": 0, "u": [2.0, 0.0]}]}


@pytest.mark.parametrize(
    "data",
    [
        [_UNIT],
        "network",
        *({k: v for k, v in _UNIT.items() if k != key} for key in _UNIT),
        {**_UNIT, "payload": 5},
        {**_UNIT, "factors": [1]},
        {**_UNIT, "factors": [{"m": 0, "n": 0}]},
        *({**_UNIT, "register_dim": dim} for dim in (1.7, True, "x", -1)),
        *(
            {**_UNIT, "factors": [{**_UNIT["factors"][0], key: index}]}
            for key in ("m", "n")
            for index in (0.0, False)
        ),
    ],
)
def test_network_from_dict_rejects_malformed_structure(data):
    assert network_to_dict(network_from_dict(_UNIT)) == _UNIT
    with pytest.raises(InvalidSpec):
        network_from_dict(data)


@pytest.mark.parametrize("pair", [[1.0], [1.0, 0.0, 0.0], "ab", [None, 0.0], [True, 0.0]])
def test_network_from_dict_rejects_malformed_pairs(pair):
    data = network_to_dict(build_network(np.eye(2)))
    data["payload"][0] = pair
    with pytest.raises(InvalidSpec, match=r"payload\[0\]"):
        network_from_dict(data)
    data = network_to_dict(build_network(np.eye(2)))
    data["factors"][0]["u"] = pair
    with pytest.raises(InvalidSpec, match=r"factors\[0\]\.u"):
        network_from_dict(data)
