"""Auxiliary-qubit networks for arbitrary linear maps.

A network for an N x N payload U acts on the register tensored with one
auxiliary qubit and has the closed form

    dense = I_N (x) I_2  +  U (x) |1><0|,

assembled from one nilpotent factor per nonzero matrix element of U.  Feeding
a register state in as psi (x) |0> leaves psi on the lowered auxiliary branch
and deposits U psi on the raised branch, so arbitrary (not necessarily
unitary) linear maps can be staged and chained.

Basis ordering everywhere: composite index = 2 * register_index + aux_index
(register slow, auxiliary fast).  Sums of payloads compose by multiplying
networks; products compose by splicing the connector I (x) |0><1| between
networks, which feeds each raised output branch into the next network's
input branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, InvalidSpec, NonSquareInput
from .numerics import as_complex_matrix, as_state, tensor

# Auxiliary-qubit ladder pair: the lowering operator |0><1| and raising
# operator |1><0|.  They square to zero and their anticommutator is the
# identity, i.e. they behave like a fermionic annihilate/create pair.
AUX_ANNIHILATE = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
AUX_CREATE = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
AUX_IDENTITY = np.eye(2, dtype=complex)


def connector(register_dim: int) -> np.ndarray:
    """I_N (x) |0><1|: routes a raised output branch into the next input."""
    return tensor(np.eye(register_dim), AUX_ANNIHILATE)


def connector_dagger(register_dim: int) -> np.ndarray:
    """I_N (x) |1><0|, the adjoint of the connector."""
    return tensor(np.eye(register_dim), AUX_CREATE)


@dataclass(frozen=True)
class QcpuFactor:
    """One nilpotent factor: I + u * (|m><n| (x) |1><0|).

    The exponent (u |m><n| (x) |1><0|) squares to zero, so its exponential
    is exactly I + exponent; no numerical matrix exponential is involved.
    """

    m: int
    n: int
    u: complex


def factor_matrix(factor: QcpuFactor, register_dim: int) -> np.ndarray:
    """Dense 2N x 2N matrix of a single factor."""
    if not (0 <= factor.m < register_dim and 0 <= factor.n < register_dim):
        raise IndexOutOfRange(
            f"factor indices ({factor.m}, {factor.n}) outside register of dim {register_dim}"
        )
    out = np.eye(2 * register_dim, dtype=complex)
    out[2 * factor.m + 1, 2 * factor.n] += factor.u
    return out


@dataclass(frozen=True, eq=False)
class QcpuNetwork:
    """Network for one payload: closed form plus its ordered factor list.

    The factor list exists to exercise the factorized construction (the
    factors commute, since every cross term contains the squared raising
    operator); the payload drives the O(N^2) closed-form application.
    """

    register_dim: int
    payload: np.ndarray

    @cached_property
    def factors(self) -> tuple[QcpuFactor, ...]:
        """One factor per nonzero payload entry, in row-major order."""
        rows, cols = np.nonzero(self.payload)
        return tuple(
            QcpuFactor(m=int(m), n=int(n), u=complex(self.payload[m, n]))
            for m, n in zip(rows, cols)
        )

    def dense(self) -> np.ndarray:
        """Closed form I (x) I + payload (x) |1><0| by direct block assembly."""
        n = self.register_dim
        out = np.eye(2 * n, dtype=complex)
        out[1::2, 0::2] += self.payload
        return out


def build_network(u) -> QcpuNetwork:
    """Network for an arbitrary square payload, one factor per nonzero entry."""
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise NonSquareInput(f"payload must be square, got {u.shape}")
    return QcpuNetwork(register_dim=u.shape[0], payload=u.copy())


def dense_from_factors(net: QcpuNetwork, order: Sequence[int] | None = None) -> np.ndarray:
    """Product of the network's factor matrices, in the given order.

    Any order yields the same matrix: cross terms between factors vanish
    because they contain the squared auxiliary raising operator.
    """
    indices = range(len(net.factors)) if order is None else order
    out = np.eye(2 * net.register_dim, dtype=complex)
    for i in indices:
        out = out @ factor_matrix(net.factors[i], net.register_dim)
    return out


def apply_network(net: QcpuNetwork, register_state) -> np.ndarray:
    """Feed psi in on the lowered branch: returns psi (x) |0> + (U psi) (x) |1>."""
    psi = as_state(register_state)
    if psi.shape[0] != net.register_dim:
        raise DimensionMismatch(
            f"state dim {psi.shape[0]} != register dim {net.register_dim}"
        )
    out = np.zeros(2 * net.register_dim, dtype=complex)
    out[0::2] = psi
    out[1::2] = net.payload @ psi
    return out


def project_aux(state, branch: int) -> np.ndarray:
    """Sub-vector of amplitudes on one auxiliary branch, unnormalized."""
    if branch not in (0, 1):
        raise IndexOutOfRange(f"auxiliary branch must be 0 or 1, got {branch}")
    return as_state(state)[branch::2].copy()


def raising_block(matrix) -> np.ndarray:
    """Extract the payload block (raised rows, lowered columns) of a 2N x 2N matrix."""
    m = as_complex_matrix(matrix)
    return m[1::2, 0::2].copy()


def _common_register_dim(nets: Sequence[QcpuNetwork], register_dim: int | None) -> int:
    dims = {net.register_dim for net in nets}
    if len(dims) > 1:
        raise DimensionMismatch(f"networks live on different registers: {sorted(dims)}")
    if dims:
        dim = dims.pop()
        if register_dim is not None and register_dim != dim:
            raise DimensionMismatch(
                f"explicit register_dim {register_dim} != network dim {dim}"
            )
        return dim
    if register_dim is None:
        raise DimensionMismatch("empty network list needs an explicit register_dim")
    return register_dim


def compose_sum(nets: Sequence[QcpuNetwork]) -> QcpuNetwork:
    """Network for the sum of payloads.

    Multiplying the constituent networks' dense forms (in any order) yields
    exactly this network's dense form; the cross terms cancel structurally.
    """
    if not nets:
        raise DimensionMismatch("compose_sum needs at least one network")
    _common_register_dim(nets, None)
    total = nets[0].payload.copy()
    for net in nets[1:]:
        total = total + net.payload
    return build_network(total)


def compose_product(
    nets: Sequence[QcpuNetwork], register_dim: int | None = None
) -> np.ndarray:
    """Connector-chained product network, as a dense 2N x 2N matrix.

    Computes  I + C^dag (prod_j C . dense_j) C C^dag  with the product
    expanded left to right, which equals the closed form of the network for
    the matrix product payload_1 . payload_2 ... payload_r.  Consequence of
    the ordering: chronological application ("apply A then B") corresponds
    to the reversed list [net_B, net_A].

    An empty list (with explicit register_dim) yields the identity-payload
    network.
    """
    dim = _common_register_dim(nets, register_dim)
    c = connector(dim)
    c_dag = connector_dagger(dim)
    chain = np.eye(2 * dim, dtype=complex)
    for net in nets:
        chain = chain @ (c @ net.dense())
    return np.eye(2 * dim, dtype=complex) + c_dag @ chain @ c @ c_dag


def full_multiplication_form(
    nets: Sequence[QcpuNetwork], register_dim: int | None = None
) -> np.ndarray:
    """Product network carried on a doubled register: identity on a retained
    input-register copy, tensored with the connector-chained sandwich.

    The sandwich factor equals ``compose_product(nets) - I``.  Initial states
    for this form are prepared as psi_input (x) (psi (x) |0>)_out.
    """
    dim = _common_register_dim(nets, register_dim)
    sandwich = compose_product(nets, register_dim=dim) - np.eye(2 * dim, dtype=complex)
    return tensor(np.eye(dim), sandwich)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def network_to_dict(net: QcpuNetwork) -> dict:
    """JSON-ready dump: payload entries row-major as [re, im] pairs."""
    return {
        "register_dim": net.register_dim,
        "payload": [[float(z.real), float(z.imag)] for z in net.payload.ravel()],
        "factors": [
            {"m": f.m, "n": f.n, "u": [float(f.u.real), float(f.u.imag)]}
            for f in net.factors
        ],
    }


def _complex_pair(value, where: str) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
    ):
        return complex(value[0], value[1])
    raise InvalidSpec(f"{where} must be an [re, im] pair of real numbers, got {value!r}")


def _wire_factor(entry, i: int) -> QcpuFactor:
    if not isinstance(entry, dict) or not {"m", "n", "u"} <= entry.keys():
        raise InvalidSpec(f"factors[{i}] must be an object with keys m, n and u, got {entry!r}")
    m, n = entry["m"], entry["n"]
    if type(m) is not int or type(n) is not int:
        raise InvalidSpec(f"factors[{i}] indices must be integers, got m={m!r}, n={n!r}")
    return QcpuFactor(m=m, n=n, u=_complex_pair(entry["u"], f"factors[{i}].u"))


def network_from_dict(data: dict) -> QcpuNetwork:
    """Inverse of network_to_dict.  Rejects with InvalidSpec any input it does
    not write, including factors other than the payload's row-major nonzeros."""
    if not isinstance(data, dict) or not {"register_dim", "payload", "factors"} <= data.keys():
        raise InvalidSpec("a network is an object with keys register_dim, payload and factors")
    dim = data["register_dim"]
    if type(dim) is not int or dim < 0:
        raise InvalidSpec(f"register_dim must be a nonnegative integer, got {dim!r}")
    if not (isinstance(data["payload"], list) and isinstance(data["factors"], list)):
        raise InvalidSpec("network payload and factors must be lists")
    flat = np.array(
        [_complex_pair(z, f"payload[{i}]") for i, z in enumerate(data["payload"])], dtype=complex
    )
    if flat.shape[0] != dim * dim:
        raise DimensionMismatch(
            f"payload length {flat.shape[0]} != register_dim^2 = {dim * dim}"
        )
    net = build_network(flat.reshape(dim, dim))
    factors = tuple(_wire_factor(f, i) for i, f in enumerate(data["factors"]))
    if factors != net.factors:
        raise InvalidSpec("factors differ from the payload's nonzeros in row-major order")
    return net
