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
input branch.  The connector sandwich touches only the payload blocks, so
a network is stored as its payload blocks, one for a built network and
one per chained block for compose_product, which forms no product.  Every
block is a `numerics` operator: the paper's network does not fix how U is
stored, and a matrix enters through `as_operator`, as a `SparseOperator`
on its nonzeros.  Payloads add as operators, so the sum rule on Q(I) and
Q(a H), both on H's operator, gives the operator I + a H in O(nnz).
apply_network multiplies a state by the blocks right to left, each by its
`matvec` (O(nnz) or two FFTs), each raised branch becoming the next
block's input as the connector does; the blocks' left-to-right N x N
product is formed only when .payload is read.
Dense 2N x 2N forms come only from QcpuNetwork.dense(), for the references
(the identity suite and the tests), which keep the literal chain, and from
dense_from_factors, the factors' product in a given order.  A factor only
adds u times an odd column to an even one, so that product runs in rounds,
one per rank of a factor among those on its column.  The even columns are
held as one slab, ordered by descending factor count, so each round is one
multiply and add on the slab's leading rows, and each column takes its sums
in the given order, bit for bit the one-factor-at-a-time product.
identity_suite checks this algebra on seeded random payloads: the closed
form, factor order, sum and product rules, block extraction, feeding and
projecting a state, and the auxiliary ladder pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from numbers import Integral
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange
from .numerics import Operator, as_complex_matrix, as_operator, as_state, tensor

# Auxiliary-qubit ladder pair: the lowering operator |0><1| and raising
# operator |1><0|.  They square to zero and their anticommutator is the
# identity, i.e. they behave like a fermionic annihilate/create pair.
AUX_ANNIHILATE = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
AUX_CREATE = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


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
    """Dense 2N x 2N matrix of a single factor, whose indices are integers
    (not bools) in range(register_dim)."""
    if not all(isinstance(i, Integral) and not isinstance(i, bool) and 0 <= i < register_dim
               for i in (factor.m, factor.n)):
        raise IndexOutOfRange(
            f"factor indices ({factor.m!r}, {factor.n!r}) outside register of dim {register_dim}"
        )
    out = np.eye(2 * register_dim, dtype=complex)
    out[2 * factor.m + 1, 2 * factor.n] += factor.u
    return out


@dataclass(frozen=True, eq=False)
class QcpuNetwork:
    """Network for one payload: closed form plus its ordered factor list.

    `blocks` are the payload blocks, left to right, each a `numerics`
    operator: one for a built network, one per chained block for a
    product, multiplied out only when `payload` is read.  The factor list
    exists to exercise the factorized construction (the factors commute,
    since every cross term contains the squared raising operator).
    Construction keeps an operator block as it is and makes a copy of a
    matrix block a `SparseOperator` on its nonzeros (`as_operator`), so a
    later write to the caller's matrix changes nothing here; it refuses an
    empty tuple or blocks on registers of different dims.  `payload`,
    `nonzeros`, `factors` and `dense()` read the blocks' dense(), for the
    references only.
    """

    blocks: tuple[Operator, ...]

    def __post_init__(self) -> None:
        blocks = tuple(b if isinstance(b, Operator) else as_operator(np.array(b, dtype=complex))
                       for b in self.blocks)
        dims = {block.size for block in blocks}
        if not dims:
            raise DimensionMismatch("need at least one network")
        if len(dims) > 1:
            raise DimensionMismatch(f"networks live on different registers: {sorted(dims)}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def register_dim(self) -> int:
        return self.blocks[0].size

    @cached_property
    def payload(self) -> np.ndarray:
        """The N x N payload, the blocks' dense() multiplied left to right."""
        return reduce(np.matmul, (block.dense() for block in self.blocks))

    @cached_property
    def nonzeros(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The payload's nonzero entries in row-major order: rows, columns, values."""
        rows, cols = np.nonzero(self.payload)
        return rows, cols, self.payload[rows, cols]

    @cached_property
    def factors(self) -> tuple[QcpuFactor, ...]:
        """One factor per nonzero payload entry, in row-major order."""
        return tuple(QcpuFactor(m=int(m), n=int(n), u=complex(u))
                     for m, n, u in zip(*self.nonzeros))

    def dense(self) -> np.ndarray:
        """Closed form I (x) I + payload (x) |1><0| by direct block assembly."""
        out = np.eye(2 * self.register_dim, dtype=complex)
        out[1::2, 0::2] += self.payload
        return out


def build_network(u) -> QcpuNetwork:
    """Network for an arbitrary square payload, one factor per nonzero entry:
    a `numerics` operator, kept as it is, or a copy of a matrix, as its operator."""
    return QcpuNetwork(blocks=(u,))


def dense_from_factors(net: QcpuNetwork, order: Sequence[int] | None = None) -> np.ndarray:
    """Product of the network's factor matrices, in the given order.

    Any order yields the same matrix: cross terms between factors vanish
    because they contain the squared auxiliary raising operator.  Each
    right-multiplication by I + u * E[2m+1, 2n] is the column update it is,
    adding u times column 2m+1 to column 2n; factor_matrix stays the dense
    reference for one factor.  Factors read odd columns and write even ones
    only, so the updates run in rounds: a factor's rank is its place among
    the factors on its column, in the given order, and one round updates
    every column that has a factor of its rank at once.  On the product held
    transposed, the even columns are copied once into a slab, ordered by
    descending factor count (stably), so the n_r columns round r updates are
    the slab's first n_r rows; with the factors sorted by rank and then by
    their column's place, a round is one gather of odd columns and one
    multiply and add on contiguous rows, and the slab is written back at the
    end.  Each entry takes the same products, and each column its sums in the
    same order, as one factor at a time would give, so the result is the same
    bit for bit.  An order that is not a permutation of the factor indices,
    integers all, is refused.
    """
    rows, cols, values = net.nonzeros
    count = rows.size
    if order is not None:
        indices = np.asarray(order)
        if (indices.size and indices.dtype.kind not in "iu"
                or not np.array_equal(np.sort(indices), np.arange(count))):
            raise IndexOutOfRange(f"factor order must be a permutation of range({count})")
        indices = indices.astype(np.intp)  # an empty list arrives as floats
        rows, cols, values = rows[indices], cols[indices], values[indices]
    # A factor's rank is its place among the factors on its column, in order.
    by_column = np.argsort(cols, kind="stable")
    sorted_cols = cols[by_column]
    rank = np.empty(count, dtype=np.intp)
    rank[by_column] = np.arange(count) - np.searchsorted(sorted_cols, sorted_cols)
    # Columns by descending factor count: round r updates the first n_r of them.
    dim = net.register_dim
    col_order = np.argsort(-np.bincount(cols, minlength=dim), kind="stable")
    # Round r is the slice bounds[r]:bounds[r + 1] of the factors sorted by
    # (rank, place of their column), so its factors meet its columns in order.
    by_round = np.argsort(rank * dim + np.argsort(col_order)[cols], kind="stable")
    bounds = [0, *np.cumsum(np.bincount(rank)).tolist()]
    sources, values = rows[by_round], values[by_round, None]
    t = np.eye(2 * dim, dtype=complex)  # t[c] is column c of the product
    even, odd = t[2 * col_order], t[1::2]  # written columns, copied as one slab; read ones, a view
    for start, stop in zip(bounds[:-1], bounds[1:]):  # one round per rank
        even[:stop - start] += values[start:stop] * odd[sources[start:stop]]
    t[2 * col_order] = even
    return t.T.copy()


def apply_network(net: QcpuNetwork, register_state) -> np.ndarray:
    """Feed psi in on the lowered branch: returns psi (x) |0> + (U psi) (x) |1>.

    The blocks act right to left, each by its `matvec`, each raised branch
    feeding the next block, and the network's own payload is never read.
    """
    psi = as_state(register_state, net.register_dim)
    raised = psi
    for block in reversed(net.blocks):
        raised = block.matvec(raised)
    out = np.zeros(2 * net.register_dim, dtype=complex)
    out[0::2] = psi
    out[1::2] = raised
    return out


def project_aux(state, branch: int) -> np.ndarray:
    """Sub-vector of amplitudes on one auxiliary branch, unnormalized."""
    if isinstance(branch, bool) or not (isinstance(branch, Integral) and branch in (0, 1)):
        raise IndexOutOfRange(f"auxiliary branch must be the integer 0 or 1, got {branch!r}")
    state = as_state(state)
    if state.shape[0] % 2:
        raise DimensionMismatch(f"a network state has 2N amplitudes, got {state.shape[0]}")
    return state[branch::2].copy()


def raising_block(matrix) -> np.ndarray:
    """Extract the payload block (raised rows, lowered columns) of a 2N x 2N matrix."""
    m = as_complex_matrix(matrix)
    if m.shape[0] % 2:
        raise DimensionMismatch(f"a network matrix is 2N x 2N, got {m.shape}")
    return m[1::2, 0::2].copy()


def compose_sum(nets: Sequence[QcpuNetwork]) -> QcpuNetwork:
    """Network for the sum of payloads.

    Multiplying the constituent networks' dense forms (in any order) yields
    exactly this network's dense form; the cross terms cancel structurally.
    Each net joins as one operator, its one block or, for a chain, its
    payload's, and they add with `+`: Q(I) and Q(a H) on H's operator give
    the operator I + a H in O(nnz).
    """
    payloads = QcpuNetwork(blocks=tuple(
        net.blocks[0] if len(net.blocks) == 1 else net.payload for net in nets)).blocks
    return build_network(sum(payloads[1:], payloads[0]))


def compose_product(nets: Sequence[QcpuNetwork]) -> QcpuNetwork:
    """Connector-chained product network, kept as its payload blocks.

    The network is  I + C^dag (prod_j C . dense_j) C C^dag  with the product
    expanded left to right.  Each C . dense_j equals
    P_j (x) |0><0| + I (x) |0><1|, so the product of r of them is
    (P_1...P_r) (x) |0><0| + (P_1...P_{r-1}) (x) |0><1|, and the sandwich
    keeps only C^dag (P_1...P_r (x) |0><0|) = P_1...P_r (x) |1><0|: the
    network for the N x N product payload_1 . payload_2 ... payload_r.
    No product is formed here: the chain keeps every net's blocks, in
    order, so a chain of chains still costs each block's own product, which
    apply_network runs on a state and .payload multiplies out when read.
    Consequence of the ordering: chronological application ("apply A then
    B") corresponds to the reversed list [net_B, net_A].
    """
    return QcpuNetwork(blocks=tuple(block for net in nets for block in net.blocks))


# ---------------------------------------------------------------------------
# The identity suite
# ---------------------------------------------------------------------------

IDENTITY_TOLERANCE = 1e-12


def _random_payload(rng: np.random.Generator, dim: int) -> np.ndarray:
    return (rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))) / math.sqrt(2.0)


def identity_suite(seed: int, dim: int) -> dict:
    """Max-abs error of each network identity on seeded random payloads.

    The report gives each identity's error and whether it is within
    IDENTITY_TOLERANCE, and whether all are.
    """
    rng = np.random.default_rng(seed)
    eye = np.eye(2 * dim, dtype=complex)
    errors = dict.fromkeys(("closed_form", "factor_orders", "sum_rule", "product_rule",
                            "block_extraction", "apply_project", "aux_algebra"), 0.0)

    def record(name, a, b):
        errors[name] = max(errors[name], float(np.max(np.abs(a - b))))

    for _ in range(5):
        u = _random_payload(rng, dim)
        net = build_network(u)
        record("closed_form", net.dense(), eye + tensor(u, AUX_CREATE))
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        record("apply_project", project_aux(apply_network(net, psi), 1), as_operator(u).matvec(psi))

    for _ in range(2):
        net = build_network(_random_payload(rng, dim))
        for _ in range(3):
            order = rng.permutation(np.count_nonzero(net.payload))
            record("factor_orders", dense_from_factors(net, order), net.dense())

    for _ in range(3):
        parts = [build_network(_random_payload(rng, dim)) for _ in range(3)]
        record("sum_rule", parts[0].dense() @ parts[1].dense() @ parts[2].dense(),
               compose_sum(parts).dense())

    # compose_product works on payload blocks; the reference is the literal
    # connector sandwich I + C^dag (prod_j C . dense_j) C C^dag in 2N x 2N.
    c, c_dag = connector(dim), connector_dagger(dim)
    for r in (1, 2, 3):
        payloads = [_random_payload(rng, dim) for _ in range(r)]
        nets = [build_network(u) for u in payloads]
        chain = reduce(np.matmul, [c @ net.dense() for net in nets], eye)
        sandwich = eye + c_dag @ chain @ c @ c_dag
        record("product_rule", compose_product(nets).dense(), sandwich)
        record("block_extraction", raising_block(sandwich), reduce(np.matmul, payloads))

    record("aux_algebra", AUX_ANNIHILATE @ AUX_ANNIHILATE, 0.0)
    record("aux_algebra", AUX_CREATE @ AUX_CREATE, 0.0)
    record("aux_algebra", AUX_ANNIHILATE @ AUX_CREATE + AUX_CREATE @ AUX_ANNIHILATE, np.eye(2))

    identities = {
        name: {"max_abs_error": err, "pass": bool(err <= IDENTITY_TOLERANCE)}
        for name, err in errors.items()
    }
    return {
        "seed": seed,
        "dim": dim,
        "tolerance": IDENTITY_TOLERANCE,
        "identities": identities,
        "all_pass": all(item["pass"] for item in identities.values()),
    }
