"""Cayley tables for the dihedral, generalized quaternion, semidihedral and
cyclic families, plus exact structure queries (element orders, center,
conjugacy classes, cyclic subgroups).

The queries work on whole tables rather than one element at a time.  One
N x N membership table (x in <g>, built by advancing every generator at
once) gives the element orders as row sums, the cyclic subgroups as its
distinct rows and the maximal ones by one covering test per element order.
Conjugacy classes are the orbits of conjugation by the generators a and b,
each labelled by its least member through pointer doubling.
The product table is uint16, which holds every index below 2^16.
``build_group`` refuses an order whose product and membership tables would
exceed a fixed memory budget (orders above 18918), or whose indices uint16
cannot hold, before allocating either.

Element indexing is canonical across the package: the rotations
``a^0 .. a^{k-1}`` occupy indices ``0 .. k-1`` (k = n, 2n, 4n for the
dihedral, quaternion and semidihedral groups of parameter n; k = n for the
cyclic group) and the reflections ``b, a*b, .. a^{k-1}*b`` follow at indices
``k .. 2k-1``.  The identity is always index 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterOutOfRange

DIHEDRAL = "dihedral"
QUATERNION = "quaternion"
SEMIDIHEDRAL = "semidihedral"
CYCLIC = "cyclic"
FAMILIES = (DIHEDRAL, QUATERNION, SEMIDIHEDRAL, CYCLIC)

_MIN_N = {DIHEDRAL: 3, QUATERNION: 2, SEMIDIHEDRAL: 2, CYCLIC: 1}

# Bytes allowed for one group's N x N uint16 product table plus the N x N
# bool membership table of the whole-table queries: orders up to 18918.
_TABLE_BUDGET_BYTES = 1 << 30

# The product table stores element indices 0..N-1, so its dtype bounds the
# order whatever the budget admits: 2^16.
_PRODUCT_DTYPE = np.uint16


def _rotation_label(i: int) -> str:
    if i == 0:
        return "e"
    if i == 1:
        return "a"
    return f"a^{i}"


def _reflection_label(i: int) -> str:
    if i == 0:
        return "b"
    if i == 1:
        return "a*b"
    return f"a^{i}*b"


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A finite group as an explicit multiplication table on 0..N-1."""

    family: str
    parameter: int
    product: np.ndarray
    inverse: np.ndarray
    labels: tuple[str, ...]
    identity: int = 0

    def __post_init__(self):
        self.product.setflags(write=False)
        self.inverse.setflags(write=False)

    @property
    def order(self) -> int:
        return int(self.product.shape[0])

    @property
    def rotation_count(self) -> int:
        """Size of the rotation block <a> at the front of the index space."""
        return self.order if self.family == CYCLIC else self.order // 2

    @property
    def generators(self) -> tuple[int, ...]:
        """a and b of the presentation: a alone when cyclic, none when trivial."""
        gens = (1,) if self.family == CYCLIC else (1, self.rotation_count)
        return gens if self.order > 1 else ()

    def mul(self, a: int, b: int) -> int:
        return int(self.product[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def power(self, g: int, m: int) -> int:
        """g**m for m >= 0."""
        acc = self.identity
        for _ in range(m):
            acc = int(self.product[acc, g])
        return acc

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return int(self.product[self.product[g, x], self.inverse[g]])

    @cached_property
    def _membership(self) -> np.ndarray:
        """The read-only cyclic-membership table, built on first use."""
        member = _cyclic_membership(self)
        member.setflags(write=False)
        return member


def _table_bytes(order: int) -> int:
    """Bytes of the N x N uint16 product table plus the N x N bool
    membership table for a group of order N."""
    return order * order * (np.dtype(_PRODUCT_DTYPE).itemsize + np.dtype(np.bool_).itemsize)


def build_group(family: str, n: int) -> GroupTable:
    """Build one of the four supported families from its presentation.

    The multiplication rules are the closed forms obtained by normalising
    words to ``a^i`` / ``a^i b``; correctness is guarded by the exhaustive
    axiom check (:func:`verify_group_axioms`) rather than trusted.  Orders
    above 2^16, or whose tables exceed the memory budget, are refused before
    any allocation.  The product table is uint16: cast its entries before
    doing arithmetic on them.
    """
    if family not in FAMILIES:
        raise ParameterOutOfRange(f"unknown family {family!r}; expected one of {FAMILIES}")
    if n < _MIN_N[family]:
        raise ParameterOutOfRange(f"{family} needs n >= {_MIN_N[family]}, got {n}")

    if family == CYCLIC:
        k = n
    elif family == DIHEDRAL:
        k = n
    elif family == QUATERNION:
        k = 2 * n
    else:
        k = 4 * n
    order = k if family == CYCLIC else 2 * k
    if _table_bytes(order) > _TABLE_BUDGET_BYTES:
        raise ParameterOutOfRange(
            f"{family} n={n} has order {order}; its tables need {_table_bytes(order)} bytes, "
            f"over the {_TABLE_BUDGET_BYTES}-byte budget"
        )
    max_order = int(np.iinfo(_PRODUCT_DTYPE).max) + 1
    if order > max_order:
        raise ParameterOutOfRange(
            f"{family} n={n} has order {order}; the {np.dtype(_PRODUCT_DTYPE).name} "
            f"product table holds orders up to {max_order}"
        )

    # Every block is copied from windows of w, the rotation indices laid
    # out three times (w[t] = t mod k, so window i reads (i + j) mod k over
    # j < k), and offset by k in place where it holds reflections.  No sum
    # is reduced mod k afterwards, so no value at any step exceeds N - 1,
    # and no k x k temporary exists.
    i = np.arange(k, dtype=_PRODUCT_DTYPE)
    windows = sliding_window_view(np.concatenate((i, i, i)), k)

    def descending(shift: int) -> np.ndarray:
        """(i - j + shift) mod k at [i, j], which is w[i + shift + k - j]."""
        return windows[shift + 1 : shift + 1 + k, ::-1]

    product = np.empty((order, order), dtype=_PRODUCT_DTYPE)
    rot_rot = product[:k, :k]
    np.copyto(rot_rot, windows[:k])

    if family == CYCLIC:
        labels = tuple(_rotation_label(int(x)) for x in range(k))
    else:
        rot_refl, refl_rot, refl_refl = product[:k, k:], product[k:, :k], product[k:, k:]
        np.add(rot_rot, k, out=rot_refl)
        # b * a^j = a^-j * b, except in the semidihedral group, where
        # b * a^j = a^{j(2n-1)} * b and j(2n-1) = -j + 2n(j mod 2) mod 4n
        if family == SEMIDIHEDRAL:
            np.copyto(refl_refl[:, 0::2], descending(0)[:, 0::2])
            np.copyto(refl_refl[:, 1::2], descending(2 * n)[:, 1::2])
        else:
            np.copyto(refl_refl, descending(0))
        np.add(refl_refl, k, out=refl_rot)
        if family == QUATERNION:
            np.copyto(refl_refl, descending(n))  # b^2 = a^n
        labels = tuple(_rotation_label(int(x)) for x in range(k)) + tuple(
            _reflection_label(int(x)) for x in range(k)
        )

    # each row is a permutation, so its least entry is the identity, 0
    inverse = np.argmin(product, axis=1).astype(np.int64)
    return GroupTable(family=family, parameter=n, product=product, inverse=inverse, labels=labels)


def verify_group_axioms(table: GroupTable) -> None:
    """Exhaustively check the group axioms on the table; raise on violation.

    O(N^3) lookups for associativity; fine up to N of a few hundred.
    """
    p = table.product
    n = table.order
    idx = np.arange(n)
    if p.shape != (n, n):
        raise ValueError("product table is not square")
    if not np.array_equal(np.sort(p, axis=1), np.broadcast_to(idx, (n, n))):
        raise ValueError("rows are not permutations (Latin square violated)")
    if not np.array_equal(np.sort(p, axis=0), np.broadcast_to(idx[:, None], (n, n))):
        raise ValueError("columns are not permutations (Latin square violated)")
    e = table.identity
    if not (np.array_equal(p[e, :], idx) and np.array_equal(p[:, e], idx)):
        raise ValueError("identity element does not act as identity")
    if not np.all(p[idx, table.inverse] == e):
        raise ValueError("inverse table is wrong")
    for a in range(n):
        left = p[p[a, :], :]
        right = p[a, p]
        if not np.array_equal(left, right):
            raise ValueError(f"associativity fails at element {a}")
    expected = {DIHEDRAL: 2 * table.parameter, QUATERNION: 4 * table.parameter,
                SEMIDIHEDRAL: 8 * table.parameter, CYCLIC: table.parameter}
    if n != expected[table.family]:
        raise ValueError(f"order {n} inconsistent with family {table.family}, n={table.parameter}")


def element_order(table: GroupTable, g: int) -> int:
    """Smallest k >= 1 with g^k = identity."""
    cur = g
    k = 1
    while cur != table.identity:
        cur = int(table.product[cur, g])
        k += 1
    return k


def center(table: GroupTable) -> frozenset[int]:
    """Elements commuting with everything."""
    p = table.product
    return frozenset(int(g) for g in np.flatnonzero((p == p.T).all(axis=1)))


@dataclass(frozen=True, eq=False)
class Partition:
    """An equivalence relation on 0..N-1.

    Members ascend within each block.  The constructing function fixes the
    block order: least member for conjugacy classes and the equality
    partition, increasing element order for :func:`order_partition`.
    """

    block_of: np.ndarray
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self.block_of.setflags(write=False)
        seen = np.zeros(self.size, dtype=bool)
        for bid, block in enumerate(self.blocks):
            if not block:
                raise ValueError("empty block")
            for g in block:
                if seen[g]:
                    raise ValueError("blocks are not disjoint")
                seen[g] = True
                if self.block_of[g] != bid:
                    raise ValueError("block_of inconsistent with blocks")
        if not seen.all():
            raise ValueError("blocks do not cover the ground set")

    @property
    def size(self) -> int:
        return int(self.block_of.shape[0])

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block(self, g: int) -> tuple[int, ...]:
        return self.blocks[int(self.block_of[g])]

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other."""
        if self.size != other.size:
            return False
        return all(len({int(other.block_of[g]) for g in block}) == 1 for block in self.blocks)


def _partition_from_labels(block_of: np.ndarray) -> Partition:
    """The partition whose block ids are ``block_of`` (0..B-1, all used);
    members ascend within each block."""
    members = np.argsort(block_of, kind="stable")
    ends = np.cumsum(np.bincount(block_of))[:-1]
    blocks = tuple(tuple(b.tolist()) for b in np.split(members, ends))
    return Partition(block_of=block_of.astype(np.int64), blocks=blocks)


def equality_partition(n: int) -> Partition:
    """Every element alone in its own block."""
    return _partition_from_labels(np.arange(n, dtype=np.int64))


def conjugacy_classes(table: GroupTable) -> Partition:
    """Orbit partition of the conjugation action, whose orbits are those of
    x -> g*x*g^-1 for g among the generators.  Pointer doubling (label =
    min(label, label[s]), s = s[s]) spreads the least label along each cycle
    of one such permutation; the generators take turns until none changes a
    label, leaving each element labelled by the least member of its class.
    Sorting the labels orders the classes by least member.
    """
    p = table.product
    perms = [p[p[g], table.inverse[g]] for g in table.generators]
    label, last = np.arange(table.order), None
    while not np.array_equal(label, last):
        last = label
        for s in perms:
            while not np.array_equal(spread := np.minimum(label, label[s]), label):
                label, s = spread, s[s]
    _, block_of = np.unique(label, return_inverse=True)
    return _partition_from_labels(block_of)


def _cyclic_membership(table: GroupTable) -> np.ndarray:
    """N x N bool matrix with ``member[g, x]`` set when x lies in <g>.

    Every generator advances at once, ``cur = product[cur, gens]``, and
    drops out once its power reaching the identity is recorded, so the loop
    runs as many times as the largest element order, on shrinking index
    arrays.  Row sums are the element orders.  The queries read it through
    ``GroupTable._membership``, which builds it once per table.
    """
    p = table.product
    n = table.order
    member = np.zeros((n, n), dtype=bool)
    gens = np.arange(n)
    cur = gens
    while gens.size:
        member[gens, cur] = True
        live = cur != table.identity
        gens = gens[live]
        cur = p[cur[live], gens]
    return member


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """Indices of one row of each distinct value in a bool matrix.

    Each packed row is viewed as one opaque byte string, which np.unique
    sorts far faster than it sorts rows with ``axis=0``.
    """
    packed = np.packbits(rows, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    return np.unique(keys, return_index=True)[1]


def _maximal_cyclic_rows(table: GroupTable) -> np.ndarray:
    """Membership rows of the maximal cyclic subgroups, one row each.

    <g> is maximal when no <h> of larger order contains g: a strictly larger
    cyclic subgroup containing <g> contains g, and any <h> containing g
    contains <g>.  Orders are visited from the largest down, with ``covered``
    marking the elements of every <h> of larger order seen so far.
    """
    member = table._membership
    orders = member.sum(axis=1)
    covered = np.zeros(table.order, dtype=bool)
    maximal = np.zeros(table.order, dtype=bool)
    for k in np.unique(orders)[::-1]:
        at = orders == k
        maximal[at] = ~covered[at]
        covered |= member[at].any(axis=0)
    rows = member[maximal]
    return rows[_distinct_rows(rows)]


def _subgroup_sets(rows: np.ndarray) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(np.flatnonzero(row).tolist()) for row in rows)


def order_partition(table: GroupTable) -> Partition:
    """Coarsest partition grouping elements of equal order; blocks in
    increasing element order, members ascending within a block."""
    orders = table._membership.sum(axis=1)
    _, block_of = np.unique(orders, return_inverse=True)
    return _partition_from_labels(block_of)


def cyclic_subgroups(table: GroupTable) -> frozenset[frozenset[int]]:
    """All subgroups <g>."""
    member = table._membership
    return _subgroup_sets(member[_distinct_rows(member)])


def maximal_cyclic_subgroups(table: GroupTable) -> frozenset[frozenset[int]]:
    """Cyclic subgroups not strictly contained in another cyclic subgroup."""
    return _subgroup_sets(_maximal_cyclic_rows(table))
