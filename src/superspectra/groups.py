"""Cayley tables for the dihedral, generalized quaternion, semidihedral and
cyclic families, plus exact structure queries (element orders, center,
conjugacy classes, cyclic subgroups).

The queries work on whole tables rather than one element at a time.  The
cyclic subgroups come from one power walk each: walking g, g^2, .. up to
the identity gives <g> and, for every divisor d of its order m, <g^d> with
its phi(m/d) generators, so no subgroup is walked twice and no N x N array
is made.  The element orders, the order partition, the maximal cyclic
subgroups and the power graphs all read this one structure per table.
Conjugacy classes are the orbits of conjugation by the generators a and b,
each labelled by its least member through pointer doubling.
The product table is uint16, which holds every index below 2^16.
``build_group`` refuses an order whose tables would exceed a fixed memory
budget (orders above 18918), or whose indices uint16 cannot hold, before
allocating anything.

Element indexing is canonical across the package: the rotations
``a^0 .. a^{k-1}`` occupy indices ``0 .. k-1`` (k = n, 2n, 4n for the
dihedral, quaternion and semidihedral groups of parameter n; k = n for the
cyclic group) and the reflections ``b, a*b, .. a^{k-1}*b`` follow at indices
``k .. 2k-1``.  The identity is always index 0.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterOutOfRange

DIHEDRAL = "dihedral"
QUATERNION = "quaternion"
SEMIDIHEDRAL = "semidihedral"
CYCLIC = "cyclic"
FAMILIES = (DIHEDRAL, QUATERNION, SEMIDIHEDRAL, CYCLIC)

_MIN_N = {DIHEDRAL: 3, QUATERNION: 2, SEMIDIHEDRAL: 2, CYCLIC: 1}

# Bytes allowed for one group's N x N uint16 product table plus one N x N
# bool array: orders up to 18918.  The queries make no N x N array of their
# own; the bool term is headroom for the one bool graph every command
# builds from the table.
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

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """``a^i`` for the rotations, then ``a^i*b`` for the reflections."""
        k = self.rotation_count
        rotations = tuple(_rotation_label(i) for i in range(k))
        if self.family == CYCLIC:
            return rotations
        return rotations + tuple(_reflection_label(i) for i in range(k))

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
    def _cyclic(self) -> "_CyclicSubgroups":
        """Every cyclic subgroup, walked on first use."""
        return _walk_cyclic_subgroups(self)


def _table_bytes(order: int) -> int:
    """Bytes of the N x N uint16 product table plus one N x N bool array,
    the graph a command builds from the table, for a group of order N."""
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

    if family != CYCLIC:
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

    # a^-i = a^(k - i); (a^i b)^-1 = a^j b with a^i b a^j b = 1, which is
    # a^(i - j) in the dihedral group (j = i), a^(i - j + n) in the
    # quaternion group (j = i + n) and a^(i + j(2n - 1)) in the semidihedral
    # group (j = i + 2n (i mod 2), as (2n - 1)^2 = 1 mod 4n)
    r = np.arange(k, dtype=np.int64)
    inverse = (k - r) % k
    if family != CYCLIC:
        shift = {DIHEDRAL: 0, QUATERNION: n, SEMIDIHEDRAL: 2 * n * (r % 2)}[family]
        inverse = np.concatenate((inverse, k + (r + shift) % k))
    return GroupTable(family=family, parameter=n, product=product, inverse=inverse)


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
    return Partition(block_of=block_of.astype(np.int64, copy=False), blocks=blocks)


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


@dataclass(frozen=True, eq=False)
class _CyclicSubgroups:
    """Every cyclic subgroup of one table, stacked by order.

    ``members[s]`` has one row per subgroup of order s, and
    ``generators[s]`` the phi(s) elements generating the subgroup of the
    same row; both are keyed by s in ascending order.  ``orders`` holds
    every element's order.
    """

    orders: np.ndarray
    members: dict[int, np.ndarray]
    generators: dict[int, np.ndarray]

    def __post_init__(self):
        for a in (self.orders, *self.members.values(), *self.generators.values()):
            a.setflags(write=False)

    @cached_property
    def maximal(self) -> dict[int, np.ndarray]:
        """Rows of ``members`` that are maximal cyclic subgroups, by order.

        <g> is maximal when no cyclic subgroup of larger order contains g:
        a strictly larger cyclic subgroup containing <g> contains g, and any
        <h> containing g contains <g>.  Orders are visited from the largest
        down, with ``covered`` marking the members of every larger subgroup
        seen so far.
        """
        covered = np.zeros(self.orders.size, dtype=bool)
        maximal = {}
        for size in sorted(self.members, reverse=True):
            rows = self.members[size]
            keep = ~covered[self.generators[size][:, 0]]
            if keep.any():
                maximal[size] = rows[keep]
            covered[rows] = True
        return maximal


def _walk_cyclic_subgroups(table: GroupTable) -> _CyclicSubgroups:
    """Every cyclic subgroup, from one power walk each.

    The first g whose order is not yet known is walked, g, g^2, .. g^m = e,
    by table products.  g^i generates <g^d> for d = gcd(i, m), so the walk
    gives, for every divisor d of m, the subgroup <g^d> of order m/d with
    all its generators; one whose generators an earlier walk gave is
    skipped.  Every subgroup found has the orders of all its generators
    set, so no subgroup is walked twice.  The queries read it through
    ``GroupTable._cyclic``, which walks once per table.

    Raises ``ValueError`` when the powers of some g do not reach the
    identity within N steps, which no group table allows.

    Everything is gathered in C int ``array.array`` buffers, which the
    returned ``np.intc`` arrays view without a copy: 4 bytes an entry, with
    no Python int kept per element.
    """
    step = table.product.item
    n = table.order
    orders = array("i", bytes(n * np.dtype(np.intc).itemsize))
    members: dict[int, array] = defaultdict(partial(array, "i"))
    generators: dict[int, array] = defaultdict(partial(array, "i"))
    for g in range(n):
        if orders[g]:
            continue
        walk = array("i", [g])  # walk[i - 1] = g^i
        while (x := walk[-1]) != table.identity:
            if len(walk) == n:
                raise ValueError(f"the powers of element {g} do not reach the identity in {n} steps")
            walk.append(step(x, g))
        m = len(walk)
        for d in range(1, m + 1):
            if m % d or orders[walk[d - 1]]:
                continue
            size = m // d
            gens = [walk[i - 1] for i in range(d, m + 1, d) if math.gcd(i, m) == d]
            for x in gens:
                orders[x] = size
            members[size].extend(walk[d - 1 :: d])
            generators[size].extend(gens)

    def stacked(buffers: dict[int, array], size: int) -> np.ndarray:
        return np.frombuffer(buffers[size], dtype=np.intc).reshape(len(members[size]) // size, -1)

    return _CyclicSubgroups(
        orders=np.frombuffer(orders, dtype=np.intc),
        members={s: stacked(members, s) for s in sorted(members)},
        generators={s: stacked(generators, s) for s in sorted(members)},
    )


def order_partition(table: GroupTable) -> Partition:
    """Coarsest partition grouping elements of equal order; blocks in
    increasing element order, members ascending within a block."""
    _, block_of = np.unique(table._cyclic.orders, return_inverse=True)
    return _partition_from_labels(block_of)


def _subgroup_sets(by_size: dict[int, np.ndarray]) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(row) for rows in by_size.values() for row in rows.tolist())


def cyclic_subgroups(table: GroupTable) -> frozenset[frozenset[int]]:
    """All subgroups <g>."""
    return _subgroup_sets(table._cyclic.members)


def maximal_cyclic_subgroups(table: GroupTable) -> frozenset[frozenset[int]]:
    """Cyclic subgroups not strictly contained in another cyclic subgroup."""
    return _subgroup_sets(table._cyclic.maximal)
