"""Base graphs on a group (power, enhanced power, commuting) and the
super-graph lift of a graph along an equivalence relation.

The lift of graph A along partition B joins two distinct vertices g, h
whenever some member of [g] is A-adjacent to some member of [h].  Read
literally that does not make two vertices of the same class adjacent unless
the class contains an internal A-edge; the structural results for these
families require classes to become cliques, so ``class_cliques=True`` is the
default and the literal reading stays available behind the flag.  The rule
is a boolean OR over class blocks, computed as one on bit-packed rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .groups import (
    GroupTable,
    Partition,
    _maximal_cyclic_rows,
    conjugacy_classes,
    equality_partition,
    order_partition,
)

BASES = ("power", "enhanced", "commuting")
RELATIONS = ("equality", "conjugacy", "order")
_SYMMETRY_ROWS = 64  # rows per block of the symmetry test


def _is_symmetric(a: np.ndarray) -> bool:
    """a == a.T for a square array, compared a block of rows at a time
    against the matching columns, up to the block's diagonal: the
    temporaries hold ``_SYMMETRY_ROWS`` rows, never a whole transpose."""
    n = a.shape[0]
    for r0 in range(0, n, _SYMMETRY_ROWS):
        r1 = min(r0 + _SYMMETRY_ROWS, n)
        if not np.array_equal(a[r0:r1, :r1], a[:r1, r0:r1].T):
            return False
    return True


@dataclass(frozen=True, eq=False)
class SimpleGraph:
    """Undirected simple graph as a boolean adjacency matrix."""

    adjacency: np.ndarray
    group: GroupTable | None = None

    def __post_init__(self):
        a = self.adjacency
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square")
        # row-wise consumers (packbits in the twin quotient and the lift)
        # read contiguous rows only from a C-ordered array
        if a.dtype != np.bool_ or not a.flags.c_contiguous:
            a = np.ascontiguousarray(a, dtype=bool)
            object.__setattr__(self, "adjacency", a)
        if np.any(np.diagonal(a)):
            raise ValueError("self-loops are not allowed")
        if not _is_symmetric(a):
            raise ValueError("adjacency must be symmetric")
        if self.group is not None and self.group.order != a.shape[0]:
            raise ValueError("vertex count disagrees with the attached group")
        a.setflags(write=False)

    @property
    def vertex_count(self) -> int:
        return int(self.adjacency.shape[0])

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(np.int64)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u, v])

    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of (u, v) with u < v."""
        us, vs = np.nonzero(np.triu(self.adjacency, 1))
        return list(zip(us.tolist(), vs.tolist()))

    def is_spanning_subgraph_of(self, other: "SimpleGraph") -> bool:
        return (
            self.vertex_count == other.vertex_count
            and not np.any(self.adjacency & ~other.adjacency)
        )

    def __eq__(self, other) -> bool:
        # identity of the edge set on the same vertex count; any attached
        # group is label context only
        return (
            isinstance(other, SimpleGraph)
            and self.vertex_count == other.vertex_count
            and np.array_equal(self.adjacency, other.adjacency)
        )

    def __hash__(self):
        return hash((self.vertex_count, self.edge_count))


def graph_from_edges(n: int, edges, group: GroupTable | None = None) -> SimpleGraph:
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if u == v:
            raise ValueError("self-loops are not allowed")
        adj[u, v] = adj[v, u] = True
    return SimpleGraph(adj, group=group)


def power_graph(table: GroupTable) -> SimpleGraph:
    """x ~ y when one is a positive power of the other."""
    member = table._membership  # member[x, y]: y in {x, x^2, ...}
    adj = member | member.T
    np.fill_diagonal(adj, False)
    return SimpleGraph(adj, group=table)


def enhanced_power_graph(table: GroupTable) -> SimpleGraph:
    """x ~ y when both lie in a common cyclic subgroup.

    Membership in a common *maximal* cyclic subgroup is equivalent.  The
    maximal subgroups of one size are written as cliques in one scatter.
    """
    n = table.order
    rows = _maximal_cyclic_rows(table)
    sizes = rows.sum(axis=1)
    adj = np.zeros((n, n), dtype=bool)
    for size in np.unique(sizes):
        idx = np.nonzero(rows[sizes == size])[1].reshape(-1, size)
        adj[idx[:, :, None], idx[:, None, :]] = True
    np.fill_diagonal(adj, False)
    return SimpleGraph(adj, group=table)


def commuting_graph(table: GroupTable) -> SimpleGraph:
    """x ~ y when xy = yx."""
    p = table.product
    adj = np.equal(p, p.T)
    np.fill_diagonal(adj, False)
    return SimpleGraph(adj, group=table)


def super_graph(base: SimpleGraph, classes: Partition, class_cliques: bool = True) -> SimpleGraph:
    """Lift ``base`` along the partition: [g] ~ [h] when an edge joins them.

    With ``class_cliques`` every block induces a clique; without it a block
    induces a clique exactly when it contains an internal edge of ``base``.
    ``base`` is a spanning subgraph of the result either way.
    """
    n = base.vertex_count
    if classes.size != n:
        raise DimensionMismatch(
            f"graph has {n} vertices but the partition covers {classes.size}"
        )
    if classes.block_count == n:
        return base  # all blocks singletons: the lift changes nothing
    # sorted by block, each block is a run of packed rows; OR-reducing the
    # runs gives the k x n block rows, and the same over their columns the
    # k x k block adjacency: some member of b is adjacent to some member of c
    order = np.argsort(classes.block_of, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(classes.block_of))[:-1]))
    rows = np.bitwise_or.reduceat(np.packbits(base.adjacency, axis=1)[order], starts, axis=0)
    cols = np.packbits(np.unpackbits(rows, axis=1, count=n).T, axis=1)
    cols = np.bitwise_or.reduceat(cols[order], starts, axis=0)
    block_adj = np.unpackbits(cols, axis=1, count=classes.block_count).astype(bool)
    if class_cliques:
        np.fill_diagonal(block_adj, True)
    adj = block_adj[:, classes.block_of][classes.block_of]
    np.fill_diagonal(adj, False)
    return SimpleGraph(adj, group=base.group)


_BASE_BUILDERS = {
    "power": power_graph,
    "enhanced": enhanced_power_graph,
    "commuting": commuting_graph,
}


def relation_partition(table: GroupTable, relation: str) -> Partition:
    if relation == "equality":
        return equality_partition(table.order)
    if relation == "conjugacy":
        return conjugacy_classes(table)
    if relation == "order":
        return order_partition(table)
    raise ValueError(f"unknown relation {relation!r}; expected one of {RELATIONS}")


def named_super_graph(
    table: GroupTable, base: str, relation: str, class_cliques: bool = True
) -> SimpleGraph:
    """One of the nine lifts of {power, enhanced, commuting} along
    {equality, conjugacy, order}.  (enhanced, conjugacy) and
    (commuting, conjugacy) are the two structures with closed-form spectra."""
    if base not in _BASE_BUILDERS:
        raise ValueError(f"unknown base graph {base!r}; expected one of {BASES}")
    return super_graph(_BASE_BUILDERS[base](table), relation_partition(table, relation), class_cliques)


@dataclass(frozen=True, eq=False)
class HierarchyReport:
    """Spanning-subgraph containment among the nine named lifts."""

    names: tuple[tuple[str, str], ...]
    contains: np.ndarray  # contains[i, j]: graph i is a spanning subgraph of graph j
    hierarchy_holds: bool

    def __post_init__(self):
        self.contains.setflags(write=False)

    def index(self, base: str, relation: str) -> int:
        return self.names.index((base, relation))


def hierarchy_report(table: GroupTable) -> HierarchyReport:
    """Containment matrix over the nine lifts, plus the expected-chain flag.

    ``hierarchy_holds`` records that power <= enhanced <= commuting for every
    relation and that equality <= conjugacy <= order for every base.
    """
    names = tuple((b, r) for b in BASES for r in RELATIONS)
    built = [named_super_graph(table, b, r) for b, r in names]
    m = len(names)
    contains = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(m):
            contains[i, j] = built[i].is_spanning_subgraph_of(built[j])

    def at(b, r):
        return names.index((b, r))

    holds = True
    for r in RELATIONS:
        holds &= bool(contains[at("power", r), at("enhanced", r)])
        holds &= bool(contains[at("enhanced", r), at("commuting", r)])
    for b in BASES:
        holds &= bool(contains[at(b, "equality"), at(b, "conjugacy")])
        holds &= bool(contains[at(b, "conjugacy"), at(b, "order")])
    return HierarchyReport(names=names, contains=contains, hierarchy_holds=holds)
