"""Graph algebra (complete graph, union, join, generalized composition) and
the closed-form structural builders for the two conjugacy lifts.

:func:`structural_graph` rebuilds each supported graph purely from its
join/union/composition expression, on the same canonical vertex indexing the
group tables use, so equality with the definition-built graph is plain
adjacency equality.  The builders derive class memberships from exponent
arithmetic alone; they take only the family names and bounds from
:mod:`groups` and never consult its tables or queries, which keeps the two
construction paths independent.

:func:`compose` builds H[G_1, .., G_k] as one gather of the outer adjacency
over the part index of every vertex, then writes the k diagonal part
blocks; there is no loop over pairs of parts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ArityMismatch, ParameterOutOfRange, UnsupportedCombination
from .graphs import SimpleGraph
from .groups import DIHEDRAL, QUATERNION, SEMIDIHEDRAL, _MIN_N

CSEP = "csep"  # conjugacy lift of the enhanced power graph
CSCOM = "cscom"  # conjugacy lift of the commuting graph
KINDS = (CSEP, CSCOM)

_SUPPORTED = {
    CSEP: (DIHEDRAL, QUATERNION, SEMIDIHEDRAL),
    CSCOM: (SEMIDIHEDRAL,),
}


def complete(n: int) -> SimpleGraph:
    """K_n."""
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return SimpleGraph(adj)


def union(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Disjoint union; vertices of g1 first."""
    n1, n2 = g1.vertex_count, g2.vertex_count
    adj = np.zeros((n1 + n2, n1 + n2), dtype=bool)
    adj[:n1, :n1] = g1.adjacency
    adj[n1:, n1:] = g2.adjacency
    return SimpleGraph(adj)


def join(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Disjoint union plus all cross edges."""
    n1 = g1.vertex_count
    g = union(g1, g2)
    adj = np.array(g.adjacency)
    adj[:n1, n1:] = True
    adj[n1:, :n1] = True
    return SimpleGraph(adj)


def _union_all(graphs) -> SimpleGraph:
    return reduce(union, graphs)


@dataclass(frozen=True)
class CompositionSpec:
    """H[G_1, .., G_k]: replace vertex i of the outer graph by part i."""

    outer: SimpleGraph
    parts: tuple[SimpleGraph, ...]

    @property
    def part_offsets(self) -> tuple[int, ...]:
        offsets = [0]
        for part in self.parts:
            offsets.append(offsets[-1] + part.vertex_count)
        return tuple(offsets)


def compose(spec: CompositionSpec) -> SimpleGraph:
    """Generalized composition: intra-part edges from the parts, complete
    joins between parts adjacent in the outer graph.

    Vertex v of the result lies in part ``part_of[v]``, so the cross-part
    edges are the outer adjacency gathered at (part_of, part_of); the outer
    graph has no loops, so the diagonal part blocks come out empty and take
    the parts' own adjacency.
    """
    k = spec.outer.vertex_count
    if len(spec.parts) != k:
        raise ArityMismatch(f"outer graph has {k} vertices but {len(spec.parts)} parts given")
    offsets = spec.part_offsets
    part_of = np.repeat(np.arange(k), np.diff(offsets))
    adj = spec.outer.adjacency[:, part_of][part_of]
    for i, part in enumerate(spec.parts):
        lo, hi = offsets[i], offsets[i + 1]
        adj[lo:hi, lo:hi] = part.adjacency
    return SimpleGraph(adj)


# ---------------------------------------------------------------------------
# canonical class layouts, from exponent arithmetic only


def _sd_rotation_classes(n: int) -> list[tuple[int, ...]]:
    """Conjugacy classes of the nontrivial rotations of the order-8n group,
    in least-exponent order.  a^i pairs with a^{4n-i} (i even) or a^{2n-i}
    (i odd); a^n and a^{3n} are self-paired exactly when n is odd."""
    k = 4 * n
    classes: list[tuple[int, ...]] = []
    for i in range(1, k):
        if i == 2 * n:
            continue
        j = (k - i) % k if i % 2 == 0 else (2 * n - i) % k
        if i < j:
            classes.append((i, j))
        elif i == j:
            classes.append((i,))
    return classes


def _structural_layout(kind: str, family: str, n: int):
    """Outer graph and part vertex-lists (canonical indices) for one case."""
    k1 = complete(1)
    odd = n % 2 == 1

    if kind == CSEP and family == DIHEDRAL:
        pairs = [(i, n - i) for i in range(1, (n + 1) // 2)]
        if odd:
            parts = [(0,), *pairs, tuple(range(n, 2 * n))]
            outer = join(k1, union(complete(len(pairs)), k1))
        else:
            odd_refl = tuple(n + i for i in range(1, n, 2))
            even_refl = tuple(n + i for i in range(0, n, 2))
            parts = [(0,), (n // 2,), *pairs, odd_refl, even_refl]
            outer = join(k1, _union_all([join(k1, complete(len(pairs))), k1, k1]))
        return outer, parts

    if kind == CSEP and family == QUATERNION:
        pairs = [(i, 2 * n - i) for i in range(1, n)]
        c1 = tuple(2 * n + i for i in range(1, 2 * n, 2))
        c2 = tuple(2 * n + i for i in range(0, 2 * n, 2))
        parts = [(0,), (n,), *pairs, c1, c2]
        inner = union(complete(len(pairs)), complete(2)) if odd else _union_all(
            [complete(len(pairs)), k1, k1]
        )
        return join(complete(2), inner), parts

    if family == SEMIDIHEDRAL:
        rot = _sd_rotation_classes(n)
        if kind == CSEP:
            if odd:
                odd_refl = tuple(4 * n + i for i in range(1, 4 * n, 2))
                c1 = tuple(4 * n + i for i in range(0, 4 * n, 4))
                c3 = tuple(4 * n + i for i in range(2, 4 * n, 4))
                parts = [(0,), (2 * n,), *rot, odd_refl, c1, c3]
                inner = _union_all([join(k1, union(complete(len(rot)), k1)), k1, k1])
            else:
                d1 = tuple(4 * n + i for i in range(1, 4 * n, 2))
                d2 = tuple(4 * n + i for i in range(0, 4 * n, 2))
                parts = [(0,), (2 * n,), *rot, d1, d2]
                inner = union(join(k1, union(complete(len(rot)), k1)), k1)
            return join(k1, inner), parts
        if kind == CSCOM:
            if odd:
                pairs = [c for c in rot if len(c) == 2]
                refl = [tuple(4 * n + i for i in range(j, 4 * n, 4)) for j in range(4)]
                parts = [(0,), (n,), (2 * n,), (3 * n,), *pairs, *refl]
                return join(complete(4), union(complete(len(pairs)), complete(4))), parts
            d1 = tuple(4 * n + i for i in range(1, 4 * n, 2))
            d2 = tuple(4 * n + i for i in range(0, 4 * n, 2))
            parts = [(0,), (2 * n,), *rot, d1, d2]
            return join(complete(2), _union_all([complete(len(rot)), k1, k1])), parts

    raise UnsupportedCombination(f"no structural expression for kind={kind!r}, family={family!r}")


def structural_graph(kind: str, family: str, n: int) -> SimpleGraph:
    """Build a supported graph from its structural expression alone.

    Every part of the expression is a clique, so the composition
    H[K_s1, .., K_sk] joins two distinct vertices exactly when their parts
    are equal or adjacent in H: it is the outer adjacency with its diagonal
    set, gathered at the part of each vertex, with the diagonal cleared.
    The gather runs directly over the canonical group indexing (identity
    and central parts first, rotation classes in exponent order, reflection
    classes in their conventional order), making the result directly
    comparable with the definition-built graph.
    """
    if kind not in KINDS:
        raise UnsupportedCombination(f"unknown kind {kind!r}; expected one of {KINDS}")
    if family not in _SUPPORTED.get(kind, ()):
        raise UnsupportedCombination(f"no structural expression for kind={kind!r}, family={family!r}")
    if n < _MIN_N[family]:
        raise ParameterOutOfRange(f"{family} needs n >= {_MIN_N[family]}, got {n}")
    outer, parts = _structural_layout(kind, family, n)
    vertices = np.fromiter(itertools.chain.from_iterable(parts), dtype=np.int64)
    part_of = np.empty_like(vertices)  # part of each canonical vertex
    part_of[vertices] = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    same_or_adjacent = outer.adjacency | np.eye(len(parts), dtype=bool)
    adj = same_or_adjacent[:, part_of][part_of]
    np.fill_diagonal(adj, False)
    return SimpleGraph(adj)
