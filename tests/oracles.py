"""Independent reference implementations used as test oracles.

Everything here is deliberately naive and kept separate from the library's
algorithms: cofactor expansion for characteristic polynomials, subset
enumeration for spanning trees, the literal existential definition for
super-graph lifts, Fraction-based and fraction-free (Bareiss) elimination
for rank, the spectrum read off kernel dimensions, schoolbook products of
integer polynomials, per-prime int64 and Bareiss elimination for
determinants, the Cayley table by rewriting words in the presentation,
the per-element group queries and pair-loop composition that
the library's whole-table versions replaced, the N x N cyclic-membership
table that its one power walk per cyclic subgroup replaced, the edge-counting product
lift and all-conjugators class scan that its boolean OR-reduction lift and
generator-orbit classes replaced, and the structural graph as a composition
of cliques relabelled afterwards, which its one-gather build replaced.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import comb

import numpy as np

from superspectra import (
    ArityMismatch,
    CompositionSpec,
    DimensionMismatch,
    IntegerPolynomial,
    NotIntegral,
    Partition,
    SimpleGraph,
    SpectrumMultiset,
    char_poly,
    complete,
    compose,
    element_order,
)
from superspectra.compose import _structural_layout


def naive_char_poly(matrix) -> tuple[int, ...]:
    """det(xI - M) by cofactor expansion, memoized on the column set.

    Polynomials are coefficient tuples (low to high) of exact ints.
    """
    m = [[int(x) for x in row] for row in np.asarray(matrix, dtype=object)]
    n = len(m)
    full = (1 << n) - 1
    memo: dict[int, tuple[int, ...]] = {0: (1,)}

    def poly_add(a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return tuple(out)

    def poly_scale(a, c):
        return tuple(x * c for x in a)

    def poly_shift_scale(a, c0):
        # a * (x + c0)
        out = [0] * (len(a) + 1)
        for i, x in enumerate(a):
            out[i + 1] += x
            out[i] += x * c0
        return tuple(out)

    def det(mask: int) -> tuple[int, ...]:
        if mask in memo:
            return memo[mask]
        row = n - bin(mask).count("1")
        acc: tuple[int, ...] = (0,)
        sign = 1
        rest = mask
        while rest:
            low = rest & -rest
            col = low.bit_length() - 1
            sub = det(mask ^ low)
            if col == row:
                term = poly_shift_scale(sub, -m[row][col])
            else:
                term = poly_scale(sub, -m[row][col])
            acc = poly_add(acc, term if sign == 1 else poly_scale(term, -1))
            sign = -sign
            rest ^= low
        memo[mask] = acc
        return acc

    result = det(full)
    return result + (0,) * (n + 1 - len(result))


def det_mod(m, p: int) -> int:
    """det m mod p by int64 Gaussian elimination over F_p, one column at a
    time, pivoting on the first nonzero entry; m holds residues in [0, p)
    and p < 2**31, so no product leaves int64."""
    a = np.array(m, dtype=np.int64)
    n = a.shape[0]
    det = 1
    for j in range(n):
        nz = np.flatnonzero(a[j:, j])
        if nz.size == 0:
            return 0
        piv = j + int(nz[0])
        if piv != j:
            a[[j, piv], :] = a[[piv, j], :]
            det = p - det
        pivot = int(a[j, j])
        det = (det * pivot) % p
        inv = pow(pivot, p - 2, p)
        mult = (a[j + 1 :, j] * inv) % p
        a[j + 1 :, j:] = (a[j + 1 :, j:] - mult[:, None] * a[j, j:]) % p
    return det


def bareiss_determinant(matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination over Python
    ints; every division is exact."""
    rows = [[int(x) for x in row] for row in np.asarray(matrix, dtype=object)]
    n = len(rows)
    sign, prev = 1, 1
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pivot_row = rows[col]
        pivot = pivot_row[col]
        for i in range(col + 1, n):
            row = rows[i]
            lead = row[col]
            for j in range(col + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
            row[col] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1] if n else 1


def spanning_trees_enumerated(adjacency) -> int:
    """Count (N-1)-edge acyclic edge subsets by exhaustive enumeration.

    The subsets are those of ``itertools.combinations`` over the edge list,
    grown one edge position at a time as numpy batches of prefixes, one
    batch per first edge.  Every vertex of a prefix carries a label; an edge
    whose ends share a label closes a cycle, and otherwise every vertex with
    the first end's label takes the second end's (union by relabel).  A
    prefix that closes a cycle is dropped with every subset extending it,
    as the loop version abandons a subset at its first cycle.
    """
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    if n == 1:
        return 1
    us, vs = np.nonzero(np.triu(adj, 1))
    m, r = us.size, n - 1
    count = 0
    for first in range(m - r + 1):
        label = np.arange(n)[None, :]
        label = np.where(label == us[first], vs[first], label)
        last = np.array([first])
        for j in range(1, r):
            # extend each prefix by every later edge that leaves room for the rest
            counts = (m - r + j) - last
            starts = np.cumsum(counts) - counts
            prefix = np.repeat(np.arange(last.size), counts)
            edge = np.repeat(last + 1 - starts, counts) + np.arange(prefix.size)
            label = label[prefix]
            rows = np.arange(prefix.size)
            lu = label[rows, us[edge]]
            lv = label[rows, vs[edge]]
            acyclic = lu != lv
            label, lu, lv, last = label[acyclic], lu[acyclic], lv[acyclic], edge[acyclic]
            np.copyto(label, lv[:, None], where=label == lu[:, None])
        count += last.size
    return count


def spanning_trees_enumerated_loop(adjacency) -> int:
    """Count (N-1)-edge acyclic edge subsets one subset at a time, with a
    path-halving union-find; the reference for the batched enumeration."""
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    if n == 1:
        return 1
    edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(adj, 1)))]
    count = 0
    for subset in combinations(edges, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        count += ok
    return count


def enumeration_cost(adjacency) -> int:
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    edges = int(adj.sum()) // 2
    return comb(edges, n - 1) if n > 1 else 1


def is_complete(adjacency) -> bool:
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    return int(adj.sum()) == n * (n - 1)


def complement_edges(adjacency) -> list[tuple[int, int]]:
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    return [(u, v) for u in range(n) for v in range(u + 1, n) if not adj[u, v]]


def spanning_trees_by_complement(adjacency) -> int:
    """Spanning trees of a dense graph by inclusion-exclusion over its
    missing edges: sum over acyclic subsets T of the complement of
    (-1)^|T| times the number of labelled trees containing the forest T
    (generalized Cayley: n^{c-2} times the product of component sizes).
    Purely combinatorial; exhaustive over 2^|missing| subsets.
    """
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    missing = complement_edges(adj)
    total = 0
    for mask in range(1 << len(missing)):
        parent = list(range(n))
        size = [1] * n

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        picked = 0
        m = mask
        idx = 0
        while m:
            if m & 1:
                u, v = missing[idx]
                ru, rv = find(u), find(v)
                if ru == rv:
                    acyclic = False
                    break
                parent[ru] = rv
                size[rv] += size[ru]
                picked += 1
            m >>= 1
            idx += 1
        if not acyclic:
            continue
        components = n - picked
        product = 1
        for x in range(n):
            if find(x) == x:
                product *= size[x]
        term = n**components * product
        total += -term if picked % 2 else term
    # the generalized Cayley count carries an n^{-2}; division is exact
    assert total % (n * n) == 0
    return total // (n * n)


def brute_force_super(adjacency, block_of, class_cliques: bool):
    """The lift computed straight from its existential definition."""
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    out = np.zeros_like(adj)
    for g in range(n):
        for h in range(n):
            if g == h:
                continue
            if class_cliques and block_of[g] == block_of[h]:
                out[g, h] = True
                continue
            members_g = [x for x in range(n) if block_of[x] == block_of[g]]
            members_h = [x for x in range(n) if block_of[x] == block_of[h]]
            out[g, h] = any(adj[x, y] for x in members_g for y in members_h)
    return out


def exact_float_dtype(bound: int) -> type:
    """Narrowest float type that holds every integer in [0, bound] exactly:
    float32 below 2**24, float64 below 2**53."""
    for dtype in (np.float32, np.float64):
        if bound < 2 ** (np.finfo(dtype).nmant + 1):
            return dtype
    raise AssertionError(f"integers up to {bound} exceed the exact range of float64")


def super_graph_by_product(base: SimpleGraph, classes: Partition, class_cliques: bool = True) -> SimpleGraph:
    """The lift from edge counts between blocks: member @ A @ member.T on
    float BLAS, exact because every partial sum is a whole number in
    [0, n*n]."""
    n = base.vertex_count
    if classes.size != n:
        raise DimensionMismatch(
            f"graph has {n} vertices but the partition covers {classes.size}"
        )
    if classes.block_count == n:
        return base
    dtype = exact_float_dtype(n * n)
    member = np.zeros((classes.block_count, n), dtype=dtype)
    member[classes.block_of, np.arange(n)] = 1
    counts = member @ base.adjacency.astype(dtype) @ member.T
    block_adj = counts > 0
    if class_cliques:
        np.fill_diagonal(block_adj, True)
    adj = block_adj[classes.block_of][:, classes.block_of]
    np.fill_diagonal(adj, False)
    return SimpleGraph(adj, group=base.group)


def brute_force_power_edges(table) -> set[tuple[int, int]]:
    """x ~ y when one is a positive power of the other, by direct search."""
    n = table.order
    edges = set()
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            cur = x
            for _ in range(n):
                cur = table.mul(cur, x)
                if cur == y:
                    edges.add((min(x, y), max(x, y)))
                    break
    return edges


def enhanced_by_common_cyclic(table):
    """x ~ y when {x, y} lies in <z> for some z, by direct search."""
    n = table.order
    members = []
    for z in range(n):
        sub = {table.identity}
        cur = z
        while cur != table.identity:
            sub.add(cur)
            cur = table.mul(cur, z)
        members.append(sub)
    adj = np.zeros((n, n), dtype=bool)
    for x in range(n):
        for y in range(x + 1, n):
            if any(x in sub and y in sub for sub in members):
                adj[x, y] = adj[y, x] = True
    return adj


def rational_nullity(matrix) -> int:
    """N minus the rank over Q, by Fraction Gaussian elimination."""
    m = [[Fraction(int(x)) for x in row] for row in np.asarray(matrix, dtype=object)]
    n = len(m)
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, n) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(n):
            if i != rank and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return n - rank


def bareiss_nullity(matrix) -> int:
    """Dimension of the rational kernel, by fraction-free (Bareiss)
    elimination over exact integers."""
    rows = [[int(x) for x in row] for row in np.asarray(matrix, dtype=object)]
    n = len(rows)
    rank = 0
    prev = 1
    for col in range(n):
        piv = next((i for i in range(rank, n) if rows[i][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank]
        pivot = pivot_row[col]
        for i in range(rank + 1, n):
            row = rows[i]
            lead = row[col]
            for j in range(col + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
            row[col] = 0
        prev = pivot
        rank += 1
    return n - rank


def spectrum_by_nullity(matrix) -> SpectrumMultiset:
    """Eigenvalue multiset of an integral-spectrum symmetric matrix with
    eigenvalues in 0..N, each multiplicity read from the rational kernel of
    M - tI on the full matrix (geometric equals algebraic multiplicity for
    symmetric matrices).  Raises :class:`NotIntegral` with the factor of the
    char poly the kernels leave when they do not exhaust the spectrum."""
    m = np.asarray(matrix, dtype=np.int64)
    n = m.shape[0]
    pairs = []
    total = 0
    eye = np.eye(n, dtype=np.int64)
    for t in range(n, -1, -1):
        mult = bareiss_nullity(m - t * eye)
        if mult:
            pairs.append((t, mult))
            total += mult
    if total != n:
        residual = char_poly(m)
        for value, multiplicity in pairs:
            for _ in range(multiplicity):
                residual, rem = residual.synthetic_division(value)
                if rem != 0:
                    raise AssertionError("kernel multiplicity exceeds root multiplicity")
        raise NotIntegral(residual=residual, partial=pairs)
    return SpectrumMultiset(tuple(pairs))


def poly_mul(a: IntegerPolynomial, b: IntegerPolynomial) -> IntegerPolynomial:
    """Schoolbook product of two integer polynomials."""
    if a.is_zero or b.is_zero:
        return IntegerPolynomial((0,))
    out = [0] * (a.degree + b.degree + 1)
    for i, x in enumerate(a.coefficients):
        for j, y in enumerate(b.coefficients):
            out[i + j] += x * y
    return IntegerPolynomial(tuple(out))


def poly_from_roots(pairs) -> IntegerPolynomial:
    """Monic product of (x - value)^multiplicity."""
    poly = IntegerPolynomial((1,))
    for value, multiplicity in pairs:
        for _ in range(multiplicity):
            poly = poly_mul(poly, IntegerPolynomial((-int(value), 1)))
    return poly


def leading_minors(matrix) -> list[int]:
    """Leading principal minors D_1, D_2, ... by fraction-free (Bareiss)
    elimination with no row swaps, whose k-th pivot is D_k; stops after
    the first D_k that is 0, past which no pivot is defined."""
    rows = [[int(x) for x in row] for row in np.asarray(matrix, dtype=object)]
    n = len(rows)
    minors, prev = [], 1
    for col in range(n):
        pivot = rows[col][col]
        minors.append(pivot)
        if pivot == 0:
            break
        for i in range(col + 1, n):
            row = rows[i]
            for j in range(col + 1, n):
                row[j] = (row[j] * pivot - row[col] * rows[col][j]) // prev
        prev = pivot
    return minors


def component_count(adjacency) -> int:
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    seen = [False] * n
    parts = 0
    for s in range(n):
        if seen[s]:
            continue
        parts += 1
        stack = [s]
        seen[s] = True
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(adj[u]):
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
    return parts


def random_simple_graph(rng, n: int, p: float):
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u, v] = adj[v, u] = True
    return adj


# ---------------------------------------------------------------------------
# per-element group queries and the pair-loop composition


def _partition_from_blocks(n: int, blocks: list[tuple[int, ...]]) -> Partition:
    block_of = np.empty(n, dtype=np.int64)
    for bid, block in enumerate(blocks):
        for g in block:
            block_of[g] = bid
    return Partition(block_of=block_of, blocks=tuple(blocks))


def product_table_by_words(family: str, n: int) -> np.ndarray:
    """The Cayley table on the canonical indexing (a^i b^e at i + e*k),
    from the presentation alone.  Each product of two normal forms is
    rewritten in Python ints, one pair at a time: b moves past a^j by
    b a b^-1 = a^t (t = -1, or 2n - 1 in the semidihedral group), b^2 becomes
    a^s (s = n in the quaternion group, else 0), and a^k = e."""
    k, t, s = {"cyclic": (n, 1, 0), "dihedral": (n, -1, 0),
               "quaternion": (2 * n, -1, n), "semidihedral": (4 * n, 2 * n - 1, 0)}[family]
    words = [(i, e) for e in range(1 if family == "cyclic" else 2) for i in range(k)]
    rows = []
    for i, e in words:
        row = []
        for j, f in words:
            # a^i b^e a^j b^f = a^(i + j t^e) b^(e + f)
            power, reflections = i + j * t**e, e + f
            if reflections == 2:
                power, reflections = power + s, 0
            row.append(power % k + reflections * k)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def conjugacy_classes_by_orbits(table) -> Partition:
    """Orbit partition of the conjugation action, by brute-force closure."""
    p = table.product
    inv = table.inverse
    n = table.order
    assigned = np.full(n, -1, dtype=np.int64)
    blocks: list[tuple[int, ...]] = []
    for x in range(n):
        if assigned[x] >= 0:
            continue
        orbit = np.unique(p[p[:, x], inv])  # g*x*g^-1 over all g
        assigned[orbit] = len(blocks)
        blocks.append(tuple(int(g) for g in orbit))
    return Partition(block_of=assigned, blocks=tuple(blocks))


def conjugacy_classes_by_least_conjugate(table, chunk: int = 128) -> Partition:
    """Each element labelled by its least conjugate, the minimum of
    g*x*g^-1 over all g, taken ``chunk`` rows of g at a time; sorting the
    labels orders the classes by least member."""
    p = table.product
    inv = table.inverse
    n = table.order
    least = np.arange(n)
    for lo in range(0, n, chunk):
        g = np.arange(lo, min(lo + chunk, n))
        np.minimum(least, p[p[g], inv[g, None]].min(axis=0), out=least)
    _, block_of = np.unique(least, return_inverse=True)
    blocks = [tuple(np.flatnonzero(block_of == b).tolist()) for b in range(block_of.max() + 1)]
    return _partition_from_blocks(n, blocks)


def order_partition_by_element_order(table) -> Partition:
    """Coarsest partition grouping elements of equal order."""
    orders = [element_order(table, g) for g in range(table.order)]
    by_order: dict[int, list[int]] = {}
    for g, k in enumerate(orders):
        by_order.setdefault(k, []).append(g)
    blocks = [tuple(by_order[k]) for k in sorted(by_order)]
    return _partition_from_blocks(table.order, blocks)


def cyclic_subgroup_by_powers(table, g: int) -> frozenset[int]:
    """<g>, by multiplying g into itself until the identity."""
    members = [table.identity]
    cur = g
    while cur != table.identity:
        members.append(cur)
        cur = int(table.product[cur, g])
    return frozenset(members)


def cyclic_subgroups_by_powers(table) -> frozenset[frozenset[int]]:
    """All subgroups <g>."""
    return frozenset(cyclic_subgroup_by_powers(table, g) for g in range(table.order))


def cyclic_membership(table) -> np.ndarray:
    """N x N bool matrix with ``member[g, x]`` set when x lies in <g>.

    Every generator advances at once, ``cur = product[cur, gens]``, and
    drops out once its power reaching the identity is recorded, so the loop
    runs as many times as the largest element order, on shrinking index
    arrays.  Row sums are the element orders.
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


def compose_pairwise(spec: CompositionSpec) -> SimpleGraph:
    """Generalized composition, joining each adjacent pair of parts in turn."""
    k = spec.outer.vertex_count
    if len(spec.parts) != k:
        raise ArityMismatch(f"outer graph has {k} vertices but {len(spec.parts)} parts given")
    offsets = spec.part_offsets
    n = offsets[-1]
    adj = np.zeros((n, n), dtype=bool)
    for i, part in enumerate(spec.parts):
        lo, hi = offsets[i], offsets[i + 1]
        adj[lo:hi, lo:hi] = part.adjacency
    for i in range(k):
        for j in range(i + 1, k):
            if spec.outer.adjacency[i, j]:
                adj[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = True
                adj[offsets[j]:offsets[j + 1], offsets[i]:offsets[i + 1]] = True
    return SimpleGraph(adj)


def structural_graph_by_composition(kind: str, family: str, n: int) -> np.ndarray:
    """Adjacency of the structural graph as the composition of its clique
    parts laid out consecutively, then relabelled onto the canonical
    indexing by a second N x N gather."""
    outer, parts = _structural_layout(kind, family, n)
    composed = compose(CompositionSpec(outer=outer, parts=tuple(complete(len(p)) for p in parts)))
    perm = np.fromiter(chain.from_iterable(parts), dtype=np.int64)
    position = np.empty_like(perm)  # composed vertex of each canonical index
    position[perm] = np.arange(perm.size)
    return composed.adjacency[:, position][position]
