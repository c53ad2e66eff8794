import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superspectra import (
    CSCOM,
    CSEP,
    CYCLIC,
    DIHEDRAL,
    QUATERNION,
    SEMIDIHEDRAL,
    ArityMismatch,
    BASE_FOR_KIND,
    CompositionSpec,
    ParameterOutOfRange,
    UnsupportedCombination,
    build_group,
    complete,
    compose,
    graph_from_edges,
    join,
    named_super_graph,
    structural_graph,
    union,
)

from oracles import component_count, compose_pairwise, structural_graph_by_composition

STRUCTURAL_SWEEP = (
    [(CSEP, DIHEDRAL, n) for n in range(3, 13)]
    + [(CSEP, QUATERNION, n) for n in range(2, 10)]
    + [(CSEP, SEMIDIHEDRAL, n) for n in range(2, 8)]
    + [(CSCOM, SEMIDIHEDRAL, n) for n in range(2, 8)]
)
# the four structural builds of the order-2000 build benchmark
ORDER_2000 = [(CSEP, DIHEDRAL, 1000), (CSEP, QUATERNION, 500), (CSEP, SEMIDIHEDRAL, 250),
              (CSCOM, SEMIDIHEDRAL, 250)]


class TestAlgebra:
    def test_complete(self):
        assert complete(1).edge_count == 0
        assert complete(4).edge_count == 6
        with pytest.raises(ValueError):
            complete(0)

    def test_join_k1_k3_is_k4(self):
        assert join(complete(1), complete(3)) == complete(4)

    def test_union_counts(self):
        g = union(complete(2), complete(3))
        assert g.vertex_count == 5
        assert g.edge_count == 4
        assert component_count(g.adjacency) == 2

    def test_join_star_of_two_edges(self):
        g = join(complete(1), union(complete(2), complete(2)))
        assert g.vertex_count == 5
        # enumerate: 4 cross edges from the apex plus one edge inside each part
        assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]
        assert g.edge_count == 6

    def test_join_makes_apex_universal(self):
        inner = union(complete(3), complete(2))
        g = join(complete(1), inner)
        assert g.edge_count == inner.edge_count + inner.vertex_count
        assert g.degrees()[0] == inner.vertex_count


class TestCompose:
    def test_k2_of_k2s_is_k4(self):
        spec = CompositionSpec(outer=complete(2), parts=(complete(2), complete(2)))
        assert compose(spec) == complete(4)

    def test_disconnected_outer(self):
        outer = union(complete(1), complete(1))
        spec = CompositionSpec(outer=outer, parts=(complete(2), complete(3)))
        assert compose(spec) == union(complete(2), complete(3))

    def test_star_of_cliques(self):
        outer = join(complete(1), union(complete(1), complete(1)))
        spec = CompositionSpec(outer=outer, parts=(complete(1), complete(2), complete(2)))
        got = compose(spec)
        expected = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
        assert got == expected and got.adjacency.flags.c_contiguous

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            compose(CompositionSpec(outer=complete(2), parts=(complete(2),)))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_arbitrary_parts_against_definition(self, data):
        k = data.draw(st.integers(min_value=1, max_value=3))
        outer_edges = data.draw(
            st.sets(
                st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(lambda e: e[0] < e[1]),
                max_size=3,
            )
        )
        outer = graph_from_edges(k, outer_edges)
        parts = []
        for _ in range(k):
            size = data.draw(st.integers(min_value=1, max_value=3))
            edges = data.draw(
                st.sets(
                    st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(
                        lambda e: e[0] < e[1]
                    ),
                    max_size=3,
                )
            )
            parts.append(graph_from_edges(size, edges))
        got = compose(CompositionSpec(outer=outer, parts=tuple(parts)))
        offsets = np.concatenate([[0], np.cumsum([p.vertex_count for p in parts])])

        def origin(v):
            i = int(np.searchsorted(offsets, v, side="right")) - 1
            return i, v - offsets[i]

        for u in range(got.vertex_count):
            for v in range(got.vertex_count):
                if u == v:
                    continue
                i, up = origin(u)
                j, vp = origin(v)
                expected = parts[i].has_edge(up, vp) if i == j else outer.has_edge(i, j)
                assert got.has_edge(u, v) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_pair_loop_oracle(self, data):
        def random_graph(n):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
            return graph_from_edges(n, [e for e, k in zip(pairs, keep) if k])

        k = data.draw(st.integers(min_value=1, max_value=8))
        outer = random_graph(k)
        parts = tuple(random_graph(data.draw(st.integers(min_value=1, max_value=5))) for _ in range(k))
        spec = CompositionSpec(outer=outer, parts=parts)
        assert np.array_equal(compose(spec).adjacency, compose_pairwise(spec).adjacency)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_degree_law(self, data):
        k = data.draw(st.integers(min_value=1, max_value=4))
        outer_edges = data.draw(
            st.sets(
                st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(lambda e: e[0] < e[1]),
                max_size=6,
            )
        )
        outer = graph_from_edges(k, outer_edges)
        sizes = [data.draw(st.integers(min_value=1, max_value=3)) for _ in range(k)]
        parts = tuple(complete(s) for s in sizes)
        g = compose(CompositionSpec(outer=outer, parts=parts))
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        degrees = g.degrees()
        for i in range(k):
            boost = sum(sizes[j] for j in range(k) if outer.adjacency[i, j])
            for v in range(offsets[i], offsets[i + 1]):
                assert degrees[v] == (sizes[i] - 1) + boost
        assert g.vertex_count == sum(sizes)


class TestStructuralGraph:
    def test_unsupported_combinations(self):
        for family in (DIHEDRAL, QUATERNION, CYCLIC):
            with pytest.raises(UnsupportedCombination):
                structural_graph(CSCOM, family, 3)
        with pytest.raises(UnsupportedCombination):
            structural_graph(CSEP, CYCLIC, 3)
        with pytest.raises(UnsupportedCombination):
            structural_graph("nonsense", DIHEDRAL, 3)

    def test_out_of_range(self):
        with pytest.raises(ParameterOutOfRange):
            structural_graph(CSEP, DIHEDRAL, 2)

    def test_csep_q8_explicit_shape(self):
        g = structural_graph(CSEP, QUATERNION, 2)
        assert g.vertex_count == 8
        degrees = g.degrees()
        assert degrees[0] == 7 and degrees[2] == 7
        assert sorted(degrees) == [3, 3, 3, 3, 3, 3, 7, 7]

    def test_cscom_sd24_block_sizes(self):
        g = structural_graph(CSCOM, SEMIDIHEDRAL, 3)
        assert g.vertex_count == 24
        degrees = sorted(g.degrees().tolist())
        # 4 universal centrals, 8 rotations seeing 8+3 others, 12 reflections seeing 12+3
        assert degrees == [11] * 8 + [15] * 12 + [23] * 4

    @pytest.mark.parametrize("kind,family,n", STRUCTURAL_SWEEP + ORDER_2000)
    def test_matches_composition_then_relabelling(self, kind, family, n):
        # one gather at each canonical vertex's part gives the very array
        # the composition and its relabelling gave
        adj = structural_graph(kind, family, n).adjacency
        expected = structural_graph_by_composition(kind, family, n)
        assert adj.flags.c_contiguous
        assert adj.dtype == expected.dtype and adj.strides == expected.strides
        assert np.array_equal(adj, expected)

    @pytest.mark.parametrize("kind,family,n", ORDER_2000)
    def test_memory_peak(self, kind, family, n):
        # one N x N array and the N x k gather it is taken from; the
        # composition and its relabelling peaked at 3.15 N^2
        tracemalloc.start()
        try:
            structural_graph(kind, family, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2000**2, peak / 2000**2

    @pytest.mark.parametrize("kind,family,n", STRUCTURAL_SWEEP)
    def test_matches_group_theoretic_build(self, kind, family, n):
        table = build_group(family, n)
        built = named_super_graph(table, BASE_FOR_KIND[kind], "conjugacy")
        assert structural_graph(kind, family, n) == built
