import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superspectra import (
    BASES,
    CYCLIC,
    DIHEDRAL,
    QUATERNION,
    RELATIONS,
    SEMIDIHEDRAL,
    DimensionMismatch,
    Partition,
    SimpleGraph,
    build_group,
    commuting_graph,
    conjugacy_classes,
    enhanced_power_graph,
    equality_partition,
    graph_from_edges,
    hierarchy_report,
    named_super_graph,
    order_partition,
    power_graph,
    relation_partition,
    super_graph,
)
from superspectra.graphs import _SYMMETRY_ROWS, _is_symmetric

from conftest import ORACLE_SWEEP
from oracles import (
    brute_force_power_edges,
    brute_force_super,
    conjugacy_classes_by_least_conjugate,
    conjugacy_classes_by_orbits,
    cyclic_subgroup_by_powers,
    enhanced_by_common_cyclic,
    exact_float_dtype,
    super_graph_by_product,
)

GROUP_SWEEP = (
    [(DIHEDRAL, n) for n in range(3, 9)]
    + [(QUATERNION, n) for n in range(2, 6)]
    + [(SEMIDIHEDRAL, n) for n in (2, 3, 4)]
    + [(CYCLIC, n) for n in (1, 2, 5, 8)]
)


_BASE_GRAPHS = {"power": power_graph, "enhanced": enhanced_power_graph, "commuting": commuting_graph}


def refl(table, i):
    return table.rotation_count + i


class TestSimpleGraph:
    def test_rejects_asymmetry_and_loops(self):
        with pytest.raises(ValueError):
            SimpleGraph(np.array([[0, 1], [0, 0]], dtype=bool))
        with pytest.raises(ValueError):
            SimpleGraph(np.eye(2, dtype=bool))

    @pytest.mark.parametrize("dtype", [bool, np.int64])
    def test_symmetry_is_tested_in_row_blocks(self, dtype):
        # n leaves a partial last block; one-sided entries inside it, across
        # blocks below the diagonal and above it are all refused
        n = 2 * _SYMMETRY_ROWS + 5
        for u, v in ((n - 1, n - 3), (n - 1, 0), (0, n - 1), (_SYMMETRY_ROWS, 1)):
            a = np.zeros((n, n), dtype=dtype)
            a[u, v] = 1
            assert not _is_symmetric(a)
            a[v, u] = 1
            assert _is_symmetric(a)
        a = np.zeros((n, n), dtype=bool)
        a[n - 1, n - 3] = True
        with pytest.raises(ValueError, match="symmetric"):
            SimpleGraph(a)

    def test_validation_memory_peak(self):
        # blocks of rows against their columns, where np.array_equal(a, a.T)
        # made an N x N temporary (a 1.00 N^2 peak at order 2000)
        n = 2000
        a = np.random.default_rng(5).random((n, n)) < 0.5
        a = np.triu(a, 1)
        a |= a.T
        tracemalloc.start()
        try:
            SimpleGraph(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= n * n // 10, peak / n**2

    def test_edges_and_equality(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        assert g.edges() == [(0, 1), (1, 2)]
        assert g == graph_from_edges(3, [(1, 2), (0, 1)])
        assert g != graph_from_edges(3, [(0, 1)])

    def test_adjacency_is_immutable(self):
        g = graph_from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = False


class TestPowerGraph:
    def test_cyclic_is_complete(self):
        z4 = build_group(CYCLIC, 4)
        assert power_graph(z4).edge_count == 6

    def test_dihedral_six_edges(self):
        d6 = build_group(DIHEDRAL, 3)
        g = power_graph(d6)
        assert g.edge_count == 6
        assert set(g.edges()) == brute_force_power_edges(d6)
        assert all(g.has_edge(0, v) for v in range(1, 6))  # identity universal

    def test_trivial_group(self):
        z1 = build_group(CYCLIC, 1)
        assert power_graph(z1).edge_count == 0

    @pytest.mark.parametrize("family,n", GROUP_SWEEP)
    def test_against_definition(self, family, n):
        table = build_group(family, n)
        assert set(power_graph(table).edges()) == brute_force_power_edges(table)


class TestEnhancedPowerGraph:
    def test_coincides_with_power_graph_on_d6(self):
        d6 = build_group(DIHEDRAL, 3)
        assert enhanced_power_graph(d6) == power_graph(d6)

    def test_cyclic_is_complete(self):
        z5 = build_group(CYCLIC, 5)
        assert enhanced_power_graph(z5).edge_count == 10

    def test_quaternion_structure(self):
        q8 = build_group(QUATERNION, 2)
        g = enhanced_power_graph(q8)
        degrees = g.degrees()
        assert degrees[0] == 7 and degrees[2] == 7  # e and a^2 universal
        for sub in ({0, 1, 2, 3}, {0, 2, 4, 6}, {0, 2, 5, 7}):
            members = sorted(sub)
            assert all(g.has_edge(u, v) for u in members for v in members if u != v)

    @pytest.mark.parametrize("family,n", GROUP_SWEEP)
    def test_against_common_cyclic_definition(self, family, n):
        table = build_group(family, n)
        assert np.array_equal(
            enhanced_power_graph(table).adjacency, enhanced_by_common_cyclic(table)
        )


@pytest.mark.parametrize("family,n", ORACLE_SWEEP)
def test_base_graphs_match_per_element_oracles(family, n):
    table = build_group(family, n)
    power = np.zeros((table.order, table.order), dtype=bool)
    for x in range(table.order):
        power[x, list(cyclic_subgroup_by_powers(table, x))] = True
    power |= power.T
    np.fill_diagonal(power, False)
    assert np.array_equal(power_graph(table).adjacency, power)
    if table.order <= 64:  # the direct search is cubic in the order
        assert set(power_graph(table).edges()) == brute_force_power_edges(table)
    assert np.array_equal(enhanced_power_graph(table).adjacency, enhanced_by_common_cyclic(table))


class TestCommutingGraph:
    def test_abelian_is_complete(self):
        z6 = build_group(CYCLIC, 6)
        assert commuting_graph(z6).edge_count == 15

    def test_dihedral_odd(self):
        d6 = build_group(DIHEDRAL, 3)
        g = commuting_graph(d6)
        assert g.has_edge(1, 2)
        assert not any(
            g.has_edge(refl(d6, i), refl(d6, j)) for i in range(3) for j in range(3) if i != j
        )
        assert all(g.has_edge(0, v) for v in range(1, 6))

    def test_semidihedral_center_universal(self):
        sd16 = build_group(SEMIDIHEDRAL, 2)
        g = commuting_graph(sd16)
        for z in (0, 4):  # e, a^{2n}
            assert all(g.has_edge(z, v) for v in range(16) if v != z)

    @pytest.mark.parametrize("family,n", GROUP_SWEEP)
    def test_matches_table(self, family, n):
        table = build_group(family, n)
        g = commuting_graph(table)
        for x in range(table.order):
            for y in range(table.order):
                expected = x != y and table.mul(x, y) == table.mul(y, x)
                assert g.has_edge(x, y) == expected


class TestSuperGraph:
    def test_equality_partition_is_identity(self):
        d6 = build_group(DIHEDRAL, 3)
        base = enhanced_power_graph(d6)
        for flag in (True, False):
            assert super_graph(base, equality_partition(6), flag) == base

    def test_conjugacy_lift_of_d6(self):
        d6 = build_group(DIHEDRAL, 3)
        base = enhanced_power_graph(d6)
        lifted = super_graph(base, conjugacy_classes(d6), class_cliques=True)
        assert lifted.edge_count == 9
        literal = super_graph(base, conjugacy_classes(d6), class_cliques=False)
        assert literal.edge_count == 6

    def test_dimension_mismatch(self):
        g = graph_from_edges(3, [(0, 1)])
        with pytest.raises(DimensionMismatch):
            super_graph(g, equality_partition(4))

    @pytest.mark.parametrize("family,n", GROUP_SWEEP)
    @pytest.mark.parametrize("relation", ["conjugacy", "order"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_against_existential_definition(self, family, n, relation, flag):
        table = build_group(family, n)
        base = enhanced_power_graph(table)
        part = relation_partition(table, relation)
        got = super_graph(base, part, flag)
        assert np.array_equal(got.adjacency, brute_force_super(base.adjacency, part.block_of, flag))

    @pytest.mark.parametrize("family,n", GROUP_SWEEP)
    def test_lift_invariants(self, family, n):
        table = build_group(family, n)
        base = commuting_graph(table)
        part = conjugacy_classes(table)
        for flag in (True, False):
            lifted = super_graph(base, part, flag)
            assert lifted.adjacency.flags.c_contiguous
            assert base.is_spanning_subgraph_of(lifted)
            # idempotence
            assert super_graph(lifted, part, flag) == lifted
            # class-wise constant adjacency across distinct blocks
            for gi in range(table.order):
                for hi in range(table.order):
                    if lifted.has_edge(gi, hi) and part.block_of[gi] != part.block_of[hi]:
                        assert all(
                            lifted.has_edge(u, v)
                            for u in part.block(gi)
                            for v in part.block(hi)
                        )
            for block in part.blocks:
                has_internal = any(base.has_edge(u, v) for u in block for v in block if u != v)
                expect_clique = flag or has_internal
                if len(block) > 1:
                    got_clique = all(
                        lifted.has_edge(u, v) for u in block for v in block if u != v
                    )
                    assert got_clique == expect_clique

    def test_monotone_in_base_and_relation(self):
        for family, n in [(DIHEDRAL, 4), (QUATERNION, 3), (SEMIDIHEDRAL, 2)]:
            table = build_group(family, n)
            conj = conjugacy_classes(table)
            order = order_partition(table)
            p = power_graph(table)
            pe = enhanced_power_graph(table)
            com = commuting_graph(table)
            for flag in (True, False):
                # more base edges -> more lifted edges
                assert super_graph(p, conj, flag).is_spanning_subgraph_of(super_graph(pe, conj, flag))
                assert super_graph(pe, conj, flag).is_spanning_subgraph_of(super_graph(com, conj, flag))
                # coarser partition (order) -> more lifted edges
                assert super_graph(pe, conj, flag).is_spanning_subgraph_of(super_graph(pe, order, flag))


class TestNamedSuperGraph:
    def test_enhanced_equality_is_enhanced(self):
        d6 = build_group(DIHEDRAL, 3)
        assert named_super_graph(d6, "enhanced", "equality") == enhanced_power_graph(d6)

    def test_cscom_sd16_neighbourhoods(self):
        sd16 = build_group(SEMIDIHEDRAL, 2)
        g = named_super_graph(sd16, "commuting", "conjugacy")
        ab = refl(sd16, 1)
        neighbours = set(np.flatnonzero(g.adjacency[ab]))
        odd_reflections = {refl(sd16, i) for i in range(1, 8, 2)}
        assert neighbours == {0, 4} | (odd_reflections - {ab})

    def test_csep_q8_structure(self):
        q8 = build_group(QUATERNION, 2)
        g = named_super_graph(q8, "enhanced", "conjugacy")
        assert g.degrees()[0] == 7 and g.degrees()[2] == 7
        for pair in ((1, 3), (4, 6), (5, 7)):
            assert g.has_edge(*pair)
        assert not g.has_edge(4, 5)  # the two reflection classes stay apart
        assert g.edge_count == 16

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_csep_semidihedral_odd_neighbourhoods(self, n):
        """The odd case itemizes six closed-neighbourhood shapes; the built
        graph must reproduce each one."""
        table = build_group(SEMIDIHEDRAL, n)
        g = named_super_graph(table, "enhanced", "conjugacy")
        k = 4 * n

        def closed(v):
            return set(np.flatnonzero(g.adjacency[v])) | {v}

        everything = set(range(8 * n))
        rotations = set(range(k))
        odd_refl = {k + i for i in range(1, k, 2)}
        mod0_refl = {k + i for i in range(0, k, 4)}
        mod2_refl = {k + i for i in range(2, k, 4)}
        assert closed(0) == everything
        assert closed(2 * n) == rotations | odd_refl
        for i in (1, n, 2 * n + 1, 3 * n):  # includes the central a^n, a^3n
            assert closed(i) == rotations
        for v in odd_refl:
            assert closed(v) == {0, 2 * n} | odd_refl
        for v in mod0_refl:
            assert closed(v) == {0} | mod0_refl
        for v in mod2_refl:
            assert closed(v) == {0} | mod2_refl

    @pytest.mark.parametrize("family,n", GROUP_SWEEP)
    def test_identity_universal_in_all_nine(self, family, n):
        table = build_group(family, n)
        if table.order == 1:
            pytest.skip("no neighbours in the trivial group")
        for base in BASES:
            for relation in RELATIONS:
                g = named_super_graph(table, base, relation)
                assert g.degrees()[table.identity] == table.order - 1


class TestHierarchy:
    def test_d6_chain(self):
        report = hierarchy_report(build_group(DIHEDRAL, 3))
        assert report.hierarchy_holds
        i, j = report.index("power", "equality"), report.index("commuting", "equality")
        assert report.contains[i, j]

    def test_abelian_all_nine_complete(self):
        z5 = build_group(CYCLIC, 5)
        report = hierarchy_report(z5)
        assert report.contains.all()

    def test_csep_inside_cscom_sd16(self):
        sd16 = build_group(SEMIDIHEDRAL, 2)
        csep = named_super_graph(sd16, "enhanced", "conjugacy")
        cscom = named_super_graph(sd16, "commuting", "conjugacy")
        assert csep.is_spanning_subgraph_of(cscom)

    @pytest.mark.parametrize("family,n", GROUP_SWEEP)
    def test_hierarchy_holds_everywhere(self, family, n):
        assert hierarchy_report(build_group(family, n)).hierarchy_holds


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(
        [(DIHEDRAL, n) for n in range(3, 7)]
        + [(QUATERNION, 2), (QUATERNION, 3), (SEMIDIHEDRAL, 2), (CYCLIC, 6)]
    ),
    st.sampled_from(BASES),
    st.sampled_from(RELATIONS),
    st.booleans(),
)
def test_lift_matches_existential_definition(family_n, base, relation, flag):
    family, n = family_n
    table = build_group(family, n)
    graph = named_super_graph(table, base, relation, class_cliques=flag)
    base_graph = _BASE_GRAPHS[base](table)
    part = relation_partition(table, relation)
    assert np.array_equal(
        graph.adjacency, brute_force_super(base_graph.adjacency, part.block_of, flag)
    )


def int64_lift(adjacency, block_of, class_cliques):
    """The lift's block product in exact int64 arithmetic."""
    n = adjacency.shape[0]
    member = np.zeros((int(block_of.max()) + 1, n), dtype=np.int64)
    member[block_of, np.arange(n)] = 1
    block_adj = member @ adjacency.astype(np.int64) @ member.T > 0
    if class_cliques:
        np.fill_diagonal(block_adj, True)
    adj = block_adj[block_of][:, block_of]
    np.fill_diagonal(adj, False)
    return adj


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.data(), st.booleans())
def test_lift_matches_int64_product_and_definition(n, data, flag):
    pairs = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    adj = np.triu(np.array(pairs, dtype=bool).reshape(n, n), 1)
    adj = adj | adj.T
    labels = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n))
    firsts = list(dict.fromkeys(labels))  # blocks ordered by least member
    block_of = np.array([firsts.index(x) for x in labels], dtype=np.int64)
    blocks = tuple(tuple(int(g) for g in np.flatnonzero(block_of == b)) for b in range(len(firsts)))
    lifted = super_graph(SimpleGraph(adj), Partition(block_of=block_of, blocks=blocks), flag)
    assert np.array_equal(lifted.adjacency, int64_lift(adj, block_of, flag))
    assert np.array_equal(lifted.adjacency, brute_force_super(adj, block_of, flag))


def test_exact_float_dtype_edges():
    assert exact_float_dtype(2**24 - 1) is np.float32
    assert exact_float_dtype(2**24) is np.float64
    assert exact_float_dtype(2**53 - 1) is np.float64
    with pytest.raises(AssertionError):
        exact_float_dtype(2**53)
    # the product lift of an order-2000 group counts at most 2000**2 edges
    # per block pair
    assert exact_float_dtype(2000 * 2000) is np.float32


@pytest.mark.parametrize("family,n", ORACLE_SWEEP)
def test_lift_matches_product_oracle(family, n):
    table = build_group(family, n)
    for base in BASES:
        graph = _BASE_GRAPHS[base](table)
        for relation in ("conjugacy", "order"):
            part = relation_partition(table, relation)
            for flag in (True, False):
                got = super_graph(graph, part, flag).adjacency
                expected = super_graph_by_product(graph, part, flag).adjacency
                assert np.array_equal(got, expected), (base, relation, flag)


# the four lifts of the order-2000 build benchmark, and their order-1000 kin
BUILD_LIFTS = (("enhanced", DIHEDRAL, 2), ("enhanced", QUATERNION, 4),
               ("enhanced", SEMIDIHEDRAL, 8), ("commuting", SEMIDIHEDRAL, 8))


@pytest.mark.parametrize("base,family,divisor", BUILD_LIFTS)
def test_order_2000_classes_and_lift_match_oracles(base, family, divisor):
    table = build_group(family, 2000 // divisor)
    classes = conjugacy_classes(table)
    for oracle in (conjugacy_classes_by_orbits, conjugacy_classes_by_least_conjugate):
        expected = oracle(table)
        assert classes.blocks == expected.blocks
        assert np.array_equal(classes.block_of, expected.block_of)
    graph = _BASE_GRAPHS[base](table)
    for flag in (True, False):
        assert np.array_equal(
            super_graph(graph, classes, flag).adjacency,
            super_graph_by_product(graph, classes, flag).adjacency,
        )


@pytest.mark.parametrize("order", [1000, 2000])
@pytest.mark.parametrize("base,family,divisor", BUILD_LIFTS)
def test_lift_memory_peak(base, family, divisor, order):
    # packed rows, the N x k gather and the N x N result; the product lift
    # peaked at 6 N^2, and the whole-matrix symmetry test of SimpleGraph
    # added 1 N^2
    table = build_group(family, order // divisor)
    graph = _BASE_GRAPHS[base](table)
    classes = conjugacy_classes(table)
    tracemalloc.start()
    try:
        lifted = super_graph(graph, classes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lifted.vertex_count == order
    assert peak <= 2 * order * order, peak / order**2


@pytest.mark.parametrize("base,family,divisor", BUILD_LIFTS)
def test_pipeline_memory_peak(base, family, divisor):
    # build -> classes -> base graph -> lift at order 2000, traced as one:
    # 2 N^2 for the uint16 product table, 1 N^2 for the membership table,
    # the base graph and the lift at 1 N^2 each, and the lift's transients.
    # Measured 5.42 N^2 for the enhanced-power lifts and 4.42 N^2 for the
    # commuting one, so the bound leaves 0.58 N^2 of headroom; with an
    # int64 product table the same pipeline peaked at 11.42 N^2
    order = 2000
    tracemalloc.start()
    try:
        table = build_group(family, order // divisor)
        classes = conjugacy_classes(table)
        lifted = super_graph(_BASE_GRAPHS[base](table), classes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lifted.vertex_count == order
    assert peak <= 6 * order * order, peak / order**2
