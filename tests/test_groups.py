import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superspectra import (
    CYCLIC,
    DIHEDRAL,
    QUATERNION,
    SEMIDIHEDRAL,
    ParameterOutOfRange,
    Partition,
    build_group,
    center,
    conjugacy_classes,
    cyclic_subgroups,
    element_order,
    equality_partition,
    maximal_cyclic_subgroups,
    order_partition,
    verify_group_axioms,
)
from superspectra import enhanced_power_graph, groups, power_graph
from superspectra.groups import _TABLE_BUDGET_BYTES, _table_bytes

from conftest import ORACLE_SWEEP
from oracles import (
    brute_force_power_edges,
    conjugacy_classes_by_least_conjugate,
    conjugacy_classes_by_orbits,
    cyclic_membership,
    cyclic_subgroups_by_powers,
    enhanced_by_common_cyclic,
    order_partition_by_element_order,
    product_table_by_words,
)

SMALL_SWEEP = (
    [(DIHEDRAL, n) for n in range(3, 13)]
    + [(QUATERNION, n) for n in range(2, 9)]
    + [(SEMIDIHEDRAL, n) for n in range(2, 7)]
    + [(CYCLIC, n) for n in (1, 2, 3, 8, 12)]
)


def refl(table, i):
    return table.rotation_count + i


class TestBuildGroup:
    def test_dihedral_presentation_relations(self):
        d6 = build_group(DIHEDRAL, 3)
        assert d6.order == 6
        assert d6.power(1, 3) == 0  # a^3 = e
        assert d6.power(refl(d6, 0), 2) == 0  # b^2 = e
        # b * a = a^{-1} * b = a^2 * b
        assert d6.labels[d6.mul(refl(d6, 0), 1)] == "a^2*b"

    def test_trivial_cyclic_group(self):
        z1 = build_group(CYCLIC, 1)
        assert z1.order == 1
        assert z1.labels == ("e",)
        verify_group_axioms(z1)

    def test_semidihedral_twist_at_n2(self):
        sd16 = build_group(SEMIDIHEDRAL, 2)
        assert sd16.order == 16
        # b * a = a^{2n-1} * b = a^3 * b
        assert sd16.labels[sd16.mul(refl(sd16, 0), 1)] == "a^3*b"
        verify_group_axioms(sd16)

    def test_quaternion_presentation_relations(self):
        q8 = build_group(QUATERNION, 2)
        b = refl(q8, 0)
        assert q8.power(1, 2) == q8.power(b, 2)  # a^n = b^2
        assert q8.mul(b, 1) == q8.mul(q8.inv(1), b)  # ba = a^-1 b

    def test_canonical_labels(self):
        d8 = build_group(DIHEDRAL, 4)
        assert d8.labels == ("e", "a", "a^2", "a^3", "b", "a*b", "a^2*b", "a^3*b")

    @pytest.mark.parametrize(
        "family,n",
        [(DIHEDRAL, 2), (QUATERNION, 1), (SEMIDIHEDRAL, 1), (CYCLIC, 0), ("frobnicate", 3)],
    )
    def test_out_of_range(self, family, n):
        with pytest.raises(ParameterOutOfRange):
            build_group(family, n)

    @pytest.mark.parametrize("family,n", SMALL_SWEEP)
    def test_axioms_small_sweep(self, family, n):
        verify_group_axioms(build_group(family, n))

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "family,n",
        [(DIHEDRAL, 200), (QUATERNION, 100), (SEMIDIHEDRAL, 50), (CYCLIC, 400)],
    )
    def test_axioms_exhaustive_at_order_400(self, family, n):
        verify_group_axioms(build_group(family, n))

    @pytest.mark.parametrize(
        "family,n",
        # SD n >= 91 is where (2n - 1)(k - 1) passes 2^16, and i - j
        # underflows in D and Q at every n, so a uint16 build that reduced
        # either mod k only afterwards would wrap; D, Q and C also at their
        # largest n in ORACLE_SWEEP
        SMALL_SWEEP + [(SEMIDIHEDRAL, 91), (SEMIDIHEDRAL, 100), (DIHEDRAL, 80), (QUATERNION, 40),
                       (CYCLIC, 160)],
    )
    def test_table_matches_the_presentation(self, family, n):
        table = build_group(family, n)
        words = product_table_by_words(family, n)
        assert table.product.dtype == np.uint16
        assert np.array_equal(table.product, words)
        # the closed-form inverses: x y = e, the least entry of row x, at y
        assert np.array_equal(table.inverse, np.argmin(words, axis=1))
        verify_group_axioms(table)

    def test_tables_fill_their_dtype(self, monkeypatch):
        # a uint8 table holds orders up to 256, as uint16 holds 2^16: the
        # build computes no entry above N - 1, so each family fits at the
        # edge, and the next order is refused
        monkeypatch.setattr(groups, "_PRODUCT_DTYPE", np.uint8)
        for family, n in ((DIHEDRAL, 128), (QUATERNION, 64), (SEMIDIHEDRAL, 32), (CYCLIC, 256)):
            table = build_group(family, n)
            assert table.product.dtype == np.uint8
            assert np.array_equal(table.product, product_table_by_words(family, n))
            with pytest.raises(ParameterOutOfRange, match="uint8 product table holds orders up to 256"):
                build_group(family, n + 1)


class TestElementOrder:
    def test_reflection_has_order_two_in_semidihedral(self):
        sd16 = build_group(SEMIDIHEDRAL, 2)
        assert element_order(sd16, refl(sd16, 0)) == 2

    def test_identity_has_order_one(self):
        for family, n in [(DIHEDRAL, 5), (CYCLIC, 7)]:
            table = build_group(family, n)
            assert element_order(table, table.identity) == 1

    def test_quaternion_generator_order(self):
        q8 = build_group(QUATERNION, 2)
        assert element_order(q8, 1) == 4
        assert q8.power(1, 2) != 0

    @pytest.mark.parametrize("family,n", SMALL_SWEEP)
    def test_orders_divide_group_order(self, family, n):
        table = build_group(family, n)
        for g in range(table.order):
            assert table.order % element_order(table, g) == 0


class TestCenter:
    def test_quaternion_center(self):
        q8 = build_group(QUATERNION, 2)
        assert center(q8) == {0, 2}  # e, a^2 = a^n

    def test_cyclic_is_abelian(self):
        z6 = build_group(CYCLIC, 6)
        assert center(z6) == set(range(6))

    def test_semidihedral_odd_center(self):
        sd24 = build_group(SEMIDIHEDRAL, 3)
        assert center(sd24) == {0, 3, 6, 9}  # e, a^n, a^2n, a^3n

    @pytest.mark.parametrize("n", range(3, 16))
    def test_dihedral_center_size(self, n):
        assert len(center(build_group(DIHEDRAL, n))) == (2 if n % 2 == 0 else 1)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_quaternion_center_size(self, n):
        assert center(build_group(QUATERNION, n)) == {0, n}

    @pytest.mark.parametrize("n", range(2, 10))
    def test_semidihedral_center_size(self, n):
        expected = {0, 2 * n} if n % 2 == 0 else {0, n, 2 * n, 3 * n}
        assert center(build_group(SEMIDIHEDRAL, n)) == expected


class TestConjugacyClasses:
    def test_dihedral_odd_classes(self):
        d6 = build_group(DIHEDRAL, 3)
        assert conjugacy_classes(d6).blocks == ((0,), (1, 2), (3, 4, 5))

    def test_quaternion_classes(self):
        q8 = build_group(QUATERNION, 2)
        assert conjugacy_classes(q8).blocks == ((0,), (1, 3), (2,), (4, 6), (5, 7))

    def test_trivial_group_single_class(self):
        z1 = build_group(CYCLIC, 1)
        assert conjugacy_classes(z1).blocks == ((0,),)

    @pytest.mark.parametrize("n", range(3, 12))
    def test_dihedral_reflection_classes(self, n):
        table = build_group(DIHEDRAL, n)
        classes = conjugacy_classes(table)
        if n % 2:
            assert tuple(range(n, 2 * n)) in classes.blocks  # one class of all n flips
        else:
            assert tuple(n + i for i in range(1, n, 2)) in classes.blocks
            assert tuple(n + i for i in range(0, n, 2)) in classes.blocks

    @pytest.mark.parametrize("n", range(2, 10))
    def test_quaternion_reflection_classes(self, n):
        classes = conjugacy_classes(build_group(QUATERNION, n))
        assert tuple(2 * n + i for i in range(1, 2 * n, 2)) in classes.blocks
        assert tuple(2 * n + i for i in range(0, 2 * n, 2)) in classes.blocks

    @pytest.mark.parametrize("n", range(3, 10))
    def test_semidihedral_odd_reflections_split_in_four(self, n):
        if n % 2 == 0:
            pytest.skip("odd case")
        table = build_group(SEMIDIHEDRAL, n)
        classes = conjugacy_classes(table)
        k = 4 * n
        for j in range(4):
            expected = tuple(k + i for i in range(j, k, 4))
            assert expected in classes.blocks

    @pytest.mark.parametrize("n", range(2, 10))
    def test_semidihedral_even_reflections_split_in_two(self, n):
        if n % 2 == 1:
            pytest.skip("even case")
        table = build_group(SEMIDIHEDRAL, n)
        classes = conjugacy_classes(table)
        k = 4 * n
        assert tuple(k + i for i in range(0, k, 2)) in classes.blocks
        assert tuple(k + i for i in range(1, k, 2)) in classes.blocks

    @pytest.mark.parametrize("family,n", SMALL_SWEEP)
    def test_class_invariants(self, family, n):
        table = build_group(family, n)
        classes = conjugacy_classes(table)
        assert classes.block(table.identity) == (table.identity,)
        for block in classes.blocks:
            assert table.order % len(block) == 0
        # conjugation by any fixed g permutes each class into itself
        for g in {1 % table.order, table.order - 1}:
            for block in classes.blocks:
                image = {table.conjugate(g, x) for x in block}
                assert image == set(block)


class TestOrderPartition:
    def test_dihedral_by_order(self):
        d6 = build_group(DIHEDRAL, 3)
        assert order_partition(d6).blocks == ((0,), (3, 4, 5), (1, 2))

    def test_z2(self):
        z2 = build_group(CYCLIC, 2)
        assert order_partition(z2).blocks == ((0,), (1,))

    def test_quaternion_order_four_block(self):
        q8 = build_group(QUATERNION, 2)
        blocks = order_partition(q8).blocks
        assert (0,) in blocks and (2,) in blocks
        assert tuple(sorted({1, 3, 4, 5, 6, 7})) in blocks

    @pytest.mark.parametrize("family,n", SMALL_SWEEP)
    def test_conjugacy_refines_order(self, family, n):
        table = build_group(family, n)
        assert conjugacy_classes(table).refines(order_partition(table))


class TestCyclicSubgroups:
    def test_dihedral_maximal_inventory(self):
        d6 = build_group(DIHEDRAL, 3)
        maximal = maximal_cyclic_subgroups(d6)
        assert frozenset({0, 1, 2}) in maximal
        assert sum(1 for s in maximal if len(s) == 2) == 3

    def test_quaternion_maximal_inventory(self):
        q8 = build_group(QUATERNION, 2)
        maximal = maximal_cyclic_subgroups(q8)
        sizes = sorted(len(s) for s in maximal)
        assert sizes == [4, 4, 4]
        assert frozenset({0, 1, 2, 3}) in maximal

    def test_cyclic_group_is_its_own_maximal_subgroup(self):
        z4 = build_group(CYCLIC, 4)
        assert maximal_cyclic_subgroups(z4) == {frozenset(range(4))}

    @pytest.mark.parametrize("n", range(3, 12))
    def test_dihedral_inventory_counts(self, n):
        maximal = maximal_cyclic_subgroups(build_group(DIHEDRAL, n))
        sizes = sorted(len(s) for s in maximal)
        assert sizes == [2] * n + [n]

    @pytest.mark.parametrize("n", range(2, 10))
    def test_quaternion_inventory_counts(self, n):
        maximal = maximal_cyclic_subgroups(build_group(QUATERNION, n))
        sizes = sorted(len(s) for s in maximal)
        expected = sorted([4] * n + [2 * n])  # <a> coincides in size at n=2
        assert sizes == expected

    @pytest.mark.parametrize("n", range(2, 9))
    def test_semidihedral_decomposition(self, n):
        table = build_group(SEMIDIHEDRAL, n)
        maximal = maximal_cyclic_subgroups(table)
        by_size = {}
        for s in maximal:
            by_size.setdefault(len(s), []).append(s)
        assert sorted(by_size) == [2, 4, 4 * n]
        assert len(by_size[2]) == 2 * n and len(by_size[4]) == n
        covered = set().union(*maximal)
        assert covered == set(range(table.order))

    @pytest.mark.parametrize("family,n", SMALL_SWEEP)
    def test_union_covers_group_and_maximality(self, family, n):
        table = build_group(family, n)
        subs = cyclic_subgroups(table)
        maximal = maximal_cyclic_subgroups(table)
        assert set().union(*maximal) == set(range(table.order))
        for s in maximal:
            assert not any(s < t for t in subs)
        for s in subs - maximal:
            assert any(s < t for t in subs)


@pytest.mark.parametrize("family,n", ORACLE_SWEEP)
def test_whole_table_queries_match_per_element_oracles(family, n):
    table = build_group(family, n)
    for got, expected in (
        (order_partition(table), order_partition_by_element_order(table)),
        (conjugacy_classes(table), conjugacy_classes_by_orbits(table)),
        (conjugacy_classes(table), conjugacy_classes_by_least_conjugate(table)),
    ):
        assert got.blocks == expected.blocks
        assert np.array_equal(got.block_of, expected.block_of)
        assert got.block_of.dtype == expected.block_of.dtype
    subs = cyclic_subgroups_by_powers(table)
    assert cyclic_subgroups(table) == subs
    assert maximal_cyclic_subgroups(table) == frozenset(s for s in subs if not any(s < t for t in subs))


@pytest.mark.parametrize("family,n", ORACLE_SWEEP)
def test_generators_generate_the_group(family, n):
    table = build_group(family, n)
    gens = np.array(table.generators, dtype=np.int64)
    assert gens.size == (0 if table.order == 1 else 1 if family == CYCLIC else 2)
    reached = np.zeros(table.order, dtype=bool)
    reached[table.identity] = True
    frontier = np.array([table.identity])
    while frontier.size:
        step = table.product[frontier[:, None], gens].ravel()
        frontier = np.unique(step[~reached[step]])
        reached[frontier] = True
    assert reached.all()


@pytest.mark.parametrize("family,n", [(DIHEDRAL, 1000), (QUATERNION, 500), (SEMIDIHEDRAL, 250)])
def test_conjugacy_classes_memory_peak(family, n):
    # order 2000: the generator permutations and labels are a few N-vectors;
    # the scan over all conjugators peaked at 4.2 MB
    table = build_group(family, n)
    tracemalloc.start()
    try:
        classes = conjugacy_classes(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert classes.block_count == 503
    assert peak < 500_000, peak


class TestMemoryAdmission:
    def test_estimate_counts_the_product_and_membership_tables(self):
        assert _table_bytes(2000) == 2000 * 2000 * (2 + 1)

    def test_budget_edge(self):
        edge = math.isqrt(_TABLE_BUDGET_BYTES // 3)
        assert _table_bytes(edge) <= _TABLE_BUDGET_BYTES < _table_bytes(edge + 1)
        assert edge == 18918
        with pytest.raises(ParameterOutOfRange, match="budget"):
            build_group(CYCLIC, edge + 1)

    def test_refusal_is_at_the_budget_edge(self, monkeypatch):
        monkeypatch.setattr(groups, "_TABLE_BUDGET_BYTES", _table_bytes(48))
        for family, n in ((CYCLIC, 48), (DIHEDRAL, 24), (QUATERNION, 12), (SEMIDIHEDRAL, 6)):
            assert build_group(family, n).order == 48
            with pytest.raises(ParameterOutOfRange, match="budget"):
                build_group(family, n + 1)

    @pytest.mark.parametrize("order", [1000, 2000])
    def test_build_peak_is_within_the_estimate(self, order):
        # order 1000 and 2000: dihedral n = order/2, quaternion order/4,
        # semidihedral order/8, cyclic order
        for family, divisor in ((DIHEDRAL, 2), (QUATERNION, 4), (SEMIDIHEDRAL, 8), (CYCLIC, 1)):
            tracemalloc.start()
            try:
                table = build_group(family, order // divisor)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert table.order == order
            assert peak <= _table_bytes(order), (family, peak)

    def test_refusal_allocates_nothing(self):
        tracemalloc.start()
        try:
            with pytest.raises(ParameterOutOfRange, match="budget"):
                build_group(SEMIDIHEDRAL, 10**4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_uint16_range_is_refused_whatever_the_budget(self, monkeypatch):
        monkeypatch.setattr(groups, "_TABLE_BUDGET_BYTES", 1 << 40)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterOutOfRange, match="uint16 product table holds orders up to 65536"):
                build_group(DIHEDRAL, 2**15 + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_one_power_walk_per_group(monkeypatch):
    calls = []
    real = groups._walk_cyclic_subgroups

    def spy(table):
        calls.append(table)
        return real(table)

    monkeypatch.setattr(groups, "_walk_cyclic_subgroups", spy)
    table = build_group(SEMIDIHEDRAL, 4)
    blocks = order_partition(table).blocks
    subgroups = cyclic_subgroups(table)
    maximal = maximal_cyclic_subgroups(table)
    power_graph(table)
    enhanced_power_graph(table)
    assert calls == [table]
    cyclic = table._cyclic
    for a in (cyclic.orders, *cyclic.members.values(), *cyclic.generators.values()):
        assert not a.flags.writeable
    assert blocks == order_partition_by_element_order(table).blocks
    assert subgroups == cyclic_subgroups_by_powers(table)
    assert maximal == frozenset(s for s in subgroups if not any(s < t for t in subgroups))


def check_walk_against_membership(table):
    """Element orders, the order partition, both subgroup queries and the
    power graph against the N x N membership oracle; returns the oracle's
    maximal cyclic subgroups."""
    member = cyclic_membership(table)
    orders = member.sum(axis=1)
    assert np.array_equal(table._cyclic.orders, orders)
    partition = order_partition(table)
    assert partition.blocks == tuple(
        tuple(np.flatnonzero(orders == k).tolist()) for k in np.unique(orders)
    )
    first = {row.tobytes(): g for g, row in enumerate(member)}.values()  # one g per <g>

    def members(g):
        return frozenset(np.flatnonzero(member[g]).tolist())

    assert cyclic_subgroups(table) == frozenset(map(members, first))
    # <g> is maximal when no <h> of larger order contains g
    maximal = frozenset(members(g) for g in first if not (member[:, g] & (orders > orders[g])).any())
    assert maximal_cyclic_subgroups(table) == maximal
    powers = member | member.T
    np.fill_diagonal(powers, False)
    assert np.array_equal(power_graph(table).adjacency, powers)
    return maximal


WALK_FAMILIES = st.one_of(
    st.tuples(st.just(DIHEDRAL), st.integers(3, 24)),
    st.tuples(st.just(QUATERNION), st.integers(2, 12)),
    st.tuples(st.just(SEMIDIHEDRAL), st.integers(2, 6)),
    st.tuples(st.just(CYCLIC), st.integers(1, 48)),
)


@settings(max_examples=40, deadline=None)
@given(WALK_FAMILIES)
def test_power_walk_matches_oracles(family_n):
    # orders up to 48: the membership table, direct search for the power
    # edges and common cyclic subgroups for the enhanced ones
    table = build_group(*family_n)
    check_walk_against_membership(table)
    assert set(power_graph(table).edges()) == brute_force_power_edges(table)
    assert np.array_equal(enhanced_power_graph(table).adjacency, enhanced_by_common_cyclic(table))


@pytest.mark.parametrize("family,n", [(DIHEDRAL, 1000), (QUATERNION, 500), (SEMIDIHEDRAL, 250), (CYCLIC, 2000)])
def test_power_walk_matches_membership_at_order_2000(family, n):
    table = build_group(family, n)
    maximal = check_walk_against_membership(table)
    enhanced = np.zeros((table.order, table.order), dtype=bool)
    for s in maximal:
        idx = np.fromiter(s, dtype=np.int64)
        enhanced[np.ix_(idx, idx)] = True
    np.fill_diagonal(enhanced, False)
    assert np.array_equal(enhanced_power_graph(table).adjacency, enhanced)


def test_power_walk_without_identity_raises():
    # 1 * 1 = 2 and 2 * 1 = 1: the powers of 1 cycle without the identity
    product = np.array([[0, 1, 2], [1, 2, 1], [2, 1, 2]], dtype=np.uint16)
    table = groups.GroupTable(family=CYCLIC, parameter=3, product=product, inverse=np.array([0, 2, 1]))
    with pytest.raises(ValueError, match="element 1 do not reach the identity in 3 steps"):
        order_partition(table)


@pytest.mark.parametrize("family,n", [(DIHEDRAL, 1000), (QUATERNION, 500), (SEMIDIHEDRAL, 250), (CYCLIC, 2000)])
def test_order_partition_memory_peak(family, n):
    # order 2000: the walk keeps a few N-vectors of subgroup rows and the
    # partition's blocks hold N Python ints; the membership table it
    # replaced was N^2 bytes
    table = build_group(family, n)
    tracemalloc.start()
    try:
        order_partition(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * table.order**2, peak / table.order**2


class TestPartitionType:
    def test_validation_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            Partition(block_of=np.array([0, 0]), blocks=((0,),))
        with pytest.raises(ValueError):
            Partition(block_of=np.array([0, 1]), blocks=((0, 1), (1,)))

    def test_equality_partition(self):
        part = equality_partition(4)
        assert part.blocks == ((0,), (1,), (2,), (3,))
        assert part.refines(part)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(DIHEDRAL, n) for n in range(3, 8)] + [(QUATERNION, 2), (QUATERNION, 3), (SEMIDIHEDRAL, 2)]),
    st.integers(min_value=0, max_value=10_000),
)
def test_product_of_element_with_inverse_is_identity(family_n, seed):
    family, n = family_n
    table = build_group(family, n)
    g = seed % table.order
    assert table.mul(g, table.inv(g)) == table.identity
    assert table.mul(table.inv(g), g) == table.identity
