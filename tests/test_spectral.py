import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superspectra import (
    CYCLIC,
    DIHEDRAL,
    IntegerPolynomial,
    NotIntegral,
    QUATERNION,
    SEMIDIHEDRAL,
    SimpleGraph,
    SpectrumMultiset,
    analyze,
    build_group,
    char_poly,
    complete,
    factor_integer_roots,
    graph_from_edges,
    integer_determinant,
    integral_spectrum,
    laplacian,
    named_super_graph,
    spanning_tree_count,
)
from superspectra import spectral
from superspectra.spectral import (
    _DET_PANEL,
    _connected,
    _det_mod_stack_symmetric,
    _is_graph_laplacian,
    _charpoly_coeff_bits,
    _packed_size,
    _prime_batch,
    _prime_width,
    _square_norms,
    _twin_quotient,
)

from conftest import ORACLE_SWEEP
from oracles import (
    bareiss_determinant,
    bareiss_nullity,
    component_count,
    det_mod,
    leading_minors,
    naive_char_poly,
    poly_from_roots,
    poly_mul,
    random_simple_graph,
    rational_nullity,
    spectrum_by_nullity,
    spanning_trees_by_complement,
    spanning_trees_enumerated,
    spanning_trees_enumerated_loop,
)


def csep(family, n):
    return named_super_graph(build_group(family, n), "enhanced", "conjugacy")


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestIntegerPolynomial:
    def test_normalisation_and_degree(self):
        p = IntegerPolynomial((0, 9, -6, 1, 0, 0))
        assert p.degree == 3 and p.is_monic

    def test_str(self):
        assert str(IntegerPolynomial((0, 9, -6, 1))) == "x^3 - 6*x^2 + 9*x"
        assert str(IntegerPolynomial((2, -4, 1))) == "x^2 - 4*x + 2"
        assert str(IntegerPolynomial((0,))) == "0"

    def test_synthetic_division(self):
        p = poly_from_roots([(3, 2), (0, 1)])
        q, r = p.synthetic_division(3)
        assert r == 0 and q == poly_mul(IntegerPolynomial((0, -3, 1)), IntegerPolynomial((1,)))
        q2, r2 = p.synthetic_division(5)
        assert r2 == p(5) != 0

    def test_evaluation(self):
        p = IntegerPolynomial((1, 2, 3))
        assert p(10) == 321


class TestLaplacian:
    def test_k3(self):
        lap = laplacian(complete(3))
        assert np.array_equal(lap, np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]))

    def test_csep_d6_corner(self):
        lap = laplacian(csep(DIHEDRAL, 3))
        assert lap[0][0] == 5  # 2n - 1

    def test_edgeless(self):
        g = graph_from_edges(3, [])
        assert not laplacian(g).any()

    @pytest.mark.parametrize("family,n", [(DIHEDRAL, 4), (QUATERNION, 3), (SEMIDIHEDRAL, 2)])
    def test_invariants(self, family, n):
        g = csep(family, n)
        lap = laplacian(g)
        assert np.array_equal(lap, lap.T)
        assert not lap.sum(axis=1).any()
        assert np.array_equal(np.diagonal(lap), g.degrees())
        off = lap[~np.eye(g.vertex_count, dtype=bool)]
        assert set(np.unique(off)) <= {-1, 0}

    @pytest.mark.parametrize(
        "graph",
        [SimpleGraph(np.asfortranarray(csep(DIHEDRAL, 5).adjacency)),  # Fortran-ordered adjacency
         named_super_graph(build_group(QUATERNION, 6), "power", "equality"),
         graph_from_edges(5, [(0, 1), (1, 2), (3, 4)]),
         graph_from_edges(1, []), graph_from_edges(0, [])],
    )
    def test_degree_matrix_minus_adjacency(self, graph):
        assert graph.adjacency.flags.c_contiguous
        lap = laplacian(graph)
        assert lap.dtype == np.int64
        assert np.array_equal(lap, np.diag(graph.degrees()) - graph.adjacency.astype(np.int64))

    @pytest.mark.parametrize(
        "graph",
        [csep(SEMIDIHEDRAL, 5), named_super_graph(build_group(QUATERNION, 3), "power", "conjugacy")],
    )
    def test_fortran_ordered_adjacency_is_stored_in_c_order(self, graph):
        fortran = SimpleGraph(np.asfortranarray(graph.adjacency))
        assert fortran.adjacency.flags.c_contiguous
        assert analyze(fortran) == analyze(graph)


class TestLaplacianBlockStructure:
    """Permuted into class-sorted vertex order, the Laplacians decompose
    into aI - J diagonal blocks with all-ones or zero off-blocks."""

    def test_csep_dihedral_odd_blocks(self):
        n = 5
        g = csep(DIHEDRAL, n)
        # ordering: e, a..a^{n-1}, then ab, a^2 b, .., a^{n} b = b
        perm = [0] + list(range(1, n)) + [n + i for i in range(1, n)] + [n]
        lap = laplacian(g)[np.ix_(perm, perm)]
        rot = lap[1:n, 1:n]
        refl = lap[n:, n:]
        assert np.array_equal(rot, n * np.eye(n - 1, dtype=np.int64) - 1)
        assert np.array_equal(refl, (n + 1) * np.eye(n, dtype=np.int64) - 1)
        assert not lap[1:n, n:].any()  # zero off-block
        assert lap[0, 0] == 2 * n - 1
        assert (lap[0, 1:] == -1).all()

    def test_csep_semidihedral_even_blocks(self):
        n = 2
        g = csep(SEMIDIHEDRAL, n)
        k = 4 * n
        rotations = [i for i in range(1, k) if i != 2 * n]
        odd_refl = [k + i for i in range(1, k, 2)]
        even_refl = [k + i for i in range(0, k, 2)]
        perm = [0, 2 * n] + rotations + odd_refl + even_refl
        lap = laplacian(g)[np.ix_(perm, perm)]
        assert lap[0, 0] == 8 * n - 1
        assert lap[1, 1] == 6 * n - 1
        a = lap[2 : 4 * n, 2 : 4 * n]
        b = lap[4 * n : 6 * n, 4 * n : 6 * n]
        b2 = lap[6 * n :, 6 * n :]
        assert np.array_equal(a, 4 * n * np.eye(4 * n - 2, dtype=np.int64) - 1)
        assert np.array_equal(b, (2 * n + 2) * np.eye(2 * n, dtype=np.int64) - 1)
        assert np.array_equal(b2, (2 * n + 1) * np.eye(2 * n, dtype=np.int64) - 1)
        # the a^{2n} row meets rotations and odd reflections, not even ones
        assert (lap[1, 4 * n : 6 * n] == -1).all()
        assert not lap[1, 6 * n :].any()

    def test_csep_quaternion_even_blocks(self):
        n = 4
        g = csep(QUATERNION, n)
        k = 2 * n
        rotations = [i for i in range(1, k) if i != n]
        odd_refl = [k + i for i in range(1, k, 2)]
        even_refl = [k + i for i in range(0, k, 2)]
        perm = [0, n] + rotations + odd_refl + even_refl
        lap = laplacian(g)[np.ix_(perm, perm)]
        assert (np.diagonal(lap)[:2] == 4 * n - 1).all()  # e and a^n universal
        a = lap[2 : 2 * n, 2 : 2 * n]
        assert np.array_equal(a, 2 * n * np.eye(2 * n - 2, dtype=np.int64) - 1)
        for block in (lap[2 * n : 3 * n, 2 * n : 3 * n], lap[3 * n :, 3 * n :]):
            assert np.array_equal(block, (n + 2) * np.eye(n, dtype=np.int64) - 1)
        assert not lap[2 * n : 3 * n, 3 * n :].any()  # reflection classes stay apart

    def test_cscom_semidihedral_odd_blocks(self):
        n = 3
        table = build_group(SEMIDIHEDRAL, n)
        g = named_super_graph(table, "commuting", "conjugacy")
        k = 4 * n
        rotations = [i for i in range(1, k) if i not in (n, 2 * n, 3 * n)]
        even_refl = [k + i for i in range(0, k, 2)]
        odd_refl = [k + i for i in range(1, k, 2)]
        perm = [0, n, 2 * n, 3 * n] + rotations + even_refl + odd_refl
        lap = laplacian(g)[np.ix_(perm, perm)]
        assert (np.diagonal(lap)[:4] == 8 * n - 1).all()  # four universal centrals
        a = lap[4 : 4 * n, 4 : 4 * n]
        b = lap[4 * n :, 4 * n :]
        assert np.array_equal(a, 4 * n * np.eye(4 * n - 4, dtype=np.int64) - 1)
        assert np.array_equal(b, (4 * n + 4) * np.eye(4 * n, dtype=np.int64) - 1)
        assert not lap[4 : 4 * n, 4 * n :].any()


class TestCharPoly:
    def test_k3(self):
        assert char_poly(laplacian(complete(3))) == IntegerPolynomial((0, 9, -6, 1))

    def test_csep_d6_factored(self):
        poly = char_poly(laplacian(csep(DIHEDRAL, 3)))
        expected = poly_from_roots([(6, 1), (4, 2), (3, 1), (1, 1), (0, 1)])
        assert poly == expected

    def test_zero_matrix(self):
        assert char_poly(np.zeros((2, 2), dtype=np.int64)) == IntegerPolynomial((0, 0, 1))

    def test_subtrace_coefficient(self):
        g = csep(QUATERNION, 3)
        lap = laplacian(g)
        poly = char_poly(lap)
        assert poly.coefficients[-2] == -int(np.trace(lap))

    def test_constant_term_vanishes_for_laplacians(self):
        for family, n in [(DIHEDRAL, 6), (SEMIDIHEDRAL, 3)]:
            assert char_poly(laplacian(csep(family, n))).coefficients[0] == 0

    def test_sign_alternation_for_psd(self):
        # all roots >= 0 forces coefficients to alternate in sign (zeros allowed)
        for family, n in [(DIHEDRAL, 5), (QUATERNION, 2)]:
            poly = char_poly(laplacian(csep(family, n)))
            m = poly.degree
            assert all(c == 0 or (-1) ** (m - i) * c > 0 for i, c in enumerate(poly.coefficients))

    def test_random_matrices_against_cofactor_expansion(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            m = rng.integers(-9, 10, size=(n, n))
            assert char_poly(m).coefficients == tuple(naive_char_poly(m))

    def test_huge_entries(self):
        base = 10**25
        m = np.array(
            [[base, -3 * base, 1], [7, 0, -base], [2 * base, 5, 11]], dtype=object
        )
        assert char_poly(m).coefficients == tuple(naive_char_poly(m))

    def test_asymmetric_integer_matrix(self):
        m = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # cyclic permutation: x^3 - 1
        assert char_poly(m) == IntegerPolynomial((-1, 0, 0, 1))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            char_poly(np.eye(2))

    @pytest.mark.parametrize("shift_every_prime", [False, True])
    def test_extra_prime_certificate(self, monkeypatch, shift_every_prime):
        # shifting the constant residue of one batch prime reconstructs a
        # huge constant; shifting it by 1 on every batch prime reconstructs
        # the char poly plus 1, far inside the Hadamard bound.  Both stay
        # monic of degree n, so only the prime outside the batch sees them.
        lap = laplacian(csep(DIHEDRAL, 5))
        width = _prime_width(lap.shape[0])
        batch = _prime_batch(_charpoly_coeff_bits(lap) + 1, width)
        check = spectral._ensure_primes(width, len(batch) + 1)[len(batch)]
        assert len(batch) > 1 and check not in batch
        exact = char_poly(lap)
        real = spectral._hessenberg_charpoly
        seen = []
        shifted = set(batch) if shift_every_prime else {batch[-1]}

        def perturbed(h, p):
            residues = real(h, p)
            seen.append(p)
            if p in shifted:
                residues[0] = (residues[0] + 1) % p
            return residues

        monkeypatch.setattr(spectral, "_hessenberg_charpoly", perturbed)
        with pytest.raises(AssertionError, match="extra-prime certificate"):
            char_poly(lap)
        assert seen == batch + [check]
        if shift_every_prime:
            # the same shift on the certificate prime as well goes through
            shifted.add(check)
            wrong = char_poly(lap)
            assert wrong.coefficients == (exact.coefficients[0] + 1,) + exact.coefficients[1:]

    def test_against_sympy_when_available(self):
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(4242)
        cases = [laplacian(csep(SEMIDIHEDRAL, 4)), laplacian(csep(QUATERNION, 6))]
        cases += [rng.integers(-50, 51, size=(k, k)) for k in (9, 14, 21)]
        for m in cases:
            theirs = tuple(int(c) for c in reversed(sympy.Matrix(np.asarray(m).tolist()).charpoly().all_coeffs()))
            assert char_poly(m).coefficients == theirs


class TestIntegralSpectrum:
    def test_csep_d10(self):
        spectrum = integral_spectrum(laplacian(csep(DIHEDRAL, 5)))
        assert spectrum.pairs == ((10, 1), (6, 4), (5, 3), (1, 1), (0, 1))

    def test_k4(self):
        assert integral_spectrum(laplacian(complete(4))).pairs == ((4, 3), (0, 1))

    def test_path4_not_integral(self):
        with pytest.raises(NotIntegral) as exc:
            integral_spectrum(laplacian(path_graph(4)))
        assert exc.value.residual == IntegerPolynomial((2, -4, 1))
        assert dict(exc.value.partial) == {0: 1, 2: 1}

    def test_nullity_strategy_agrees(self):
        for family, n in [(DIHEDRAL, 3), (DIHEDRAL, 4), (QUATERNION, 2), (CYCLIC, 5)]:
            lap = laplacian(csep(family, n))
            assert integral_spectrum(lap) == spectrum_by_nullity(lap)

    def test_nullity_strategy_not_integral(self):
        lap = laplacian(path_graph(4))
        with pytest.raises(NotIntegral) as exc:
            spectrum_by_nullity(lap)
        assert exc.value.residual == IntegerPolynomial((2, -4, 1))

    def test_multiset_invariants_and_reconstruction(self):
        for family, n in [(DIHEDRAL, 6), (QUATERNION, 4), (SEMIDIHEDRAL, 3)]:
            g = csep(family, n)
            lap = laplacian(g)
            spectrum = integral_spectrum(lap)
            assert spectrum.total == g.vertex_count
            assert spectrum.weighted_sum == 2 * g.edge_count
            assert spectrum.multiplicity(0) == component_count(g.adjacency)
            assert max(v for v, _ in spectrum.pairs) <= g.vertex_count
            assert poly_from_roots(spectrum.pairs) == char_poly(lap)

    def test_disconnected_zero_multiplicity(self):
        g = graph_from_edges(5, [(0, 1), (2, 3)])
        spectrum = integral_spectrum(laplacian(g))
        assert spectrum.multiplicity(0) == 3

    def test_from_pairs_merges(self):
        s = SpectrumMultiset.from_pairs([(4, 1), (2, 2), (4, 2), (1, 0)])
        assert s.pairs == ((4, 3), (2, 2))


class TestAnalyze:
    def test_integral_lift(self):
        result = analyze(csep(DIHEDRAL, 5))
        assert result.integral and result.residual == IntegerPolynomial((1,))
        assert result.spectrum.pairs == ((10, 1), (6, 4), (5, 3), (1, 1), (0, 1))
        assert result.trees == 5**3 * 6**4

    def test_not_integral_keeps_the_roots_found_and_the_tree_count(self):
        result = analyze(path_graph(4))
        assert not result.integral
        assert result.residual == IntegerPolynomial((2, -4, 1))
        assert result.spectrum.pairs == ((2, 1), (0, 1))
        assert result.trees == 1

    def test_one_char_poly_and_no_cofactor(self, spectral_calls):
        analyze(csep(QUATERNION, 3))
        analyze(path_graph(4))
        # P4 has no twins: its full Laplacian is its own quotient
        assert spectral_calls == {"char_poly": 2, "integer_determinant": 0, "laplacian": 1}


def test_read_only_int64_input_is_used_in_place(monkeypatch):
    graph = csep(SEMIDIHEDRAL, 3)
    lap = laplacian(graph)
    expected = (integer_determinant(lap[1:, 1:]), char_poly(lap), integral_spectrum(lap), analyze(graph))
    lap.setflags(write=False)
    before = lap.copy()
    minor = lap[1:, 1:]
    assert spectral._as_square_int_matrix(lap) is lap
    assert spectral._as_square_int_matrix(minor) is minor
    monkeypatch.setattr(spectral, "laplacian", lambda g: lap)
    got = (integer_determinant(minor), char_poly(lap), integral_spectrum(lap), analyze(graph))
    assert got == expected
    assert np.array_equal(lap, before)


class TestNullity:
    def test_k3_shifted(self):
        lap = laplacian(complete(3))
        assert bareiss_nullity(lap - 3 * np.eye(3, dtype=np.int64)) == 2

    def test_connected_laplacian_kernel(self):
        for g in (complete(5), path_graph(6), csep(DIHEDRAL, 4)):
            assert bareiss_nullity(laplacian(g)) == 1

    def test_csep_d6_at_four(self):
        lap = laplacian(csep(DIHEDRAL, 3))
        assert bareiss_nullity(lap - 4 * np.eye(6, dtype=np.int64)) == 2

    def test_against_fraction_elimination(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            m = rng.integers(-4, 5, size=(n, n))
            if rng.random() < 0.5 and n >= 2:  # force singularity often
                m[n - 1] = m[0] + m[min(1, n - 1)]
            assert bareiss_nullity(m) == rational_nullity(m)


class TestSpanningTrees:
    def test_k4(self):
        assert spanning_tree_count(complete(4)) == 16

    def test_csep_d6(self):
        assert spanning_tree_count(csep(DIHEDRAL, 3)) == 48

    def test_cscom_sd16(self):
        g = named_super_graph(build_group(SEMIDIHEDRAL, 2), "commuting", "conjugacy")
        assert spanning_tree_count(g) == 97_844_723_712

    def test_trees_have_one_spanning_tree(self):
        for n in (1, 2, 5, 9):
            assert spanning_tree_count(path_graph(n)) == 1

    def test_disconnected_is_zero(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        assert spanning_tree_count(g) == 0

    def test_disconnected_graph_reaches_no_cofactor(self, spectral_calls):
        # the sweep finds no spanning tree, and "both" still checks that 0
        # against the eigenvalue product
        for graph in (graph_from_edges(4, [(0, 1), (2, 3)]), graph_from_edges(3, []),
                      graph_from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)])):
            assert spanning_tree_count(graph, method="determinant") == 0
            assert spanning_tree_count(graph, method="both") == 0
        assert spectral_calls["integer_determinant"] == 0
        spanning_tree_count(path_graph(5), method="determinant")
        assert spectral_calls["integer_determinant"] == 1

    def test_connectivity_sweep_matches_component_count(self):
        rng = np.random.default_rng(43)
        graphs = [random_simple_graph(rng, int(rng.integers(1, 40)), float(rng.uniform(0.0, 0.2)))
                  for _ in range(80)]
        graphs += [path_graph(30).adjacency, complete(1).adjacency, graph_from_edges(2, []).adjacency]
        results = [_connected(adj) for adj in graphs]
        assert results == [component_count(adj) == 1 for adj in graphs]
        assert True in results and False in results

    def test_disagreement_is_an_assertion_at_any_size(self, monkeypatch):
        # a count past str()'s 4300-digit limit still reaches the message in full
        monkeypatch.setattr(spectral, "_eigenvalue_tree_count", lambda poly, twins, n: 10**5000)
        monkeypatch.setattr(spectral, "integer_determinant", lambda minor: 1)
        with pytest.raises(AssertionError) as caught:
            spanning_tree_count(complete(4), method="both")
        assert str(caught.value) == "tree-count paths disagree: 1" + "0" * 5000 + " vs 1"

    @pytest.mark.parametrize("n", range(2, 9))
    def test_cayley_formula(self, n):
        assert spanning_tree_count(complete(n)) == n ** (n - 2)

    def test_methods_agree_on_random_graphs(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            adj = random_simple_graph(rng, n, float(rng.uniform(0.2, 0.9)))
            g = SimpleGraph(adj)
            eigen = spanning_tree_count(g, method="eigenvalues")
            det = spanning_tree_count(g, method="determinant")
            assert eigen == det == spanning_trees_enumerated(adj)

    def test_complement_oracle_consistent_with_enumeration(self):
        # the two independent oracles agree with each other on dense graphs
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(3, 8))
            adj = random_simple_graph(rng, n, float(rng.uniform(0.6, 1.0)))
            assert spanning_trees_by_complement(adj) == spanning_trees_enumerated(adj)

    def test_batched_enumeration_matches_loop(self):
        rng = np.random.default_rng(47)
        graphs = [random_simple_graph(rng, int(rng.integers(2, 8)), float(rng.uniform(0.2, 1.0)))
                  for _ in range(20)]
        # no edges, one vertex, fewer edges than a tree needs, a cycle, K6, a
        # disconnected pair of edges
        graphs += [np.zeros((3, 3), dtype=bool), np.zeros((1, 1), dtype=bool),
                   graph_from_edges(5, [(0, 1), (1, 2), (2, 3)]).adjacency,
                   graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).adjacency,
                   complete(6).adjacency, graph_from_edges(4, [(0, 1), (2, 3)]).adjacency]
        for adj in graphs:
            assert spanning_trees_enumerated(adj) == spanning_trees_enumerated_loop(adj)


class TestIntegerDeterminant:
    """``integer_determinant`` takes symmetric integer matrices whose
    leading principal minors D_1 .. D_(n-1) are nonzero, as the Kirchhoff
    minors of connected graphs are, and refuses every other matrix."""

    def test_known_values(self):
        assert integer_determinant(np.array([[2, 1], [1, 2]])) == 3
        assert integer_determinant(np.array([[2, 1], [1, 0]])) == -1
        # D_n = 0 is a determinant, not a refusal
        assert integer_determinant(np.zeros((1, 1), dtype=np.int64)) == 0
        assert integer_determinant(np.array([[1, 1], [1, 1]])) == 0
        for m in ([[0, 1], [1, 0]], np.zeros((3, 3), dtype=np.int64), [[1, 1, 0], [1, 1, 0], [0, 0, 1]]):
            with pytest.raises(ValueError, match="D_"):
                integer_determinant(np.array(m))
        with pytest.raises(ValueError, match="symmetric"):
            integer_determinant(np.array([[2, 1], [0, 2]]))

    def test_against_permanent_free_reference(self):
        rng = np.random.default_rng(5)
        refused = 0
        for _ in range(40):
            n = int(rng.integers(1, 7))
            m = symmetric(rng, n, 6)
            if 0 in leading_minors(m)[: n - 1]:
                refused += 1
                with pytest.raises(ValueError, match="D_"):
                    integer_determinant(m)
                continue
            # reference: constant term of det(xI - M) is (-1)^n det(M)
            constant = naive_char_poly(m)[0]
            assert integer_determinant(m) == (-1) ** n * constant
        assert 0 < refused < 40


class TestFactorIntegerRoots:
    def test_partial_factorisation(self):
        poly = poly_mul(poly_from_roots([(3, 2), (1, 1)]), IntegerPolynomial((2, -4, 1)))
        pairs, residual = factor_integer_roots(poly, 10)
        assert pairs == ((3, 2), (1, 1))
        assert residual == IntegerPolynomial((2, -4, 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_char_poly_matches_cofactor_oracle(n, data):
    entries = data.draw(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=n * n, max_size=n * n)
    )
    m = np.array(entries, dtype=np.int64).reshape(n, n)
    assert char_poly(m).coefficients == tuple(naive_char_poly(m))


class TestPrimeWidth:
    """A modular dot product of N residues stays inside int64 only while
    N * (p - 1)**2 < 2**63; the prime width is chosen from N to keep it so."""

    def test_edge_at_2048(self):
        assert _prime_width(2048) == 26
        assert _prime_width(2049) == 25
        assert 2049 * (max(_prime_batch(1000, 26)) - 1) ** 2 >= 1 << 63

    def test_primes_of_a_narrow_width(self):
        # trial division stops at the square root, so a width of 13 bits or
        # fewer has primes too, and none at or below 2**(width - 1)
        primes = spectral._ensure_primes(10, 75)[:75]
        assert primes == sorted((q for q in range(513, 1024) if is_prime(q)), reverse=True)
        with pytest.raises(AssertionError, match="76 primes of 10 bits"):
            spectral._ensure_primes(10, 76)
        assert spectral._ensure_primes(2, 1) == [3]

    @pytest.mark.parametrize("n", [1, 2048, 2049, 8192, 8193, 10**6])
    def test_batch_keeps_headroom(self, n):
        width = _prime_width(n)
        primes = _prime_batch(200, width)
        assert all(p < 1 << width for p in primes)
        assert n * (max(primes) - 1) ** 2 < 1 << 63
        assert sum(math.log2(p) for p in primes) > 200
        small = [q for q in range(2, 1 << 13) if all(q % r for r in range(2, int(q**0.5) + 1))]
        assert all(all(p % q for q in small) for p in primes)

    def test_narrow_primes_give_the_same_char_poly(self, monkeypatch):
        monkeypatch.setattr(spectral, "_prime_width", lambda n: 20)
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            m = rng.integers(-30, 31, size=(n, n))
            assert char_poly(m).coefficients == tuple(naive_char_poly(m))


def is_prime(q):
    return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))


def edge_primes(length, bits):
    """The largest prime p with length * (p - 1)**2 + p < 2**bits, and the
    next prime after it."""
    p = math.isqrt((1 << bits) // length) + 2
    while length * (p - 1) ** 2 + p >= 1 << bits:
        p -= 1
    below = next(q for q in range(p, 1, -1) if is_prime(q))
    return below, next(q for q in range(p + 1, 2 * p) if is_prime(q))


def packed_stack_bytes(n, per_stack):
    """A ``_DET_STACK_BYTES`` that holds ``per_stack`` primes of the packed
    stack at order n."""
    return (4 * _packed_size(n) + 40 * _DET_PANEL * n) * per_stack


def packed_residues(m, primes):
    """``_det_mod_stack_symmetric`` in a stack of its own."""
    stack = np.empty((len(primes), _packed_size(m.shape[0])), dtype=np.float32)
    return _det_mod_stack_symmetric(m, primes, stack)


def record_lu_runs(monkeypatch):
    """Spy on the LDL^T: the primes it was given, those it found a zero
    pivot for before the last, the size of every batch and the stacks the
    batches ran in."""
    seen = {"primes": [], "dropped": [], "batches": [], "stacks": set()}

    def run(matrix, primes, stack):
        seen["primes"].extend(primes)
        seen["batches"].append(len(primes))
        seen["stacks"].add(id(stack))
        residues, zero_at = _det_mod_stack_symmetric(matrix, primes, stack)
        seen["dropped"].extend(q for q, k in zip(primes, zero_at) if k)
        return residues, zero_at

    monkeypatch.setattr(spectral, "_det_mod_stack_symmetric", run)
    return seen


def symmetric(rng, n, spread):
    a = rng.integers(-spread, spread + 1, size=(n, n))
    return np.tril(a) + np.tril(a, -1).T


def first_dividing_minor(minors, n, p):
    """The first k < n with p | D_k, or 0: where the LDL^T mod p stops."""
    return next((k for k, d in enumerate(minors[: n - 1], 1) if d % p == 0), 0)


# Kirchhoff minors of order 127 and 199
COFACTOR_MEMORY_CASES = [(SEMIDIHEDRAL, 16, "commuting", "conjugacy"), (DIHEDRAL, 100, "enhanced", "equality")]


class TestKirchhoffLU:
    """The Kirchhoff cofactor runs a blocked modular LDL^T on float32
    stacks of primes, packed to the lower triangle.  Storage is exact while
    p < 2**24, and the float64 arithmetic while k * (p - 1)**2 + p < 2**53,
    k the longest sum of products it forms between two reductions.  A prime
    that divides a leading minor D_k, k < n, is dropped and replaced."""

    def test_float64_width_edge(self, monkeypatch):
        # sums of _DET_PANEL = 16 products fit 24-bit primes, with room up
        # to 32; the cofactor takes 24-bit primes at every order
        assert _DET_PANEL == 16
        assert _prime_width(16, 53) == _prime_width(32, 53) == 24
        assert _prime_width(33, 53) == 23
        assert _prime_width(2, 53) == 26 and _prime_width(3, 53) == 25
        top = max(_prime_batch(200, 24))
        assert 16 * (top - 1) ** 2 + top < 1 << 53
        seen = record_lu_runs(monkeypatch)
        diagonal = np.eye(300, dtype=np.int64) * 7
        assert integer_determinant(diagonal) == 7**300
        assert seen["primes"] and all(1 << 23 < q < 1 << 24 for q in seen["primes"])
        # with float32 storage out of the way, the first prime past
        # 16 * (p - 1)**2 + p < 2**53 is refused by the float64 check
        _, past = edge_primes(16, 53)
        assert past < 1 << 25
        monkeypatch.setattr(spectral, "_FLOAT32_BITS", 25)
        m = symmetric(np.random.default_rng(1), 20, 9)
        with pytest.raises(AssertionError, match="float64"):
            packed_residues(m, [past])

    def test_too_wide_prime_is_refused(self):
        m = symmetric(np.random.default_rng(2), 20, 9)
        widest = max(_prime_batch(30, 24))
        assert packed_residues(m, [widest]) == ([det_mod(m % widest, widest)], [0])
        above = next(q for q in range(1 << 24, 1 << 25) if is_prime(q))
        with pytest.raises(AssertionError, match="float32"):
            packed_residues(m, [above])

    @pytest.mark.parametrize("n", [2, 5, 8, 9, 15, 16, 17, 33, 70])
    def test_dot_length_is_the_longest_sum_formed(self, n, monkeypatch):
        # the cofactor's prime width follows the float64 budget through the
        # longest sum the LDL^T forms, _DET_PANEL products: under a 40-bit
        # budget every prime it draws admits 16 products, and the cofactor
        # of a positive definite matrix is exact at every order
        monkeypatch.setattr(spectral, "_FLOAT64_BITS", 40)
        seen = record_lu_runs(monkeypatch)
        b = np.random.default_rng(n).integers(-9, 10, size=(n, n))
        m = b @ b.T + np.eye(n, dtype=np.int64)
        assert integer_determinant(m) == bareiss_determinant(m)
        assert seen["primes"] and not seen["dropped"]
        assert all(1 << 17 < q and _DET_PANEL * (q - 1) ** 2 + q < 1 << 40 for q in seen["primes"])

    @pytest.mark.parametrize("n", [2, 5, 15, 16, 17, 33, 70])
    def test_symmetric_dot_length_is_the_longest_sum_formed(self, n, monkeypatch):
        # under a 40-bit budget, a prime that admits the longest sum the LU
        # forms (n - 1 in the Gauss-Jordan inversion of a lone panel,
        # _DET_PANEL in X = A11^-1 A21^T and in the trailing update) runs
        # exactly, and the next prime, which admits one product less, trips
        # the run-time check
        longest = min(n - 1, _DET_PANEL)
        monkeypatch.setattr(spectral, "_FLOAT64_BITS", 40)
        fits, past = edge_primes(longest, 40)
        assert (longest - 1) * (past - 1) ** 2 + past < 1 << 40
        m = symmetric(np.random.default_rng(n), n, 9)
        primes = [fits] + _prime_batch(60, 16)
        assert packed_residues(m, primes) == ([det_mod(m % p, p) for p in primes], [0] * len(primes))
        with pytest.raises(AssertionError, match="float64"):
            packed_residues(m, [past])

    def test_zero_pivot_drops_the_prime(self, monkeypatch):
        # (0, 0) is 0 mod the second prime alone, which the LDL^T cannot
        # pivot around: that prime is dropped and the next one drawn
        primes = _prime_batch(80, 24)[:4]
        m = symmetric(np.random.default_rng(11), 40, 50)
        m[0, 0] = 3 * primes[1]
        assert [m[0, 0] % q == 0 for q in primes] == [False, True, False, False]
        residues, zero_at = packed_residues(m, primes)
        assert zero_at == [0, 1, 0, 0]
        assert [residues[i] for i in (0, 2, 3)] == [det_mod(m % primes[i], primes[i]) for i in (0, 2, 3)]
        seen = record_lu_runs(monkeypatch)
        assert integer_determinant(m) == bareiss_determinant(m)
        assert seen["dropped"] == [primes[1]]
        # a prefix of the 24-bit primes, one longer than the CRT needs
        bits = sum(0.5 * math.log2(s) for s in _square_norms(m, axis=1)) + 2
        assert seen["primes"] == spectral._PRIMES[24][: len(_prime_batch(bits, 24)) + 1]

    def test_anti_diagonal_permutation(self, monkeypatch):
        # D_1 = 0 and H_1 = 1 admit no dropped prime at pivot 1: the first
        # drop is refused, in the first batch
        seen = record_lu_runs(monkeypatch)
        for n in (7, 40):
            m = np.fliplr(np.eye(n, dtype=np.int64))
            with pytest.raises(ValueError, match="D_1 is 0: 1 primes"):
                integer_determinant(m)
        assert len(seen["batches"]) == 2

    def test_zero_leading_minors(self):
        m = symmetric(np.random.default_rng(3), 24, 5)
        m[:12, :12] = 0
        assert bareiss_determinant(m) != 0
        with pytest.raises(ValueError, match="D_1 is 0"):
            integer_determinant(m)

    def test_singular(self):
        # only the last leading minor vanishes: every residue is 0, and no
        # prime is dropped
        rng = np.random.default_rng(4)
        lift = np.eye(29, 30, dtype=np.int64)
        lift[[2, 9], 29] = [1, -3]
        m = lift.T @ symmetric(rng, 29, 5) @ lift
        minors = leading_minors(m)
        assert len(minors) == 30 and minors[-1] == 0 and 0 not in minors[:-1]
        primes = _prime_batch(80, 24)
        assert packed_residues(m, primes) == ([0] * len(primes), [0] * len(primes))
        assert integer_determinant(m) == 0

    def test_primes_dividing_the_determinant(self, monkeypatch):
        n = 12
        p1, p2 = _prime_batch(60, 24)[:2]
        m = np.diag([p1, p2] + [1] * (n - 2))
        seen = record_lu_runs(monkeypatch)
        assert integer_determinant(m) == p1 * p2
        # p1 divides D_1 and p2 divides D_2: both are dropped, each within
        # its pivot's bound, and two more primes drawn in their place
        assert seen["dropped"] == [p1, p2]
        assert seen["primes"] == spectral._PRIMES[24][:5] and seen["batches"] == [3, 2]
        residues, zero_at = packed_residues(m, seen["primes"][:3])
        assert zero_at == [1, 2, 0] and residues[2] == p1 * p2 % seen["primes"][2]
        # at the last pivot a zero is the residue 0, not a drop
        seen["primes"].clear()
        seen["dropped"].clear()
        last = np.diag([1] * (n - 1) + [p1 * p2])
        assert integer_determinant(last) == p1 * p2
        assert seen["primes"][:2] == [p1, p2] and not seen["dropped"]
        # without symmetry the input is refused before any stack is run
        m[0, 1] = 5
        seen["batches"].clear()
        with pytest.raises(ValueError, match="symmetric"):
            integer_determinant(m)
        assert not seen["batches"]

    def test_drop_bound_edge(self, monkeypatch):
        # 10-bit primes lie in (512, 1024), so at most
        # floor(log2(H_1) / 9) of them divide D_1 when it is not 0
        monkeypatch.setattr(spectral, "_FLOAT32_BITS", 10)
        p1, p2, p3 = spectral._ensure_primes(10, 3)[:3]
        seen = record_lu_runs(monkeypatch)
        for a, dropped in ((p1 * p2, 2), (p1 * p2 * p3, 3)):
            h1 = math.hypot(a, 1)
            assert int(math.log2(h1) // 9) == dropped
            seen["dropped"].clear()
            assert integer_determinant(np.array([[a, 1], [1, 1]])) == a - 1
            assert seen["dropped"] == [p1, p2, p3][:dropped]
        # D_1 = 0 with the same H_1 drops every prime at pivot 1: the
        # third drop is one past the bound, and proves D_1 = 0
        with pytest.raises(ValueError, match="D_1 is 0: 3 primes of 10 bits"):
            integer_determinant(np.array([[0, p1 * p2], [p1 * p2, 1]]))

    @staticmethod
    def check_batches(m, monkeypatch):
        seen = record_lu_runs(monkeypatch)
        for per_stack in (1, 3):
            for key in ("primes", "dropped", "batches", "stacks"):
                seen[key].clear()
            monkeypatch.setattr(spectral, "_DET_STACK_BYTES", packed_stack_bytes(40, per_stack))
            assert integer_determinant(m) == bareiss_determinant(m)
            sizes = seen["batches"]
            assert set(sizes[:-1]) == {per_stack} and sizes[-1] <= per_stack
            # one stack per call, reused for every batch
            assert len(seen["stacks"]) == 1
        return seen

    def test_batches_that_do_not_divide_the_prime_count(self, monkeypatch):
        # the first two primes divide D_1, so their replacements run in
        # later batches of the same stack
        p1, p2 = _prime_batch(60, 24)[:2]
        m = np.random.default_rng(8).integers(-50, 51, size=(40, 40))
        m = m + m.T
        m[0, 0] = p1 * p2
        seen = self.check_batches(m, monkeypatch)
        assert seen["dropped"] == [p1, p2]
        bits = sum(0.5 * math.log2(s) for s in _square_norms(m, axis=1)) + 2
        assert seen["primes"] == _prime_batch(bits + math.log2(p1 * p2), 24)
        assert len(seen["primes"]) > len(_prime_batch(bits, 24))

    def test_symmetric_batches_that_do_not_divide_the_prime_count(self, monkeypatch):
        m = np.random.default_rng(8).integers(-50, 51, size=(40, 40))
        sizes = self.check_batches(m + m.T, monkeypatch)["batches"]
        assert sum(sizes) % 3 != 0 and sizes[-1] == sum(sizes) % 3

    def test_object_entries_beyond_int64(self, monkeypatch):
        # object input is refused, however exact its entries, before any
        # stack is run
        seen = record_lu_runs(monkeypatch)
        for m in ([[2**70, 3], [3, 2**65 + 1]], [[2, 1], [1, 2]]):
            with pytest.raises(ValueError, match="int64"):
                integer_determinant(np.array(m, dtype=object))
        assert not seen["batches"]

    def test_structural_refusals_allocate_nothing(self):
        m = symmetric(np.random.default_rng(6), 200, 9)
        m[199, 0] += 1
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="symmetric"):
                integer_determinant(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 64-row blocks of the symmetry test, far below one stack
        assert peak < spectral._DET_STACK_BYTES // 8, peak

    def test_square_norms_int64_edge(self):
        # n * max|a|**2 < 2**63 sums in int64; at 2**63 it switches to ints
        below = np.full((2, 2), 2**31 - 1, dtype=np.int64)
        assert _square_norms(below, axis=1) == [2 * (2**31 - 1) ** 2] * 2
        at = np.full((2, 2), -(2**31), dtype=np.int64)
        assert _square_norms(at, axis=0) == [2**63] * 2
        extreme = np.array([[np.iinfo(np.int64).min, 0], [0, 1]])
        assert _square_norms(extreme, axis=1) == [2**126, 1]

    def test_offcatalog_lift_tree_count(self):
        # order 200, 24-bit primes, several stacks: Kirchhoff against the
        # twin-quotient eigenvalue product
        graph = named_super_graph(build_group(DIHEDRAL, 100), "enhanced", "equality")
        assert spanning_tree_count(graph, method="both") > 0

    @staticmethod
    def check_peak(family, n, base, relation, drop, monkeypatch):
        minor = laplacian(named_super_graph(build_group(family, n), base, relation))[1:, 1:]
        changed = minor.copy()
        first = _prime_batch(30, 24)[0]
        if drop:
            changed[0, 0] = first
        seen = record_lu_runs(monkeypatch)
        tracemalloc.start()
        try:
            det = integer_determinant(changed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= spectral._DET_STACK_BYTES, peak
        assert seen["dropped"] == ([first] if drop else [])
        # expansion along the changed entry
        delta = int(changed[0, 0] - minor[0, 0])
        expected = integer_determinant(minor) + delta * integer_determinant(minor[1:, 1:])
        assert det == expected and det > 0

    @pytest.mark.parametrize("family,n,base,relation", COFACTOR_MEMORY_CASES)
    def test_memory_peak(self, family, n, base, relation, monkeypatch):
        # the packed stack and its float64 temporaries stay within
        # _DET_STACK_BYTES; the int64 input is read in place, not copied
        self.check_peak(family, n, base, relation, False, monkeypatch)

    @pytest.mark.parametrize("family,n,base,relation", COFACTOR_MEMORY_CASES)
    def test_memory_peak_with_a_prime_dropped(self, family, n, base, relation, monkeypatch):
        # (0, 0) is set to the first prime of the batch, which divides D_1:
        # it is dropped and its replacement runs in the same stack
        self.check_peak(family, n, base, relation, True, monkeypatch)


def laplacian_minor(rng, n):
    """Reduced Laplacian of a random graph on n + 1 vertices."""
    adj = np.triu(rng.random((n + 1, n + 1)) < rng.random(), 1)
    adj = adj | adj.T
    return (np.diag(adj.sum(axis=1)) - adj)[1:, 1:]


def narrow_width(bits):
    """The narrowest prime width from 10 bits whose primes multiply to more
    than 2**(2 * bits + 100): the Hadamard bound, and as many bits again for
    the primes dropped at a vanishing D_k before it is refused."""
    for width in range(10, 14):
        supply = sum(math.log2(q) for q in spectral._small_primes() if q.bit_length() == width)
        if supply > 2 * bits + 100:
            return width
    raise AssertionError(f"no width up to 13 bits covers {bits:.0f} bits")


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=70),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["symmetric", "gram", "singular", "laplacian"]),
    spread=st.sampled_from([1, 7, 1000, 2**30]),
    narrow=st.booleans(),
    per_stack=st.sampled_from([1, 2, 3, 5]),
)
@example(n=70, seed=1, kind="laplacian", spread=1, narrow=False, per_stack=3)
@example(n=70, seed=2, kind="symmetric", spread=2**30, narrow=False, per_stack=1)
@example(n=70, seed=3, kind="gram", spread=1, narrow=True, per_stack=2)
@example(n=70, seed=4, kind="laplacian", spread=1, narrow=True, per_stack=5)
def test_symmetric_kirchhoff_lu_matches_oracles(n, seed, kind, spread, narrow, per_stack):
    rng = np.random.default_rng(seed)
    if kind == "gram":
        # B B^T of rank up to n, singular when B has fewer columns than rows
        b = rng.integers(-7, 8, size=(n, int(rng.integers(1, n + 1))))
        m = b @ b.T
    elif kind == "laplacian":
        m = laplacian_minor(rng, n)
    else:
        m = symmetric(rng, n, spread)
        if kind == "singular" and n > 1:
            r = int(rng.integers(1, n))
            m[r] = m[0]
            m[:, r] = m[:, 0]
    # 10-bit primes divide leading minors often, so primes are dropped
    bits = sum(0.5 * math.log2(max(1, s)) for s in _square_norms(m, axis=1))
    width = narrow_width(bits) if narrow else 24
    minors = leading_minors(m)
    primes = spectral._ensure_primes(10, 75)[:75] if narrow else _prime_batch(30 * n, 24)
    # the LDL^T alone is exact on every prime it keeps, and stops at the
    # first leading minor that the prime divides
    residues, zero_at = packed_residues(m, primes)
    assert zero_at == [first_dividing_minor(minors, n, p) for p in primes]
    assert all(k or r == det_mod(m % p, p) for p, r, k in zip(primes, residues, zero_at))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_DET_STACK_BYTES", packed_stack_bytes(n, per_stack))
        patch.setattr(spectral, "_FLOAT32_BITS", width)
        if 0 in minors[: n - 1]:
            with pytest.raises(ValueError, match="D_"):
                integer_determinant(m)
        else:
            assert integer_determinant(m) == bareiss_determinant(m) == minors[-1]


def full_path(lap):
    """Spectrum or residual from the char poly of the full matrix."""
    pairs, residual = factor_integer_roots(char_poly(lap), lap.shape[0])
    return pairs if residual.degree == 0 else ("residual", residual.coefficients, pairs)


def deflation_path(lap):
    try:
        return integral_spectrum(lap).pairs
    except NotIntegral as exc:
        return ("residual", exc.residual.coefficients, exc.partial)


def analysis_path(graph):
    result = analyze(graph)
    pairs = result.spectrum.pairs
    return pairs if result.integral else ("residual", result.residual.coefficients, pairs)


class TestTwinQuotient:
    @pytest.mark.parametrize(
        "family,n,base", [(DIHEDRAL, 25, "enhanced"), (QUATERNION, 16, "enhanced"),
                          (SEMIDIHEDRAL, 10, "enhanced"), (SEMIDIHEDRAL, 10, "commuting")]
    )
    def test_catalog_lifts_shrink(self, family, n, base):
        lap = laplacian(named_super_graph(build_group(family, n), base, "conjugacy"))
        quotient, twins = _twin_quotient(lap)
        assert quotient.shape[0] <= 5
        assert quotient.shape[0] + sum(m for _, m in twins) == lap.shape[0]

    def test_other_input_is_its_own_quotient(self):
        lap = laplacian(csep(DIHEDRAL, 5))
        for m in (lap - 3 * np.eye(10, dtype=np.int64), -lap, laplacian(path_graph(5))):
            quotient, twins = _twin_quotient(m)
            assert quotient is m and twins == []
        asymmetric = np.array([[1, -1, 0], [0, 1, -1], [-1, 0, 1]])
        assert _twin_quotient(asymmetric)[0] is asymmetric

    @pytest.mark.parametrize(
        "m,is_laplacian",
        [
            ([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]], True),
            ([[1, -1, 0], [0, 1, -1], [-1, 0, 1]], False),  # asymmetric
            ([[0, 1, -1], [1, 0, -1], [-1, -1, 2]], False),  # +1 off the diagonal
            ([[2, -2], [-2, 2]], False),  # -2 off the diagonal
            ([[1, -1, 0], [-1, 1, 0], [0, 0, 1]], False),  # a nonzero row sum
        ],
    )
    def test_graph_laplacian_refusals(self, m, is_laplacian):
        m = np.array(m, dtype=np.int64)
        assert _is_graph_laplacian(m, m == -1) is is_laplacian
        if not is_laplacian:
            assert _twin_quotient(m)[0] is m

    def test_complete_graph(self):
        quotient, twins = _twin_quotient(laplacian(complete(6)))
        assert quotient.tolist() == [[0]] and twins == [(6, 5)]

    @pytest.mark.parametrize(
        "family,n,base,relation",
        [(DIHEDRAL, 12, "power", "equality"), (QUATERNION, 3, "power", "equality"),
         (QUATERNION, 6, "power", "conjugacy")],
    )
    def test_not_integral_residual_matches_full_path(self, family, n, base, relation):
        graph = named_super_graph(build_group(family, n), base, relation)
        lap = laplacian(graph)
        assert _twin_quotient(lap)[0].shape[0] < lap.shape[0]
        with pytest.raises(NotIntegral):
            integral_spectrum(lap)
        assert deflation_path(lap) == full_path(lap)
        assert analysis_path(graph) == full_path(lap)


@st.composite
def planted_twin_graphs(draw):
    """Compositions H[G_1, .., G_k] with each G_i a clique (closed twins) or
    an edgeless graph (open twins), plus isolated vertices, shuffled."""
    k = draw(st.integers(min_value=1, max_value=5))
    outer = np.array(draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))).reshape(k, k)
    outer = np.triu(outer, 1)
    outer = outer | outer.T
    cliques = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=k, max_size=k))
    isolated = draw(st.integers(min_value=0, max_value=3))
    block_of = np.repeat(np.arange(k), sizes)
    same = block_of[:, None] == block_of[None, :]
    adj = np.where(same, cliques[block_of][:, None], outer[np.ix_(block_of, block_of)])
    np.fill_diagonal(adj, False)
    adj = np.pad(adj, (0, isolated))
    perm = draw(st.permutations(range(adj.shape[0])))
    return SimpleGraph(adj[np.ix_(perm, perm)])


@settings(max_examples=60, deadline=None)
@given(planted_twin_graphs())
def test_twin_quotient_matches_full_paths(graph):
    lap = laplacian(graph)
    assert deflation_path(lap) == full_path(lap)
    n = graph.vertex_count
    c1 = char_poly(lap).coefficients[1]
    by_full_poly = (c1 if (n - 1) % 2 == 0 else -c1) // n
    by_eigen = spanning_tree_count(graph, method="eigenvalues")
    assert by_eigen == spanning_tree_count(graph, method="determinant") == by_full_poly
    if component_count(graph.adjacency) > 1:
        assert by_eigen == 0
    assert analysis_path(graph) == full_path(lap)
    assert analyze(graph).trees == by_eigen


# ---------------------------------------------------------------------------
# graph input and matrix input


def graph_and_matrix_paths(graph):
    """analyze(graph), integral_spectrum(laplacian(graph)) and the eigenvalue
    tree count, asserted to agree; returns the spectrum or residual."""
    result = analyze(graph)
    by_graph = analysis_path(graph)
    assert by_graph == deflation_path(laplacian(graph))
    assert spanning_tree_count(graph, method="eigenvalues") == result.trees
    return by_graph, result.trees


def rank_oracle_path(lap):
    try:
        return spectrum_by_nullity(lap).pairs
    except NotIntegral as exc:
        return ("residual", exc.residual.coefficients, tuple(exc.partial))


RANK_ORACLE_MAX_ORDER = 24  # rank oracle cost grows as N^4: 0.2 s at order 40


@pytest.mark.parametrize("family,n", ORACLE_SWEEP)
def test_graph_path_matches_matrix_path(family, n):
    table = build_group(family, n)
    for base in ("power", "enhanced", "commuting"):
        graph = named_super_graph(table, base, "conjugacy")
        by_graph, trees = graph_and_matrix_paths(graph)
        if table.order <= RANK_ORACLE_MAX_ORDER:
            assert by_graph == rank_oracle_path(laplacian(graph))
            assert trees == spanning_tree_count(graph, method="determinant")


@st.composite
def blown_up_graphs(draw):
    """Random graphs on 1-40 vertices: a random outer graph on k vertices,
    each vertex blown up into a clique (closed twins) or an independent set
    (open twins) of 1-4 vertices, plus isolated vertices, shuffled.  All
    parts of size 1 give a random graph, often twin-free; sparse outer
    graphs and isolated vertices give disconnected ones."""
    k = draw(st.integers(min_value=1, max_value=9))
    outer = np.array(draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))).reshape(k, k)
    outer = np.triu(outer, 1)
    outer = outer | outer.T
    cliques = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    sizes = draw(st.lists(st.sampled_from([1, 1, 1, 2, 3, 4]), min_size=k, max_size=k))
    isolated = draw(st.integers(min_value=0, max_value=3))
    block_of = np.repeat(np.arange(k), sizes)
    same = block_of[:, None] == block_of[None, :]
    adj = np.where(same, cliques[block_of][:, None], outer[np.ix_(block_of, block_of)])
    np.fill_diagonal(adj, False)
    adj = np.pad(adj, (0, isolated))
    perm = draw(st.permutations(range(adj.shape[0])))
    return SimpleGraph(adj[np.ix_(perm, perm)])


@settings(max_examples=60, deadline=None)
@given(blown_up_graphs())
@example(graph_from_edges(1, []))
@example(path_graph(6))  # twin-free
@example(graph_from_edges(7, [(0, 1), (2, 3), (2, 4), (3, 4)]))  # K2 + K3 + 2 K1
@example(graph_from_edges(6, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]))  # open and closed twins
def test_graph_path_matches_matrix_path_and_oracles(graph):
    by_graph, trees = graph_and_matrix_paths(graph)
    lap = laplacian(graph)
    assert by_graph == rank_oracle_path(lap) == full_path(lap)
    assert trees == spanning_tree_count(graph, method="determinant")
    if component_count(graph.adjacency) > 1:
        assert trees == 0


class TestSmallOrders:
    def test_null_graph_is_refused_before_any_work(self, spectral_calls):
        null = graph_from_edges(0, [])
        with pytest.raises(ValueError, match="empty vertex set"):
            analyze(null)
        for method in ("both", "eigenvalues", "determinant"):
            with pytest.raises(ValueError, match="empty vertex set"):
                spanning_tree_count(null, method=method)
        assert spectral_calls == {"char_poly": 0, "integer_determinant": 0, "laplacian": 0}

    @pytest.mark.parametrize(
        "graph,pairs,trees",
        [(graph_from_edges(1, []), ((0, 1),), 1),
         (graph_from_edges(2, []), ((0, 2),), 0),
         (complete(2), ((2, 1), (0, 1)), 1)],
    )
    def test_orders_one_and_two(self, graph, pairs, trees):
        result = analyze(graph)
        assert result.integral and result.spectrum.pairs == pairs and result.trees == trees
        assert integral_spectrum(laplacian(graph)).pairs == pairs
        for method in ("both", "eigenvalues", "determinant"):
            assert spanning_tree_count(graph, method=method) == trees


@pytest.mark.parametrize("n", [125, 250])  # orders 1000 and 2000
def test_graph_path_memory_peak(n):
    # the graph path holds two sets of packed rows, 2 * N^2 / 8 bytes, and
    # no int64 Laplacian; laplacian is one int64 array, 8 N^2 bytes
    graph = named_super_graph(build_group(SEMIDIHEDRAL, n), "commuting", "conjugacy")
    order = graph.vertex_count
    for run, bound in ((lambda: analyze(graph), 2.0),
                       (lambda: spanning_tree_count(graph, method="eigenvalues"), 2.0),
                       (lambda: laplacian(graph), 8.1)):
        run()  # the prime tables are filled once per process
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * order * order, peak / order**2
