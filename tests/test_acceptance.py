"""End-to-end acceptance checks.

Expected spectra and tree counts are restated here verbatim rather than
imported from the prediction catalog, so that the suite cross-checks the
library against an independent transcription.
"""

import time
from math import prod

import numpy as np
import pytest

from superspectra import (
    CSCOM,
    CSEP,
    CYCLIC,
    DIHEDRAL,
    QUATERNION,
    SEMIDIHEDRAL,
    BASE_FOR_KIND,
    NotIntegral,
    SimpleGraph,
    analyze,
    build_group,
    char_poly,
    factor_integer_roots,
    integral_spectrum,
    laplacian,
    named_super_graph,
    power_graph,
    enhanced_power_graph,
    commuting_graph,
    spanning_tree_count,
    structural_graph,
    verify,
)
from superspectra.cli import main as cli_main

from conftest import note_criterion_started, record_criterion
from oracles import (
    complement_edges,
    enumeration_cost,
    naive_char_poly,
    random_simple_graph,
    spanning_trees_by_complement,
    spanning_trees_enumerated,
    spectrum_by_nullity,
)

D_RANGE = list(range(3, 26))
Q_RANGE = list(range(2, 17))
SD_RANGE = list(range(2, 11))

SWEEP_CASES = (
    [(CSEP, DIHEDRAL, n) for n in D_RANGE]
    + [(CSEP, QUATERNION, n) for n in Q_RANGE]
    + [(CSEP, SEMIDIHEDRAL, n) for n in SD_RANGE]
    + [(CSCOM, SEMIDIHEDRAL, n) for n in SD_RANGE]
)


def merged(pairs):
    acc = {}
    for value, mult in pairs:
        if mult:
            acc[value] = acc.get(value, 0) + mult
    return tuple(sorted(acc.items(), reverse=True))


def expected_spectrum(kind, family, n):
    if kind == CSEP and family == DIHEDRAL:
        if n % 2:
            return merged([(2 * n, 1), (n + 1, n - 1), (n, n - 2), (1, 1), (0, 1)])
        return merged([(2 * n, 1), (n, n - 2), (n // 2 + 1, n - 2), (1, 2), (0, 1)])
    if kind == CSEP and family == QUATERNION:
        if n % 2:
            return merged([(4 * n, 2), (2 * n + 2, 2 * n - 1), (2 * n, 2 * n - 3), (2, 1), (0, 1)])
        return merged([(4 * n, 2), (2 * n, 2 * n - 3), (n + 2, 2 * n - 2), (2, 2), (0, 1)])
    if kind == CSEP and family == SEMIDIHEDRAL:
        if n % 2:
            return merged(
                [(8 * n, 1), (6 * n, 1), (4 * n, 4 * n - 3), (2 * n + 2, 2 * n - 1),
                 (n + 1, 2 * n - 2), (2, 1), (1, 2), (0, 1)]
            )
        return merged(
            [(8 * n, 1), (6 * n, 1), (4 * n, 4 * n - 3), (2 * n + 2, 2 * n - 1),
             (2 * n + 1, 2 * n - 1), (2, 1), (1, 1), (0, 1)]
        )
    if kind == CSCOM and family == SEMIDIHEDRAL:
        if n % 2:
            return merged([(8 * n, 4), (4 * n + 4, 4 * n - 1), (4 * n, 4 * n - 5), (4, 1), (0, 1)])
        return merged([(8 * n, 2), (4 * n, 4 * n - 3), (2 * n + 2, 4 * n - 2), (2, 2), (0, 1)])
    raise AssertionError("unreachable")


def expected_trees(kind, family, n):
    if kind == CSEP and family == DIHEDRAL:
        if n % 2:
            return n ** (n - 2) * (n + 1) ** (n - 1)
        return n ** (n - 2) * (n // 2 + 1) ** (n - 2)
    if kind == CSEP and family == QUATERNION:
        if n % 2:
            return 2 ** (2 * n) * n ** (2 * n - 2) * (2 * n + 2) ** (2 * n - 1)
        return 2 ** (2 * n + 1) * n ** (2 * n - 2) * (n + 2) ** (2 * n - 2)
    if kind == CSEP and family == SEMIDIHEDRAL:
        shared = 3 * 2 ** (8 * n - 4) * n ** (4 * n - 2) * (2 * n + 2) ** (2 * n - 1)
        return shared * ((n + 1) ** (2 * n - 2) if n % 2 else (2 * n + 1) ** (2 * n - 1))
    if kind == CSCOM and family == SEMIDIHEDRAL:
        if n % 2:
            return 2 ** (8 * n + 1) * n ** (4 * n - 2) * (4 * n + 4) ** (4 * n - 1)
        return 2 ** (8 * n - 1) * n ** (4 * n - 2) * (2 * n + 2) ** (4 * n - 2)
    raise AssertionError("unreachable")


@pytest.fixture(scope="module")
def sweep():
    """Every swept case computed once: graph, both builds, spectrum, trees."""
    data = {}
    for kind, family, n in SWEEP_CASES:
        table = build_group(family, n)
        start = time.perf_counter()
        built = named_super_graph(table, BASE_FOR_KIND[kind], "conjugacy")
        not_integral = None
        try:
            spectrum = integral_spectrum(laplacian(built))
        except NotIntegral as exc:  # pragma: no cover - would fail criterion 7
            spectrum, not_integral = None, exc
        elapsed = time.perf_counter() - start
        # the twin quotient against the char poly of the full Laplacian
        full_pairs, full_residual = factor_integer_roots(char_poly(laplacian(built)), table.order)
        if not_integral is None:
            assert (spectrum.pairs, full_residual.degree) == (full_pairs, 0), (kind, family, n)
        else:
            assert (not_integral.residual, not_integral.partial) == (full_residual, full_pairs)
        data[(kind, family, n)] = {
            "order": table.order,
            "graph": built,
            "structural": structural_graph(kind, family, n),
            "spectrum": spectrum,
            "not_integral": not_integral,
            "trees_eigen": spanning_tree_count(built, method="eigenvalues"),
            "trees_det": spanning_tree_count(built, method="determinant"),
            "spectrum_seconds": elapsed,
        }
    return data


def test_criterion_1_dihedral_spectra(sweep):
    note_criterion_started(1)
    for n in D_RANGE:
        case = sweep[(CSEP, DIHEDRAL, n)]
        assert case["spectrum"].pairs == expected_spectrum(CSEP, DIHEDRAL, n), f"n={n}"
        assert case["spectrum_seconds"] < 1.0, f"n={n} took {case['spectrum_seconds']:.2f}s"
    record_criterion(1, f"n in 3..25, {len(D_RANGE)} cases")


def test_criterion_2_quaternion_spectra(sweep):
    note_criterion_started(2)
    for n in Q_RANGE:
        case = sweep[(CSEP, QUATERNION, n)]
        assert case["spectrum"].pairs == expected_spectrum(CSEP, QUATERNION, n), f"n={n}"
    record_criterion(2, f"n in 2..16, {len(Q_RANGE)} cases")


def test_criterion_3_semidihedral_spectra(sweep):
    note_criterion_started(3)
    for kind in (CSEP, CSCOM):
        for n in SD_RANGE:
            case = sweep[(kind, SEMIDIHEDRAL, n)]
            assert case["spectrum"].pairs == expected_spectrum(kind, SEMIDIHEDRAL, n), (kind, n)
            assert case["spectrum_seconds"] < 60.0
    record_criterion(3, f"both lifts, n in 2..10, {2 * len(SD_RANGE)} cases")


def test_criterion_4_spanning_trees(sweep):
    note_criterion_started(4)
    for key, case in sweep.items():
        kind, family, n = key
        assert case["trees_eigen"] == case["trees_det"], key
        assert case["trees_det"] == expected_trees(kind, family, n), key
    assert sweep[(CSEP, DIHEDRAL, 3)]["trees_det"] == 48
    assert sweep[(CSCOM, SEMIDIHEDRAL, 2)]["trees_det"] == 97_844_723_712
    record_criterion(4, f"{len(sweep)} cases, both methods")


def test_criterion_5_strict_discrepancy_detection():
    note_criterion_started(5)
    found = {}
    for kind, family, ns in [
        (CSEP, DIHEDRAL, D_RANGE),
        (CSEP, QUATERNION, Q_RANGE),
        (CSEP, SEMIDIHEDRAL, SD_RANGE),
        (CSCOM, SEMIDIHEDRAL, SD_RANGE),
    ]:
        report = verify(kind, family, ns)
        assert report.all_passed
        for disc in report.theorem_discrepancies():
            found.setdefault((disc["kind"], disc["family"], disc["parity"]), []).append(disc)
    assert set(found) == {(CSEP, DIHEDRAL, "even"), (CSEP, SEMIDIHEDRAL, "even")}
    for disc in found[(CSEP, DIHEDRAL, "even")]:
        assert disc["theorem_degree"] == 2 * disc["n"] + 1  # degree 2n+1 vs order 2n
    assert len(found[(CSEP, DIHEDRAL, "even")]) == len([n for n in D_RANGE if n % 2 == 0])
    for disc in found[(CSEP, SEMIDIHEDRAL, "even")]:
        assert disc["theorem_degree"] == 8 * disc["n"] - 1  # degree 8n-1 vs order 8n
    assert len(found[(CSEP, SEMIDIHEDRAL, "even")]) == len([n for n in SD_RANGE if n % 2 == 0])
    # CLI exit-status contract
    assert cli_main(["verify", "--kind", "csep", "--family", "sd8n", "--range", "2..2", "--strict"]) != 0
    assert cli_main(["verify", "--kind", "csep", "--family", "sd8n", "--range", "2..2"]) == 0
    assert cli_main(["verify", "--kind", "cscom", "--family", "sd8n", "--range", "2..6", "--strict"]) == 0
    record_criterion(5, "two discrepancy groups, none elsewhere")


def test_criterion_6_dual_path_construction(sweep):
    note_criterion_started(6)
    for key, case in sweep.items():
        assert case["graph"] == case["structural"], key
    record_criterion(6, f"{len(sweep)} cases")


def test_criterion_7_l_integrality(sweep):
    note_criterion_started(7)
    for key, case in sweep.items():
        assert case["not_integral"] is None, key
        assert case["spectrum"].total == case["order"], key
    record_criterion(7, f"{len(sweep)} cases, no residual factors")


def _family_graph_corpus():
    groups = (
        [build_group(DIHEDRAL, n) for n in (3, 4, 5)]
        + [build_group(QUATERNION, 2)]
        + [build_group(CYCLIC, n) for n in range(1, 11)]
    )
    graphs = []
    for table in groups:
        for base in ("power", "enhanced", "commuting"):
            for relation in ("equality", "conjugacy", "order"):
                graphs.append(named_super_graph(table, base, relation))
    return graphs


def test_criterion_8_oracle_equivalence():
    note_criterion_started(8)
    rng = np.random.default_rng(20240817)
    corpus: list[SimpleGraph] = []
    while len(corpus) < 210:
        n = int(rng.choice(range(2, 11), p=[0.08, 0.12, 0.15, 0.15, 0.15, 0.12, 0.10, 0.07, 0.06]))
        p = float(rng.uniform(0.15, 0.45 if n >= 9 else 0.9))
        adj = random_simple_graph(rng, n, p)
        if enumeration_cost(adj) > 1_300_000:
            continue
        corpus.append(SimpleGraph(adj))
    enumerated = 0
    checked_family = 0
    for graph in corpus + _family_graph_corpus():
        lap = laplacian(graph)
        assert char_poly(lap).coefficients == tuple(naive_char_poly(lap))
        both = spanning_tree_count(graph, method="both")
        if enumeration_cost(graph.adjacency) <= 2_600_000:
            assert both == spanning_trees_enumerated(graph.adjacency)
            enumerated += 1
        else:
            # dense graphs: exhaust the complement side instead
            assert len(complement_edges(graph.adjacency)) <= 16
            assert both == spanning_trees_by_complement(graph.adjacency)
        try:
            by_deflation = integral_spectrum(lap).pairs
        except NotIntegral as exc:
            by_deflation = ("residual", exc.residual.coefficients, tuple(exc.partial))
        try:
            by_nullity = spectrum_by_nullity(lap).pairs
        except NotIntegral as exc:
            by_nullity = ("residual", exc.residual.coefficients, tuple(exc.partial))
        assert by_deflation == by_nullity
        # graph input reads the bool adjacency, matrix input the Laplacian
        result = analyze(graph)
        pairs = result.spectrum.pairs
        assert (pairs if result.integral else ("residual", result.residual.coefficients, pairs)) == by_nullity
        assert result.trees == spanning_tree_count(graph, method="eigenvalues") == both
        checked_family += 1
    assert len(corpus) >= 200
    assert enumerated >= 200
    record_criterion(8, f"{len(corpus)} random + {checked_family - len(corpus)} family graphs")


def test_criterion_9_hierarchy_containments():
    note_criterion_started(9)
    groups = (
        [(DIHEDRAL, n) for n in range(3, 51)]
        + [(QUATERNION, n) for n in range(2, 26)]
        + [(SEMIDIHEDRAL, n) for n in range(2, 13)]
        + [(CYCLIC, n) for n in range(1, 101)]
    )
    for family, n in groups:
        table = build_group(family, n)
        assert table.order <= 100
        p = power_graph(table)
        pe = enhanced_power_graph(table)
        com = commuting_graph(table)
        assert p.is_spanning_subgraph_of(pe)
        assert pe.is_spanning_subgraph_of(com)
        csep = named_super_graph(table, "enhanced", "conjugacy")
        cscom = named_super_graph(table, "commuting", "conjugacy")
        assert csep.is_spanning_subgraph_of(cscom)
    record_criterion(9, f"{len(groups)} groups")


@pytest.mark.slow
def test_criterion_10_performance_envelope():
    note_criterion_started(10)
    start = time.perf_counter()
    table = build_group(SEMIDIHEDRAL, 50)
    graph = named_super_graph(table, "commuting", "conjugacy")
    spectrum = integral_spectrum(laplacian(graph))  # modular char-poly path
    elapsed = time.perf_counter() - start
    assert graph.vertex_count == 400
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    n = 50
    assert spectrum.pairs == merged(
        [(8 * n, 2), (4 * n, 4 * n - 3), (2 * n + 2, 4 * n - 2), (2, 2), (0, 1)]
    )
    assert prod(v**m for v, m in spectrum.pairs if v) == spanning_tree_count(
        graph, method="eigenvalues"
    ) * graph.vertex_count
    record_criterion(10, f"{elapsed:.1f}s for the order-400 case")
