import dataclasses
import math
import sys

import pytest

from superspectra import formulas, spectral
from superspectra.cli import THREADS_ENV, build_parser, main
from superspectra import (
    CSCOM,
    CSEP,
    CYCLIC,
    DIHEDRAL,
    QUATERNION,
    SEMIDIHEDRAL,
    ParameterOutOfRange,
    UnsupportedCombination,
    predicted_spectrum,
    predicted_tree_count,
    verify,
)

ALL_CASES = [
    (CSEP, DIHEDRAL),
    (CSEP, QUATERNION),
    (CSEP, SEMIDIHEDRAL),
    (CSCOM, SEMIDIHEDRAL),
]


class TestPredictedSpectrum:
    def test_dihedral_odd_example(self):
        (pred,) = predicted_spectrum(CSEP, DIHEDRAL, 5)
        assert pred.spectrum.pairs == ((10, 1), (6, 4), (5, 3), (1, 1), (0, 1))
        assert pred.source == "corollary"

    def test_cscom_odd_example(self):
        (pred,) = predicted_spectrum(CSCOM, SEMIDIHEDRAL, 3)
        assert pred.spectrum.pairs == ((24, 4), (16, 11), (12, 7), (4, 1), (0, 1))

    def test_quaternion_coincident_merge_at_n2(self):
        (pred,) = predicted_spectrum(CSEP, QUATERNION, 2)
        assert pred.spectrum.pairs == ((8, 2), (4, 3), (2, 2), (0, 1))

    def test_dual_variants_only_in_the_two_even_cases(self):
        assert [p.source for p in predicted_spectrum(CSEP, DIHEDRAL, 4)] == ["corollary", "theorem"]
        assert [p.source for p in predicted_spectrum(CSEP, SEMIDIHEDRAL, 2)] == ["corollary", "theorem"]
        for kind, family, n in [
            (CSEP, DIHEDRAL, 5),
            (CSEP, QUATERNION, 4),
            (CSEP, QUATERNION, 5),
            (CSEP, SEMIDIHEDRAL, 3),
            (CSCOM, SEMIDIHEDRAL, 2),
            (CSCOM, SEMIDIHEDRAL, 3),
        ]:
            assert [p.source for p in predicted_spectrum(kind, family, n)] == ["corollary"]

    def test_theorem_variant_degrees(self):
        d = {p.source: p for p in predicted_spectrum(CSEP, DIHEDRAL, 4)}
        assert d["theorem"].spectrum.total == 2 * 4 + 1
        assert d["corollary"].spectrum.total == 2 * 4
        s = {p.source: p for p in predicted_spectrum(CSEP, SEMIDIHEDRAL, 4)}
        assert s["theorem"].spectrum.total == 8 * 4 - 1
        assert s["corollary"].spectrum.total == 8 * 4

    def test_unsupported(self):
        with pytest.raises(UnsupportedCombination):
            predicted_spectrum(CSCOM, DIHEDRAL, 4)
        with pytest.raises(UnsupportedCombination):
            predicted_spectrum(CSEP, CYCLIC, 4)
        with pytest.raises(ParameterOutOfRange):
            predicted_spectrum(CSEP, DIHEDRAL, 2)


class TestPredictedTrees:
    def test_examples(self):
        assert predicted_tree_count(CSEP, DIHEDRAL, 3) == 48
        assert predicted_tree_count(CSEP, QUATERNION, 2) == 2048
        assert predicted_tree_count(CSCOM, SEMIDIHEDRAL, 2) == 97_844_723_712

    @pytest.mark.parametrize("kind,family", ALL_CASES)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_consistent_with_corollary_spectrum(self, kind, family, n):
        """Closed-form tree counts equal the product of the nonzero predicted
        eigenvalues over the group order; checkable without any graph."""
        if family == DIHEDRAL and n < 3:
            pytest.skip("below family minimum")
        pred = predicted_spectrum(kind, family, n)[0]
        order = pred.spectrum.total
        product = math.prod(v**m for v, m in pred.spectrum.pairs if v)
        assert predicted_tree_count(kind, family, n) * order == product


class TestVerify:
    def test_all_pass_on_small_ranges(self):
        for kind, family in ALL_CASES:
            lo = 3 if family == DIHEDRAL else 2
            report = verify(kind, family, range(lo, lo + 4))
            assert report.all_passed, report.to_table()

    def test_dihedral_even_discrepancy_notes(self):
        report = verify(CSEP, DIHEDRAL, [4])
        (case,) = report.cases
        assert case.passed and case.adjudicated_source == "corollary"
        assert case.computed_spectrum.pairs == ((8, 1), (4, 2), (3, 2), (1, 2), (0, 1))
        assert case.theorem_flagged
        (disc,) = report.theorem_discrepancies()
        assert disc["theorem_degree"] == 9 and disc["order"] == 8

    def test_semidihedral_even_discrepancy(self):
        report = verify(CSEP, SEMIDIHEDRAL, [2])
        (case,) = report.cases
        assert case.computed_spectrum.pairs == (
            (16, 1), (12, 1), (8, 5), (6, 3), (5, 3), (2, 1), (1, 1), (0, 1),
        )
        (disc,) = report.theorem_discrepancies()
        assert disc["theorem_degree"] == 15 and disc["order"] == 16
        assert any("4n" in note for note in case.notes)

    def test_no_discrepancies_elsewhere(self):
        assert verify(CSEP, DIHEDRAL, [3, 5]).theorem_discrepancies() == []
        assert verify(CSEP, QUATERNION, [2, 3, 4]).theorem_discrepancies() == []
        assert verify(CSEP, SEMIDIHEDRAL, [3, 5]).theorem_discrepancies() == []
        assert verify(CSCOM, SEMIDIHEDRAL, [2, 3, 4]).theorem_discrepancies() == []

    def test_sanity_flagging_precedes_comparison(self):
        report = verify(CSEP, SEMIDIHEDRAL, [2])
        theorem = next(v for v in report.cases[0].variants if v.source == "theorem")
        assert not theorem.sanity_ok
        assert "15" in theorem.sanity_note

    def test_deterministic_output(self):
        a = verify(CSEP, QUATERNION, [2, 3]).to_json()
        b = verify(CSEP, QUATERNION, [2, 3]).to_json()
        assert a == b

    def test_csv_columns(self):
        report = verify(CSEP, DIHEDRAL, [3])
        header, row = report.to_csv().strip().split("\n")
        assert header.split(",")[:5] == ["family", "kind", "n", "order", "edges"]
        fields = row.split(",")
        assert fields[0] == DIHEDRAL and fields[2] == "3" and fields[6] == "48"

    def test_parallel_matches_serial(self):
        serial = verify(CSEP, QUATERNION, [2, 3, 4], threads=1)
        parallel = verify(CSEP, QUATERNION, [2, 3, 4], threads=2)
        assert serial.to_json() == parallel.to_json()


class RecordingPool:
    """Stands in for the process pool: runs the cases in this process and
    records the worker count it was asked for."""

    requested: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestWorkerClamp:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        RecordingPool.requested = []
        monkeypatch.setattr(formulas, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(formulas.os, "cpu_count", lambda: 2)

    def test_library_threads_clamped(self):
        report = verify(CSEP, QUATERNION, [2, 3, 4], threads=10**6)
        assert RecordingPool.requested == [2]
        assert report.to_json() == verify(CSEP, QUATERNION, [2, 3, 4]).to_json()

    def test_no_pool_for_one_case_or_one_cpu(self, monkeypatch):
        verify(CSEP, QUATERNION, [2], threads=8)
        monkeypatch.setattr(formulas.os, "cpu_count", lambda: None)
        verify(CSEP, QUATERNION, [2, 3], threads=8)
        assert RecordingPool.requested == []

    def test_cli_flag_and_environment_clamped(self, monkeypatch, capsys):
        assert main(["verify", "--kind", "csep", "--family", "q4n", "--range", "2..4",
                     "--threads", "5000"]) == 0
        monkeypatch.setenv(THREADS_ENV, "100000")
        assert main(["verify", "--kind", "csep", "--family", "q4n", "--range", "2..3"]) == 0
        assert RecordingPool.requested == [2, 2]

    def test_environment_is_read_on_every_call(self, monkeypatch):
        # the parser is built once per process, but --threads takes its
        # default from the environment each time verify runs
        argv = ["verify", "--kind", "csep", "--family", "q4n", "--range", "2..3"]
        monkeypatch.setenv(THREADS_ENV, "1")
        assert main(argv) == 0
        assert RecordingPool.requested == []
        monkeypatch.setenv(THREADS_ENV, "2")
        assert main(argv) == 0
        assert RecordingPool.requested == [2]
        monkeypatch.delenv(THREADS_ENV)
        assert main(argv) == 0
        assert RecordingPool.requested == [2]
        assert build_parser() is build_parser()


HUGE = 10**5000 + 1
HUGE_DIGITS = "1" + "0" * 4999 + "1"


def test_report_renders_tree_counts_past_the_int_str_limit(monkeypatch):
    # str() refuses integers above 4300 digits; the report must not
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    real = formulas.analyze
    monkeypatch.setattr(formulas, "analyze", lambda graph: dataclasses.replace(real(graph), trees=HUGE))
    monkeypatch.setattr(formulas, "spanning_tree_count", lambda graph, method: HUGE)
    monkeypatch.setattr(formulas, "predicted_tree_count", lambda kind, family, n: HUGE)
    report = verify(CSEP, DIHEDRAL, [3])
    case = report.to_jsonable()["cases"][0]
    assert case["computed_trees"] == case["predicted_trees"] == HUGE_DIGITS
    assert case["tree_methods_agree"] and case["passed"]
    assert report.to_csv().strip().split("\n")[1].split(",")[6] == HUGE_DIGITS
    assert spectral.decimal_string(-HUGE) == "-" + HUGE_DIGITS
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
