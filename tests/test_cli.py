import dataclasses
import json

import numpy as np
import pytest

from superspectra import QUATERNION, build_group, cli, named_super_graph, spectral
from superspectra.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGroupCommand:
    def test_dihedral_text(self, capsys):
        code, out, _ = run(capsys, "group", "--family", "d2n", "--n", "3")
        assert code == 0
        assert "conjugacy classes (3)" in out
        assert "{b, a*b, a^2*b}" in out

    def test_quaternion_center(self, capsys):
        code, out, _ = run(capsys, "group", "--family", "q4n", "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["center"] == ["e", "a^2"]
        assert payload["order"] == 8

    def test_trivial_group(self, capsys):
        code, out, _ = run(capsys, "group", "--family", "cyclic", "--n", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == 1 and payload["conjugacy_classes"] == [["e"]]

    def test_parameter_out_of_range_exits_nonzero(self, capsys):
        code, _, err = run(capsys, "group", "--family", "d2n", "--n", "2")
        assert code == 2
        assert "n >= 3" in err

    def test_order_over_the_memory_budget_exits_2(self, capsys):
        code, _, err = run(capsys, "spectrum", "--family", "sd8n", "--n", "10000", "--base", "enhanced",
                           "--relation", "conjugacy", "--format", "json")
        assert code == 2
        assert "order 80000" in err and "budget" in err


class TestSpectrumCommand:
    def test_csep_d10_json(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--kind", "csep", "--family", "d2n", "--n", "5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["spectrum"] == [[10, 1], [6, 4], [5, 3], [1, 1], [0, 1]]
        assert payload["graph"] == "csep"
        assert json.loads(json.dumps(payload)) == payload

    def test_base_relation_selector(self, capsys):
        code, out, _ = run(
            capsys,
            "spectrum", "--base", "power", "--relation", "equality",
            "--family", "cyclic", "--n", "4", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["spectrum"] == [[4, 3], [0, 1]]

    def test_cscom_sd16_trees(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--kind", "cscom", "--family", "sd8n", "--n", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["trees"] == "97844723712"

    def test_schema_fields(self, capsys):
        _, out, _ = run(
            capsys, "spectrum", "--kind", "csep", "--family", "q4n", "--n", "2", "--format", "json"
        )
        payload = json.loads(out)
        assert list(payload) == [
            "family", "n", "graph", "order", "edges", "spectrum", "char_poly_factored", "trees",
        ]
        assert payload["char_poly_factored"].startswith("x *")

    def test_selector_validation(self, capsys):
        with pytest.raises(SystemExit):
            main(["spectrum", "--family", "d2n", "--n", "3"])
        with pytest.raises(SystemExit):
            main(["spectrum", "--kind", "csep", "--base", "power", "--family", "d2n", "--n", "3"])


class TestVerifyCommand:
    def test_quaternion_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--kind", "csep", "--family", "q4n", "--range", "2..10")
        assert code == 0
        assert "all cases passed" in out

    def test_strict_flags_semidihedral_even(self, capsys):
        code, out, err = run(
            capsys, "verify", "--kind", "csep", "--family", "sd8n", "--range", "2..2", "--strict"
        )
        assert code != 0
        assert "theorem-variant discrepancy" in err
        assert "all cases passed" in out  # adjudicated variant still matches

    def test_non_strict_semidihedral_even_passes(self, capsys):
        code, _, _ = run(capsys, "verify", "--kind", "csep", "--family", "sd8n", "--range", "2..3")
        assert code == 0

    def test_cscom_strict_clean(self, capsys):
        code, _, err = run(
            capsys, "verify", "--kind", "cscom", "--family", "sd8n", "--range", "2..5", "--strict"
        )
        assert code == 0
        assert err == ""

    def test_json_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "verify", "--kind", "csep", "--family", "d2n", "--range", "3..4",
            "--format", "json", "--output", str(target),
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["all_passed"] is True
        assert [c["n"] for c in payload["cases"]] == [3, 4]
        assert payload["cases"][0]["computed_trees"] == "48"

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--kind", "csep", "--family", "d2n", "--range", "3..3",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("family,kind,n,order,edges,spectrum,trees")

    def test_unsupported_combination(self, capsys):
        code, _, err = run(capsys, "verify", "--kind", "cscom", "--family", "d2n", "--range", "3..4")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("bad", ["x..3", "3..", "5..2", ""])
    def test_bad_ranges_exit_cleanly(self, capsys, bad):
        code, _, err = run(capsys, "verify", "--kind", "csep", "--family", "d2n", "--range", bad)
        assert code == 2
        assert "error" in err


class TestExportCommand:
    def test_dot_csep_d6(self, capsys):
        code, out, _ = run(
            capsys, "export", "--kind", "csep", "--family", "d2n", "--n", "3", "--format", "dot"
        )
        assert code == 0
        assert out.count(" -- ") == 9
        assert '"a^2*b"' in out

    def test_trivial_power_graph_dot(self, capsys):
        code, out, _ = run(
            capsys,
            "export", "--base", "power", "--relation", "equality",
            "--family", "cyclic", "--n", "1", "--format", "dot",
        )
        assert code == 0
        assert out.count(" -- ") == 0
        assert '"e";' in out

    def test_edgelist_csep_q8(self, capsys):
        code, out, _ = run(
            capsys, "export", "--kind", "csep", "--family", "q4n", "--n", "2",
            "--format", "edgelist",
        )
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 16
        assert all(len(line.split()) == 2 for line in lines)

    def test_json_export_roundtrip(self, capsys, tmp_path):
        target = tmp_path / "graph.json"
        code, _, _ = run(
            capsys, "export", "--kind", "csep", "--family", "d2n", "--n", "3",
            "--format", "json", "--output", str(target),
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["order"] == 6
        assert len(payload["labels"]) == 6
        assert len(payload["edges"]) == 9

    def test_unwritable_output_path(self, capsys):
        code, _, err = run(
            capsys, "export", "--kind", "csep", "--family", "d2n", "--n", "3",
            "--format", "json", "--output", "/nonexistent-dir/graph.json",
        )
        assert code == 2
        assert "io error" in err and "graph.json" in err

    def test_literal_class_convention_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "export", "--base", "enhanced", "--relation", "conjugacy",
            "--family", "d2n", "--n", "3", "--format", "edgelist", "--class-cliques", "off",
        )
        assert code == 0
        assert len([line for line in out.splitlines() if line]) == 6


HUGE_DIGITS = "1" + "0" * 4999 + "1"


def test_spectrum_renders_tree_counts_past_the_int_str_limit(capsys, monkeypatch):
    # str() refuses integers above 4300 digits; the payload must not
    real = cli.analyze
    monkeypatch.setattr(cli, "analyze", lambda graph: dataclasses.replace(real(graph), trees=10**5000 + 1))
    monkeypatch.setattr(cli, "spanning_tree_count", lambda graph, method: 10**5000 + 1)
    selector = ("spectrum", "--kind", "csep", "--family", "d2n", "--n", "5")
    code, out, _ = run(capsys, *selector, "--format", "json")
    assert code == 0 and json.loads(out)["trees"] == HUGE_DIGITS
    code, out, _ = run(capsys, *selector)
    assert code == 0 and f"spanning trees: {HUGE_DIGITS}\n" in out
    # and so must the message when the two counts disagree
    monkeypatch.setattr(cli, "spanning_tree_count", lambda graph, method: 10**5000)
    code, out, _ = run(capsys, *selector, "--format", "json")
    assert code == 3 and json.loads(out)["message"].endswith(f"{HUGE_DIGITS} vs 1{'0' * 5000}")


class TestOneCharPolyPerGraph:
    """The spectrum and the eigenvalue tree count come from one char poly;
    the Kirchhoff cofactor, and the int64 Laplacian it needs, run once per
    graph that needs them."""

    def test_spectrum_integral(self, capsys, spectral_calls):
        code, _, _ = run(capsys, "spectrum", "--kind", "csep", "--family", "d2n", "--n", "5", "--format", "json")
        assert code == 0
        assert spectral_calls == {"char_poly": 1, "integer_determinant": 1, "laplacian": 1}

    def test_spectrum_not_integral_runs_no_cofactor(self, capsys, spectral_calls):
        code, out, _ = run(capsys, "spectrum", "--family", "q4n", "--n", "3", "--base", "power",
                           "--relation", "equality", "--format", "json")
        assert code == 1 and json.loads(out)["error"] == "not_integral"
        assert spectral_calls == {"char_poly": 1, "integer_determinant": 0, "laplacian": 0}

    def test_verify(self, capsys, spectral_calls):
        code, _, _ = run(capsys, "verify", "--kind", "csep", "--family", "q4n", "--range", "2..4",
                         "--threads", "1", "--format", "json")
        assert code == 0
        assert spectral_calls == {"char_poly": 3, "integer_determinant": 3, "laplacian": 3}


def broken_quotient(adj, degrees):
    """The full Laplacian as its own quotient, with one twin pair too many."""
    return np.diag(degrees) - adj, [(1, 1)]


class TestInternalCheckFailure:
    """A failed internal cross-check exits 3, with a JSON error object under
    --format json and a message on stderr otherwise; never a traceback."""

    def test_spectrum_tree_count_paths_disagree(self, capsys, monkeypatch):
        exact = spectral.integer_determinant
        monkeypatch.setattr(spectral, "integer_determinant", lambda m: exact(m) + 1)
        selector = ("spectrum", "--kind", "csep", "--family", "d2n", "--n", "5")
        code, out, _ = run(capsys, *selector, "--format", "json")
        assert code == 3
        payload = json.loads(out)
        assert payload["error"] == "internal_check_failed"
        assert "tree-count paths disagree" in payload["message"]
        code, out, err = run(capsys, *selector)
        assert code == 3 and out == ""
        assert err.startswith("internal check failed: tree-count paths disagree")

    def test_verify_records_tree_count_disagreement(self, capsys, monkeypatch):
        # verify reports a disagreement as a failed case, not as exit 3
        exact = spectral.integer_determinant
        monkeypatch.setattr(spectral, "integer_determinant", lambda m: exact(m) + 1)
        code, out, _ = run(capsys, "verify", "--kind", "csep", "--family", "d2n", "--range", "3",
                           "--threads", "1", "--format", "json")
        assert code == 1
        (case,) = json.loads(out)["cases"]
        assert case["tree_methods_agree"] is False and case["passed"] is False

    def test_verify_trace_identity_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "_quotient_by_twins", broken_quotient)
        sweep = ("verify", "--kind", "csep", "--family", "q4n", "--range", "2..3", "--threads", "1")
        code, out, _ = run(capsys, *sweep, "--format", "json")
        assert code == 3
        payload = json.loads(out)
        assert payload["error"] == "internal_check_failed"
        assert "trace identity" in payload["message"]
        for fmt in ("table", "csv"):
            code, out, err = run(capsys, *sweep, "--format", fmt)
            assert code == 3 and out == "" and "trace identity" in err

    def test_matrix_input_trace_identity_fails(self, monkeypatch):
        # integral_spectrum(matrix) reaches the same quotient after the
        # graph-Laplacian test, so the same break fails it
        lap = spectral.laplacian(named_super_graph(build_group(QUATERNION, 3), "enhanced", "conjugacy"))
        monkeypatch.setattr(spectral, "_quotient_by_twins", broken_quotient)
        with pytest.raises(AssertionError, match="trace identity"):
            spectral.integral_spectrum(lap)
