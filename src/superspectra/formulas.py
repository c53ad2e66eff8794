"""Closed-form spectral predictions for the two conjugacy lifts, and the
verifier that checks exact computations against them.

Two cases carry a pair of prediction variants because the
characteristic-polynomial exponents the catalog came with contradict the
accompanying multiplicity rows: the even-parameter dihedral enhanced-power
lift (exponent n-1 versus multiplicity n-2 on the eigenvalue n/2+1, total
degree 2n+1 versus 2n) and the even-parameter semidihedral enhanced-power
lift (exponent 2n-2 versus multiplicity 2n-1 on the eigenvalue 2n+2, degree
8n-1 versus 8n).  Both variants are kept verbatim; :func:`verify`
adjudicates by exact computation and never reconciles a mismatch silently.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .compose import CSCOM, CSEP, KINDS, structural_graph
from .errors import ParameterOutOfRange, UnsupportedCombination
from .graphs import named_super_graph
from .groups import DIHEDRAL, QUATERNION, SEMIDIHEDRAL, _MIN_N, build_group
from .spectral import SpectrumMultiset, analyze, decimal_string, spanning_tree_count

BASE_FOR_KIND = {CSEP: "enhanced", CSCOM: "commuting"}

COROLLARY = "corollary"
THEOREM = "theorem"

# (kind, family, parity) -> source -> list of (eigenvalue, multiplicity), in n
_SPECTRA = {
    (CSEP, DIHEDRAL, "odd"): {
        COROLLARY: lambda n: [(2 * n, 1), (n + 1, n - 1), (n, n - 2), (1, 1), (0, 1)],
    },
    (CSEP, DIHEDRAL, "even"): {
        COROLLARY: lambda n: [(2 * n, 1), (n, n - 2), (n // 2 + 1, n - 2), (1, 2), (0, 1)],
        THEOREM: lambda n: [(2 * n, 1), (n, n - 2), (n // 2 + 1, n - 1), (1, 2), (0, 1)],
    },
    (CSEP, QUATERNION, "odd"): {
        COROLLARY: lambda n: [(4 * n, 2), (2 * n + 2, 2 * n - 1), (2 * n, 2 * n - 3), (2, 1), (0, 1)],
    },
    (CSEP, QUATERNION, "even"): {
        COROLLARY: lambda n: [(4 * n, 2), (2 * n, 2 * n - 3), (n + 2, 2 * n - 2), (2, 2), (0, 1)],
    },
    (CSEP, SEMIDIHEDRAL, "even"): {
        COROLLARY: lambda n: [
            (8 * n, 1), (6 * n, 1), (4 * n, 4 * n - 3),
            (2 * n + 2, 2 * n - 1), (2 * n + 1, 2 * n - 1), (2, 1), (1, 1), (0, 1),
        ],
        THEOREM: lambda n: [
            (8 * n, 1), (6 * n, 1), (4 * n, 4 * n - 3),
            (2 * n + 2, 2 * n - 2), (2 * n + 1, 2 * n - 1), (2, 1), (1, 1), (0, 1),
        ],
    },
    (CSEP, SEMIDIHEDRAL, "odd"): {
        COROLLARY: lambda n: [
            (8 * n, 1), (6 * n, 1), (4 * n, 4 * n - 3),
            (2 * n + 2, 2 * n - 1), (n + 1, 2 * n - 2), (2, 1), (1, 2), (0, 1),
        ],
    },
    (CSCOM, SEMIDIHEDRAL, "odd"): {
        COROLLARY: lambda n: [(8 * n, 4), (4 * n + 4, 4 * n - 1), (4 * n, 4 * n - 5), (4, 1), (0, 1)],
    },
    (CSCOM, SEMIDIHEDRAL, "even"): {
        COROLLARY: lambda n: [(8 * n, 2), (4 * n, 4 * n - 3), (2 * n + 2, 4 * n - 2), (2, 2), (0, 1)],
    },
}

_TREES = {
    (CSEP, DIHEDRAL, "odd"): lambda n: n ** (n - 2) * (n + 1) ** (n - 1),
    (CSEP, DIHEDRAL, "even"): lambda n: n ** (n - 2) * (n // 2 + 1) ** (n - 2),
    (CSEP, QUATERNION, "odd"): lambda n: 2 ** (2 * n) * n ** (2 * n - 2) * (2 * n + 2) ** (2 * n - 1),
    (CSEP, QUATERNION, "even"): lambda n: 2 ** (2 * n + 1) * n ** (2 * n - 2) * (n + 2) ** (2 * n - 2),
    (CSEP, SEMIDIHEDRAL, "even"): lambda n: 3 * 2 ** (8 * n - 4) * n ** (4 * n - 2)
    * (2 * n + 2) ** (2 * n - 1) * (2 * n + 1) ** (2 * n - 1),
    (CSEP, SEMIDIHEDRAL, "odd"): lambda n: 3 * 2 ** (8 * n - 4) * n ** (4 * n - 2)
    * (2 * n + 2) ** (2 * n - 1) * (n + 1) ** (2 * n - 2),
    (CSCOM, SEMIDIHEDRAL, "odd"): lambda n: 2 ** (8 * n + 1) * n ** (4 * n - 2) * (4 * n + 4) ** (4 * n - 1),
    (CSCOM, SEMIDIHEDRAL, "even"): lambda n: 2 ** (8 * n - 1) * n ** (4 * n - 2) * (2 * n + 2) ** (4 * n - 2),
}


def _case_key(kind: str, family: str, n: int) -> tuple[str, str, str]:
    if kind not in KINDS:
        raise UnsupportedCombination(f"unknown kind {kind!r}; expected one of {KINDS}")
    parity = "odd" if n % 2 else "even"
    key = (kind, family, parity)
    if key not in _SPECTRA:
        raise UnsupportedCombination(f"no prediction for kind={kind!r}, family={family!r}")
    if n < _MIN_N[family]:
        raise ParameterOutOfRange(f"{family} needs n >= {_MIN_N[family]}, got {n}")
    return key


@dataclass(frozen=True)
class Prediction:
    """One closed-form prediction variant, instantiated at a concrete n."""

    kind: str
    family: str
    n: int
    parity: str
    source: str  # "corollary" (multiplicity row) or "theorem" (polynomial exponents)
    spectrum: SpectrumMultiset
    tree_count: int


def predicted_spectrum(kind: str, family: str, n: int) -> tuple[Prediction, ...]:
    """All prediction variants for the case, corollary variant first.

    Coincident eigenvalues at small n (e.g. n+2 = 2n at n = 2 in the even
    quaternion case) are merged before the multiset is built.
    """
    key = _case_key(kind, family, n)
    trees = _TREES[key](n)
    out = []
    for source in (COROLLARY, THEOREM):
        formula = _SPECTRA[key].get(source)
        if formula is None:
            continue
        raw = formula(n)
        if any(m < 1 for _, m in raw):
            raise ParameterOutOfRange(f"prediction degenerate at n={n}")
        out.append(
            Prediction(
                kind=kind, family=family, n=n, parity=key[2], source=source,
                spectrum=SpectrumMultiset.from_pairs(raw), tree_count=trees,
            )
        )
    return tuple(out)


def predicted_tree_count(kind: str, family: str, n: int) -> int:
    """Exact evaluation of the closed-form spanning-tree count."""
    key = _case_key(kind, family, n)
    return _TREES[key](n)


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VariantCheck:
    source: str
    spectrum: SpectrumMultiset
    sanity_ok: bool
    sanity_note: str
    spectrum_match: bool


@dataclass(frozen=True)
class CaseResult:
    kind: str
    family: str
    n: int
    order: int
    edges: int
    dual_path_equal: bool
    computed_spectrum: SpectrumMultiset
    computed_trees: int
    tree_methods_agree: bool
    predicted_trees: int
    tree_match: bool
    variants: tuple[VariantCheck, ...]
    adjudicated_source: str | None
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return (
            self.dual_path_equal
            and self.tree_methods_agree
            and self.tree_match
            and self.adjudicated_source is not None
        )

    @property
    def theorem_flagged(self) -> bool:
        return any(
            v.source == THEOREM and not (v.sanity_ok and v.spectrum_match) for v in self.variants
        )


def _verify_case(kind: str, family: str, n: int) -> CaseResult:
    table = build_group(family, n)
    built = named_super_graph(table, BASE_FOR_KIND[kind], "conjugacy")
    structural = structural_graph(kind, family, n)
    dual_equal = built == structural

    result = analyze(built)
    spectrum = result.spectrum
    notes: list[str] = []
    if not result.integral:
        # cannot happen for these families; recorded, never reconciled
        notes.append(f"spectrum not integral; residual factor {result.residual}")
    trees_det = spanning_tree_count(built, method="determinant")
    predicted = predicted_spectrum(kind, family, n)
    pred_trees = predicted_tree_count(kind, family, n)

    order = table.order
    edges = built.edge_count
    variants = []
    for variant in predicted:
        problems = []
        if variant.spectrum.total != order:
            problems.append(
                f"multiplicities sum to {variant.spectrum.total}, group order is {order}"
            )
        if variant.spectrum.weighted_sum != 2 * edges:
            problems.append(
                f"weighted sum {variant.spectrum.weighted_sum} != 2|E| = {2 * edges}"
            )
        sanity_ok = not problems
        match = variant.spectrum == spectrum
        variants.append(
            VariantCheck(
                source=variant.source,
                spectrum=variant.spectrum,
                sanity_ok=sanity_ok,
                sanity_note="; ".join(problems),
                spectrum_match=match,
            )
        )
        if not sanity_ok:
            notes.append(f"{variant.source} variant flagged before comparison: {problems[0]}")

    adjudicated = next((v.source for v in variants if v.spectrum_match), None)
    if kind == CSEP and family == SEMIDIHEDRAL and n % 2 == 0:
        # both statements put 4n-3 here; record what the computation says
        computed_4n = spectrum.multiplicity(4 * n)
        verdict = "consistent" if computed_4n == 4 * n - 3 else "INCONSISTENT"
        notes.append(
            f"eigenvalue 4n={4 * n}: computed multiplicity {computed_4n} vs stated"
            f" 4n-3 = {4 * n - 3} ({verdict})"
        )

    return CaseResult(
        kind=kind,
        family=family,
        n=n,
        order=order,
        edges=edges,
        dual_path_equal=dual_equal,
        computed_spectrum=spectrum,
        computed_trees=trees_det,
        tree_methods_agree=result.trees == trees_det,
        predicted_trees=pred_trees,
        tree_match=trees_det == pred_trees,
        variants=tuple(variants),
        adjudicated_source=adjudicated,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class VerificationReport:
    kind: str
    family: str
    cases: tuple[CaseResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def theorem_discrepancies(self) -> list[dict]:
        """One entry per case whose theorem variant fails sanity or match."""
        out = []
        for case in self.cases:
            for v in case.variants:
                if v.source == THEOREM and not (v.sanity_ok and v.spectrum_match):
                    out.append(
                        {
                            "kind": case.kind,
                            "family": case.family,
                            "parity": "odd" if case.n % 2 else "even",
                            "n": case.n,
                            "theorem_degree": v.spectrum.total,
                            "order": case.order,
                            "note": v.sanity_note,
                        }
                    )
        return out

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "family": self.family,
            "all_passed": self.all_passed,
            "cases": [
                {
                    "n": c.n,
                    "order": c.order,
                    "edges": c.edges,
                    "dual_path_equal": c.dual_path_equal,
                    "computed_spectrum": [list(p) for p in c.computed_spectrum.pairs],
                    "computed_trees": decimal_string(c.computed_trees),
                    "tree_methods_agree": c.tree_methods_agree,
                    "predicted_trees": decimal_string(c.predicted_trees),
                    "tree_match": c.tree_match,
                    "variants": [
                        {
                            "source": v.source,
                            "spectrum": [list(p) for p in v.spectrum.pairs],
                            "sanity_ok": v.sanity_ok,
                            "sanity_note": v.sanity_note,
                            "spectrum_match": v.spectrum_match,
                        }
                        for v in c.variants
                    ],
                    "adjudicated_source": c.adjudicated_source,
                    "notes": list(c.notes),
                    "passed": c.passed,
                }
                for c in self.cases
            ],
            "theorem_discrepancies": self.theorem_discrepancies(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2)

    def to_table(self) -> str:
        header = (
            f"{'n':>4} {'order':>6} {'edges':>7} {'dual':>5} {'spectrum':>9} "
            f"{'trees':>6} {'adjudicated':>12}  notes"
        )
        lines = [f"verify {self.kind} {self.family}", header, "-" * len(header)]
        for c in self.cases:
            spectrum_state = "match" if c.adjudicated_source else "MISMATCH"
            tree_state = "match" if c.tree_match else "MISMATCH"
            note = "; ".join(c.notes)
            lines.append(
                f"{c.n:>4} {c.order:>6} {c.edges:>7} {'ok' if c.dual_path_equal else 'FAIL':>5} "
                f"{spectrum_state:>9} {tree_state:>6} {c.adjudicated_source or '-':>12}  {note}"
            )
        lines.append(f"result: {'all cases passed' if self.all_passed else 'FAILURES PRESENT'}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["family,kind,n,order,edges,spectrum,trees,dual_path_equal,spectrum_match,tree_match,theorem_flagged"]
        for c in self.cases:
            lines.append(
                ",".join(
                    [
                        c.family,
                        c.kind,
                        str(c.n),
                        str(c.order),
                        str(c.edges),
                        c.computed_spectrum.compact(),
                        decimal_string(c.computed_trees),
                        str(c.dual_path_equal).lower(),
                        str(c.adjudicated_source is not None).lower(),
                        str(c.tree_match).lower(),
                        str(c.theorem_flagged).lower(),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def verify(kind: str, family: str, ns, threads: int = 1) -> VerificationReport:
    """Build, compute and compare every case; mismatches become report
    content, never exceptions.  Cases are independent, so sweeps may fan out
    over processes, at most one per CPU; results merge in input order either
    way."""
    ns = list(ns)
    for n in ns:
        _case_key(kind, family, n)
    workers = min(threads, len(ns), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cases = list(pool.map(_verify_case, [kind] * len(ns), [family] * len(ns), ns))
    else:
        cases = [_verify_case(kind, family, n) for n in ns]
    return VerificationReport(kind=kind, family=family, cases=tuple(cases))
