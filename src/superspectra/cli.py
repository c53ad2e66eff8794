"""Command-line surface: group reports, exact spectra, verification sweeps
and graph exports in stable formats."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .compose import KINDS
from .errors import ParameterOutOfRange, UnsupportedCombination
from .formulas import BASE_FOR_KIND, verify
from .graphs import BASES, RELATIONS, SimpleGraph, named_super_graph
from .groups import (
    CYCLIC,
    DIHEDRAL,
    QUATERNION,
    SEMIDIHEDRAL,
    build_group,
    center,
    conjugacy_classes,
    maximal_cyclic_subgroups,
)
from .spectral import analyze, decimal_string, spanning_tree_count

FAMILY_TOKENS = {"d2n": DIHEDRAL, "q4n": QUATERNION, "sd8n": SEMIDIHEDRAL, "cyclic": CYCLIC}

THREADS_ENV = "SUPERSPECTRA_THREADS"


def _default_threads() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _parse_range(spec: str) -> list[int]:
    lo, sep, hi = spec.partition("..")
    try:
        ns = list(range(int(lo), int(hi) + 1)) if sep else [int(spec)]
    except ValueError:
        raise ParameterOutOfRange(f"bad range {spec!r}; expected N or LO..HI") from None
    if not ns:
        raise ParameterOutOfRange(f"range {spec!r} is empty")
    return ns


def _selected_graph(args) -> tuple[SimpleGraph, str]:
    table = build_group(FAMILY_TOKENS[args.family], args.n)
    if args.kind:
        return named_super_graph(table, BASE_FOR_KIND[args.kind], "conjugacy"), args.kind
    class_cliques = args.class_cliques != "off"
    graph = named_super_graph(table, args.base, args.relation, class_cliques=class_cliques)
    return graph, f"{args.base}+{args.relation}"


def cmd_group(args) -> int:
    table = build_group(FAMILY_TOKENS[args.family], args.n)
    classes = conjugacy_classes(table)
    centre = sorted(center(table))
    maximals = sorted(
        (sorted(s) for s in maximal_cyclic_subgroups(table)), key=lambda s: (-len(s), s)
    )
    if args.format == "json":
        payload = {
            "family": args.family,
            "n": args.n,
            "order": table.order,
            "center": [table.labels[g] for g in centre],
            "conjugacy_classes": [[table.labels[g] for g in block] for block in classes.blocks],
            "maximal_cyclic_subgroups": [[table.labels[g] for g in s] for s in maximals],
        }
        _emit(json.dumps(payload, indent=2), args.output)
        return 0
    lines = [
        f"family {args.family}  n={args.n}  order {table.order}",
        "center: " + ", ".join(table.labels[g] for g in centre),
        f"conjugacy classes ({classes.block_count}): "
        + " | ".join("{" + ", ".join(table.labels[g] for g in block) + "}" for block in classes.blocks),
        f"maximal cyclic subgroups ({len(maximals)}):",
    ]
    lines += ["  {" + ", ".join(table.labels[g] for g in s) + "}" for s in maximals]
    _emit("\n".join(lines), args.output)
    return 0


def cmd_spectrum(args) -> int:
    graph, name = _selected_graph(args)
    result = analyze(graph)
    if not result.integral:
        if args.format == "json":
            _emit(json.dumps({"error": "not_integral", "residual": str(result.residual)}, indent=2), args.output)
        else:
            print(f"graph is not Laplacian-integral; residual factor: {result.residual}", file=sys.stderr)
        return 1
    trees = spanning_tree_count(graph, method="determinant")
    if trees != result.trees:
        raise AssertionError(
            f"tree-count paths disagree: {decimal_string(result.trees)} vs {decimal_string(trees)}"
        )
    spectrum = result.spectrum
    factored = " * ".join(
        ("x" if v == 0 else f"(x - {v})") + (f"^{m}" if m > 1 else "")
        for v, m in sorted(spectrum.pairs)
    )
    payload = {
        "family": args.family,
        "n": args.n,
        "graph": name,
        "order": graph.vertex_count,
        "edges": graph.edge_count,
        "spectrum": [list(p) for p in spectrum.pairs],
        "char_poly_factored": factored,
        "trees": decimal_string(trees),
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.output)
        return 0
    lines = [
        f"{payload['graph']} on {payload['family']} n={payload['n']}: "
        f"order {payload['order']}, edges {payload['edges']}",
        "spectrum: " + " ".join(f"{v}^{m}" for v, m in payload["spectrum"]),
        f"char poly: {payload['char_poly_factored']}",
        f"spanning trees: {payload['trees']}",
    ]
    _emit("\n".join(lines), args.output)
    return 0


def cmd_verify(args) -> int:
    ns = _parse_range(args.range)
    threads = _default_threads() if args.threads is None else args.threads
    report = verify(args.kind, FAMILY_TOKENS[args.family], ns, threads=max(1, threads))
    rendered = {"json": report.to_json, "csv": report.to_csv, "table": report.to_table}[args.format]()
    if args.output:
        # file gets the machine format, stdout keeps the human table
        _emit(rendered, args.output)
        _emit(report.to_table(), None)
    else:
        _emit(rendered, None)
    status = 0 if report.all_passed else 1
    if args.strict:
        discrepancies = report.theorem_discrepancies()
        if discrepancies:
            for d in discrepancies:
                print(
                    f"strict: theorem-variant discrepancy at {d['kind']} {d['family']} "
                    f"n={d['n']} ({d['parity']}): polynomial degree {d['theorem_degree']}, "
                    f"order {d['order']}",
                    file=sys.stderr,
                )
            status = status or 2
    return status


def cmd_export(args) -> int:
    graph, name = _selected_graph(args)
    labels = graph.group.labels if graph.group is not None else tuple(
        str(i) for i in range(graph.vertex_count)
    )
    if args.format == "dot":
        lines = [f'graph "{name}_{args.family}_{args.n}" {{']
        lines += [f'  "{label}";' for label in labels]
        lines += [f'  "{labels[u]}" -- "{labels[v]}";' for u, v in graph.edges()]
        lines.append("}")
        _emit("\n".join(lines), args.output)
    elif args.format == "edgelist":
        _emit("\n".join(f"{u} {v}" for u, v in graph.edges()), args.output)
    else:
        payload = {
            "family": args.family,
            "n": args.n,
            "graph": name,
            "order": graph.vertex_count,
            "labels": list(labels),
            "edges": [[u, v] for u, v in graph.edges()],
        }
        _emit(json.dumps(payload, indent=2), args.output)
    return 0


def _add_selector(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True, choices=sorted(FAMILY_TOKENS))
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--kind", choices=KINDS)
    parser.add_argument("--base", choices=BASES)
    parser.add_argument("--relation", choices=RELATIONS)
    parser.add_argument("--class-cliques", choices=("on", "off"), default="on")


def _check_selector(parser: argparse.ArgumentParser, args) -> None:
    if args.kind and (args.base or args.relation):
        parser.error("give either --kind or --base/--relation, not both")
    if not args.kind and not (args.base and args.relation):
        parser.error("select a graph with --kind or with --base and --relation")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process: parsing leaves it as it is,
    and ``--threads`` reads its environment default when ``verify`` runs."""
    parser = argparse.ArgumentParser(
        prog="superspectra",
        description="exact Laplacian spectra of super graphs on dihedral, "
        "generalized quaternion and semidihedral groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="order, center, conjugacy classes, cyclic structure")
    p_group.add_argument("--family", required=True, choices=sorted(FAMILY_TOKENS))
    p_group.add_argument("--n", type=int, required=True)
    p_group.add_argument("--format", choices=("text", "json"), default="text")
    p_group.add_argument("--output")
    p_group.set_defaults(func=cmd_group)

    p_spec = sub.add_parser("spectrum", help="exact spectrum, char poly and tree count")
    _add_selector(p_spec)
    p_spec.add_argument("--format", choices=("text", "json"), default="text")
    p_spec.add_argument("--output")
    p_spec.set_defaults(func=cmd_spectrum, needs_selector=True)

    p_verify = sub.add_parser("verify", help="sweep exact results against the prediction catalog")
    p_verify.add_argument("--kind", required=True, choices=KINDS)
    p_verify.add_argument("--family", required=True, choices=sorted(FAMILY_TOKENS))
    p_verify.add_argument("--range", required=True, help="n range, e.g. 2..10 or a single n")
    p_verify.add_argument("--strict", action="store_true",
                          help="also fail when any theorem-variant mismatch exists")
    p_verify.add_argument("--threads", type=int,
                          help=f"worker processes (default: ${THREADS_ENV}, else 1)")
    p_verify.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_verify.add_argument("--output")
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser("export", help="write a graph as dot, edge list or json")
    _add_selector(p_export)
    p_export.add_argument("--format", choices=("dot", "edgelist", "json"), default="dot")
    p_export.add_argument("--output")
    p_export.set_defaults(func=cmd_export, needs_selector=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_selector", False):
        _check_selector(parser, args)
    try:
        return args.func(args)
    except (ParameterOutOfRange, UnsupportedCombination) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # an internal cross-check disagreed (tree-count paths, the twin
        # quotient's trace identity, a CRT bound): no result is certified
        if args.format == "json":
            _emit(json.dumps({"error": "internal_check_failed", "message": str(exc)}, indent=2), args.output)
        else:
            print(f"internal check failed: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
