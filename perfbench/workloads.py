"""The four workloads: their inputs, drawn from a seed, and their operations.

Every workload is a closed loop with one client: the operations of a round
run back to back in this process, and the package's process pool stays off.
An operation drives the package only through its public functions.  This
module imports neither numpy nor the package at import time, so that the
measured set-up (package import plus input generation) is the same in the
run and in the set-up probes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

WORKLOADS = ("catalog-sweep", "paper-spectrum-800", "offcatalog-cli", "build-2000")

FAMILY = {"d2n": "dihedral", "q4n": "quaternion", "sd8n": "semidihedral"}
BASE = {"csep": "enhanced", "cscom": "commuting"}

# catalog-sweep: every catalog pair over consecutive n up to order 128
CATALOG_RANGES = (("csep", "d2n", 3, 64), ("csep", "q4n", 2, 32), ("csep", "sd8n", 2, 16),
                  ("cscom", "sd8n", 2, 16))
# paper-spectrum-800: catalog graphs of order 800; one is drawn per run.
# csep D n=400 is left out: its char poly is about 15% cheaper than these two.
PAPER_POOL = (("cscom", "sd8n", 100), ("csep", "q4n", 200))
# offcatalog-cli: lifts with no closed form, order 200.  The power lifts
# are not Laplacian-integral at these n (residual degree 6-8).
OFFCATALOG_GROUPS = (("d2n", 100), ("q4n", 50), ("sd8n", 25))
OFFCATALOG_LIFTS = (("enhanced", "equality"), ("commuting", "equality"), ("power", "equality"),
                    ("power", "conjugacy"))
# build-2000: one conjugacy lift per family at order 2000; the seed picks
# which semidihedral lift (both have 503 classes, like the other two)
BUILD_FIXED = (("csep", "d2n", 1000), ("csep", "q4n", 500))
BUILD_SD = (("csep", "sd8n", 250), ("cscom", "sd8n", 250))


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` is timed, ``check`` is not."""

    label: str
    run: Callable
    check: Callable


def load_program(src: Path) -> SimpleNamespace:
    """Import the package from the checkout's source tree."""
    sys.path.insert(0, str(src))
    package = importlib.import_module("superspectra")
    if Path(package.__file__).resolve().parent != (src / "superspectra").resolve():
        raise ImportError(f"superspectra was imported from {package.__file__}, not from {src}")
    layers = {name: importlib.import_module(f"superspectra.{name}")
              for name in ("groups", "graphs", "compose", "spectral", "formulas", "cli")}
    return SimpleNamespace(package=package, **layers)


def _cli(program, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = program.cli.main(argv)
    return code, out.getvalue()


def _lift_adjacency(program, family: str, n: int, base: str, relation: str):
    table = program.groups.build_group(FAMILY[family], n)
    return program.graphs.named_super_graph(table, base, relation).adjacency


# ---------------------------------------------------------------------------
# catalog-sweep: `superspectra verify --format json`, one case per call


def _verify_run(kind, family, n, program):
    return _cli(program, ["verify", "--kind", kind, "--family", family, "--range", str(n),
                          "--format", "json", "--threads", "1"])


def _verify_check(kind, family, n, program, out, rng):
    import checks

    code, text = out
    case = json.loads(text)["cases"][0]
    problems = []
    if code != 0 or not case["passed"] or not case["dual_path_equal"]:
        problems.append(("program_verdict", f"exit {code}, passed={case['passed']}"))
    adj = _lift_adjacency(program, family, n, BASE[kind], "conjugacy")
    if case["n"] != n or case["order"] != adj.shape[0] or 2 * case["edges"] != int(adj.sum()):
        problems.append(("case_shape", "n, order or edge count differs from the built graph"))
    problems += checks.check_spectrum(adj, case["computed_spectrum"], int(case["computed_trees"]),
                                      (kind, FAMILY[family], n))
    return problems


# ---------------------------------------------------------------------------
# paper-spectrum-800: library spectrum plus eigenvalue tree count


def _paper_run(kind, family, n, program):
    table = program.groups.build_group(FAMILY[family], n)
    graph = program.graphs.named_super_graph(table, BASE[kind], "conjugacy")
    spectrum = program.spectral.integral_spectrum(program.spectral.laplacian(graph))
    trees = program.spectral.spanning_tree_count(graph, method="eigenvalues")
    return table, graph.adjacency, spectrum.pairs, trees


def _paper_check(kind, family, n, program, out, rng):
    import checks

    table, adj, pairs, trees = out
    return (checks.check_group(table.product, table.inverse, rng)
            + checks.check_spectrum(adj, pairs, trees, (kind, FAMILY[family], n)))


# ---------------------------------------------------------------------------
# offcatalog-cli: `superspectra spectrum --base --relation --format json`


def _spectrum_run(family, n, base, relation, program):
    return _cli(program, ["spectrum", "--family", family, "--n", str(n), "--base", base,
                          "--relation", relation, "--format", "json"])


def _spectrum_check(family, n, base, relation, program, out, rng):
    import checks

    code, text = out
    payload = json.loads(text)
    adj = _lift_adjacency(program, family, n, base, relation)
    if code == 1 and payload.get("error") == "not_integral":
        return checks.check_not_integral(adj, checks.parse_polynomial(payload["residual"]))
    problems = []
    if code != 0:
        problems.append(("program_verdict", f"exit {code}: {payload}"))
        return problems
    if payload["order"] != adj.shape[0] or 2 * payload["edges"] != int(adj.sum()):
        problems.append(("case_shape", "order or edge count differs from the built graph"))
    return problems + checks.check_spectrum(adj, payload["spectrum"], int(payload["trees"]))


# ---------------------------------------------------------------------------
# build-2000: group, partitions, base graph, lift, structural cross-check


def _build_run(kind, family, n, program):
    groups, graphs = program.groups, program.graphs
    table = groups.build_group(FAMILY[family], n)
    classes = groups.conjugacy_classes(table)
    groups.order_partition(table)
    base = graphs.enhanced_power_graph(table) if kind == "csep" else graphs.commuting_graph(table)
    lift = graphs.super_graph(base, classes)
    same = lift == program.compose.structural_graph(kind, FAMILY[family], n)
    return table, lift.adjacency, same


def _build_check(kind, family, n, program, out, rng):
    import checks

    table, adj, same = out
    problems = [] if same else [("structural_equal", "lift differs from the structural build")]
    return (problems + checks.check_group(table.product, table.inverse, rng)
            + checks.check_build(adj, kind, FAMILY[family], n))


def _op(label, run, check, *params) -> Op:
    return Op(label, functools.partial(run, *params), functools.partial(check, *params))


def make_inputs(workload: str, seed: int) -> list[Op]:
    """The operations of one round, drawn from the workload's fixed pool.

    Same seed, same operations in the same order.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "catalog-sweep":
        ops = [_op(f"verify {k} {f} n={n}", _verify_run, _verify_check, k, f, n)
               for k, f, lo, hi in CATALOG_RANGES for n in range(lo, hi + 1)]
    elif workload == "paper-spectrum-800":
        k, f, n = rng.choice(PAPER_POOL)
        ops = [_op(f"spectrum {k} {f} n={n}", _paper_run, _paper_check, k, f, n)]
    elif workload == "offcatalog-cli":
        ops = [_op(f"spectrum {b}/{r} {f} n={n}", _spectrum_run, _spectrum_check, f, n, b, r)
               for f, n in OFFCATALOG_GROUPS for b, r in OFFCATALOG_LIFTS]
    elif workload == "build-2000":
        ops = [_op(f"build {k} {f} n={n}", _build_run, _build_check, k, f, n)
               for k, f, n in BUILD_FIXED + (rng.choice(BUILD_SD),)]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(ops)
    return ops
