"""Output checks made apart from the program.

Nothing here imports ``superspectra.formulas``: the closed forms below are
the benchmark's own transcription of the paper's catalog (the variant exact
computation supports, i.e. the multiplicity rows), and every other check is
a property the answer must have whatever produced it.  Each check returns a
list of ``(validator, message)`` pairs, empty when the answer passes.

``selftest`` feeds each validator a deliberately corrupted answer and
insists it is rejected, so a check that always passes cannot go unnoticed.
"""

from __future__ import annotations

import math
import random

import numpy as np

# (kind, family, parity) -> n -> [(eigenvalue, multiplicity)]
CLOSED_SPECTRA = {
    ("csep", "dihedral", 1): lambda n: [(2 * n, 1), (n + 1, n - 1), (n, n - 2), (1, 1), (0, 1)],
    ("csep", "dihedral", 0): lambda n: [(2 * n, 1), (n, n - 2), (n // 2 + 1, n - 2), (1, 2), (0, 1)],
    ("csep", "quaternion", 1): lambda n: [
        (4 * n, 2), (2 * n + 2, 2 * n - 1), (2 * n, 2 * n - 3), (2, 1), (0, 1)],
    ("csep", "quaternion", 0): lambda n: [
        (4 * n, 2), (2 * n, 2 * n - 3), (n + 2, 2 * n - 2), (2, 2), (0, 1)],
    ("csep", "semidihedral", 0): lambda n: [
        (8 * n, 1), (6 * n, 1), (4 * n, 4 * n - 3), (2 * n + 2, 2 * n - 1),
        (2 * n + 1, 2 * n - 1), (2, 1), (1, 1), (0, 1)],
    ("csep", "semidihedral", 1): lambda n: [
        (8 * n, 1), (6 * n, 1), (4 * n, 4 * n - 3), (2 * n + 2, 2 * n - 1),
        (n + 1, 2 * n - 2), (2, 1), (1, 2), (0, 1)],
    ("cscom", "semidihedral", 1): lambda n: [
        (8 * n, 4), (4 * n + 4, 4 * n - 1), (4 * n, 4 * n - 5), (4, 1), (0, 1)],
    ("cscom", "semidihedral", 0): lambda n: [
        (8 * n, 2), (4 * n, 4 * n - 3), (2 * n + 2, 4 * n - 2), (2, 2), (0, 1)],
}

CLOSED_TREES = {
    ("csep", "dihedral", 1): lambda n: n ** (n - 2) * (n + 1) ** (n - 1),
    ("csep", "dihedral", 0): lambda n: n ** (n - 2) * (n // 2 + 1) ** (n - 2),
    ("csep", "quaternion", 1): lambda n: 2 ** (2 * n) * n ** (2 * n - 2) * (2 * n + 2) ** (2 * n - 1),
    ("csep", "quaternion", 0): lambda n: 2 ** (2 * n + 1) * n ** (2 * n - 2) * (n + 2) ** (2 * n - 2),
    ("csep", "semidihedral", 0): lambda n: (
        3 * 2 ** (8 * n - 4) * n ** (4 * n - 2) * (2 * n + 2) ** (2 * n - 1) * (2 * n + 1) ** (2 * n - 1)),
    ("csep", "semidihedral", 1): lambda n: (
        3 * 2 ** (8 * n - 4) * n ** (4 * n - 2) * (2 * n + 2) ** (2 * n - 1) * (n + 1) ** (2 * n - 2)),
    ("cscom", "semidihedral", 1): lambda n: 2 ** (8 * n + 1) * n ** (4 * n - 2) * (4 * n + 4) ** (4 * n - 1),
    ("cscom", "semidihedral", 0): lambda n: 2 ** (8 * n - 1) * n ** (4 * n - 2) * (2 * n + 2) ** (4 * n - 2),
}

# a float eigenvalue this close to an integer is read as that integer
FLOAT_TOL = 1e-6


def closed_spectrum(kind: str, family: str, n: int) -> dict[int, int]:
    """Closed-form eigenvalue -> multiplicity, coincident values merged."""
    merged: dict[int, int] = {}
    for value, mult in CLOSED_SPECTRA[(kind, family, n % 2)](n):
        if mult < 0:
            raise ValueError(f"closed form degenerate for {kind} {family} n={n}")
        if mult:
            merged[value] = merged.get(value, 0) + mult
    return merged


def closed_trees(kind: str, family: str, n: int) -> int:
    return CLOSED_TREES[(kind, family, n % 2)](n)


def _as_dict(pairs) -> dict[int, int]:
    out: dict[int, int] = {}
    for value, mult in pairs:
        out[int(value)] = out.get(int(value), 0) + int(mult)
    return out


def component_count(adj: np.ndarray) -> int:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        frontier = np.zeros(n, dtype=bool)
        frontier[start] = True
        while frontier.any():
            seen |= frontier
            frontier = adj[frontier].any(axis=0) & ~seen
    return count


def _float_spectrum(adj: np.ndarray) -> np.ndarray:
    a = adj.astype(np.float64)
    return np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)


def check_spectrum(adj: np.ndarray, pairs, trees: int, closed: tuple[str, str, int] | None = None):
    """Validate an integral spectrum and tree count for the graph ``adj``."""
    adj = np.asarray(adj, dtype=bool)
    spectrum = _as_dict(pairs)
    n = adj.shape[0]
    degrees = adj.sum(axis=1).astype(np.int64)
    two_e = int(degrees.sum())
    problems = []
    total = sum(spectrum.values())
    if total != n:
        problems.append(("multiplicity_sum", f"multiplicities sum to {total}, N = {n}"))
    first = sum(v * m for v, m in spectrum.items())
    if first != two_e:
        problems.append(("first_moment", f"sum l*m = {first}, 2|E| = {two_e}"))
    second = sum(v * v * m for v, m in spectrum.items())
    want = int((degrees * degrees).sum()) + two_e
    if second != want:
        problems.append(("second_moment", f"sum l^2*m = {second}, sum d^2 + 2|E| = {want}"))
    components = component_count(adj)
    if spectrum.get(0, 0) != components:
        problems.append(("zero_multiplicity", f"mult(0) = {spectrum.get(0, 0)}, components = {components}"))
    product = math.prod(v ** m for v, m in spectrum.items() if v != 0)
    if n * trees != (product if components == 1 else 0):
        problems.append(("matrix_tree", f"N*trees = {n * trees}, prod of nonzero eigenvalues = {product}"))
    ev = _float_spectrum(adj)
    rounded = np.rint(ev)
    values, counts = np.unique(rounded.astype(np.int64), return_counts=True)
    if np.abs(ev - rounded).max(initial=0.0) > FLOAT_TOL or dict(zip(values.tolist(), counts.tolist())) != spectrum:
        problems.append(("float_spectrum", "float eigvalsh of L is not that integer multiset"))
    if closed is not None:
        kind, family, param = closed
        if spectrum != closed_spectrum(kind, family, param):
            problems.append(("closed_form_spectrum", f"spectrum differs from the closed form for {closed}"))
        if trees != closed_trees(kind, family, param):
            problems.append(("closed_form_trees", f"tree count differs from the closed form for {closed}"))
    return problems


def parse_polynomial(text: str) -> list[int]:
    """Coefficients, low to high, of a polynomial printed as
    ``x^6 - 438*x^5 + ... + 12``."""
    coeffs: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        term = term.replace(" ", "")
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "x" in term:
            mag, _, power = term.partition("x")
            mag = int(mag.rstrip("*")) if mag else 1
            power = int(power[1:]) if power else 1
        else:
            mag, power = int(term), 0
        coeffs[power] = coeffs.get(power, 0) + sign * mag
    return [coeffs.get(p, 0) for p in range(max(coeffs) + 1)]


def check_not_integral(adj: np.ndarray, residual: list[int]):
    """Validate a ``not_integral`` answer: the residual factor must be monic
    and its roots must be exactly the eigenvalues of L off the integers."""
    ev = _float_spectrum(np.asarray(adj, dtype=bool))
    off = np.sort(ev[np.abs(ev - np.rint(ev)) > FLOAT_TOL])
    degree = len(residual) - 1
    problems = []
    if residual[-1] != 1:
        problems.append(("residual_monic", f"leading coefficient {residual[-1]}"))
    if degree != off.size:
        problems.append(("residual_degree", f"residual degree {degree}, {off.size} float eigenvalues off the integers"))
    else:
        roots = np.sort(np.roots(residual[::-1]).real) if degree else np.empty(0)
        if not np.allclose(roots, off, rtol=1e-4, atol=1e-4):
            problems.append(("residual_roots", "residual roots differ from the non-integer float eigenvalues"))
    return problems


def check_build(adj: np.ndarray, kind: str, family: str, n: int):
    """2|E| and sum d^2 of a built lift against its closed-form spectrum;
    no spectral code runs."""
    spectrum = closed_spectrum(kind, family, n)
    two_e = sum(v * m for v, m in spectrum.items())
    sum_d2 = sum(v * v * m for v, m in spectrum.items()) - two_e
    degrees = np.asarray(adj, dtype=bool).sum(axis=1).astype(np.int64)
    problems = []
    if int(degrees.sum()) != two_e:
        problems.append(("build_edges", f"2|E| = {int(degrees.sum())}, closed form gives {two_e}"))
    if int((degrees * degrees).sum()) != sum_d2:
        problems.append(("build_degrees", f"sum d^2 = {int((degrees * degrees).sum())}, closed form gives {sum_d2}"))
    return problems


def check_group(product: np.ndarray, inverse: np.ndarray, rng: random.Random, triples: int = 4096):
    """Group axioms on a seeded sample: associativity on random triples,
    identity on its full row and column, inverses and the Latin property
    on sampled rows and columns."""
    p = np.asarray(product)
    n = p.shape[0]
    idx = np.arange(n)
    abc = np.array([[rng.randrange(n) for _ in range(3)] for _ in range(triples)])
    a, b, c = abc.T
    problems = []
    if not np.array_equal(p[p[a, b], c], p[a, p[b, c]]):
        problems.append(("group_associativity", "(ab)c != a(bc) on a sampled triple"))
    if not (np.array_equal(p[0], idx) and np.array_equal(p[:, 0], idx)):
        problems.append(("group_identity", "index 0 does not act as the identity"))
    rows = np.array(sorted({rng.randrange(n) for _ in range(16)}))
    if not np.all(p[rows, np.asarray(inverse)[rows]] == 0):
        problems.append(("group_inverse", "a * inverse(a) != identity on a sampled element"))
    if not (np.array_equal(np.sort(p[rows], axis=1), np.broadcast_to(idx, (rows.size, n)))
            and np.array_equal(np.sort(p[:, rows], axis=0), np.broadcast_to(idx[:, None], (n, rows.size)))):
        problems.append(("group_latin", "a sampled row or column is not a permutation"))
    return problems


# ---------------------------------------------------------------------------
# self-test


def _names(problems) -> set[str]:
    return {name for name, _ in problems}


def selftest(program) -> list[str]:
    """Corrupt known-good answers and require every validator to reject.

    The good answers come from the closed forms and from graphs the
    program builds (no spectral code runs here, so the program's lazy
    prime table stays cold).  Returns the lines of a report; raises
    ``AssertionError`` when a validator accepts a corrupted answer or
    rejects a good one.
    """
    report = []

    def expect(label, problems, must):
        got = _names(problems)
        missing = set(must) - got
        if missing:
            raise AssertionError(f"self-test '{label}': {sorted(missing)} accepted a corrupted answer")
        report.append(f"selftest {label}: rejected by {', '.join(sorted(got))}")

    # transcription consistency: closed-form trees = prod of nonzero closed-form eigenvalues / N
    for key in CLOSED_SPECTRA:
        kind, family, _ = key
        order = {"dihedral": 2, "quaternion": 4, "semidihedral": 8}[family]
        for n in range(2 + key[2], 12, 2):
            if family == "dihedral" and n < 3:
                continue
            spectrum = closed_spectrum(kind, family, n)
            product = math.prod(v ** m for v, m in spectrum.items() if v)
            if sum(spectrum.values()) != order * n or product != order * n * closed_trees(kind, family, n):
                raise AssertionError(f"closed forms disagree with each other at {key} n={n}")

    kind, family, n = "csep", "dihedral", 6
    table = program.groups.build_group(family, n)
    adj = np.array(program.graphs.named_super_graph(table, "enhanced", "conjugacy").adjacency)
    good = sorted(closed_spectrum(kind, family, n).items(), reverse=True)
    trees = closed_trees(kind, family, n)
    if check_spectrum(adj, good, trees, (kind, family, n)) or check_build(adj, kind, family, n):
        raise AssertionError("self-test: a correct answer was rejected")
    if check_group(table.product, table.inverse, random.Random(0)):
        raise AssertionError("self-test: a correct group table was rejected")

    top = good[0][0]
    moved = dict(good)
    moved[top] -= 1
    moved[0] += 1
    expect("multiplicity moved by one", check_spectrum(adj, moved.items(), trees, (kind, family, n)),
           ["first_moment", "second_moment", "zero_multiplicity", "matrix_tree", "float_spectrum",
            "closed_form_spectrum"])
    extra = dict(good)
    extra[top] += 1
    expect("multiplicity raised by one", check_spectrum(adj, extra.items(), trees, (kind, family, n)),
           ["multiplicity_sum", "first_moment", "second_moment", "float_spectrum", "closed_form_spectrum"])
    expect("tree count off by one", check_spectrum(adj, good, trees + 1, (kind, family, n)),
           ["matrix_tree", "closed_form_trees"])
    dropped = adj.copy()
    u, v = map(int, np.argwhere(np.triu(dropped, 1))[0])
    dropped[u, v] = dropped[v, u] = False
    expect("dropped edge", check_spectrum(dropped, good, trees, (kind, family, n)),
           ["first_moment", "second_moment", "float_spectrum"])
    expect("dropped edge (build)", check_build(dropped, kind, family, n), ["build_edges", "build_degrees"])
    broken = np.array(table.product)
    broken[:, [1, 2]] = broken[:, [2, 1]]
    expect("group table with two columns swapped", check_group(broken, table.inverse, random.Random(0)),
           ["group_identity"])

    # path on four vertices: spectrum 0, 2, 2 - sqrt 2, 2 + sqrt 2; residual x^2 - 4x + 2
    path = np.zeros((4, 4), dtype=bool)
    for i in range(3):
        path[i, i + 1] = path[i + 1, i] = True
    residual = parse_polynomial("x^2 - 4*x + 2")
    if check_not_integral(path, residual):
        raise AssertionError("self-test: a correct not_integral answer was rejected")
    expect("wrong residual degree", check_not_integral(path, parse_polynomial("x^3 - 4*x^2 + 2*x")),
           ["residual_degree"])
    expect("wrong residual roots", check_not_integral(path, parse_polynomial("x^2 - 4*x + 1")),
           ["residual_roots"])
    return report
