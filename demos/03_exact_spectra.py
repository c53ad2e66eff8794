"""Exact Laplacian analytics: characteristic polynomial, integral spectrum
and spanning-tree count, with everything in arbitrary-precision integers.

Run:  python demos/03_exact_spectra.py
"""

from superspectra import (
    analyze,
    build_group,
    char_poly,
    factor_integer_roots,
    graph_from_edges,
    laplacian,
    named_super_graph,
    spanning_tree_count,
    structural_graph,
)

print("=== the enhanced-power conjugacy lift of D_10 ===")
d10 = build_group("dihedral", 5)
g = named_super_graph(d10, "enhanced", "conjugacy")
lap = laplacian(g)
poly = char_poly(lap)
print("char poly :", poly)
pairs, _ = factor_integer_roots(poly, g.vertex_count)
print("factored  :", " ".join(f"(x-{v})^{m}" for v, m in pairs))
result = analyze(g)  # spectrum and tree count from one twin-quotient char poly
print("spectrum  :", result.spectrum.compact())
print("trees     :", result.trees)

print("\n=== two independent construction paths, equal edge-for-edge ===")
built = named_super_graph(build_group("semidihedral", 4), "commuting", "conjugacy")
structural = structural_graph("cscom", "semidihedral", 4)
print("group-definition build == structural expression build:", built == structural)

print("\n=== two independent tree counts ===")
by_eigen = spanning_tree_count(built, method="eigenvalues")
by_det = spanning_tree_count(built, method="determinant")
print(f"eigenvalue product / N : {by_eigen}")
print(f"Kirchhoff cofactor     : {by_det}")
print("agree:", by_eigen == by_det)

print("\n=== a graph that is not Laplacian-integral ===")
path4 = analyze(graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]))
print("path on 4 vertices: integral", path4.integral, "integer roots", dict(path4.spectrum.pairs))
print("irreducible residual factor:", path4.residual)
