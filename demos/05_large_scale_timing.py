"""Timing the exact pipeline at desk scale.

The lifts are compositions of cliques, so the Laplacian reduces along its
twin classes to a quotient of order at most 5.  Its characteristic polynomial
takes milliseconds, and the twin classes give the other eigenvalues
directly.  The order-2000 group, build included, takes well under a second
rather than the minutes a full order-2000 characteristic polynomial would.

Run:  python demos/05_large_scale_timing.py
"""

import math
import time

from superspectra import (
    build_group,
    integral_spectrum,
    laplacian,
    named_super_graph,
    predicted_spectrum,
    spanning_tree_count,
)

for n in (10, 25, 50, 250):
    start = time.perf_counter()
    table = build_group("semidihedral", n)
    graph = named_super_graph(table, "commuting", "conjugacy")
    built = time.perf_counter()
    spectrum = integral_spectrum(laplacian(graph))
    spectral = time.perf_counter()
    trees = spanning_tree_count(graph, method="eigenvalues")
    done = time.perf_counter()

    expected = predicted_spectrum("cscom", "semidihedral", n)[0].spectrum
    print(f"n={n:>3}  order {table.order:>4}:")
    print(f"  build graph      {built - start:7.2f}s")
    print(f"  exact spectrum   {spectral - built:7.2f}s   {spectrum.compact()}")
    print(f"  tree count       {done - spectral:7.2f}s   ({math.floor(math.log10(trees)) + 1} digits)")
    print(f"  matches catalog  {spectrum == expected}")
