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

from superspectra import analyze, build_group, named_super_graph, predicted_spectrum

for n in (10, 25, 50, 250):
    start = time.perf_counter()
    table = build_group("semidihedral", n)
    graph = named_super_graph(table, "commuting", "conjugacy")
    built = time.perf_counter()
    result = analyze(graph)
    done = time.perf_counter()

    expected = predicted_spectrum("cscom", "semidihedral", n)[0].spectrum
    print(f"n={n:>3}  order {table.order:>4}:")
    print(f"  build graph      {built - start:7.2f}s")
    print(f"  spectrum, trees  {done - built:7.2f}s   {result.spectrum.compact()}")
    print(f"  tree count       {math.floor(math.log10(result.trees)) + 1} digits")
    print(f"  matches catalog  {result.spectrum == expected}")
