"""Per-layer spans for the traced run, recorded from outside the program.

The six modules of the package are the layers.  ``Tracer.installed()``
replaces every public function of those modules with a timing wrapper, at
every module attribute that holds it and in module-level dicts that hold
it (``cli`` and ``formulas`` import the functions they call by name, and
``graphs`` dispatches base graphs through a dict, so rebinding only the
defining module would miss those calls), and restores the originals on
exit.  Nothing in the package changes.  Spans are kept in memory; a
layer's self time is its span durations minus the durations of the wrapped
calls nested in them.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("groups", "graphs", "compose", "spectral", "formulas", "cli")


def _char_poly_hook(tracer, args, kwargs, result):
    m = np.ascontiguousarray(args[0] if args else kwargs["matrix"])
    tracer.counters["spectral.char_poly_dim_sum"] += int(m.shape[0])
    digest = (m.shape, m.dtype.str, hashlib.blake2b(m.tobytes(), digest_size=16).digest())
    if digest in tracer.op_matrices:
        tracer.counters["spectral.char_poly_repeats"] += 1
    tracer.op_matrices.add(digest)
    bits = max(abs(c).bit_length() for c in result.coefficients)
    tracer.coeff_bits = max(tracer.coeff_bits, bits)


def _super_graph_hook(tracer, args, kwargs, result):
    base = args[0] if args else kwargs["base"]
    classes = args[1] if len(args) > 1 else kwargs["classes"]
    k, n = classes.block_count, base.vertex_count
    if k < n:  # with all blocks singletons the program returns the base graph, no product
        tracer.counters["graphs.super_graph_madds"] += k * n * n + k * k * n


def _verify_hook(tracer, args, kwargs, result):
    tracer.counters["formulas.cases"] += len(result.cases)


HOOKS = {
    "spectral.char_poly": _char_poly_hook,
    "graphs.super_graph": _super_graph_hook,
    "formulas.verify": _verify_hook,
}


class Tracer:
    """Wraps the package's public functions and records nested spans."""

    def __init__(self, program):
        self.program = program
        self.spans: list[list] = []  # [name, start, end, parent index, op index]
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.coeff_bits = 0
        self.paused = False
        self.op = -1
        self.op_matrices: set[tuple] = set()
        self._stack: list[list] = []  # [span index, time of nested wrapped calls]

    def begin_op(self) -> None:
        """Start a new operation: spans are tagged with it and repeated
        char-poly inputs are counted within it."""
        self.op += 1
        self.op_matrices = set()

    @contextlib.contextmanager
    def pause(self):
        """Run calls unrecorded, e.g. for output checks."""
        self.paused, was = True, self.paused
        try:
            yield
        finally:
            self.paused = was

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            parent = self._stack[-1][0] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.op]
            frame = [len(self.spans), 0.0]
            self.spans.append(span)
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result
            finally:
                span[2] = end = time.perf_counter()
                self._stack.pop()
                duration = end - span[1]
                self.self_time[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function of the six layers for the duration."""
        modules = [getattr(self.program, layer) for layer in LAYERS] + [self.program.package]
        wrappers = {}
        for layer in LAYERS:
            module = getattr(self.program, layer)
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        replaced = []  # (namespace dict, key, original)
        for module in modules:
            namespaces = [vars(module)] + [v for v in vars(module).values() if type(v) is dict]
            for namespace in namespaces:  # module-level dispatch tables such as graphs._BASE_BUILDERS
                for key, obj in list(namespace.items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        namespace[key] = wrappers[obj]
                        replaced.append((namespace, key, obj))
        try:
            yield self
        finally:
            for namespace, key, obj in replaced:
                namespace[key] = obj

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)

    def layer_metrics(self, rounds: int, wall: float) -> dict[str, float]:
        """Per-layer metrics, per round; ``wall`` is the traced operation time."""
        s = self.self_time

        def total(*names):
            return sum(s.get(n, 0.0) for n in names) / rounds

        def layer(prefix):
            return sum(v for k, v in s.items() if k.startswith(prefix + ".")) / rounds

        out = {
            "groups.build_group_s": total("groups.build_group"),
            "groups.partition_s": total("groups.conjugacy_classes", "groups.order_partition",
                                        "groups.equality_partition", "groups.element_order"),
            "graphs.base_graph_s": total("graphs.power_graph", "graphs.enhanced_power_graph",
                                         "graphs.commuting_graph"),
            "graphs.super_graph_s": total("graphs.super_graph"),
            "compose.structural_graph_s": total("compose.structural_graph"),
            "spectral.laplacian_s": total("spectral.laplacian"),
            "spectral.char_poly_s": total("spectral.char_poly"),
            "spectral.root_extraction_s": total("spectral.integral_spectrum"),
            "spectral.integer_determinant_s": total("spectral.integer_determinant"),
            "formulas.verify_self_s": total("formulas.verify"),
        }
        for name in ("graphs.super_graph", "spectral.char_poly", "spectral.integer_determinant"):
            out[f"{name}_calls"] = self.calls.get(name, 0) / rounds
        for name in ("graphs.super_graph_madds", "spectral.char_poly_dim_sum", "spectral.char_poly_repeats",
                     "formulas.cases"):
            out[name] = self.counters.get(name, 0) / rounds
        out["spectral.char_poly_coeff_bits"] = self.coeff_bits
        for prefix in LAYERS:
            out[f"{prefix}.self_s"] = layer(prefix)
        out["trace.wall_s"] = wall / rounds
        out["trace.outside_s"] = (wall - self.top_level_seconds()) / rounds
        out["trace.spans"] = len(self.spans) / rounds
        return out
