"""Per-layer tracing of the sidlattice CLI from outside the package.

Public functions are wrapped by rebinding them on every ``sidlattice``
module that holds them: ``from .engine import evolve`` copies the binding,
so rebinding only the defining module would silently miss those calls.
Classes are never replaced (``Subspace.zero`` and ``Subspace.full`` need the
real class); their constructions are counted by wrapping ``__init__`` on the
class, which runs the dataclass ``__post_init__`` validation.

A span's self time is its duration minus the time of the spans it encloses.
The hot lattice operations get counters instead of spans: full spans on the
~170k calls of one lattice iteration cost about 20% in a probe.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from time import perf_counter

SPANS = (
    "cli.load_scenario", "cli.run_emerge", "cli.run_simulate", "cli.run_lattice",
    "spectral.build_kernel", "spectral.check_hermitian", "spectral.RegularKernel",
    "spectral.hs_norm",
    "engine.commutator_kernel", "engine.incompatibility_observable",
    "engine.expectation_series", "engine.evolve", "engine.decoherence_time",
    "emergence.run_emergence", "emergence.effective_compatibility",
    "emergence.pointer_lattice",
    "lattice.generate_lattice", "lattice.is_boolean", "lattice.check_lattice_laws",
    "lattice.compatibility_matrix", "lattice.kolmogorov_check",
)
COUNTERS = (
    "lattice.meet", "lattice.join", "lattice.ortho", "lattice.leq",
    "lattice.projector_distance", "lattice.Subspace",
)
# Operations whose calls inside generate_lattice make up the closure work.
CLOSURE_OPS = frozenset({"lattice.meet", "lattice.join", "lattice.ortho"})
CLOSURE_SPAN = "lattice.generate_lattice"
HERMITIAN_SPAN = "spectral.check_hermitian"


def _is_class_name(name: str) -> bool:
    return name.rsplit(".", 1)[1][:1].isupper()


def _count_key(name: str) -> str:
    return f"{name}.constructions" if _is_class_name(name) else f"{name}.calls"


# Per-iteration metrics read from a traced iteration, in report order.
ITERATION_METRICS = (
    tuple(f"{name}.self_s" for name in SPANS)
    + ("spectral.build_kernel.calls", "spectral.check_hermitian.calls",
       "spectral.check_hermitian.entries", "spectral.RegularKernel.constructions")
    + tuple(_count_key(name) for name in COUNTERS)
    + ("lattice.closure.elements", "lattice.closure.yield")
)
# Metrics that compare a traced run with the untraced one.
QUALIFIERS = ("trace.overhead", "trace.coverage")
METRICS = ITERATION_METRICS + QUALIFIERS
RATIOS = frozenset({"lattice.closure.yield", "trace.overhead", "trace.coverage"})


def unit(metric: str) -> str:
    """Unit of a per-layer metric: seconds, a count, or a ratio."""
    if metric.endswith(".self_s"):
        return "s"
    return "1" if metric in RATIOS else "count"


class Tracer:
    """Spans and counters around the sidlattice layers, reset per iteration."""

    def __init__(self):
        self._open: list[list[float]] = []
        self._closure_depth = 0
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.hermitian_entries = 0
        self.closure_elements = 0
        self.closure_ops = 0

    def _span(self, name: str, fn):
        open_spans = self._open
        count_key = _count_key(name)

        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                self.self_s[name] += elapsed - children[0]
                self.counts[count_key] += 1

        if name == HERMITIAN_SPAN:
            def checked(kernel, *args, **kwargs):
                self.hermitian_entries += kernel.values.size
                return traced(kernel, *args, **kwargs)
            return checked
        if name == CLOSURE_SPAN:
            def closure(*args, **kwargs):
                self._closure_depth += 1
                try:
                    lat = traced(*args, **kwargs)
                finally:
                    self._closure_depth -= 1
                self.closure_elements += len(lat)
                return lat
            return closure
        return traced

    def _counter(self, name: str, fn):
        key = _count_key(name)
        closure_op = name in CLOSURE_OPS

        def counted(*args, **kwargs):
            self.counts[key] += 1
            if closure_op and self._closure_depth:
                self.closure_ops += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Wrap every traced name that exists.

        A name that a later version of the package removed is listed in
        ``missing`` and reads as zero.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sidlattice" or n.startswith("sidlattice.")]
        self.missing = []
        for name in SPANS + COUNTERS:
            layer, attr = name.split(".")
            original = getattr(sys.modules.get(f"sidlattice.{layer}"), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrap = self._span if name in SPANS else self._counter
            if isinstance(original, type):
                self._rebind(original, "__init__", wrap(name, original.__init__))
                continue
            wrapped = wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every binding install() replaced."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, float]:
        """This iteration's per-layer values, keyed as in ITERATION_METRICS."""
        out = {f"{name}.self_s": self.self_s.get(name, 0.0) for name in SPANS}
        for name in SPANS + COUNTERS:
            key = _count_key(name)
            if key in ITERATION_METRICS:
                out[key] = self.counts.get(key, 0)
        out["spectral.check_hermitian.entries"] = self.hermitian_entries
        out["lattice.closure.elements"] = self.closure_elements
        out["lattice.closure.yield"] = (
            self.closure_elements / self.closure_ops if self.closure_ops else 0.0)
        return out


def summarize(untraced_walls: list[float], traced_walls: list[float],
              iterations: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-iteration metric, plus trace overhead and coverage.

    overhead is traced / untraced median wall time minus 1; coverage is the
    summed span self times over the traced wall time.
    """
    out = {key: statistics.median(it[key] for it in iterations)
           for key in ITERATION_METRICS}
    traced = statistics.median(traced_walls)
    out["trace.overhead"] = traced / statistics.median(untraced_walls) - 1.0
    out["trace.coverage"] = statistics.median(
        sum(it[f"{name}.self_s"] for name in SPANS) / wall
        for it, wall in zip(iterations, traced_walls))
    return out
