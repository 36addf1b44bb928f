"""Per-layer tracing for the traced benchmark run.

Spans are recorded from the benchmark's side, around the public functions of
each layer. The package binds names at import (`from .x import y`), so a
wrapper is installed at every lookup site: each module global that refers to
the original function is rebound to the wrapper. A wrapped name that is
missing, a layer the workload must reach that records no call, or too much
time in no wrapped layer fails the run instead of reading zero.

A span carries its name, op id, parent, start and end. A layer's self time is
its span's duration minus the time its child spans cover. Number sizes are
measured on the returned values after the span has ended, with
`int.bit_length()`, and that bookkeeping is charged to no layer.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from fractions import Fraction
from time import perf_counter

PACKAGE = "banded_darboux"

BITS = ("num_bits", "den_bits")

# Wrapped function -> metrics reported for it, in output order.
LAYERS = {
    "functionals.is_p_orthogonal": ("calls", "self_s", "checks"),
    "functionals.dual_sequence": ("calls", "self_s") + BITS,
    "banded.characteristic_polys": ("calls", "self_s") + BITS,
    "banded.recurrence_values": ("calls", "self_s") + BITS,
    "factorization.shifted_lu": ("calls", "self_s") + BITS,
    "factorization.peel_stages": ("calls", "self_s") + BITS + ("errors",),
    "banded.multiply_window": ("calls", "self_s") + BITS,
    "factorization.darboux_transform": ("calls", "self_s"),
    "factorization.transformed_polys": ("calls", "self_s"),
    "engine._staging": ("calls", "self_s") + BITS,
    "engine.staircase_transport_identity": ("calls", "self_s"),
    "functionals.lambda_of": ("calls", "self_s"),
    "functionals.build_nu": ("calls", "self_s"),
    "engine.run_theorem": ("calls", "self_s"),
    "generate.generate": ("calls", "self_s", "accept_ratio"),
    "cli.main": ("self_s", "report_bytes"),
}

UNITS = {
    "calls": "count",
    "self_s": "s",
    "checks": "count",
    "num_bits": "bit",
    "den_bits": "bit",
    "errors": "count",
    "accept_ratio": "ratio",
    "report_bytes": "B",
}


def value_bits(value) -> tuple[int, int]:
    """Largest numerator and denominator bit lengths among the Fractions
    reachable from a returned value (containers, dataclasses, slots)."""
    num = den = 0
    stack = [value]
    seen = set()
    while stack:
        x = stack.pop()
        if isinstance(x, Fraction):
            num = max(num, x.numerator.bit_length())
            den = max(den, x.denominator.bit_length())
            continue
        if x is None or isinstance(x, (int, float, str, bytes)) or id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif dataclasses.is_dataclass(x):
            stack.extend(getattr(x, f.name) for f in dataclasses.fields(x))
        else:
            for klass in type(x).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    if hasattr(x, slot):
                        stack.append(getattr(x, slot))
    return num, den


def _measure_bits(span, result) -> None:
    span.values["num_bits"], span.values["den_bits"] = value_bits(result)


def _measure_checks(span, report) -> None:
    span.values["checks"] = report.zero_checks + report.nonzero_checks


def _measure_generate(span, built) -> None:
    span.values["instances"] = 1
    span.values["retries"] = len(built.shift_retries) + built.ladder_retries


def _measurer(name: str):
    metrics = LAYERS[name]
    if "num_bits" in metrics:
        return _measure_bits
    if "checks" in metrics:
        return _measure_checks
    if "accept_ratio" in metrics:
        return _measure_generate
    return None


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "done", "error", "values")

    def __init__(self, name: str, op: int, parent: int | None):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = self.done = 0.0
        self.error = None
        self.values = {}

    def to_json_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "op": self.op,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "error": self.error,
            **self.values,
        }


class Tracer:
    """Holds every span of a run in memory; `op` tags the spans of one op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._sites = []

    def wrap(self, name: str, fn):
        measure = _measurer(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.op, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = span.done = perf_counter()
                span.error = type(exc).__name__
                raise
            finally:
                stack.pop()
            span.end = perf_counter()
            if measure is not None:
                measure(span, result)
            span.done = perf_counter()
            return result

        return traced

    def install(self) -> None:
        """Find every lookup site of every layer and build its wrapper; the
        sites are rebound by `enable`."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name in LAYERS:
            module_name, func_name = name.split(".")
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None)
            if not callable(original):
                raise RuntimeError(f"traced layer {name} no longer exists")
            wrapper = self.wrap(name, original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._sites.append((module, attr, original, wrapper))

    def enable(self, on: bool) -> None:
        """Point every lookup site at the wrapper (on) or the original."""
        for module, attr, original, wrapper in self._sites:
            setattr(module, attr, wrapper if on else original)

    def self_times(self) -> list[float]:
        """Per span: duration minus the time covered by its child spans
        (a child covers its duration plus its number-size bookkeeping)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.done - span.start
        return [s.end - s.start - covered[i] for i, s in enumerate(self.spans)]


def layer_metrics(tracer: Tracer, report_bytes: int) -> dict[str, float]:
    """Aggregate the spans into `<module>.<function>.<metric>` values."""
    self_times = tracer.self_times()
    out: dict[str, float] = {}
    for name, metrics in LAYERS.items():
        mine = [(s, t) for s, t in zip(tracer.spans, self_times) if s.name == name]
        values = {
            "calls": len(mine),
            "self_s": sum(t for _, t in mine),
            "errors": sum(1 for s, _ in mine if s.error == "ZeroPeelPivot"),
            "report_bytes": report_bytes,
        }
        for key in BITS:
            values[key] = max((s.values.get(key, 0) for s, _ in mine), default=0)
        values["checks"] = sum(s.values.get("checks", 0) for s, _ in mine)
        instances = sum(s.values.get("instances", 0) for s, _ in mine)
        attempts = instances + sum(s.values.get("retries", 0) for s, _ in mine)
        values["accept_ratio"] = instances / attempts if attempts else 0.0
        for metric in metrics:
            out[f"{name}.{metric}"] = values[metric]
    return out


# Layers that only orchestrate. Their self time is the work no other wrapped
# layer covers: argument parsing, payload formatting and the report write in
# cli.main, and the dispatch in the others.
GLUE = (
    "cli.main",
    "engine.run_theorem",
    "generate.generate",
    "factorization.darboux_transform",
    "factorization.transformed_polys",
)


def check_attribution(tracer: Tracer, op_time: float, max_share: float, workload: str) -> float:
    """Share of the traced op time spent in glue; raises above `max_share`.

    Work that a refactor moves out of a wrapped layer, or into a copy the
    tracer cannot see, lands in the self time of the nearest wrapped caller.
    For the wrapped layers that caller is mostly glue, so such work fails
    the run here instead of going unseen.
    """
    glue = sum(t for span, t in zip(tracer.spans, tracer.self_times()) if span.name in GLUE)
    share = glue / op_time
    if share > max_share:
        raise RuntimeError(
            f"{share:.1%} of the traced op time on {workload} is in no wrapped layer "
            f"(self time of {', '.join(GLUE)}), above {max_share:.0%}; "
            f"a wrapped layer was bypassed or inlined"
        )
    return share


def check_coverage(tracer: Tracer, layers, workload: str) -> None:
    """Every layer the workload must reach records at least one call."""
    called = {span.name for span in tracer.spans}
    missing = [name for name in layers if name not in called]
    if missing:
        raise RuntimeError(
            f"traced layers record no calls on {workload}: {', '.join(missing)}; "
            f"a wrapped name was renamed or bypassed"
        )
