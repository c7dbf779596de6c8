"""Spans and counters around nmrbaker's public functions, installed from outside.

Nothing in the package is edited: :func:`install` replaces each traced
function with a wrapper in every ``nmrbaker`` module namespace that binds
it (``chaos`` and ``cli`` hold their own ``from .lindblad import ...``
bindings), and wraps the ``EvolutionEngine`` methods on the class.

Spans stay in memory as ``[name, start, end, parent, job]``; self time is
derived afterwards as a span's duration minus the durations of its
direct children.  :func:`totals` reduces a tracer to additive numbers, so
totals from several processes can simply be summed.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict

# (module, function, span name); several functions may share a span name
FUNCTIONS = (
    ("qstate", "von_neumann_entropy_bits", "qstate.entropy"),
    ("qstate", "density_matrix_defects", "qstate.defects"),
    ("qstate", "embed", "qstate.embed"),
    ("nmr", "pulse_unitary", "nmr.pulse_unitary"),
    ("nmr", "sequence_unitary", "nmr.sequence_unitary"),
    ("nmr", "t_odd", "nmr.program_build"),
    ("nmr", "t_even", "nmr.program_build"),
    ("nmr", "t_regular", "nmr.program_build"),
    ("nmr", "full_baker_appendix", "nmr.program_build"),
    ("baker", "gate_sequence_unitary", "baker.gate_sequence_unitary"),
    ("lindblad", "run_sequence", "lindblad.run_sequence"),
    ("chaos", "entropy_experiment", "chaos.entropy_experiment"),
    ("chaos", "hypersensitivity_experiment", "chaos.hypersensitivity_experiment"),
    ("chaos", "history_ensemble", "chaos.history_ensemble"),
    ("chaos", "partition_scan", "chaos.partition_scan"),
    ("chaos", "greedy_grouping", "chaos.greedy"),
    ("chaos", "js_distance", "chaos.js_distance"),
    ("chaos", "grouping_stats", "chaos.grouping_stats"),
    ("cli", "standard_checks", "cli.standard_checks"),
    ("cli", "run", None),  # named cli.run.<command> per call
)

# counters kept by the probes and derived from spans
COUNTERS = (
    "lindblad.propagator.builds",
    "lindblad.run_sequence.instructions",
    "chaos.history_ensemble.step_applications",
    "chaos.partition_scan.partitions",
    "chaos.greedy.distinct",
)

# EvolutionEngine methods, wrapped on the class
METHODS = (
    ("__init__", "lindblad.engine"),
    ("delay_propagator", "lindblad.propagator"),
    ("_rk4_propagator", "lindblad.propagator.rk4"),
)


def span_names() -> list[str]:
    names = {span for *_, span in FUNCTIONS if span} | {span for _, span in METHODS}
    return sorted(names | {f"cli.run.{c}" for c in ("entropy", "hyper", "verify", "compile")})


def _cli_span_name(args) -> str:
    argv = args[0] if args and args[0] is not None else sys.argv[1:]
    return "cli.run." + (argv[0] if argv else "none")


def _canonical(assignment) -> tuple:
    """Relabel groups by first appearance (restricted-growth string)."""
    labels: dict = {}
    return tuple(labels.setdefault(g, len(labels)) for g in assignment)


class Tracer:
    """In-memory span recorder; ``job`` tags every span with the job it serves."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._propagators = weakref.WeakKeyDictionary()  # engine -> durations seen
        self._assignments: set = set()  # (job, canonical greedy assignment)

    def wrap(self, name, fn, probe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    probe(args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # probes: counters measured where the work happens

    def _propagator_probe(self, args, _result):
        engine, duration = args[0], float(args[1])
        seen = self._propagators.setdefault(engine, set())
        if duration not in seen:
            seen.add(duration)
            self.counts["lindblad.propagator.builds"] += 1

    def _run_sequence_probe(self, args, _result):
        self.counts["lindblad.run_sequence.instructions"] += len(args[1].instructions)

    def _partition_probe(self, _args, result):
        self.counts["chaos.partition_scan.partitions"] += len(result[0])

    def _greedy_probe(self, _args, result):
        self._assignments.add((self.job, _canonical(result)))


def install(tracer: Tracer) -> None:
    """Wrap every traced function at every binding inside the package."""
    import nmrbaker  # noqa: F401  (loads every submodule)

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "nmrbaker" or name.startswith("nmrbaker."))]
    probes = {
        "lindblad.run_sequence": tracer._run_sequence_probe,
        "chaos.partition_scan": tracer._partition_probe,
        "chaos.greedy": tracer._greedy_probe,
        "lindblad.propagator": tracer._propagator_probe,
    }
    for module_name, attr, span in FUNCTIONS:
        original = getattr(sys.modules["nmrbaker." + module_name], attr)
        wrapped = tracer.wrap(span or _cli_span_name, original, probes.get(span))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    engine_cls = sys.modules["nmrbaker.lindblad"].EvolutionEngine
    for attr, span in METHODS:
        setattr(engine_cls, attr, tracer.wrap(span, getattr(engine_cls, attr), probes.get(span)))


def totals(tracer: Tracer) -> dict[str, float]:
    """Additive per-span figures: ``<span>.calls``, ``<span>.self_s`` and counters."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float, dict.fromkeys(COUNTERS, 0.0))
    for span in span_names():
        out[span + ".calls"] = out[span + ".self_s"] = 0.0
    for idx, (name, start, end, parent, _job) in enumerate(spans):
        out[name + ".calls"] += 1
        out[name + ".self_s"] += (end - start) - child_time[idx]
        if (name == "lindblad.run_sequence" and parent >= 0
                and spans[parent][0] == "chaos.history_ensemble"):
            out["chaos.history_ensemble.step_applications"] += 1
    for key, value in tracer.counts.items():
        out[key] += value
    out["chaos.greedy.distinct"] += len(tracer._assignments)
    return dict(out)


TRACE_MARKER = "perfbench-trace "


def cli_main() -> None:
    """Entry of a traced CLI child: run `nmrbaker` on sys.argv, then print
    the totals and the command's own wall time to stderr after a marker."""
    import json

    from nmrbaker import cli

    start = time.perf_counter()
    tracer = Tracer()
    install(tracer)
    ran = time.perf_counter()
    code = cli.run()
    done = time.perf_counter()
    sys.stdout.flush()
    data = totals(tracer)
    data["run_s"] = done - ran
    # the tracer's own cost, which the parent leaves out of process overhead
    data["trace_s"] = (ran - start) + (time.perf_counter() - done)
    print(TRACE_MARKER + json.dumps(data), file=sys.stderr)
    sys.exit(code)
