"""Spans around effdim's layer boundaries, recorded from outside the library.

`install` replaces each public effdim function bound in the namespaces of
`effdim.cli`, `effdim.experiments`, `effdim.signals` and `effdim.oracle`
with a wrapper that records a span (name, start, end, parent) and, where it
applies, a work count (the data length n).  Because the names are replaced
where the calling layer looks them up, a call from `cli` into
`experiments`, or from `self_similar_signal` into `check_membership`, is
seen.  Spans live in flat arrays until `save` writes them out.
"""

from __future__ import annotations

import inspect
import time
from array import array


def _obs_n(x) -> int:
    return int(getattr(x, "n", None) or len(x))


# Work counted per call: elements handled by the posterior, noise draws by
# simulate.
WORK = {
    "posterior.pmf": lambda args, result: result.n,
    "posterior.map_dimension": lambda args, result: _obs_n(args[0]),
    "posterior.region_mass": lambda args, result: args[0].n,
    "signals.simulate": lambda args, result: result.n,
}

TRACED_MODULES = ("effdim.cli", "effdim.experiments", "effdim.signals", "effdim.oracle")


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]

    def wrap(self, span_name: str, fn):
        """Return fn wrapped so that each call records one span."""
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        work = WORK.get(span_name)
        stack, names, parents = self._stack, self.name, self.parent
        starts, ends, works = self.start, self.end, self.work
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            works.append(0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if work is not None:
                works[idx] = work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> list:
    """Wrap every public effdim function in the traced namespaces.

    Returns the (module, attribute, original) triples that `uninstall`
    puts back.
    """
    import importlib

    saved = []
    for modname in TRACED_MODULES:
        module = importlib.import_module(modname)
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if not obj.__module__.startswith("effdim."):
                continue
            span = f"{obj.__module__.removeprefix('effdim.')}.{obj.__name__}"
            saved.append((module, attr, obj))
            setattr(module, attr, tracer.wrap(span, obj))
    return saved


def uninstall(saved: list) -> None:
    for module, attr, obj in saved:
        setattr(module, attr, obj)


def calibrate_wrapper_us(calls: int = 100_000) -> float:
    """Cost in microseconds of one call through an empty wrapped function,
    over the same call made directly."""

    def empty():
        return None

    wrapped = Tracer().wrap("calibrate", empty)
    elapsed = []
    for fn in (empty, wrapped):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed.append(time.perf_counter() - t0)
    return (elapsed[1] - elapsed[0]) / calls * 1e6


def save(tracer: Tracer, path) -> None:
    """Write the spans as a .npz of parallel arrays plus the name table."""
    import numpy as np

    np.savez(
        path,
        names=np.array(tracer.names),
        name=np.frombuffer(tracer.name, dtype=np.int32),
        parent=np.frombuffer(tracer.parent, dtype=np.int64),
        start=np.frombuffer(tracer.start, dtype=np.float64),
        end=np.frombuffer(tracer.end, dtype=np.float64),
        work=np.frombuffer(tracer.work, dtype=np.int64),
    )


# Span names grouped into the per-layer metrics; a `.calls` metric counts
# spans, an `_s` metric sums their self time, and the work metrics sum the
# recorded work counts.
_REPORTS = ("experiments.mc_overshoot", "experiments.mc_undershoot",
            "experiments.mc_two_sided", "experiments.lower_bound_experiment",
            "experiments.smoothness_sweep")
_CONSTRUCT = ("signals.zero_signal", "signals.power_law_signal",
              "signals.self_similar_signal", "signals.adversarial_pair",
              "signals.load_signal")
_CONDITION = ("oracle.tail_condition", "oracle.head_condition")
_SUP = ("rates.f_sup", "rates.g_sup")


def _spans(tracer: Tracer):
    """(name id, parent, self time, work) arrays of the recorded spans.

    Self time is a span's duration minus the durations of its direct
    children; with one thread the children never overlap, so that is the
    time they cover.
    """
    import numpy as np

    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(
        tracer.start, dtype=np.float64
    )
    inner = parent >= 0
    child = np.bincount(parent[inner], weights=dur[inner], minlength=name.size)
    return name, parent, dur - child, np.frombuffer(tracer.work, dtype=np.int64)


# Span names counted by each `.calls` metric.
CALLS = {
    "cli.main.calls": ("cli.main",),
    "experiments.report.calls": _REPORTS,
    "posterior.pmf.calls": ("posterior.pmf",),
    "posterior.map_dimension.calls": ("posterior.map_dimension",),
    "posterior.region_mass.calls": ("posterior.region_mass",),
    "signals.simulate.calls": ("signals.simulate",),
    "oracle.effective_dimension.calls": ("oracle.effective_dimension",),
    "rates.sup.calls": _SUP,
}


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-operation layer metrics from the recorded spans.

    An operation is one root span (`cli.main`).  Returns (metrics per
    operation, each `.calls` metric's count in every operation), the second
    for checking that counts repeat exactly.
    """
    import numpy as np

    name, parent, self_time, work = _spans(tracer)
    roots = parent < 0
    ops = int(np.count_nonzero(roots))
    if ops == 0:
        raise ValueError("no traced operations")
    ids = {s: i for i, s in enumerate(tracer.names)}
    op_of = np.cumsum(roots) - 1

    def mask(*spans):
        return np.isin(name, [ids[s] for s in spans if s in ids])

    def self_s(*spans):
        return float(np.sum(self_time[mask(*spans)])) / ops

    def work_sum(*spans):
        return float(np.sum(work[mask(*spans)])) / ops

    per_op_counts = {
        metric: np.bincount(op_of[mask(*spans)], minlength=ops).tolist()
        for metric, spans in CALLS.items()
    }
    experiments = [s for s in tracer.names
                   if s.startswith("experiments.") and s != "experiments.report_csv"]
    # a replicate is one simulate call made directly by an experiment report
    under_report = np.zeros(name.size, dtype=bool)
    under_report[~roots] = mask(*_REPORTS)[parent[~roots]]
    replicates = np.count_nonzero(mask("signals.simulate") & under_report)
    metrics = {metric: sum(counts) / ops for metric, counts in per_op_counts.items()}
    metrics.update({
        "cli.self_s": self_s("cli.main"),
        "experiments.self_s": self_s(*experiments),
        "experiments.replicates": float(replicates) / ops,
        "experiments.report_csv_s": self_s("experiments.report_csv"),
        "posterior.pmf_s": self_s("posterior.pmf"),
        "posterior.map_dimension_s": self_s("posterior.map_dimension"),
        "posterior.region_mass_s": self_s("posterior.region_mass"),
        "posterior.elements": work_sum(
            "posterior.pmf", "posterior.map_dimension", "posterior.region_mass"),
        "signals.simulate_s": self_s("signals.simulate"),
        "signals.noise_draws": work_sum("signals.simulate"),
        "signals.construct_s": self_s(*_CONSTRUCT),
        "signals.check_membership_s": self_s("signals.check_membership"),
        "oracle.effective_dimension_s": self_s("oracle.effective_dimension"),
        "oracle.condition_s": self_s(*_CONDITION),
        "rates.sup_s": self_s(*_SUP),
    })
    return metrics, per_op_counts
