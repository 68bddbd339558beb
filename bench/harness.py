"""Span tracing, the machine-speed reference and run bookkeeping.

The tracer wraps public functions of the package from outside, at the
name where their caller resolves them, and keeps every span in memory as
``(name, start, end, parent)``.  A wrap point whose attribute no longer
exists is reported as absent; it never fails the run, so the benchmark
keeps working when a later change deletes an internal name.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

# (span name, module, attribute path on that module).  Several wrap
# points may feed one span name, e.g. one ``sample_latent`` per model
# class, or one function imported by name into several modules.
WRAP_POINTS = (
    ("models.sample_latent", "prodest.models", "GandKModel.sample_latent"),
    ("models.sample_latent", "prodest.models", "PoissonBetaModel.sample_latent"),
    ("models.sample_latent", "prodest.models", "TwoStateLatentModel.sample_latent"),
    ("models.model_as_potential_problem", "prodest.models", "model_as_potential_problem"),
    ("estimators.eval_potential_matrix", "prodest.models", "eval_potential_matrix"),
    ("estimators.estimate_recycle", "prodest.models", "estimate_recycle"),
    ("estimators.estimate_simple", "prodest.models", "estimate_simple"),
    ("estimators.estimate_perm_exact", "prodest.models", "estimate_perm_exact"),
    ("logspace.masked_log_sum_exp", "prodest.estimators", "masked_log_sum_exp"),
    ("rng.make_stream", "prodest.rng", "make_stream"),
    ("rng.make_stream", "prodest.mcmc", "make_stream"),
    ("rng.make_stream", "prodest.cli", "make_stream"),
    ("mcmc.run_chain", "prodest.mcmc", "run_chain"),
    ("mcmc.pseudo_marginal_step", "prodest.mcmc", "pseudo_marginal_step"),
    ("mcmc.ess_batch_means", "prodest.mcmc", "ess_batch_means"),
    ("mcmc.replicate_log_estimates", "prodest.cli", "replicate_log_estimates"),
    ("oracle.moment_report", "prodest.oracle", "moment_report"),
    ("oracle.estimator_distribution_exact", "prodest.oracle", "estimator_distribution_exact"),
    ("oracle.second_moment_perm_exact", "prodest.oracle", "second_moment_perm_exact"),
    ("oracle.second_moment_recycle_exact", "prodest.oracle", "second_moment_recycle_exact"),
    ("cli.main", "prodest.cli", "main"),
    ("cli.Workspace.write_csv", "prodest.cli", "Workspace.write_csv"),
    ("cli.Workspace.write_json", "prodest.cli", "Workspace.write_json"),
)

# The closure returned by ``log_likelihood_estimator``.  The workloads
# that call it themselves expose it as an attribute the tracer wraps.
ESTIMATE_SPAN = "models.estimate"

# Spans whose return value is a written file; their sizes are summed.
BYTE_SPANS = ("cli.Workspace.write_csv", "cli.Workspace.write_json")

SPAN_NAMES = tuple(dict.fromkeys([ESTIMATE_SPAN] + [name for name, _, _ in WRAP_POINTS]))

SPAN_FIELDS = (
    ("calls", "count"),
    ("self_s", "s"),
    ("ms_p50", "ms"),
    ("ms_per_estimate", "ms"),
)

COUNT_NAMES = (
    "count.estimates",
    "count.zero_estimates",
    "count.prior_rejections",
    "count.accepted",
    "count.potential_evals",
    "count.perm_terms",
)
RATIO_NAMES = ("ratio.acceptance", "ratio.nonzero_estimates")
TRACE_NAMES = ("trace.unattributed_s", "trace.overhead_s")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in SPAN_NAMES:
        for suffix, unit in SPAN_FIELDS:
            units[f"{span}.{suffix}"] = unit
    for span in BYTE_SPANS:
        units[f"{span}.bytes"] = "bytes"
    units.update({name: "count" for name in COUNT_NAMES})
    units.update({name: "ratio" for name in RATIO_NAMES})
    units.update({name: "s" for name in TRACE_NAMES})
    return units


def resolve(module: str, path: str):
    """Return ``(owner, attribute)`` for a dotted path, or None if absent."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if getattr(owner, attr, None) is None:
        return None
    return owner, attr


class Tracer:
    """In-memory span recorder installed over a set of wrap points."""

    def __init__(self, points=WRAP_POINTS):
        self.points = tuple(points)
        self.spans: list = []
        self.bytes: dict[str, int] = {name: 0 for name in BYTE_SPANS}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_bytes = name in self.bytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count_bytes:
                self.bytes[name] += os.path.getsize(result)
            return result

        return traced

    def install(self, extra=()) -> None:
        """Wrap every point; ``extra`` holds ``(name, owner, attr)`` objects."""
        targets = []
        found = set()
        for name, module, path in self.points:
            located = resolve(module, path)
            if located is not None:
                targets.append((name, *located))
                found.add(name)
        for name, owner, attr in extra:
            targets.append((name, owner, attr))
            found.add(name)
        self.absent = sorted({name for name, _, _ in self.points} - found)
        for name, owner, attr in targets:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original))
            self._installed.append((owner, attr, original, own))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    def self_times(self) -> list[float]:
        """Per-span duration minus the time its direct children cover."""
        child_total = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        return [end - start - child_total[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def span_metrics(self, estimates: int) -> dict[str, float]:
        """``calls``, ``self_s``, ``ms_p50`` and ``ms_per_estimate`` per span name.

        Names that were absent or never called report zeros.
        """
        names = SPAN_NAMES + tuple(name for name, _, _ in self.points)
        self_s = dict.fromkeys(names, 0.0)
        durations_ms: dict[str, list] = {name: [] for name in names}
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            self_s[name] += own
            durations_ms[name].append((end - start) * 1e3)
        metrics = {}
        for name, samples in durations_ms.items():
            metrics[f"{name}.calls"] = len(samples)
            metrics[f"{name}.self_s"] = self_s[name]
            metrics[f"{name}.ms_p50"] = statistics.median(samples) if samples else 0.0
            metrics[f"{name}.ms_per_estimate"] = (
                self_s[name] * 1e3 / estimates if estimates else 0.0
            )
        for name, total in self.bytes.items():
            metrics[f"{name}.bytes"] = total
        return metrics

    def write(self, path: Path) -> None:
        """Write the spans, one JSON array per line, after the run."""
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


class Reference:
    """A fixed CPU kernel timed next to the workload to gauge machine speed.

    The benchmark shares its cores with other tenants, and their load
    changes how fast the same code runs by a quarter or more within
    seconds.  Timing this kernel between slices of units measures that
    slowdown; dividing a slice's times by it gives the time the slice
    would have taken at the nominal speed.  Two kernels resemble the two
    kinds of work: ``array`` is an interpreted loop plus numpy
    ``exp``/``cumsum`` over an array the size of the ``pb-chain``
    potential matrix; ``call`` is many numpy calls on small arrays plus
    dict and string building, like the CLI and the enumerations.
    """

    # Kernel seconds on the 2-core machine the bounds were set on, when
    # lightly loaded.
    NOMINAL_S = {"array": 0.032, "call": 0.012}
    SIZE = {"array": 320_000, "call": 640}

    def __init__(self, kind: str):
        import numpy as np

        self.np = np
        self.kind = kind
        self.nominal_s = self.NOMINAL_S[kind]
        self.values = np.random.default_rng(0).standard_normal(self.SIZE[kind]) * 30.0

    def seconds(self) -> float:
        """One timing of the kernel.

        The garbage collector is off meanwhile: a collection's cost grows
        with everything the process holds, which would make the kernel
        measure the heap rather than the machine.
        """
        np, values = self.np, self.values
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            if self.kind == "array":
                total = 0
                for i in range(250_000):
                    total += i * i
                for _ in range(5):
                    np.cumsum(np.exp(values - values.max()))
            else:
                for _ in range(600):
                    np.exp(values - values.max()).sum()
                    np.flatnonzero(values > 0)
                table = {}
                for i in range(10_000):
                    table[str(i)] = [i, (i,)]
                sorted(table.items())
            return time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()


@dataclass
class Unit:
    """What one deterministic unit of workload work did and produced."""

    timed_s: float = 0.0
    estimates: int = 0
    zero_estimates: int = 0
    bad_estimates: int = 0
    latencies_ms: list = field(default_factory=list)
    steps: int = 0
    accepted: int = 0
    prior_rejections: int = 0
    potential_evals: int = 0
    perm_terms: int = 0
    digest: str = ""
    checks: list = field(default_factory=list)
    logs: dict = field(default_factory=dict)
    # Reference-kernel seconds measured around this unit's slice over the
    # nominal seconds: above 1 means the machine ran slow.
    slowdown: float = 1.0

    def count_estimate(self, value: float, n_obs: int, n_particles: int) -> None:
        self.estimates += 1
        self.potential_evals += n_obs * n_particles
        if value != value:  # NaN
            self.bad_estimates += 1
        elif value == float("-inf"):
            self.zero_estimates += 1

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


@dataclass
class Tally:
    """Sum of the units run in one timed phase, grouped into slices."""

    units: list = field(default_factory=list)
    slices: list = field(default_factory=list)
    run_s: float = 0.0
    errors: list = field(default_factory=list)

    def add(self, unit: Unit) -> None:
        self.units.append(unit)
        self.run_s += unit.timed_s

    def close_slice(self, first: int) -> None:
        """Mark units ``first:`` as one slice."""
        self.slices.append(self.units[first:])

    def set_slowdowns(self, reference_s: list, nominal_s: float, window: int) -> None:
        """Give each slice the median reference time around it, over nominal.

        ``reference_s[k]`` and ``reference_s[k + 1]`` were timed just before
        and after slice k.  The median over ``window`` slices on either
        side follows load that lasts seconds but not the jitter of a
        single 30 ms measurement.
        """
        for k, units in enumerate(self.slices):
            near = reference_s[max(0, k - window + 1): k + window + 1]
            slowdown = statistics.median(near) / nominal_s
            for unit in units:
                unit.slowdown = slowdown

    def nominal_run_s(self) -> float:
        """``run_s`` at the nominal machine speed."""
        return sum(unit.timed_s / unit.slowdown for unit in self.units)

    def total(self, attr: str) -> int:
        return sum(getattr(unit, attr) for unit in self.units)

    def latencies_ms(self, normalized: bool = True) -> list:
        return [
            value / (unit.slowdown if normalized else 1.0)
            for unit in self.units for value in unit.latencies_ms
        ]

    def slice_rates(self, normalized: bool = True) -> list:
        """Estimates per second of each slice."""
        rates = []
        for units in self.slices:
            seconds = sum(unit.timed_s for unit in units)
            if normalized:
                seconds /= units[0].slowdown
            rates.append(sum(unit.estimates for unit in units) / seconds)
        return rates

    def checks(self) -> list:
        return [check for unit in self.units for check in unit.checks]

    def logs(self, kind: str, n_units: int) -> list:
        """Log estimates of one kind from the first ``n_units`` units."""
        return [value for unit in self.units[:n_units] for value in unit.logs.get(kind, ())]
