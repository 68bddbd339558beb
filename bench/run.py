"""Benchmark of the draw -> potential matrix -> estimator -> MCMC step loop.

Run from the root of a checkout:

    python3 bench/run.py --workload pb-chain --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's ``src/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
full record (provenance, digests, checks, sample counts), which is also
written under ``.bench_out/``.  With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}
MODULES = ("rng", "logspace", "estimators", "models", "mcmc", "oracle", "fixtures", "cli")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
SLICE_S = 0.3
SLOWDOWN_WINDOW = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "estimates_per_s": "1/s",
    "estimate_ms_p50": "ms",
    "estimate_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class ProgramMissing(Exception):
    """The checkout holds no importable ``prodest`` under ``src/``."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test problem sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import every layer of ``prodest`` from the checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "prodest" / "__init__.py").is_file():
        raise ProgramMissing(f"no prodest package under {src}")
    sys.path.insert(0, str(src))
    prodest = importlib.import_module("prodest")
    if Path(prodest.__file__).resolve().parent != (src / "prodest").resolve():
        raise ProgramMissing(f"prodest was imported from {prodest.__file__}, not {src}")
    for name in MODULES:
        importlib.import_module(f"prodest.{name}")
    return prodest


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_probe(args) -> None:
    """Child process: time import plus workload set-up, print the seconds."""
    start = time.perf_counter()
    prodest = import_program()
    from workloads import WORKLOADS

    WORKLOADS[args.workload](prodest, args.seed, args.tiny, OUT_DIR / "work")
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure_setup(args, repeats: int, kind: str) -> tuple[list[float], list[float]]:
    """Run the set-up probe in fresh interpreters, so imports are cold.

    Returns the raw seconds and the seconds at nominal machine speed,
    with the reference kernel timed before and after each probe.
    """
    from harness import Reference

    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    env = dict(os.environ, **THREAD_ENV)
    reference = Reference(kind)
    before = reference.seconds()
    raw, normalized = [], []
    for _ in range(repeats):
        done = subprocess.run(
            command, capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=SETUP_TIMEOUT_S, check=True,
        )
        seconds = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
        after = reference.seconds()
        raw.append(seconds)
        normalized.append(seconds * 2 * reference.nominal_s / (before + after))
        before = after
    return raw, normalized


def timed_phase(workload, seconds: float, n_units: int | None = None):
    """Run units 0, 1, ... until their timed work reaches ``seconds``.

    With ``n_units`` given, run exactly that many instead.  Units are
    grouped into slices of about ``SLICE_S`` timed seconds, and the
    reference kernel runs between slices.  An exception ends the phase
    and is recorded as a failed operation.
    """
    from harness import Reference, Tally

    reference = Reference(workload.reference)
    tally = Tally()
    index = 0
    reference_s = [reference.seconds()]

    def more() -> bool:
        return (tally.run_s < seconds) if n_units is None else (index < n_units)

    while more():
        first, slice_end = index, tally.run_s + SLICE_S
        try:
            while more() and tally.run_s < slice_end:
                tally.add(workload.run_unit(index))
                index += 1
        except Exception:
            tally.errors.append(traceback.format_exc())
            print(tally.errors[-1], file=sys.stderr)
        if index > first:
            tally.close_slice(first)
            reference_s.append(reference.seconds())
        if tally.errors:
            break
    tally.set_slowdowns(reference_s, reference.nominal_s, SLOWDOWN_WINDOW)
    return tally


def speed_metrics(tally, normalized: bool) -> dict:
    """Throughput and latency percentiles, optionally at nominal machine speed.

    ``estimate_ms_p99`` is recorded but is not an end-to-end metric: on a
    shared machine it lands on rare stalls of the whole VM and spread
    11-25% across seeds, more than any bound the benchmark may set.
    """
    import numpy as np

    latencies = tally.latencies_ms(normalized)
    p50, p90, p99 = np.percentile(latencies, [50, 90, 99]) if latencies else (0.0,) * 3
    rates = tally.slice_rates(normalized)
    return {
        "estimates_per_s": statistics.median(rates) if rates else 0.0,
        "estimate_ms_p50": float(p50),
        "estimate_ms_p90": float(p90),
        "estimate_ms_p99": float(p99),
    }


def counts(tally) -> dict:
    estimates = tally.total("estimates")
    steps = tally.total("steps")
    return {
        "count.estimates": estimates,
        "count.zero_estimates": tally.total("zero_estimates"),
        "count.prior_rejections": tally.total("prior_rejections"),
        "count.accepted": tally.total("accepted"),
        "count.potential_evals": tally.total("potential_evals"),
        "count.perm_terms": tally.total("perm_terms"),
        "ratio.acceptance": tally.total("accepted") / steps if steps else 0.0,
        "ratio.nonzero_estimates": (
            (estimates - tally.total("zero_estimates")) / estimates if estimates else 0.0
        ),
    }


def verdict(tally, workload, repeat_digest: str) -> tuple[list, int, int]:
    """All output checks of a phase, plus attempted and failed operation counts.

    An operation is one likelihood estimate or one output check; a NaN
    estimate, a failed check or an exception counts as failed.
    """
    checks = tally.checks() + workload.final_checks(tally)
    first = tally.units[0].digest if tally.units else ""
    checks.append(("unit0_digest_repeats", first == repeat_digest, f"{first} vs {repeat_digest}"))
    attempted = tally.total("estimates") + len(checks) + len(tally.errors)
    failed = (
        tally.total("bad_estimates")
        + sum(not ok for _, ok, _ in checks)
        + len(tally.errors)
    )
    return checks, attempted, failed


def run(args) -> int:
    prodest = import_program()
    import numpy
    import scipy
    from harness import Tracer, per_layer_units
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "provenance": {
            "git_sha": git_sha(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "prodest": prodest.__version__,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        },
    }
    if not args.trace:
        raw_setup, setup_times = measure_setup(
            args, 1 if args.tiny else SETUP_REPEATS, WORKLOADS[args.workload].reference
        )
    workload = WORKLOADS[args.workload](prodest, args.seed, args.tiny, OUT_DIR / "work")
    record["provenance"]["workload"] = workload.provenance()

    if args.trace:
        # Untraced for half the time, then the same units traced: the
        # difference is the tracing overhead on identical work.
        plain = timed_phase(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install(workload.traced_closures())
        try:
            tally = timed_phase(workload, 0, n_units=len(plain.units))
        finally:
            tracer.uninstall()
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        tally.errors = plain.errors + tally.errors
        repeat = plain.units[0].digest if plain.units else ""
        metrics = tracer.span_metrics(tally.total("estimates"))
        metrics.update(counts(tally))
        metrics["trace.unattributed_s"] = tally.run_s - sum(tracer.self_times())
        metrics["trace.overhead_s"] = tally.nominal_run_s() - plain.nominal_run_s()
        units = per_layer_units()
        record["absent_spans"] = tracer.absent
        record["untraced_run_s"] = plain.run_s
    else:
        tally = timed_phase(workload, args.seconds)
        repeat = workload.run_unit(0).digest if tally.units else ""
        units = END_TO_END_UNITS
    if not tally.units:
        print("no unit of work completed", file=sys.stderr)
        return 1
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": tally.run_s,
            **speed_metrics(tally, normalized=True),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update({
            "setup_s_samples": setup_times,
            "unnormalized_setup_s_samples": raw_setup,
            "latency_samples": len(tally.latencies_ms()),
            "estimate_ms_p99": metrics["estimate_ms_p99"],
            "slices": len(tally.slices),
            "slowdown_median": statistics.median(s[0].slowdown for s in tally.slices),
            "unnormalized": speed_metrics(tally, normalized=False),
            "counts": counts(tally),
        })
    checks, attempted, failed = verdict(tally, workload, repeat)
    record.update({
        "units": len(tally.units),
        "run_s": tally.run_s,
        "digest_unit0": tally.units[0].digest,
        "checks_failed": [list(check) for check in checks if not check[1]],
        "checks_run": len(checks),
        "failed_ops_frac": failed / attempted,
        "errors": tally.errors,
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin BLAS and OpenMP threads before numpy is first imported.
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(BENCH_DIR))
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        return run(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
