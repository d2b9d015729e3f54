"""Closed-loop benchmark of binomhorn: one client, one process, no threads.

    python3 perfbench/run.py --workload series-deep --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics, measured with no
wrappers installed.  With ``--trace 1`` each round runs one cycle of jobs
untraced and then the same cycle traced, and the run prints the
per-layer metrics; spans go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's environment and the error rate.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

from layers import PER_LAYER, cycle_counts, cycle_times, make_hooks
from tracer import Tracer, restore
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 11
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
# each cycle holds one job of its workload's costliest kind, so with this
# many cycles the tail always lies among those jobs, however fast the
# program gets
MIN_CYCLES = TAIL_BEYOND + 1


def fresh_import():
    """Import binomhorn from scratch, as a new process would."""
    for name in [n for n in sys.modules
                 if n == "binomhorn" or n.startswith("binomhorn.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    bh = importlib.import_module("binomhorn")
    importlib.import_module("binomhorn.cli")
    return bh


def timed_setup(workload):
    """One set-up from a fresh import: its time, the package and the state."""
    start = perf_counter()
    bh = fresh_import()
    state = workload.setup(bh)
    return perf_counter() - start, bh, state


class Tally:
    """Job times and failures of a run."""

    def __init__(self):
        self.times = []
        self.failures = []

    def run(self, jobs, tracer=None):
        """Run jobs in a closed loop; returns their total wall time."""
        total = 0.0
        for job in jobs:
            if tracer is not None:
                tracer.job = len(self.times)
            start = perf_counter()
            try:
                out, reason = job.run(), None
            except Exception as exc:  # any undocumented exception fails the job
                out, reason = None, f"{job.kind}: {type(exc).__name__}: {exc}"
            spent = perf_counter() - start
            if reason is None:
                try:
                    reason = job.check(out)
                except Exception as exc:
                    reason = f"{job.kind}: checker raised {type(exc).__name__}: {exc}"
            self.times.append(spent)
            if reason is not None:
                self.failures.append(reason)
            total += spent
        return total


def end_to_end(workload, seed, seconds):
    spent, bh, state = timed_setup(workload)
    setups = [spent]
    tally = Tally()
    start, index = perf_counter(), 0
    while perf_counter() - start < seconds or index < MIN_CYCLES:
        tally.run(workload.cycle(state, index))
        index += 1
        # the set-ups are spread over the run, so that their median is
        # not taken in one stretch of host speed; the jobs keep using
        # the package and state of the first one
        if (len(setups) < SETUP_REPEATS and
                perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS):
            setups.append(timed_setup(workload)[0])
            gc.collect()
    while len(setups) < SETUP_REPEATS:
        setups.append(timed_setup(workload)[0])
    times = sorted(tally.times)
    n = len(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (n / sum(times), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (times[n - 1 - TAIL_BEYOND], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    info = {"cycles": index, "job_tail_percentile": 100 * (n - TAIL_BEYOND) / n,
            "job_tail_samples_beyond": TAIL_BEYOND, "setup_repeats": SETUP_REPEATS}
    return tally, metrics, info


def traced(workload, seed, seconds):
    bh = fresh_import()
    state = workload.setup(bh)
    hooks = make_hooks(bh)
    tally = Tally()
    rounds = []  # (untraced seconds, traced seconds, tracer) per cycle
    start, index = perf_counter(), 0
    while not rounds or perf_counter() - start < seconds:
        jobs = workload.cycle(state, index)
        plain = tally.run(jobs)
        tracer = Tracer(hooks)
        undo = tracer.install()
        try:
            spent = tally.run(jobs, tracer)
        finally:
            restore(undo)
        rounds.append((plain, spent, tracer))
        index += 1

    median = statistics.median
    times = [cycle_times(tr) for _, _, tr in rounds]
    values = {k: median([t[k] for t in times]) for k in times[0]}
    values.update(cycle_counts(rounds[0][2]))
    # the traced cycle verifies the same terms as the untraced one
    values["solutions.terms_per_s"] = median(
        [tr.counts["solutions.terms"] / plain for plain, _, tr in rounds])
    values["trace.overhead_ratio"] = median([t / p for p, t, _ in rounds])
    values["src.lines"] = src_lines()
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    spans_path = write_spans(workload.name, seed, rounds)
    info = {"rounds": len(rounds), "spans": os.path.relpath(spans_path, ROOT)}
    return tally, metrics, info


def write_spans(name, seed, rounds):
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for r, (_, _, tracer) in enumerate(rounds):
            for span_name, start, end, parent, job in tracer.spans:
                fh.write(json.dumps({"round": r, "name": span_name,
                                     "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
    return path


def src_files():
    for dirpath, _, files in os.walk(os.path.join(SRC, "binomhorn")):
        for f in sorted(files):
            if f.endswith(".py"):
                yield os.path.join(dirpath, f)


def src_lines():
    total = 0
    for path in src_files():
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def src_digest():
    h = hashlib.sha256()
    for path in sorted(src_files()):
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    if not os.path.isdir(os.path.join(SRC, "binomhorn")):
        print(f"perfbench: no package at {os.path.relpath(SRC, ROOT)}/binomhorn",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    measure = traced if args.trace else end_to_end
    try:
        tally, metrics, info = measure(workload, args.seed, args.seconds)
    except Exception:  # set-up failed: no result
        traceback.print_exc()
        return 2
    attempted, failed = len(tally.times), len(tally.failures)
    for reason in tally.failures[:20]:
        print(f"perfbench: failed job: {reason}", file=sys.stderr)
    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "error_rate": failed / attempted,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "src.lines": src_lines(), "src_sha256": src_digest(),
        "git_commit": git_commit(),
    })
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
