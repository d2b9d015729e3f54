"""Self-test of the benchmark's checkers.

The smallest job of each workload must pass, and each corruption of a
program output (a flipped series coefficient, a dropped, duplicated or
zero solution, a series truncated too early, a wrong exit code, a changed
stdout byte, a wrong rank, a bad pointedness functional, a broken, empty
or abandoned atlas, a himalayan atlas under the cap) must make the error
rate positive.
Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import random
import sys

from run import ROOT, SRC, Tally, fresh_import
from tracer import rebind, restore
import workloads as W


def smallest_jobs(bh):
    """One smallest job per workload, keyed by the corruption target."""
    series = W.SeriesDeep(0)
    erdelyi = series.cycle(series.setup(bh), 0)[0]
    golden = next(g for g in W.load_goldens()
                  if g["argv"] == ["validate", "--B", "fixtures/erdelyi.mat"])
    rng = random.Random(0)
    blocks = W.load_atlas_goldens()
    bounded = next(b for b in blocks if b["verdict"] and b["verdict"]["mu"] > 1)
    return {
        "series-deep": erdelyi,
        "cli-shallow": W.cli_job(bh, golden),
        "rank": W.rank_job(bh, W.permuted_chain(10, rng)),
        "validate": W.validate_job(bh, *W.random_pointed_A(bh, 3, 9, rng)),
        "atlas": W.atlas_job(bh, bounded),
        "himalayan": W.atlas_job(bh, blocks[0]),
    }


def corruptions(bh):
    """(description, job key, original function, corrupted replacement)."""

    def flip_coefficient(orig):
        def corrupted(*args, **kwargs):
            sols = orig(*args, **kwargs)
            terms = sols[0].series.terms
            e = min(terms)
            terms[e] = -terms[e]
            return sols
        return corrupted

    def drop_solution(orig):
        return lambda *a, **k: orig(*a, **k)[:-1]

    def duplicate_solution(orig):
        def corrupted(*args, **kwargs):
            sols = orig(*args, **kwargs)
            return sols[:-1] + [dataclasses.replace(sols[-1],
                                                    series=sols[0].series)]
        return corrupted

    def zero_series(orig):
        def corrupted(*args, **kwargs):
            sols = orig(*args, **kwargs)
            f = sols[-1].series
            zero = type(f)(f.nvars, {}, field_order=f.field_order,
                           truncation=f.truncation, support=f.support)
            return sols[:-1] + [dataclasses.replace(sols[-1], series=zero)]
        return corrupted

    def truncate_early(orig):
        def corrupted(hi, beta, T=6, **kwargs):
            return orig(hi, beta, T=T - 1, **kwargs)
        return corrupted

    def wrong_exit(orig):
        return lambda argv=None: orig(argv) + 1

    def flip_stdout_byte(orig):
        def corrupted(argv=None):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = orig(argv)
            text = buf.getvalue()
            sys.stdout.write(text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1:])
            return rc
        return corrupted

    def wrong_rank(orig):
        def corrupted(*args, **kwargs):
            rep = orig(*args, **kwargs)
            return dataclasses.replace(rep, total=rep.total + 1)
        return corrupted

    def negate_functional(orig):
        def corrupted(*args, **kwargs):
            hi = orig(*args, **kwargs)
            return dataclasses.replace(
                hi, pointed_functional=tuple(-x for x in hi.pointed_functional))
        return corrupted

    def drop_atlas_point(orig):
        def corrupted(*args, **kwargs):
            atlas = orig(*args, **kwargs)
            comps = list(atlas.bounded_components)
            big = max(range(len(comps)), key=lambda i: comps[i].size)
            comps[big] = dataclasses.replace(comps[big],
                                             points=comps[big].points[:-1])
            return dataclasses.replace(atlas, bounded_components=tuple(comps))
        return corrupted

    def empty_atlas(orig):
        def corrupted(M, *args, **kwargs):
            return bh.subgraph.SubgraphAtlas(
                M=M, mu=0, representatives=(), bounded_components=(),
                unbounded_min_gens=(), closure_level=0, classification={})
        return corrupted

    def give_up(orig):
        def corrupted(*args, **kwargs):
            raise bh.CapExceededError("gave up")
        return corrupted

    return [
        ("flipped series coefficient", "series-deep", bh.solution_basis,
         flip_coefficient),
        ("dropped solution", "series-deep", bh.solution_basis, drop_solution),
        ("duplicated solution", "series-deep", bh.solution_basis,
         duplicate_solution),
        ("zero series", "series-deep", bh.solution_basis, zero_series),
        ("series truncated at T - 1", "series-deep", bh.solution_basis,
         truncate_early),
        ("wrong exit code", "cli-shallow", bh.cli.main, wrong_exit),
        ("changed stdout byte", "cli-shallow", bh.cli.main, flip_stdout_byte),
        ("wrong rank", "rank", bh.generic_rank, wrong_rank),
        ("bad pointedness functional", "validate", bh.make_horn_input,
         negate_functional),
        ("broken atlas component", "atlas", bh.bounded_atlas, drop_atlas_point),
        ("empty atlas", "atlas", bh.bounded_atlas, empty_atlas),
        ("atlas abandoned at the cap", "atlas", bh.bounded_atlas, give_up),
        ("himalayan atlas under the cap", "himalayan", bh.bounded_atlas,
         empty_atlas),
    ]


def main():
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    problems = []
    bh = fresh_import()
    jobs = smallest_jobs(bh)
    tally = Tally()
    tally.run(jobs.values())
    if tally.failures:
        problems.append(f"clean jobs failed: {tally.failures}")
    print(f"clean: {len(tally.times)} jobs, error_rate "
          f"{len(tally.failures) / len(tally.times)}")
    for description, key, original, corrupt in corruptions(bh):
        undo = rebind({original: corrupt(original)})
        tally = Tally()
        try:
            tally.run([jobs[key]])
        finally:
            restore(undo)
        rate = len(tally.failures) / len(tally.times)
        print(f"{description}: error_rate {rate}"
              + (f" ({tally.failures[0]})" if tally.failures else ""))
        if rate == 0:
            problems.append(f"{description} went undetected")
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
