"""The three benchmark workloads: seeded inputs, jobs and exact checkers.

A workload is an object with

* ``setup(bh)``: everything done before the first timed job (fixture
  loading, golden loading, beta screening) for the freshly imported
  package ``bh``; it returns the state the jobs need;
* ``cycle(state, index)``: the jobs of one cycle, a fixed input mix whose
  inputs are drawn from the workload seed and the cycle index.

Each job is a ``Job(kind, run, check)``: ``run()`` calls the program and
returns its output, ``check(output)`` returns ``None`` when the output is
correct and a one-line reason otherwise.  Jobs look up program functions
through the package at call time, so wrappers installed by the tracer
(or a corruption installed by the self-test) are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens", "cli_shallow.json")
FIXTURES = "fixtures"

# exit codes the CLI documents; anything else is a failure
DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 5}


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _cycle_rng(seed, index):
    return random.Random(f"{seed}/{index}")


# -- series-deep ----------------------------------------------------------------

SERIES_T = 20
SERIES_GOLDENS = os.path.join(HERE, "goldens", "series_deep.json")
# (fixture, user-supplied A or None, cyclotomic order, expected generic rank)
SERIES_CASES = {
    "erdelyi": ("erdelyi.mat", "erdelyi_A.mat", 1, 4),
    "ds06": ("ds06.mat", None, 3, 9),
}
# one cycle: two erdelyi jobs and one ds06 job, so the median job lies
# inside the erdelyi mode
SERIES_MIX = ("erdelyi", "erdelyi", "ds06")
# beta = (p/q1, r/q2) with {q1, q2} = {5, 7} and numerators below 2q that
# are not multiples of q: 192 draws per fixture, every one very generic
# and free of integer cell exponents on both fixtures
BETA_DENOMINATORS = ((5, 7), (7, 5))


def beta_pool():
    pool = []
    for q1, q2 in BETA_DENOMINATORS:
        for p in range(1, 2 * q1):
            for r in range(1, 2 * q2):
                if p % q1 and r % q2:
                    pool.append((Fraction(p, q1), Fraction(r, q2)))
    return pool


def series_shape(sols):
    """What a solution basis at T = SERIES_T must look like whatever the
    beta: one (decomposition, gamma, simplex, character, term count) entry
    per solution, sorted."""
    return sorted([s.decomposition, list(s.gamma), list(s.simplex),
                   list(s.character), s.series.num_terms()] for s in sols)


def load_series_goldens():
    with open(SERIES_GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)["shapes"]


class SeriesDeep:
    name = "series-deep"

    def __init__(self, seed):
        self.seed = seed

    def setup(self, bh):
        shapes = load_series_goldens()
        cases = {}
        for key, (b_name, a_name, field_root, rank) in SERIES_CASES.items():
            B = bh.cli.read_matrix(f"{FIXTURES}/{b_name}")
            A = bh.cli.read_matrix(f"{FIXTURES}/{a_name}") if a_name else None
            hi = bh.make_horn_input(B, A)
            torals = [(dec, bh.bounded_atlas(dec.M))
                      for dec in bh.enumerate_decompositions(hi) if dec.is_toral]
            pool = [beta for beta in beta_pool()
                    if all(bh.very_generic_check(beta, dec, atlas).ok
                           for dec, atlas in torals)]
            random.Random(f"{self.seed}/{key}/betas").shuffle(pool)
            cases[key] = (hi, field_root, rank, shapes[key], pool)
        return {"bh": bh, "cases": cases, "drawn": {key: 0 for key in cases}}

    def cycle(self, state, index):
        jobs = []
        for key in SERIES_MIX:
            hi, field_root, rank, shape, pool = state["cases"][key]
            # draw without replacement; wraps only after the whole pool
            beta = pool[state["drawn"][key] % len(pool)]
            state["drawn"][key] += 1
            jobs.append(series_job(state["bh"], key, hi, beta, field_root,
                                   rank, shape))
        return jobs


def series_job(bh, key, hi, beta, field_root, rank, shape, T=SERIES_T):
    def run():
        sols = bh.solution_basis(hi, beta, T=T, field_root=field_root)
        ops = bh.horn_system_operators(hi, beta, field_order=field_root)
        return sols, len(ops), [bh.verify_annihilation(ops, s.series)
                                for s in sols]

    def check(out):
        sols, nops, reports = out
        if len(sols) != rank:
            return f"{key}: {len(sols)} solutions, expected the generic rank {rank}"
        seen = set()
        for s, rep in zip(sols, reports):
            trunc = s.series.truncation
            if trunc is None or trunc.bound != T:
                return f"{key}: series at gamma {s.gamma} not truncated at T={T}"
            if s.series.is_zero():
                return f"{key}: zero series at gamma {s.gamma}"
            terms = frozenset(s.series.terms.items())
            if terms in seen:
                return f"{key}: the same series returned twice"
            seen.add(terms)
            if len(rep.checks) != nops:
                return f"{key}: {len(rep.checks)} operator checks, expected {nops}"
            for c in rep.checks:
                if c.interior_residual:
                    return (f"{key}: interior residual under {c.operator} "
                            f"for the solution at gamma {s.gamma}")
        if series_shape(sols) != shape:
            return f"{key}: solution shapes differ from the golden"
        return None

    return Job(f"series:{key}", run, check)


# -- cli-shallow ------------------------------------------------------------------

def cli_commands():
    """Every CLI command on every fixture at the default truncation, the
    README solve/verify lines, and the documented failure verdicts."""
    f = FIXTURES + "/"
    with_a = {"erdelyi": "erdelyi_A", "ds06": "ds06_A",
              "himalayan": "himalayan_A", "nonholonomic": "nonholonomic_A"}
    cmds = []
    # m3 is a square B whose span is not mixed: the exit-2 verdicts
    for b in ("erdelyi", "ds06", "gauss", "himalayan", "nonholonomic", "m3"):
        for cmd in ("validate", "complement", "decompose", "rank", "horn-ops"):
            cmds.append([cmd, "--B", f + b + ".mat"])
            if b in with_a and cmd in ("validate", "decompose", "rank"):
                cmds.append([cmd, "--B", f + b + ".mat",
                             "--A", f + with_a[b] + ".mat"])
    for a in with_a.values():
        cmds.append(["volume", "--A", f + a + ".mat"])
    erdelyi = ["--B", f + "erdelyi.mat", "--A", f + "erdelyi_A.mat"]
    ds06 = ["--B", f + "ds06.mat"]
    cmds += [
        ["subgraphs", "--M", f + "m3.mat"],
        ["subgraphs", "--M", f + "m3.mat", "--cap", "2"],          # exit 5
        ["horn-ops", "--B", f + "gauss.mat", "--c", "1/3,1/5,2/5,3/7"],
        ["solve", *erdelyi, "--beta", "1/2,1/3", "--truncate", "6"],
        ["verify", *erdelyi, "--beta", "1/2,1/3"],
        ["solve", *ds06, "--beta", "1/5,2/7", "--field-root", "3"],
        ["verify", *ds06, "--beta", "1/5,2/7", "--field-root", "3"],
        ["solve", "--B", f + "gauss.mat", "--beta", "1/2,1/3,1/5"],
        ["verify", "--B", f + "gauss.mat", "--beta", "1/2,1/3,1/5"],
        ["solve", "--B", f + "himalayan.mat", "--beta", "1/2,1/3"],  # exit 3
        ["solve", *erdelyi, "--beta", "0,0"],                        # exit 4
        ["solve", *ds06, "--beta", "1/2,0"],                         # exit 4
    ]
    return cmds


def run_cli(bh, argv):
    """One in-process CLI call: (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = bh.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejections
            rc = exc.code
    return rc, out.getvalue()


def load_goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)["commands"]


class CliShallow:
    name = "cli-shallow"

    def __init__(self, seed):
        self.seed = seed

    def setup(self, bh):
        goldens = load_goldens()
        for g in goldens:
            for tok in g["argv"]:
                if tok.startswith(FIXTURES + "/") and not os.path.exists(tok):
                    raise FileNotFoundError(tok)
        return {"bh": bh, "goldens": goldens}

    def cycle(self, state, index):
        order = list(state["goldens"])
        _cycle_rng(self.seed, index).shuffle(order)
        return [cli_job(state["bh"], g) for g in order]


def cli_job(bh, golden):
    argv, want_rc, want_out = golden["argv"], golden["exit"], golden["stdout"]

    def check(out):
        rc, text = out
        if rc != want_rc:
            return f"{' '.join(argv)}: exit {rc}, golden {want_rc}"
        if text != want_out:
            return f"{' '.join(argv)}: stdout differs from the golden"
        return None

    return Job(f"cli:{argv[0]}", lambda: run_cli(bh, argv), check)


# -- combinatorics ----------------------------------------------------------------

# m = n/2 must be odd, else the chain loses rank.  Five n = 10 jobs in a
# cycle of eleven (0.1 s each) hold the median job whatever the random
# inputs cost; the one n = 14 job (~1.2 s) sets the tail.
CHAIN_SIZES = (10, 10, 10, 10, 10, 14)
CHAIN_RANK = 2
KERNEL_SHAPES = ((3, 9), (4, 9))
ATLAS_CAP = 50
RANDOM_BLOCKS = 2
ATLAS_POOL_SIZE = 256
ATLAS_GOLDENS = os.path.join(HERE, "goldens", "atlas_blocks.json")
HIMALAYAN_BLOCK = ((1, 1, 1), (-1, -2, -3), (1, 0, 0))


def chain_columns(n):
    """Column k is e_2k - e_2k+1 + e_2k+2 - e_2k+3, indices mod n."""
    cols = []
    for k in range(n // 2):
        col = [0] * n
        for off, sign in ((0, 1), (1, -1), (2, 1), (3, -1)):
            col[(2 * k + off) % n] += sign
        cols.append(col)
    return cols


def permuted_chain(n, rng):
    """The chain B under a joint row/column permutation and a column
    negation, as a list of rows."""
    cols = chain_columns(n)
    m = len(cols)
    rows_perm = rng.sample(range(n), n)
    cols_perm = rng.sample(range(m), m)
    signs = [rng.choice((1, -1)) for _ in range(m)]
    return [[signs[j] * cols[cols_perm[j]][rows_perm[i]] for j in range(m)]
            for i in range(n)]


def random_pointed_A(bh, d, n, rng):
    """A d x n matrix of rank d whose first row is positive (so its columns
    are pointed), with B an integer basis of ker A."""
    while True:
        rows = [[rng.randint(1, 2) for _ in range(n)]]
        rows += [[rng.randint(-1, 1) for _ in range(n)] for _ in range(d - 1)]
        A = bh.IntMatrix(rows)
        if bh.int_rank(A) == d:
            break
    B = bh.IntMatrix.from_columns(bh.kernel_basis(A).vectors, nrows=n)
    return A, B


def _is_mixed(col):
    return any(x > 0 for x in col) and any(x < 0 for x in col)


def _det3(c):
    (a, b, e), (f, g, h), (i, j, k) = c  # columns
    return a * (g * k - h * j) - f * (b * k - e * j) + i * (b * h - e * g)


def random_block(rng):
    """Columns of a mixed invertible 3 x 3 block with entries in [-2, 2]."""
    while True:
        cols = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)]
        if all(_is_mixed(c) for c in cols) and _det3(cols) != 0:
            return cols


def atlas_pool():
    """The blocks random atlas jobs draw from: the himalayan block first,
    then ATLAS_POOL_SIZE seeded random blocks, as lists of columns."""
    rng = random.Random("atlas-pool")
    himalayan = [list(c) for c in zip(*HIMALAYAN_BLOCK)]
    return [himalayan] + [[list(c) for c in random_block(rng)]
                          for _ in range(ATLAS_POOL_SIZE)]


def atlas_verdict(atlas):
    """What is pinned of a bounded_atlas result: None when the cap was
    exceeded, else mu, the representatives and the component sizes."""
    if atlas is None:
        return None
    return {"mu": atlas.mu,
            "representatives": [list(r) for r in atlas.representatives],
            "sizes": [c.size for c in atlas.bounded_components]}


def load_atlas_goldens():
    with open(ATLAS_GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)["blocks"]


class Combinatorics:
    name = "combinatorics"

    def __init__(self, seed):
        self.seed = seed

    def setup(self, bh):
        blocks = load_atlas_goldens()
        himalayan, pool = blocks[0], blocks[1:]
        random.Random(f"{self.seed}/blocks").shuffle(pool)
        state = {"bh": bh, "himalayan": himalayan, "pool": pool, "drawn": 0}
        state["first"] = self.cycle(state, 0)
        return state

    def cycle(self, state, index):
        if index == 0 and "first" in state:
            return state.pop("first")
        bh = state["bh"]
        rng = _cycle_rng(self.seed, index)
        jobs = [rank_job(bh, permuted_chain(n, rng)) for n in CHAIN_SIZES]
        for d, n in KERNEL_SHAPES:
            jobs.append(validate_job(bh, *random_pointed_A(bh, d, n, rng)))
        jobs.append(atlas_job(bh, state["himalayan"]))
        for _ in range(RANDOM_BLOCKS):
            # draw without replacement; wraps only after the whole pool
            pool = state["pool"]
            jobs.append(atlas_job(bh, pool[state["drawn"] % len(pool)]))
            state["drawn"] += 1
        rng.shuffle(jobs)
        return jobs


def rank_job(bh, rows):
    B = bh.IntMatrix(rows)

    def run():
        hi = bh.make_horn_input(B)
        return bh.generic_rank(hi), bh.degree_cross_check(hi)

    def check(out):
        rep, cross = out
        if rep.infinite or rep.total != CHAIN_RANK:
            return f"chain n={len(rows)}: rank {rep.total}, expected {CHAIN_RANK}"
        if cross is not None and cross != rep.total:
            return f"chain n={len(rows)}: degree cross-check {cross} != rank"
        return None

    return Job(f"rank:n{len(rows)}", run, check)


def validate_job(bh, A, B):
    def run():
        return bh.make_horn_input(B, A)

    def check(hi):
        if hi.A.tolist() != A.tolist() or hi.B.tolist() != B.tolist():
            return "make_horn_input changed its input matrices"
        a, b = A.tolist(), B.tolist()
        for row in a:
            for k in range(len(b[0])):
                if sum(row[i] * b[i][k] for i in range(len(b))) != 0:
                    return "A B != 0"
        h = [Fraction(x) for x in hi.pointed_functional]
        for j in range(len(a[0])):
            if sum(h[i] * a[i][j] for i in range(len(a))) <= 0:
                return f"pointed functional fails on column {j + 1}"
        return None

    return Job(f"validate:{A.nrows}x{A.ncols}", run, check)


def atlas_job(bh, golden):
    """bounded_atlas at ATLAS_CAP on a pool block; the verdict must equal
    the one recorded in the goldens."""
    cols = [tuple(c) for c in golden["columns"]]
    M = bh.IntMatrix.from_columns(cols, nrows=3)

    def run():
        try:
            return bh.bounded_atlas(M, cap=ATLAS_CAP)
        except bh.CapExceededError:
            return None  # the documented exit-5 verdict

    def check(atlas):
        if atlas_verdict(atlas) != golden["verdict"]:
            return (f"atlas of {golden['columns']}: verdict "
                    f"{atlas_verdict(atlas)}, golden {golden['verdict']}")
        if atlas is None:
            return None
        return check_atlas(cols, atlas)

    return Job("atlas", run, check)


def check_atlas(cols, atlas):
    """Bounded components are closed under the steps of M, pairwise
    disjoint, and represented by their smallest point."""
    steps = [c for c in cols if any(c)]
    steps += [tuple(-x for x in c) for c in steps]
    if atlas.mu != len(atlas.bounded_components):
        return f"mu {atlas.mu} != {len(atlas.bounded_components)} components"
    seen = set()
    for comp, rep in zip(atlas.bounded_components, atlas.representatives):
        pts = set(comp.points)
        if not comp.bounded or not pts or pts & seen:
            return "bounded components overlap or are empty"
        seen |= pts
        if rep != min(pts):
            return f"representative {rep} is not the smallest point"
        for p in pts:
            if any(x < 0 for x in p):
                return f"point {p} outside N^3"
            for s in steps:
                nxt = tuple(a + b for a, b in zip(p, s))
                if all(x >= 0 for x in nxt) and nxt not in pts:
                    return f"component of {rep} not closed: {p} + {s}"
    return None


WORKLOADS = {w.name: w for w in (SeriesDeep, CliShallow, Combinatorics)}
