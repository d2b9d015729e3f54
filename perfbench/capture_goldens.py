"""Capture the benchmark's goldens from the program at the current commit.

* ``cli_shallow.json``: stdout and exit code of every cli-shallow command.
  Each command runs in its own interpreter, as the installed ``binomhorn``
  script would, so the goldens do not depend on the in-process replay the
  benchmark uses.
* ``series_deep.json``: the shape of each series-deep fixture's solution
  basis at T = 20, which does not depend on beta (checked on two betas).
* ``atlas_blocks.json``: the cap-50 atlas verdict of the himalayan block
  and of every block in the combinatorics pool.

Run from the repository root, on the commit whose output is the reference:

    python3 perfbench/capture_goldens.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import SRC, fresh_import, git_commit
import workloads as W

ENTRY = ("import sys; sys.path.insert(0, 'src'); "
         "from binomhorn.cli import main; sys.exit(main(sys.argv[1:]))")


def write(path, key, records):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"captured_at": git_commit(), key: records}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


def capture_cli():
    records = []
    for argv in W.cli_commands():
        proc = subprocess.run([sys.executable, "-c", ENTRY, *argv],
                              capture_output=True, text=True, timeout=120,
                              check=False)
        if proc.returncode not in W.DOCUMENTED_EXITS or "Traceback" in proc.stderr:
            sys.exit(f"undocumented outcome for {argv}: {proc.returncode}\n"
                     f"{proc.stderr}")
        records.append({"argv": argv, "exit": proc.returncode,
                        "stdout": proc.stdout})
        print(proc.returncode, " ".join(argv))
    write(W.GOLDENS, "commands", records)


def capture_series(bh):
    shapes = {}
    pool = W.beta_pool()
    for key, (b_name, a_name, field_root, rank) in W.SERIES_CASES.items():
        B = bh.cli.read_matrix(f"{W.FIXTURES}/{b_name}")
        A = bh.cli.read_matrix(f"{W.FIXTURES}/{a_name}") if a_name else None
        hi = bh.make_horn_input(B, A)
        seen = [W.series_shape(bh.solution_basis(hi, beta, T=W.SERIES_T,
                                                 field_root=field_root))
                for beta in (pool[0], pool[-1])]
        if seen[0] != seen[1] or len(seen[0]) != rank:
            sys.exit(f"{key}: the solution shape depends on beta: {seen}")
        shapes[key] = seen[0]
        print(key, [entry[-1] for entry in seen[0]])
    write(W.SERIES_GOLDENS, "shapes", shapes)


def capture_atlases(bh):
    records = []
    for cols in W.atlas_pool():
        M = bh.IntMatrix.from_columns([tuple(c) for c in cols], nrows=3)
        try:
            atlas = bh.bounded_atlas(M, cap=W.ATLAS_CAP)
        except bh.CapExceededError:
            atlas = None
        records.append({"columns": cols, "verdict": W.atlas_verdict(atlas)})
    if records[0]["verdict"] is not None:
        sys.exit(f"the himalayan block stays under cap {W.ATLAS_CAP}")
    print(f"atlas pool: {sum(r['verdict'] is None for r in records)} of "
          f"{len(records)} blocks exceed cap {W.ATLAS_CAP}")
    write(W.ATLAS_GOLDENS, "blocks", records)


def main():
    sys.path.insert(0, SRC)
    capture_cli()
    bh = fresh_import()
    capture_series(bh)
    capture_atlases(bh)


if __name__ == "__main__":
    main()
