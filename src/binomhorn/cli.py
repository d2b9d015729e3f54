"""Command-line front end with deterministic JSON reports.

Matrices are read from text files (one row per line, whitespace-separated
integers, '#' comments ignored).  Every report is a single JSON object
with sorted keys, a schema tag, and the input matrices echoed back.

Exit codes: 0 success, 2 input or convention violation, 3 generically
infinite rank, 4 resonance or very-generic violation, 5 subgraph level cap
exceeded or mu certified infinite.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .errors import BinomHornError, ConventionError, InfiniteRankError
from .exact_linalg import IntMatrix
from .geometry import Cone
from .model import compute_A, make_horn_input, validate_B
from .ranks import degree_cross_check, generic_rank
from .series import horn_classical_operators, horn_system_operators
from .solutions import solution_basis, verify_annihilation
from .subgraph import bounded_atlas

SCHEMA = "1"

EXIT_OK = 0
EXIT_INPUT = BinomHornError.exit_code
EXIT_INFINITE = InfiniteRankError.exit_code


def read_matrix(path: str) -> IntMatrix:
    rows = []
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConventionError(f"{path}: not UTF-8 text ({exc})") from exc
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise ConventionError(f"{path}: bad matrix line {line!r}") from exc
    if not rows:
        raise ConventionError(f"{path}: empty matrix")
    try:
        return IntMatrix(rows)
    except ValueError as exc:
        raise ConventionError(f"{path}: {exc}") from exc


def parse_rationals(text: str):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise ConventionError(f"empty entry in {text!r}")
        try:
            out.append(Fraction(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConventionError(f"bad rational {tok!r}") from exc
    return tuple(out)


def _frac_str(x):
    return str(Fraction(x))


def _matrix_json(m: IntMatrix):
    return m.tolist()


def _series_json(s):
    # base_j = p/q in lowest terms, so (p + z_j q)/q is too: each exponent
    # prints as _frac_str would print it, without building a Fraction
    pq = [(b.numerator, b.denominator) for b in s.base]
    terms = [{"exponent": [str(p + x * q) if q == 1 else f"{p + x * q}/{q}"
                           for (p, q), x in zip(pq, z)],
              "coeff": {"N": c.N, "coeffs": [str(x) for x in c.coeffs]}}
             for z, c in s.sorted_terms()]
    return {"nvars": s.nvars, "terms": terms}


def _emit(report, pretty):
    if pretty:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))


def _load_input(args):
    B = read_matrix(args.B)
    A = read_matrix(args.A) if args.A else None
    return make_horn_input(B, A)


def cmd_validate(args):
    B = read_matrix(args.B)
    vr = validate_B(B)
    report = {"schema": SCHEMA, "command": "validate", "B": _matrix_json(B),
              "ok": vr.ok}
    if not vr.ok:
        report["reason"] = vr.reason
        report["certificate"] = list(vr.certificate) if vr.certificate else None
        _emit(report, args.pretty)
        return EXIT_INPUT
    hi = make_horn_input(B, read_matrix(args.A) if args.A else None,
                         report=vr)
    report["A"] = _matrix_json(hi.A)
    report["pointed_functional"] = [_frac_str(x) for x in hi.pointed_functional]
    report["a_spans_standard_lattice"] = hi.a_spans_standard_lattice
    report["a_column_index"] = hi.a_column_index
    _emit(report, args.pretty)
    return EXIT_OK


def cmd_complement(args):
    B = read_matrix(args.B)
    A = compute_A(B)
    report = {"schema": SCHEMA, "command": "complement", "B": _matrix_json(B),
              "A": _matrix_json(A)}
    _emit(report, args.pretty)
    return EXIT_OK


def cmd_decompose(args):
    hi = _load_input(args)
    decs = hi.decompositions
    rep = hi.andean
    report = {
        "schema": SCHEMA, "command": "decompose",
        "B": _matrix_json(hi.B), "A": _matrix_json(hi.A),
        "decompositions": [
            {"rowset": [i + 1 for i in dec.rowset_Jbar],
             "colset": [k + 1 for k in dec.colset_M],
             "class": dec.klass,
             "q": dec.q, "p": dec.p, "g": dec.g,
             "M": _matrix_json(dec.M),
             "B_J": _matrix_json(dec.B_J)}
            for dec in decs],
        "andean_directions": [[list(v) for v in d.vectors]
                              for d in rep.directions],
        "generically_holonomic": rep.generically_holonomic,
    }
    _emit(report, args.pretty)
    return EXIT_OK


def cmd_subgraphs(args):
    M = read_matrix(args.M)
    atlas = bounded_atlas(M, cap=args.cap)
    report = {
        "schema": SCHEMA, "command": "subgraphs", "M": _matrix_json(M),
        "mu": atlas.mu,
        "reps": [list(r) for r in atlas.representatives],
        "component_sizes": [c.size for c in atlas.bounded_components],
        "unbounded_min_gens": [list(g) for g in atlas.unbounded_min_gens],
        "closure_level": atlas.closure_level,
    }
    _emit(report, args.pretty)
    return EXIT_OK


def cmd_volume(args):
    A = read_matrix(args.A)
    cone = Cone(A)
    report = {"schema": SCHEMA, "command": "volume", "A": _matrix_json(A),
              "volume": cone.volume,
              "lattice_basis": [list(v) for v in cone.lattice.vectors]}
    _emit(report, args.pretty)
    return EXIT_OK


def cmd_rank(args):
    hi = _load_input(args)
    rep = generic_rank(hi, cap=args.cap)
    report = {
        "schema": SCHEMA, "command": "rank",
        "B": _matrix_json(hi.B), "A": _matrix_json(hi.A),
        "infinite": rep.infinite,
        "generically_holonomic": rep.generically_holonomic,
        "andean_directions": [[list(v) for v in d.vectors]
                              for d in hi.andean.directions],
        "note": rep.note,
    }
    if rep.infinite:
        _emit(report, args.pretty)
        return EXIT_INFINITE
    report["total"] = rep.total
    report["summands"] = [
        {"rowset": list(s.rowset), "mu": s.mu, "g": s.g, "vol": s.vol,
         "product": s.product} for s in rep.summands]
    cross = degree_cross_check(hi)
    report["degree_cross_check"] = cross
    _emit(report, args.pretty)
    return EXIT_OK


def cmd_horn_ops(args):
    B = read_matrix(args.B)
    c = parse_rationals(args.c) if args.c else tuple(Fraction(0)
                                                     for _ in range(B.nrows))
    if len(c) != B.nrows:
        raise ConventionError(
            f"parameter c needs {B.nrows} entries, got {len(c)}")
    ops = horn_classical_operators(B, c)
    report = {
        "schema": SCHEMA, "command": "horn-ops", "B": _matrix_json(B),
        "c": [_frac_str(x) for x in c],
        "operators": [
            {"k": op.k + 1,
             "q_factors": [{"coeffs": [_frac_str(x) for x in fc],
                            "const": _frac_str(cc)} for fc, cc in op.q_factors],
             "p_factors": [{"coeffs": [_frac_str(x) for x in fc],
                            "const": _frac_str(cc)} for fc, cc in op.p_factors],
             "q_expanded": _theta_poly_json(op.expanded_q()),
             "p_expanded": _theta_poly_json(op.expanded_p())}
            for op in ops],
    }
    _emit(report, args.pretty)
    return EXIT_OK


def _theta_poly_json(poly):
    return [{"monomial": list(mono), "coeff": _frac_str(c)}
            for mono, c in sorted(poly.items())]


def _solve(args):
    if args.truncate < 0:
        raise ConventionError(f"--truncate must be >= 0, got {args.truncate}")
    if args.field_root < 1:
        raise ConventionError(
            f"--field-root must be >= 1, got {args.field_root}")
    hi = _load_input(args)
    if not args.beta:
        raise ConventionError("--beta is required")
    beta = parse_rationals(args.beta)
    if len(beta) != hi.d:
        raise ConventionError(f"beta needs {hi.d} entries, got {len(beta)}")
    sols = solution_basis(hi, beta, T=args.truncate,
                          field_root=args.field_root, cap=args.cap)
    return hi, beta, sols


def cmd_solve(args):
    hi, beta, sols = _solve(args)
    report = {
        "schema": SCHEMA, "command": "solve",
        "B": _matrix_json(hi.B), "A": _matrix_json(hi.A),
        "beta": [_frac_str(b) for b in beta],
        "truncate": args.truncate, "field_root": args.field_root,
        "count": len(sols),
        "solutions": [
            {"decomposition": s.decomposition,
             "rowset": list(s.rowset),
             "gamma": list(s.gamma),
             "simplex": list(s.simplex),
             "character": list(s.character),
             "support_rank": s.support_rank,
             "series": _series_json(s.series)}
            for s in sols],
    }
    _emit(report, args.pretty)
    return EXIT_OK


def cmd_verify(args):
    hi, beta, sols = _solve(args)
    ops = horn_system_operators(hi, beta, field_order=args.field_root)
    results = []
    all_ok = True
    for s in sols:
        rep = verify_annihilation(ops, s.series)
        all_ok = all_ok and rep.ok
        results.append({
            "decomposition": s.decomposition,
            "gamma": list(s.gamma),
            "simplex": list(s.simplex),
            "character": list(s.character),
            "ok": rep.ok,
            "checks": [
                {"operator": c.operator, "ok": c.ok,
                 "interior_residual": [
                     [_frac_str(x) for x in s.series.exponent(z)]
                     for z, _ in c.interior_residual],
                 "boundary_terms": c.boundary_terms}
                for c in rep.checks],
        })
    report = {
        "schema": SCHEMA, "command": "verify",
        "B": _matrix_json(hi.B), "A": _matrix_json(hi.A),
        "beta": [_frac_str(b) for b in beta],
        "truncate": args.truncate, "field_root": args.field_root,
        "ok": all_ok,
        "solutions": results,
    }
    _emit(report, args.pretty)
    return EXIT_OK if all_ok else 1


@cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="binomhorn",
        description="Exact combinatorics and Puiseux solution bases for "
                    "binomial Horn systems.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, B=True, A="optional", M=False, beta=False, cap=False):
        # A is "optional" beside --B, "required" or None; --cap goes only
        # where a subgraph atlas runs
        if B:
            p.add_argument("--B", required=True, help="path to the B matrix")
        if A:
            p.add_argument("--A", required=A == "required",
                           help="path to the A matrix" if A == "required"
                           else "optional path to a user-supplied A")
        if M:
            p.add_argument("--M", required=True, help="path to the M matrix")
        if beta:
            p.add_argument("--beta", help="comma-separated rationals p/q")
            p.add_argument("--truncate", type=int, default=6,
                           help="word-length truncation bound (default 6)")
            p.add_argument("--field-root", dest="field_root", type=int,
                           default=1, help="cyclotomic order N (default 1)")
        if cap:
            p.add_argument("--cap", type=int, default=1000,
                           help="subgraph level cap (default 1000)")
        p.add_argument("--pretty", action="store_true",
                       help="indented JSON output (default: compact)")

    common(sub.add_parser("validate", help="check the conventions on B (and A)"))
    common(sub.add_parser("complement", help="compute a canonical A from B"),
           A=None)
    common(sub.add_parser("decompose", help="enumerate block decompositions"))
    common(sub.add_parser("subgraphs", help="bounded component atlas of M"),
           B=False, A=None, M=True, cap=True)
    common(sub.add_parser("volume", help="normalized volume of a column set"),
           B=False, A="required")
    common(sub.add_parser("rank", help="generic holonomic rank"), cap=True)
    p = sub.add_parser("horn-ops", help="classical Horn operators from B")
    common(p, A=None)
    p.add_argument("--c", help="comma-separated rationals, one per row of B")
    common(sub.add_parser("solve", help="truncated solution basis"),
           beta=True, cap=True)
    common(sub.add_parser("verify", help="solve, then check annihilation"),
           beta=True, cap=True)
    return ap


HANDLERS = {
    "validate": cmd_validate,
    "complement": cmd_complement,
    "decompose": cmd_decompose,
    "subgraphs": cmd_subgraphs,
    "volume": cmd_volume,
    "rank": cmd_rank,
    "horn-ops": cmd_horn_ops,
    "solve": cmd_solve,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "cap", 0) < 0:
            raise ConventionError(f"--cap must be >= 0, got {args.cap}")
        return HANDLERS[args.command](args)
    except (BinomHornError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InfiniteRankError):
            _emit({"schema": SCHEMA, "command": args.command,
                   "infinite": True, "error": str(exc)},
                  getattr(args, "pretty", False))
        return getattr(exc, "exit_code", EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
