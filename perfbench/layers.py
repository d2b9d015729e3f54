"""Per-layer metrics read from a traced cycle.

Work counts are taken from the objects the spanned functions return, so
they repeat exactly for the same inputs.  Times are self seconds per
cycle.
"""

from __future__ import annotations

# (name, unit, better); the same list is declared in BENCHMARK.json
PER_LAYER = [
    ("model.validate_s", "s", "lower"),
    ("model.validate_calls", "count", "lower"),
    ("decomp.enumerate_s", "s", "lower"),
    ("decomp.enumerate_calls", "count", "lower"),
    ("decomp.masks", "count", "lower"),
    ("decomp.admissible", "count", "higher"),
    ("subgraph.atlas_s", "s", "lower"),
    ("subgraph.atlas_calls", "count", "lower"),
    ("subgraph.points_classified", "count", "lower"),
    ("subgraph.cap_exceeded", "count", "lower"),
    ("geometry.volume_s", "s", "lower"),
    ("geometry.triangulation_s", "s", "lower"),
    ("geometry.support_s", "s", "lower"),
    ("geometry.calls", "count", "lower"),
    ("ranks.self_s", "s", "lower"),
    ("ranks.calls", "count", "lower"),
    ("solutions.gamma_series_s", "s", "lower"),
    ("solutions.gamma_series_calls", "count", "lower"),
    ("solutions.basis_self_s", "s", "lower"),
    ("solutions.characters_s", "s", "lower"),
    ("solutions.count", "count", "higher"),
    ("solutions.terms", "count", "higher"),
    ("solutions.terms_per_s", "1/s", "higher"),
    ("solutions.verify_s", "s", "lower"),
    ("series.apply_s", "s", "lower"),
    ("series.apply_calls", "count", "lower"),
    ("series.interior_terms", "count", "lower"),
    ("series.boundary_terms", "count", "lower"),
    ("cyclotomic.twisted_solutions", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("src.lines", "lines", "lower"),
]


def make_hooks(bh):
    """Hooks that read work counts off returned objects.  A hook gets
    (tracer, args, kwargs, result, exception) and returns the result."""

    def enumerate_hook(tr, args, kwargs, result, exc):
        if exc is None:
            hi = args[0] if args else kwargs["hi"]
            tr.counts["decomp.masks"] += 1 << hi.n
            tr.counts["decomp.admissible"] += len(result)
        return result

    def atlas_hook(tr, args, kwargs, result, exc):
        if isinstance(exc, bh.CapExceededError):
            tr.counts["subgraph.cap_exceeded"] += 1
        elif exc is None:
            tr.counts["subgraph.points_classified"] += len(result.classification)
        return result

    def basis_hook(tr, args, kwargs, result, exc):
        if exc is None:
            tr.counts["solutions.count"] += len(result)
            tr.counts["solutions.terms"] += sum(s.series.num_terms()
                                                for s in result)
            tr.counts["cyclotomic.twisted_solutions"] += sum(
                1 for s in result if any(s.character))
        return result

    def verify_hook(tr, args, kwargs, result, exc):
        if exc is None:
            for c in result.checks:
                tr.counts["series.interior_terms"] += len(c.interior_residual)
                tr.counts["series.boundary_terms"] += len(c.boundary_residual)
        return result

    def characters_hook(tr, args, kwargs, result, exc):
        if exc is None:
            result = [(t, tr.leaf("solutions.character", fn))
                      for t, fn in result]
        return result

    return {
        "decomp.enumerate_decompositions": enumerate_hook,
        "subgraph.bounded_atlas": atlas_hook,
        "solutions.solution_basis": basis_hook,
        "solutions.verify_annihilation": verify_hook,
        "solutions.component_characters": characters_hook,
    }


def cycle_times(tr):
    """Self seconds of one traced cycle, by per-layer time metric."""
    s = tr.self_s
    return {
        "model.validate_s": tr.layer_self("model."),
        "decomp.enumerate_s": tr.layer_self("decomp."),
        "subgraph.atlas_s": tr.layer_self("subgraph."),
        "geometry.volume_s": s["geometry.normalized_volume"],
        "geometry.triangulation_s": s["geometry.cone_triangulation"],
        "geometry.support_s": (s["geometry.facet_support_functions"]
                               + s["geometry.very_generic_check"]),
        "ranks.self_s": tr.layer_self("ranks."),
        "solutions.gamma_series_s": s["solutions.gamma_series"],
        "solutions.basis_self_s": s["solutions.solution_basis"],
        "solutions.characters_s": (s["solutions.component_characters"]
                                   + s["solutions.character"]),
        "solutions.verify_s": s["solutions.verify_annihilation"],
        "series.apply_s": s["series.apply_operator"],
        "cli.self_s": tr.layer_self("cli."),
    }


def cycle_counts(tr):
    """Work counts of one traced cycle, by per-layer count metric."""
    calls = tr.calls

    def layer_calls(prefix):
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    out = {
        "model.validate_calls": calls["model.validate_B"] + calls["model.is_pointed"],
        "decomp.enumerate_calls": calls["decomp.enumerate_decompositions"],
        "subgraph.atlas_calls": calls["subgraph.bounded_atlas"],
        "geometry.calls": layer_calls("geometry."),
        "ranks.calls": layer_calls("ranks."),
        "solutions.gamma_series_calls": calls["solutions.gamma_series"],
        "series.apply_calls": calls["series.apply_operator"],
    }
    for key in ("decomp.masks", "decomp.admissible", "subgraph.points_classified",
                "subgraph.cap_exceeded", "solutions.count", "solutions.terms",
                "series.interior_terms", "series.boundary_terms",
                "cyclotomic.twisted_solutions"):
        out[key] = tr.counts[key]
    return out
