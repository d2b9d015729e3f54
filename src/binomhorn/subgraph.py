"""Connected components of the column-translation graph on N^q.

An integer matrix M with q rows induces an undirected graph on N^q whose
edges join points differing by a column of M.  Components are either
finite or contain two distinct comparable points; the comparable pair is
a terminating certificate of unboundedness (an infinite subset of N^q
always contains one, and a component with one is closed under adding the
difference, hence infinite).  That certificate is what makes the
enumeration here terminate on every input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import CapExceededError
from .exact_linalg import IntMatrix


def _steps(M: IntMatrix):
    """Nonzero columns of M and their negatives, deduplicated."""
    out = []
    seen = set()
    for j in range(M.ncols):
        c = M.column(j)
        if all(x == 0 for x in c):
            continue
        for s in (c, tuple(-x for x in c)):
            if s not in seen:
                seen.add(s)
                out.append(s)
    return out


def _dominates(u, v):
    """u >= v componentwise."""
    return all(a >= b for a, b in zip(u, v))


@dataclass(frozen=True)
class Component:
    """One component of the translation graph.

    ``points`` is the complete vertex set when bounded; for an unbounded
    component it is the explored subset at the moment the comparable-pair
    witness (u, v) with u <= v was found.
    """

    bounded: bool
    points: tuple
    witness: tuple | None = None  # (smaller, larger) comparable pair

    @property
    def size(self):
        return len(self.points)


def component_of(M: IntMatrix, gamma) -> Component:
    """Breadth-first exploration of the component of gamma in N^q.

    Stops with the full vertex set (bounded) or with an unboundedness
    witness the moment two distinct comparable points have both been seen.
    """
    gamma = tuple(int(x) for x in gamma)
    if len(gamma) != M.nrows:
        raise ValueError("seed length != number of rows of M")
    if any(x < 0 for x in gamma):
        raise ValueError("seed outside N^q")
    comp = _explore(_steps(M), gamma)
    assert comp.bounded or comp.witness is not None
    return comp


def _explore(steps, gamma, classification=None) -> Component:
    """BFS core over the translation steps of M from a point gamma of N^q;
    an optional map of points already classified (True bounded, False
    unbounded) lets exploration stop early, without a witness, at a point
    known to sit in an unbounded component."""
    seen = {gamma}
    order = [gamma]
    queue = deque([gamma])
    while queue:
        u = queue.popleft()
        for s in steps:
            v = tuple(a + b for a, b in zip(u, s))
            if any(x < 0 for x in v) or v in seen:
                continue
            if classification is not None and classification.get(v) is False:
                return Component(bounded=False,
                                 points=tuple(sorted(seen | {v})),
                                 witness=None)
            for w in order:
                if _dominates(v, w):
                    return Component(bounded=False,
                                     points=tuple(sorted(seen | {v})),
                                     witness=(w, v))
                if _dominates(w, v):
                    return Component(bounded=False,
                                     points=tuple(sorted(seen | {v})),
                                     witness=(v, w))
            seen.add(v)
            order.append(v)
            queue.append(v)
    return Component(bounded=True, points=tuple(sorted(seen)))


@dataclass(frozen=True)
class SubgraphAtlas:
    """Complete catalogue of the bounded components of the graph on N^q.

    ``mu`` counts bounded components, ``representatives`` holds the
    lexicographically smallest point of each, and ``unbounded_min_gens``
    are the minimal points of the (upward closed) union of the unbounded
    components: the staircase below them is exactly the union of the
    bounded components.
    """

    M: IntMatrix
    mu: int
    representatives: tuple
    bounded_components: tuple
    unbounded_min_gens: tuple
    closure_level: int
    classification: dict = field(repr=False, compare=False, hash=False)


def _points_of_degree(q, t):
    """All points of N^q with coordinate sum exactly t, lexicographic;
    built by a loop, since a recursive closure leaves a reference cycle."""
    if q == 0:
        return [()] if t == 0 else []
    layer = [((), t)]
    for _ in range(q - 1):
        layer = [(p + (v,), r - v) for p, r in layer for v in range(r + 1)]
    return [p + (r,) for p, r in layer]


def _above_unbounded(p, classification):
    """Whether some p - e_i is already classified unbounded."""
    for i, x in enumerate(p):
        if x and classification.get(p[:i] + (x - 1,) + p[i + 1:]) is False:
            return True
    return False


def bounded_atlas(M: IntMatrix, cap: int = 1000) -> SubgraphAtlas:
    """Enumerate all bounded components by exploring N^q level by level.

    The union of the unbounded components is an up-set: the component of
    p + e_i holds the translate by e_i of the component of p.  So a point
    with some p - e_i already classified unbounded is classified unbounded
    without exploring, and the first total degree at which every point
    sits in an unbounded component certifies that all higher degrees do
    too; enumeration stops there.  Exceeding ``cap`` levels without that
    closure raises CapExceededError rather than returning a partial
    answer; a negative ``cap`` raises ValueError.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    q = M.nrows
    if q == 0:
        comp = Component(bounded=True, points=((),))
        return SubgraphAtlas(M=M, mu=1, representatives=((),),
                             bounded_components=(comp,),
                             unbounded_min_gens=(),
                             closure_level=0,
                             classification={(): True})
    steps = _steps(M)
    classification = {}  # point -> True (bounded) / False (unbounded)
    bounded = []
    level = 0
    while True:
        if level > cap:
            raise CapExceededError(
                f"no closure certificate within {cap} levels: "
                "undetermined (possible Andean/infinite mu)")
        pts = _points_of_degree(q, level)
        all_unbounded = True
        for p in pts:
            if p in classification:
                if classification[p]:
                    all_unbounded = False
                continue
            if _above_unbounded(p, classification):
                classification[p] = False
                continue
            comp = _explore(steps, p, classification)
            for w in comp.points:
                classification[w] = comp.bounded
            if comp.bounded:
                bounded.append(comp)
                all_unbounded = False
        if level > 0 and all_unbounded:
            break
        level += 1
    # minimal generators of the unbounded union; all lie at degree <= level
    gens = [p for p, is_bounded in sorted(classification.items())
            if not is_bounded and sum(p) <= level
            and not _above_unbounded(p, classification)]
    bounded.sort(key=lambda c: (sum(c.points[0]), c.points[0]))
    reps = tuple(min(c.points) for c in bounded)
    return SubgraphAtlas(M=M, mu=len(bounded), representatives=reps,
                         bounded_components=tuple(bounded),
                         unbounded_min_gens=tuple(gens),
                         closure_level=level,
                         classification=classification)
