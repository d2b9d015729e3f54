"""Connected components of the column-translation graph on N^q.

An integer matrix M with q rows induces an undirected graph on N^q whose
edges join points differing by a column of M.  Components are either
finite or contain two distinct comparable points; the comparable pair is
a terminating certificate of unboundedness (an infinite subset of N^q
always contains one, and a component with one is closed under adding the
difference, hence infinite).  That certificate is what makes the
exploration of one component terminate on every input; the atlas walks
N^q from the bounded frontier of one level to the next.  Before it walks,
a face certificate y >= 0 may show that mu is infinite, in which case no
level ever closes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import CapExceededError
from .exact_linalg import IntMatrix, int_rank, left_kernel_basis
from .model import _clear_denominators, is_pointed


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
    bounded components, which ``is_bounded`` tests.  ``classification``
    maps each explored point to True (bounded) or False (unbounded).
    """

    M: IntMatrix
    mu: int
    representatives: tuple
    bounded_components: tuple
    unbounded_min_gens: tuple
    closure_level: int
    classification: dict = field(repr=False, compare=False, hash=False)

    def is_bounded(self, p):
        """Whether the point p of N^q lies in a bounded component."""
        return not any(_dominates(p, g) for g in self.unbounded_min_gens)


def _positive_left_kernel_vector(M: IntMatrix):
    """A primitive integer y > 0 with yM = 0, or None when there is none:
    y = hK for h > 0 on the columns of the left kernel K, if pointed."""
    if int_rank(M) == M.nrows:
        return None
    K = IntMatrix([list(v) for v in left_kernel_basis(M).vectors])
    report = is_pointed(K)
    if not report.pointed:
        return None
    return _clear_denominators(
        [sum(h * x for h, x in zip(report.functional, col))
         for col in K.columns()])


def _face_certificate(M: IntMatrix):
    """A primitive y in N^q that is zero on a nonempty row set S and
    certifies mu = infinity, or None.

    Every nonzero column meeting S is mixed on S, and every nonzero
    column vanishing on S has y.c = 0.  From a point x with x_S = 0 no
    step that meets S keeps x_S >= 0, so the component of x stays in
    {x_S = 0, y.x = y.x0}, which is finite as y > 0 off S; there are
    infinitely many such x.  The row sets S meeting the first condition
    are closed under union.  The largest one avoiding a row r comes from
    all other rows by removing the support of each column that meets S
    but is one-signed there, a forced step, and a certificate positive
    at r exists exactly when one exists on the complement of that S.
    """
    q = M.nrows
    full = (1 << q) - 1
    signs = []  # (positive rows, negative rows, column) of nonzero columns
    for c in M.columns():
        pos = sum(1 << i for i, x in enumerate(c) if x > 0)
        neg = sum(1 << i for i, x in enumerate(c) if x < 0)
        if pos | neg:
            signs.append((pos, neg, c))
    tried = set()
    for r in range(q):
        S = full & ~(1 << r)
        changed = True
        while changed:
            changed = False
            for pos, neg, _ in signs:
                if bool(pos & S) != bool(neg & S):
                    S &= ~(pos | neg)
                    changed = True
        if not S or S in tried:  # S empty is the y > 0 case, tried first
            continue
        tried.add(S)
        R = [i for i in range(q) if not S >> i & 1]
        inside = [[c[i] for i in R] for pos, neg, c in signs
                  if not (pos | neg) & S]
        y_R = (_positive_left_kernel_vector(
            IntMatrix.from_columns(inside, nrows=len(R)))
            if inside else (1,) * len(R))
        if y_R is not None:
            y = [0] * q
            for i, x in zip(R, y_R):
                y[i] = x
            return tuple(y)
    return None


def bounded_atlas(M: IntMatrix, cap: int = 1000) -> SubgraphAtlas:
    """Enumerate all bounded components by walking N^q level by level.

    When some y > 0 has yM = 0, every component lies in a finite level set
    of y, so mu is infinite: CapExceededError is raised at once with y as
    its ``certificate``.  The same holds, with a certificate y >= 0, when
    ``_face_certificate`` finds a face of N^q holding infinitely many
    bounded components; such a block never closes at any cap, so it is
    not walked.  Otherwise the union of the unbounded components is an
    up-set (the component of p + e_i holds the translate by e_i of that
    of p), so the candidates of level t + 1 are the upper neighbours
    of the bounded points of level t whose lower neighbours are all
    bounded; the rest of the level is unbounded, and an unbounded candidate
    is a minimal generator of the union.  The first level t > 0 without a
    bounded point certifies that all higher levels are unbounded too;
    enumeration stops there.  Exceeding ``cap`` levels without that closure
    raises CapExceededError rather than returning a partial answer; a
    negative ``cap`` raises ValueError.
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
    y = _positive_left_kernel_vector(M)
    if y is not None:
        raise CapExceededError(
            f"mu is infinite: y = {list(y)} > 0 has yM = 0, so every "
            "component is bounded", certificate=y)
    y = _face_certificate(M)
    if y is not None:
        raise CapExceededError(
            f"mu is infinite: y = {list(y)} >= 0 has yc = 0 on every "
            "column that vanishes where y does, and every other column is "
            "mixed there, so every point vanishing there lies in a bounded "
            "component", certificate=y)
    steps = _steps(M)
    classification = {}  # explored point -> True (bounded) / False (unbounded)
    bounded, gens = [], []
    candidates = [(0,) * q]
    level = 0
    while True:
        if level > cap:
            raise CapExceededError(
                f"no closure certificate within {cap} levels: "
                "undetermined (possible Andean/infinite mu)")
        for p in candidates:
            if p not in classification:
                comp = _explore(steps, p, classification)
                for w in comp.points:
                    classification[w] = comp.bounded
                if comp.bounded:
                    bounded.append(comp)
        frontier = {p for p in candidates if classification[p]}
        gens += (p for p in candidates if not classification[p])
        if level > 0 and not frontier:
            break
        ups = {s[:i] + (s[i] + 1,) + s[i + 1:] for s in frontier
               for i in range(q)}
        candidates = sorted(
            c for c in ups
            if all(not x or c[:i] + (x - 1,) + c[i + 1:] in frontier
                   for i, x in enumerate(c)))
        level += 1
    bounded.sort(key=lambda c: (sum(c.points[0]), c.points[0]))
    reps = tuple(min(c.points) for c in bounded)
    return SubgraphAtlas(M=M, mu=len(bounded), representatives=reps,
                         bounded_components=tuple(bounded),
                         unbounded_min_gens=tuple(sorted(gens)),
                         closure_level=level,
                         classification=classification)
