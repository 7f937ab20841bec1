"""Edge expansion of product graphs: exact profiles and analytic bounds.

``exhaustive_profile`` computes f(k), the minimum edge boundary over all
vertex sets of size k.  The boundary of S is that of V - S on every
graph, so it walks only the subsets of the first n - 1 vertices, in
Gray-code order so each step updates the boundary in O(d), and records
each boundary for both |S| and n - |S|: half the subsets.  So
f(k) = f(n - k) holds by construction, and with it the ``symmetry_ok``
aggregate of ``iso`` reports and the symmetry check of the ``verify``
battery, which stay as report bytes and instance counts.  The analytic
counterpart is

    f*(k) = max( k * (d - (C - 1) * log_C k),  k * (e / C) * ln(n / k) )

with e Euler's constant and C the largest base-graph order; f* extends
to k > n/2 by the symmetry f(k) = f(n - k) and accepts real arguments
because the component-counting bounds evaluate it at real split points.
The module also provides the exact global minimum cut (maximum adjacency
orderings) and exact counts of rooted subtrees, grown from the root one
frontier edge at a time, against the (e*d)**(k-1) bound.
"""

import heapq
import math
from dataclasses import dataclass

from .graph_core import ProductGraph, TooLargeError, components_from_bitmasks, neighbor_bitmasks


@dataclass(frozen=True)
class BoundParams:
    """Constants feeding the analytic bounds for one (graph, p) pair.

    ``s_threshold`` and ``b_threshold`` are the component-size split
    points n / d**(C**3 / p) and n / d**(C**5 / p), evaluated literally
    (at desk scale they are typically far below 1; the obstruction
    module clamps its working threshold separately).
    """

    n: int
    d: int
    C: int
    p: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if self.d < 1:
            raise ValueError(f"d must be at least 1, got {self.d}")
        if self.C < 2:
            raise ValueError(f"C must be at least 2, got {self.C}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")

    @classmethod
    def from_product(cls, pg: ProductGraph, p: float) -> "BoundParams":
        if pg.d is None:
            raise ValueError("bound parameters need a regular product")
        return cls(n=pg.n, d=pg.d, C=pg.C, p=p)

    def _threshold(self, power: int) -> float:
        # computed in log space; d = 1 degenerates to threshold = n
        exponent = math.log(self.n) - (self.C ** power / self.p) * math.log(self.d)
        return math.exp(exponent)

    @property
    def s_threshold(self) -> float:
        return self._threshold(3)

    @property
    def b_threshold(self) -> float:
        return self._threshold(5)


@dataclass(frozen=True)
class IsoperimetricProfile:
    """Exact f(k) for k in [1, n-1]; witnesses are minimising sets."""

    n: int
    f: tuple[int, ...]
    witnesses: tuple[frozenset, ...] | None = None

    def f_of(self, k: int) -> int:
        if not 1 <= k <= self.n - 1:
            raise ValueError(f"profile index must be in [1, {self.n - 1}], got {k}")
        return self.f[k - 1]


def exhaustive_profile(pg: ProductGraph, keep_witnesses: bool | None = None) -> IsoperimetricProfile:
    """Exact minimum boundary per size by Gray-code subset enumeration.

    The walk covers the nonempty subsets S of the first n - 1 vertices
    and records each boundary for both |S| and n - |S|, with witness
    V - S for the latter: every other proper subset is such a
    complement, and the boundary of V - S is that of S.  Feasible up
    to 24 vertices.  Witnesses are kept by default up to 16 vertices.
    """
    n = pg.n
    if n > 24:
        raise TooLargeError(f"exhaustive profile capped at 24 vertices, got {n}")
    if keep_witnesses is None:
        keep_witnesses = n <= 16
    nbr = neighbor_bitmasks(pg)
    deg = [pg.degree_of(v) for v in range(n)]
    full = (1 << n) - 1
    best = [sum(deg) + 1] * (n + 1)
    wit = [0] * (n + 1)
    subset = 0
    boundary = 0
    size = 0
    for i in range(1, 1 << (n - 1)):
        bit = i & -i
        v = bit.bit_length() - 1
        inside = (nbr[v] & subset).bit_count()
        if subset & bit:
            size -= 1
            boundary += 2 * inside - deg[v]
        else:
            size += 1
            boundary += deg[v] - 2 * inside
        subset ^= bit
        if boundary < best[size]:
            best[size] = boundary
            wit[size] = subset
        if boundary < best[n - size]:
            best[n - size] = boundary
            wit[n - size] = full ^ subset
    f = tuple(best[1:n])
    witnesses = None
    if keep_witnesses:
        witnesses = tuple(frozenset(v for v in range(n) if w >> v & 1) for w in wit[1:n])
    return IsoperimetricProfile(n=n, f=f, witnesses=witnesses)


def f_star(params: BoundParams, k: float) -> float:
    """Analytic lower bound for the boundary of a k-set.

    Defined for real k in (0, n); arguments above n/2 fold onto n - k by
    the boundary symmetry.
    """
    n, d, C = params.n, params.d, params.C
    if not 0 < k < n:
        raise ValueError(f"f_star argument must be in (0, n), got {k}")
    k = min(k, n - k)
    degree_branch = k * (d - (C - 1) * math.log(k, C))
    expansion_branch = k * (math.e / C) * math.log(n / k)
    return max(degree_branch, expansion_branch)


def edge_connectivity(pg: ProductGraph) -> int:
    """Exact global minimum edge cut via maximum adjacency orderings."""
    n = pg.n
    if n < 2:
        raise ValueError("edge connectivity needs at least 2 vertices")
    # check connectivity first: a disconnected input is a caller error
    if len(components_from_bitmasks(neighbor_bitmasks(pg), (1 << n) - 1)) != 1:
        raise ValueError("edge connectivity is undefined here: graph is disconnected")

    weights: dict[int, dict[int, int]] = {v: {} for v in range(n)}
    for u, v in pg.edges:
        weights[u][v] = weights[u].get(v, 0) + 1
        weights[v][u] = weights[v].get(u, 0) + 1
    active = set(range(n))
    best = math.inf
    while len(active) > 1:
        start = next(iter(active))
        in_order = {start}
        attach = {v: w for v, w in weights[start].items()}
        heap = [(-w, v) for v, w in attach.items()]
        heapq.heapify(heap)
        order = [start]
        last_weight = 0
        while len(in_order) < len(active):
            while True:
                negw, v = heapq.heappop(heap)
                if v not in in_order and attach.get(v, 0) == -negw:
                    break
            in_order.add(v)
            order.append(v)
            last_weight = -negw
            for u, w in weights[v].items():
                if u not in in_order:
                    attach[u] = attach.get(u, 0) + w
                    heapq.heappush(heap, (-attach[u], u))
        t = order[-1]
        s = order[-2]
        best = min(best, last_weight)
        # merge t into s
        for u, w in weights[t].items():
            if u == s:
                continue
            weights[s][u] = weights[s].get(u, 0) + w
            weights[u][s] = weights[u].get(s, 0) + w
        for u in weights[t]:
            del weights[u][t]
        del weights[t]
        active.remove(t)
    return int(best)


def count_rooted_trees(pg: ProductGraph, root: int, k: int) -> int:
    """Exact number of k-vertex subtrees of the graph containing ``root``.

    Grows each tree from ``root`` one frontier edge at a time; a
    frontier entry is the far end of an edge leaving the tree.  The
    branch that takes entry j keeps only the later entries not ending
    at the new vertex w, then adds w's neighbours outside the tree, so
    every tree is counted once.  Feasible for k up to about 7.
    """
    if k < 1:
        raise ValueError(f"tree size must be at least 1, got {k}")
    if k > 7:
        raise ValueError(f"rooted tree counting capped at k = 7, got {k}")

    def grow(tree: set, frontier: list) -> int:
        if len(tree) == k:
            return 1
        total = 0
        for j, w in enumerate(frontier):
            tree.add(w)
            later = [x for x in frontier[j + 1:] if x != w]
            total += grow(tree, later + [x for x in pg.neighbors(w) if x not in tree])
            tree.remove(w)
        return total

    return grow({root}, pg.neighbors(root))


def rooted_tree_bound(d: int, k: int) -> float:
    """The analytic ceiling (e * d) ** (k - 1) for rooted subtree counts."""
    return (math.e * d) ** (k - 1)
