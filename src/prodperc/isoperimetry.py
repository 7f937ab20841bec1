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
orderings) and exact counts of rooted subtrees against the (e*d)**(k-1)
bound.
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


def _int_det(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    size = len(matrix)
    if size == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for i in range(size - 1):
        if m[i][i] == 0:
            pivot = next((r for r in range(i + 1, size) if m[r][i] != 0), None)
            if pivot is None:
                return 0
            m[i], m[pivot] = m[pivot], m[i]
            sign = -sign
        for r in range(i + 1, size):
            for c in range(i + 1, size):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[size - 1][size - 1]


def _spanning_tree_count(pg: ProductGraph, vertices: tuple[int, ...]) -> int:
    """Spanning trees of the induced subgraph (matrix-tree theorem)."""
    k = len(vertices)
    if k == 1:
        return 1
    index = {v: i for i, v in enumerate(vertices)}
    lap = [[0] * k for _ in range(k)]
    for i, v in enumerate(vertices):
        for w in pg.neighbors(v):
            j = index.get(w)
            if j is not None:
                lap[i][j] -= 1
                lap[i][i] += 1
    reduced = [row[:-1] for row in lap[:-1]]
    return _int_det(reduced)


def count_rooted_trees(pg: ProductGraph, root: int, k: int) -> int:
    """Exact number of k-vertex subtrees of the graph containing ``root``.

    Sums spanning-tree counts over all connected k-sets containing the
    root.  Feasible for k up to about 7.
    """
    if k < 1:
        raise ValueError(f"tree size must be at least 1, got {k}")
    if k > 7:
        raise ValueError(f"rooted tree counting capped at k = 7, got {k}")
    total = 0
    for subset in _connected_ksets(pg, root, k):
        total += _spanning_tree_count(pg, subset)
    return total


def _connected_ksets(pg: ProductGraph, root: int, k: int):
    """All connected vertex sets of size k containing ``root``.

    Standard growth enumeration: each branch picks one frontier vertex
    and bans it from later branches of the same node, so every set is
    produced exactly once.
    """
    results: list[tuple[int, ...]] = []

    def grow(current: set, banned: set):
        if len(current) == k:
            results.append(tuple(sorted(current)))
            return
        frontier = []
        seen_local = set()
        for v in current:
            for w in pg.neighbors(v):
                if w not in current and w not in banned and w not in seen_local:
                    seen_local.add(w)
                    frontier.append(w)
        local_ban = set()
        for w in sorted(frontier):
            current.add(w)
            grow(current, banned | local_ban)
            current.remove(w)
            local_ban.add(w)

    grow({root}, set())
    return results


def rooted_tree_bound(d: int, k: int) -> float:
    """The analytic ceiling (e * d) ** (k - 1) for rooted subtree counts."""
    return (math.e * d) ** (k - 1)
