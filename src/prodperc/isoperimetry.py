"""Edge expansion of product graphs: exact profiles and analytic bounds.

``exhaustive_profile`` computes f(k), the minimum edge boundary over all
vertex sets of size k.  The boundary of S is that of V - S on every
graph, so it walks only the subsets of the first n - 1 vertices and
records each boundary for both |S| and n - |S|: half the subsets.  It
keeps the boundaries of the subsets of a low block of up to ten
vertices in packed lanes of one big int, walks the remaining high
vertices in Gray-code order with one big-int add or subtract per step,
and reads each size's minimum as one ``min`` over a slice of the
lanes.  So
f(k) = f(n - k) holds by construction, and with it the ``symmetry_ok``
aggregate of ``iso`` reports and the symmetry check of the ``verify``
battery, which stay as report bytes and instance counts.  The analytic
counterpart is

    f*(k) = max( k * (d - (C - 1) * log_C k),  k * (e / C) * ln(n / k) )

with e Euler's constant and C the largest base-graph order; f* extends
to k > n/2 by the symmetry f(k) = f(n - k) and accepts real arguments
because the component-counting bounds evaluate it at real split points.
The module also provides the exact global minimum cut, by unit-capacity
flows between the vertices of a dominating set, and exact counts of
rooted subtrees, grown from the root one frontier edge at a time, against
the (e*d)**(k-1) bound.  The flows suffice by Matula's lemma (D. W.
Matula, "Determining edge connectivity in O(nm)", FOCS 1987): in a simple
graph whose minimum cut is below the minimum degree, each side of a
minimum cut has more vertices than that degree, so holds a vertex whose
whole neighbourhood lies on its side, and so a vertex of every
dominating set.
"""

import math
import sys
from array import array
from itertools import accumulate
from typing import NamedTuple

from .graph_core import ProductGraph, TooLargeError, components_from_bitmasks, neighbor_bitmasks

# Largest order ``exhaustive_profile`` accepts: 2^23 subsets at 24 vertices.
EXHAUSTIVE_MAX_VERTICES = 24
# Largest order whose minimum cut the ``iso`` report includes.
MIN_CUT_MAX_VERTICES = 256
# Vertices in the profile walk's low block: one packed lane per low subset.
_LOW_BLOCK = 10


class _BoundFields(NamedTuple):
    n: int
    d: int
    C: int
    p: float


class BoundParams(_BoundFields):
    """Constants feeding the analytic bounds for one (graph, p) pair;
    validated on construction.

    ``s_threshold`` and ``b_threshold`` are the component-size split
    points n / d**(C**3 / p) and n / d**(C**5 / p), evaluated literally
    (at desk scale they are typically far below 1; the obstruction
    module clamps its working threshold separately).
    """

    __slots__ = ()

    def __new__(cls, n: int, d: int, C: int, p: float):
        if n < 2:
            raise ValueError(f"n must be at least 2, got {n}")
        if d < 1:
            raise ValueError(f"d must be at least 1, got {d}")
        if C < 2:
            raise ValueError(f"C must be at least 2, got {C}")
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {p}")
        return super().__new__(cls, n, d, C, p)

    @classmethod
    def _make(cls, values) -> "BoundParams":
        # ``_replace`` builds through ``_make``: check its values too
        return cls(*values)

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


class IsoperimetricProfile(NamedTuple):
    """Exact f(k) for k in [1, n-1]; witnesses are minimising sets."""

    n: int
    f: tuple[int, ...]
    witnesses: tuple[frozenset, ...] | None = None

    def f_of(self, k: int) -> int:
        if not 1 <= k <= self.n - 1:
            raise ValueError(f"profile index must be in [1, {self.n - 1}], got {k}")
        return self.f[k - 1]


def exhaustive_profile(pg: ProductGraph, keep_witnesses: bool | None = None) -> IsoperimetricProfile:
    """Exact minimum boundary per size over every subset, in packed lanes.

    The walk covers the subsets S of the first n - 1 vertices and
    records each boundary for both |S| and n - |S|, with witness V - S
    for the latter: every other proper subset is such a complement, and
    the boundary of V - S is that of S.  (The empty set's records fall
    at sizes 0 and n, outside the profile.)  It splits those vertices
    into a low block of b = min(n - 1, 10) and the high block after it,
    and writes S = L + H with L a low and H a high subset, so that, with
    e(L, H) the number of edges between L and H,

        boundary(S) = boundary(H) + (boundary(L) - 2 * e(L, H)).

    One big int holds a lane per low subset L, ordered by |L| so each
    size class is a contiguous run; lane L holds boundary(L) - 2e(L, H)
    + off, with off the low block's degree sum.  A Gray-code walk over
    the high subsets moves one vertex h per step and adds or subtracts
    the step int whose lane L holds 2|N(h) & L|, keeping boundary(H) as
    it goes; the least boundary of each size |L| + |H| is then
    one ``min`` over that class's slice of the lanes, read as bytes.
    No lane can borrow from or carry into the next: e(L, H) and
    boundary(L) are each at most L's degree sum, so every lane stays
    in [0, 2 * off], and lanes are one byte when 2 * off < 256, else
    two.  A witness is the class's argmin, found when a minimum strictly
    improves.  Feasible up to EXHAUSTIVE_MAX_VERTICES vertices;
    witnesses are kept by default up to 16 vertices.
    """
    n = pg.n
    if n > EXHAUSTIVE_MAX_VERTICES:
        raise TooLargeError(f"exhaustive profile capped at {EXHAUSTIVE_MAX_VERTICES} vertices, got {n}")
    if keep_witnesses is None:
        keep_witnesses = n <= 16
    nbr = neighbor_bitmasks(pg)
    deg = [mask.bit_count() for mask in nbr]
    b = min(n - 1, _LOW_BLOCK)
    lows = sorted(range(1 << b), key=int.bit_count)
    low_boundary = [0] * (1 << b)
    for low in range(1, 1 << b):
        v = (low & -low).bit_length() - 1
        rest = low & (low - 1)
        low_boundary[low] = low_boundary[rest] + deg[v] - 2 * (nbr[v] & rest).bit_count()
    off = sum(deg[:b])
    fmt = "B" if 2 * off < 256 else "H"
    nbytes = len(lows) * array(fmt).itemsize

    def pack(values) -> int:
        return int.from_bytes(array(fmt, values).tobytes(), sys.byteorder)

    lanes = pack([low_boundary[low] + off for low in lows])
    steps = [pack([2 * (nbr[h] & low).bit_count() for low in lows]) for h in range(b, n - 1)]
    bounds = list(accumulate((math.comb(b, s) for s in range(b + 1)), initial=0))
    classes = list(zip(range(b + 1), bounds, bounds[1:]))

    full = (1 << n) - 1
    best = [sum(deg) + 1] * (n + 1)
    wit = [0] * (n + 1)
    high = 0
    high_boundary = 0
    for i in range(1 << len(steps)):
        if i:
            j = (i & -i).bit_length() - 1
            h = b + j
            inside = (nbr[h] & high).bit_count()
            if high >> h & 1:
                high_boundary += 2 * inside - deg[h]
                lanes += steps[j]
            else:
                high_boundary += deg[h] - 2 * inside
                lanes -= steps[j]
            high ^= 1 << h
        view = memoryview(lanes.to_bytes(nbytes, sys.byteorder)).cast(fmt)
        shift = high_boundary - off
        high_size = high.bit_count()
        for s, lo, hi in classes:
            least = min(view[lo:hi])
            boundary = least + shift
            k = s + high_size
            if boundary < best[k] or boundary < best[n - k]:
                subset = high | lows[lo + view[lo:hi].tolist().index(least)]
                if boundary < best[k]:
                    best[k] = boundary
                    wit[k] = subset
                if boundary < best[n - k]:
                    best[n - k] = boundary
                    wit[n - k] = full ^ subset
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
    """Exact global minimum edge cut by dominating-set flows.

    With v1..vk a dominating set, each step taking the vertex whose closed
    neighbourhood covers the most undominated ones (lowest label on ties),
    the cut is the least of the minimum degree and, for i >= 2, the
    maximum flow from {v1..v(i-1)} to vi.  Each flow pushes unit paths on
    n-bit residual masks until none is left or it reaches the least cut
    so far: bit w of res[u] means arc u -> w has capacity left, so an
    edge's two bits tell its net flow -1, 0 or 1 apart.
    """
    n = pg.n
    if n < 2:
        raise ValueError("edge connectivity needs at least 2 vertices")
    nbr = neighbor_bitmasks(pg)
    # check connectivity first: a disconnected input is a caller error
    if len(components_from_bitmasks(nbr, (1 << n) - 1)) != 1:
        raise ValueError("edge connectivity is undefined here: graph is disconnected")

    best = min(map(int.bit_count, nbr))
    closed = [nbr[v] | 1 << v for v in range(n)]
    undominated = (1 << n) - 1
    dominating = []
    while undominated:
        v = max(range(n), key=lambda u: (closed[u] & undominated).bit_count())
        dominating.append(v)
        undominated &= ~closed[v]
    source = 1 << dominating[0]
    for t in dominating[1:]:
        res = nbr.copy()
        flow = 0
        while flow < best:
            # BFS layers of the residual graph from the source set
            layers = [source]
            seen = frontier = source
            while frontier and not frontier >> t & 1:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= res[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & ~seen
                seen |= frontier
                layers.append(frontier)
            if not frontier:
                break
            # walk back from t: w's predecessor is a vertex of the layer
            # before it with capacity left on its arc to w
            w = t
            for layer in reversed(layers[:-1]):
                cand = layer & nbr[w]
                u = (cand & -cand).bit_length() - 1
                while not res[u] >> w & 1:
                    cand &= cand - 1
                    u = (cand & -cand).bit_length() - 1
                if res[w] >> u & 1:
                    res[u] ^= 1 << w  # net flow 0 -> 1
                else:
                    res[w] |= 1 << u  # cancels flow w -> u
                w = u
            flow += 1
        best = flow
        source |= 1 << t
    return best


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
