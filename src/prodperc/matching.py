"""Maximum matching on product graphs and restricted edge views.

The solver grows a matching from the empty one in Edmonds phases over a
(graph, edge mask) view.  A phase roots an alternating tree at every
exposed vertex, grows all the trees in one breadth-first order,
contracts blossoms within a tree, and augments along vertex-disjoint
paths between trees; solving stops at the first phase that augments
nothing, or once the size reaches ``stop_at``.  ``maximum_matching`` is
the one solve: the battery and the oracles call it without ``stop_at``,
and tau3 with its target.  There is no separate warm start: on the
empty matching every vertex is a root, and the first phase matches each
vertex to its first unmatched neighbour.
A view never copies adjacency: ``mask`` is a bytes-like array indexed by
canonical edge id, and every entry point takes one (``full_mask(pg)``
views the whole graph).

A matching M is proved maximum without trusting the search by the
Tutte-Berge formula

    deficiency = max over U of (odd components of G - U) - |U|

with its Gallai-Edmonds barrier.  For every vertex set A,
odd(G - A) - |A| <= deficiency <= n - 2|M|, so equality at one A is a
proof.  Let D be the vertices that a phase which augments nothing marks
outer; when M is maximum, A = N(D) - D attains the equality
(Lovasz-Plummer, *Matching Theory*, ch. 3).
``certified_deficiency`` checks it with one component count.
"""

from functools import reduce
from itertools import chain, compress
from operator import or_
from typing import NamedTuple

from .graph_core import ProductGraph, _identity, components_from_bitmasks, neighbor_bitmasks


class MatchingState(NamedTuple):
    """Result of a matching computation on a graph view.

    ``mate[v]`` is the partner of v, or -1 when v is exposed.
    """

    mate: tuple[int, ...]
    size: int


def _phase(pg: ProductGraph, mask, mate: list[int]) -> tuple[int, bytearray]:
    """One Edmonds phase: augment ``mate`` in place along vertex-disjoint
    paths, and return how many it augmented with the outer marks.

    Every exposed vertex roots a tree, and all the trees grow in one
    breadth-first order: the roots by label, then the vertices made
    outer as they are reached.  Odd cycles within a tree are contracted
    by rerooting the ``base`` array at the cycle's lowest common
    ancestor.  An edge between outer vertices of two trees augments both
    stems; those trees are then dead (their roots matched) for the rest
    of the phase.  Byte v of the marks is 1 iff v is reached by an even
    alternating path.
    """
    n = pg.n
    off, flat, eids = pg.adj_off, pg.adj_flat, pg.adj_eid
    ids = _identity(n)  # cached: its copies share its ints
    roots = bytes(w < 0 for w in mate)
    used = bytearray(roots)  # outer marks
    parent = [-1] * n
    tree = ids.copy()  # tree[v] is the root of v's tree, read once v is outer
    base = ids.copy()  # blossom contraction writes to it
    queue = []  # vertices made outer, in order; the loop below sees its appends
    gained = 0
    for v in chain(compress(ids, roots), queue):
        root = tree[v]
        if mate[root] >= 0:  # the tree has augmented
            continue
        for k in range(off[v], off[v + 1]):
            if not mask[eids[k]]:
                continue
            to = flat[k]
            if not used[to]:
                if parent[to] < 0:  # matched and in no tree: grow by to and its mate
                    parent[to] = v
                    tree[to] = tree[mate[to]] = root
                    used[mate[to]] = 1
                    queue.append(mate[to])
            elif base[v] == base[to]:
                continue
            elif tree[to] == root:
                # blossom: find the lowest common ancestor of v and to
                seen = bytearray(n)
                a = base[v]
                while True:
                    seen[a] = 1
                    if mate[a] < 0:
                        break
                    a = base[parent[mate[a]]]
                b = base[to]
                while not seen[b]:
                    b = base[parent[mate[b]]]
                curbase = b
                # mark both stems down to the base and reroot them
                onpath = bytearray(n)
                for x, child0 in ((v, to), (to, v)):
                    u2, child = x, child0
                    while base[u2] != curbase:
                        onpath[base[u2]] = 1
                        onpath[base[mate[u2]]] = 1
                        parent[u2] = child
                        child = mate[u2]
                        u2 = parent[mate[u2]]
                for i in range(n):
                    if onpath[base[i]]:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = 1
                            queue.append(i)
            elif mate[tree[to]] < 0:
                # augment: rematch each stem x -> mate[x] -> parent[mate[x]]
                # -> ... to its root, then match v with to
                for x in (v, to):
                    u2 = mate[x]
                    while u2 >= 0:
                        pv = parent[u2]
                        nxt = mate[pv]
                        mate[u2] = pv
                        mate[pv] = u2
                        u2 = nxt
                mate[v], mate[to] = to, v
                gained += 1
                break
    return gained, used


def maximum_matching(pg: ProductGraph, mask, stop_at: int | None = None) -> MatchingState:
    """Maximum cardinality matching of the view, grown by phases from the
    empty one until a phase gains nothing.  With ``stop_at`` the growth
    also stops once the size reaches it: tau3 passes its target
    floor(n / 2), which no matching exceeds, and so skips the last
    phase, which would find nothing."""
    mate, size = [-1] * pg.n, 0
    while stop_at is None or size < stop_at:
        gained, _ = _phase(pg, mask, mate)
        if not gained:
            break
        size += gained
    return MatchingState(mate=tuple(mate), size=size)


def certified_deficiency(pg: ProductGraph, mask, mate) -> int | None:
    """n - 2|M| when ``mate`` is a matching M of present edges that its
    barrier proves maximum, else None.

    The barrier is A = N(D) - D, with D the outer marks of one phase on
    a copy of ``mate``; a phase that augments disproves M at once, and
    one that does not has searched from every exposed vertex.  M is
    proved when odd(G - A) - |A| = n - 2|M|.
    """
    n = pg.n
    nbr = neighbor_bitmasks(pg, mask)
    if len(mate) != n or any(w >= 0 and (w >= n or mate[w] != v or not nbr[v] >> w & 1)
                             for v, w in enumerate(mate)):
        return None
    gained, marks = _phase(pg, mask, list(mate))
    if gained:
        return None
    outer = [v for v, mark in enumerate(marks) if mark]
    barrier = reduce(or_, (nbr[v] for v in outer), 0) & ~sum(1 << v for v in outer)
    odd = sum(comp.bit_count() & 1
              for comp in components_from_bitmasks(nbr, ((1 << n) - 1) & ~barrier))
    deficiency = sum(w < 0 for w in mate)
    return deficiency if odd - barrier.bit_count() == deficiency else None
