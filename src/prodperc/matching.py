"""Maximum matching on product graphs and restricted edge views.

The solver is an augmenting-path search with blossom contraction over a
(graph, edge mask) view, warm-started by a greedy maximal matching.  A
view never copies adjacency: ``mask`` is a bytes-like array indexed by
canonical edge id, and every entry point takes one (``full_mask(pg)``
views the whole graph).

A matching M is proved maximum without trusting the search by the
Tutte-Berge formula

    deficiency = max over U of (odd components of G - U) - |U|

with its Gallai-Edmonds barrier.  For every vertex set A,
odd(G - A) - |A| <= deficiency <= n - 2|M|, so equality at one A is a
proof.  Let D be the vertices that the failed searches from the exposed
vertices mark outer; when M is maximum, A = N(D) - D attains the
equality (Lovasz-Plummer, *Matching Theory*, ch. 3).
``certified_deficiency`` checks it with one component count.
"""

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .graph_core import ProductGraph, _identity, components_from_bitmasks, neighbor_bitmasks


@dataclass(frozen=True)
class MatchingState:
    """Result of a matching computation on a graph view.

    ``mate[v]`` is the partner of v, or -1 when v is exposed.
    """

    mate: tuple[int, ...]
    size: int


def _greedy_extend(pg: ProductGraph, mask, mate: list[int]) -> int:
    """Greedily match exposed vertices along present edges; returns gain."""
    off, flat, eids = pg.adj_off, pg.adj_flat, pg.adj_eid
    gained = 0
    for u in range(pg.n):
        if mate[u] >= 0:
            continue
        for k in range(off[u], off[u + 1]):
            if not mask[eids[k]]:
                continue
            v = flat[k]
            if mate[v] < 0:
                mate[u] = v
                mate[v] = u
                gained += 1
                break
    return gained


def _augment_once(pg: ProductGraph, mask, mate: list[int], root: int) -> bytearray | None:
    """Search for an augmenting path from ``root``; apply it if found.

    Breadth-first alternating search; odd cycles are contracted by
    rerooting the ``base`` array at the cycle's lowest common ancestor.
    Returns None after augmenting, else the outer marks of the failed
    search: byte v is 1 iff v is reached by an even alternating path.
    """
    n = pg.n
    off, flat, eids = pg.adj_off, pg.adj_flat, pg.adj_eid
    used = bytearray(n)
    parent = [-1] * n
    base = _identity(n).copy()  # a copy: blossom contraction writes to it
    used[root] = 1
    queue = [root]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for k in range(off[v], off[v + 1]):
            if not mask[eids[k]]:
                continue
            to = flat[k]
            if base[v] == base[to] or mate[v] == to:
                continue
            if to == root or (mate[to] >= 0 and parent[mate[to]] >= 0):
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
            elif parent[to] < 0:
                parent[to] = v
                if mate[to] < 0:
                    # augment along the alternating path back to the root
                    u2 = to
                    while u2 >= 0:
                        pv = parent[u2]
                        nxt = mate[pv]
                        mate[u2] = pv
                        mate[pv] = u2
                        u2 = nxt
                    return None
                used[mate[to]] = 1
                queue.append(mate[to])
    return used


def _solve(pg: ProductGraph, mask, stop_at: int | None = None) -> tuple[list[int], int]:
    """Grow a maximum matching, optionally stopping at a target size."""
    mate = [-1] * pg.n
    size = _greedy_extend(pg, mask, mate)
    for root in range(pg.n):
        if stop_at is not None and size >= stop_at:
            break
        if mate[root] >= 0:
            continue
        if _augment_once(pg, mask, mate, root) is None:
            size += 1
    return mate, size


def maximum_matching(pg: ProductGraph, mask) -> MatchingState:
    """Maximum cardinality matching of the view."""
    mate, size = _solve(pg, mask)
    return MatchingState(mate=tuple(mate), size=size)


def certified_deficiency(pg: ProductGraph, mask, mate) -> int | None:
    """n - 2|M| when ``mate`` is a matching M of present edges that its
    barrier proves maximum, else None.

    The barrier is A = N(D) - D, with D the union of the outer marks of
    a search from each exposed vertex on a copy of ``mate``; a search
    that augments disproves M at once.  M is proved when
    odd(G - A) - |A| = n - 2|M|.
    """
    n = pg.n
    nbr = neighbor_bitmasks(pg, mask)
    if len(mate) != n or any(w >= 0 and (w >= n or mate[w] != v or not nbr[v] >> w & 1)
                             for v, w in enumerate(mate)):
        return None
    work, outer = list(mate), set()
    for root in range(n):
        if mate[root] < 0:
            marks = _augment_once(pg, mask, work, root)
            if marks is None:
                return None
            outer.update(v for v, mark in enumerate(marks) if mark)
    barrier = reduce(or_, (nbr[v] for v in outer), 0) & ~sum(1 << v for v in outer)
    odd = sum(comp.bit_count() & 1
              for comp in components_from_bitmasks(nbr, ((1 << n) - 1) & ~barrier))
    deficiency = sum(w < 0 for w in mate)
    return deficiency if odd - barrier.bit_count() == deficiency else None
