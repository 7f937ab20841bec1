"""Maximum matching on product graphs and restricted edge views.

The solver is an augmenting-path search with blossom contraction over a
(graph, edge mask) view, warm-started by a greedy maximal matching.  A
view never copies adjacency: ``mask`` is a bytes-like array indexed by
canonical edge id, and every entry point takes one (``full_mask(pg)``
views the whole graph).  The brute-force dual route evaluates the
deficiency formula

    deficiency = max over U of (odd components of G - U) - |U|

by enumerating all vertex subsets, which is feasible up to 20 vertices
and serves as the independent oracle for the solver.  It skips every U
with n - 2|U| no larger than the best value so far, since G - U has at
most n - |U| odd components.
"""

from dataclasses import dataclass

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


def _augment_once(pg: ProductGraph, mask, mate: list[int], root: int) -> bool:
    """Search for an augmenting path from ``root``; apply it if found.

    Breadth-first alternating search; odd cycles are contracted by
    rerooting the ``base`` array at the cycle's lowest common ancestor.
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
                    return True
                used[mate[to]] = 1
                queue.append(mate[to])
    return False


def _solve(pg: ProductGraph, mask, stop_at: int | None = None) -> tuple[list[int], int]:
    """Grow a maximum matching, optionally stopping at a target size."""
    mate = [-1] * pg.n
    size = _greedy_extend(pg, mask, mate)
    for root in range(pg.n):
        if stop_at is not None and size >= stop_at:
            break
        if mate[root] >= 0:
            continue
        if _augment_once(pg, mask, mate, root):
            size += 1
    return mate, size


def maximum_matching(pg: ProductGraph, mask) -> MatchingState:
    """Maximum cardinality matching of the view."""
    mate, size = _solve(pg, mask)
    return MatchingState(mate=tuple(mate), size=size)


def tutte_berge_deficiency(pg: ProductGraph, mask) -> int:
    """Number of vertices left exposed by a maximum matching."""
    return pg.n - 2 * maximum_matching(pg, mask).size


def brute_deficiency(pg: ProductGraph, mask) -> int:
    """Deficiency by enumerating every vertex subset U (oracle, n <= 20).

    G - U has at most n - |U| odd components, so a U with
    n - 2|U| <= best cannot raise the maximum and is skipped before its
    components are computed.
    """
    n = pg.n
    if n > 20:
        raise ValueError(f"brute-force deficiency capped at 20 vertices, got {n}")
    nbr = neighbor_bitmasks(pg, mask)
    all_mask = (1 << n) - 1
    best = 0
    for u_mask in range(1 << n):
        if n - 2 * u_mask.bit_count() <= best:
            continue
        odd = 0
        for comp in components_from_bitmasks(nbr, all_mask & ~u_mask):
            if comp.bit_count() & 1:
                odd += 1
        value = odd - u_mask.bit_count()
        if value > best:
            best = value
    return best
