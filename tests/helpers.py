"""Oracles and helpers shared by the test modules."""

import hashlib
import inspect
import math
import sys
from dataclasses import dataclass
from itertools import combinations

from prodperc.catalog import CATALOG
from prodperc.graph_core import (ProductGraph, components_from_bitmasks, declared_order,
                                 neighbor_bitmasks)
from prodperc.matching import maximum_matching
from prodperc.obstructions import (ObstructionRecord, _record_from_components,
                                   default_threshold, find_minimal_obstructions)
from prodperc.process import PercolationSample


def report_digest(text: str) -> str:
    """sha256 of a CSV or JSON report without its generated_at line."""
    kept = [line for line in text.splitlines(keepends=True)
            if not line.startswith("# generated_at=")
            and '"generated_at"' not in line]
    return hashlib.sha256("".join(kept).encode("utf-8")).hexdigest()


def mutant(func, old: str, new: str):
    """``func`` recompiled with the one occurrence of ``old`` in its source
    replaced by ``new``, in a copy of its module's namespace; the module
    itself is left as it is."""
    source = inspect.getsource(func)
    assert source.count(old) == 1, f"{func.__name__} must hold {old!r} exactly once"
    module = sys.modules[func.__module__]
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[func.__name__]


def mask_from_edges(pg: ProductGraph, pairs) -> bytes:
    """Edge mask from explicit endpoint pairs."""
    mask = bytearray(pg.m)
    for u, v in pairs:
        mask[pg.edges.index((min(u, v), max(u, v)))] = 1
    return bytes(mask)


def coordinates(pg: ProductGraph, v: int) -> tuple[int, ...]:
    """Mixed-radix digits of product vertex v, digit 0 least significant."""
    out = []
    for base in pg.bases:
        v, digit = divmod(v, base.order)
        out.append(digit)
    return tuple(out)


def reference_bipartition(pg: ProductGraph) -> tuple[int, int] | None:
    """(|O|, |E|) when the product is bipartite, else None, by a
    per-vertex colour search from vertex 0 over ``pg.neighbors``: the
    oracle for ``graph_core.bipartition_signature``.  O is the side of
    vertex 0; the product must be connected."""
    color = [-1] * pg.n
    color[0] = 0
    counts = [1, 0]
    queue = [0]
    while queue:
        u = queue.pop()
        cu = color[u]
        for w in pg.neighbors(u):
            if color[w] == -1:
                color[w] = 1 - cu
                counts[1 - cu] += 1
                queue.append(w)
            elif color[w] == cu:
                return None
    return counts[0], counts[1]


def vertex_mask(vertices) -> int:
    """A vertex set as an n-bit int, bit v standing for vertex v."""
    return sum(1 << v for v in set(vertices))


def band_removal(pg: ProductGraph, sample: PercolationSample, u_set: int,
                 threshold: float | None = None) -> ObstructionRecord:
    """The record the obstruction scan builds for the removal set with
    vertex mask ``u_set``, obstruction or not: the components of the
    sample less ``u_set``, banded by size."""
    if threshold is None:
        threshold = default_threshold(pg, sample.p)
    comps = components_from_bitmasks(neighbor_bitmasks(pg, sample.mask),
                                     ((1 << pg.n) - 1) & ~u_set)
    return _record_from_components(u_set, comps, threshold)


def edge_boundary(pg: ProductGraph, subset, mask=None) -> int:
    """Number of (present) edges with exactly one endpoint in ``subset``
    (oracle for the isoperimetric witnesses)."""
    inside = set(subset)
    off, flat, eids = pg.adj_off, pg.adj_flat, pg.adj_eid
    total = 0
    for v in inside:
        for k in range(off[v], off[v + 1]):
            if mask is not None and not mask[eids[k]]:
                continue
            if flat[k] not in inside:
                total += 1
    return total


def reference_profile(pg: ProductGraph) -> tuple[int, ...]:
    """f(k) for k in [1, n - 1]: the least ``edge_boundary`` over every
    k-subset (reference for ``isoperimetry.exhaustive_profile``)."""
    return tuple(min(edge_boundary(pg, subset) for subset in combinations(range(pg.n), k))
                 for k in range(1, pg.n))


def reference_min_cut(pg: ProductGraph) -> int:
    """Least edge boundary over the proper vertex subsets holding vertex
    0, walked in Gray-code order over vertices 1..n-1 (reference for
    ``isoperimetry.edge_connectivity``)."""
    nbr = neighbor_bitmasks(pg)
    full = (1 << pg.n) - 1
    subset, boundary = 1, nbr[0].bit_count()
    best = boundary
    for i in range(1, 1 << (pg.n - 1)):
        v = (i & -i).bit_length()
        inside = (nbr[v] & subset).bit_count()
        step = nbr[v].bit_count() - 2 * inside
        boundary += -step if subset >> v & 1 else step
        subset ^= 1 << v
        if subset != full:
            best = min(best, boundary)
    return best


def reference_deficiency(pg: ProductGraph, mask) -> int:
    """The Tutte-Berge maximum of odd(G - U) - |U| over every vertex
    set U, none skipped (reference for ``matching.certified_deficiency``)."""
    nbr = neighbor_bitmasks(pg, mask)
    all_mask = (1 << pg.n) - 1
    return max(sum(comp.bit_count() & 1 for comp in components_from_bitmasks(nbr, all_mask & ~u))
               - u.bit_count() for u in range(1 << pg.n))


def degree_bound(pg: ProductGraph, ordering) -> int:
    """First prefix of the ordering that leaves at most n mod 2 vertices
    of degree zero: no shorter prefix holds a matching of floor(n / 2)
    edges."""
    first = {}
    for length, eid in enumerate(ordering.permutation, 1):
        for v in pg.edges[eid]:
            first.setdefault(v, length)
    return sorted(first.values())[pg.n - pg.n % 2 - 1]


def reference_tau3(pg: ProductGraph, ordering) -> int | None:
    """First prefix of the ordering whose ``reference_deficiency`` is
    n mod 2, that is, which holds a matching of floor(n / 2) edges; None
    when the whole graph has none.  Every prefix is scanned from the
    empty one up (reference for ``process._tau3``: no matching solve and
    no bisection; n <= 12)."""
    if pg.n > 12:
        raise ValueError(f"prefix deficiency scan capped at 12 vertices, got {pg.n}")
    mask = bytearray(pg.m)
    for length in range(pg.m + 1):
        if length:
            mask[ordering.permutation[length - 1]] = 1
        if reference_deficiency(pg, mask) == pg.n % 2:
            return length
    return None


def reference_rooted_trees(pg: ProductGraph, root: int, k: int) -> int:
    """Number of (k - 1)-edge subsets of the graph that form a tree
    containing ``root``: k vertices with ``root`` among them, all
    reached from it (reference for ``isoperimetry.count_rooted_trees``)."""
    count = 0
    for subset in combinations(pg.edges, k - 1):
        vertices = {root}.union(*subset)
        reached = {root}
        grew = True
        while grew:
            grew = False
            for u, v in subset:
                if (u in reached) != (v in reached):
                    reached.update((u, v))
                    grew = True
        count += len(vertices) == k and reached == vertices
    return count


def reference_obstructions(pg: ProductGraph, sample: PercolationSample,
                           u_max: int) -> list[ObstructionRecord]:
    """The records of every removal set of the smallest obstructing size
    up to ``u_max``, each set in ``combinations`` order through
    ``band_removal`` (reference for ``find_minimal_obstructions``)."""
    for u in range(1, u_max + 1):
        records = [band_removal(pg, sample, vertex_mask(combo))
                   for combo in combinations(range(pg.n), u)]
        found = [record for record in records
                 if sum(comp.bit_count() != 2 for comp in record.components) >= u + 1]
        if found:
            return found
    return []


def blossom_edges(gen) -> set[tuple[int, int]]:
    """Two odd cycles (3 or 5 vertices) joined by one edge, each with a
    pendant path (2 or 4 vertices) from an end vertex to the cycle's
    base, on the vertices 0 .. 9 or 0 .. 11.

    The joining edge leaves each cycle at a neighbour of its base, so
    an augmenting path between the two ends must pass each cycle
    against its matched pairs: the solver finds it only by contracting
    a blossom.  The labels steer its first phase, which on the empty
    matching pairs each vertex with its first unmatched neighbour, to
    match the path and cycle pairs and leave both ends exposed: the
    pairs take consecutive labels, the ends the top two, and each
    joining vertex takes the lower label of its pair, so its base scans
    it first.
    """
    grow = gen.next_below(5)  # the path or cycle given two more vertices, if any
    edges, pairs, ends, joins = [], [], [], []
    for side in range(2):
        start = 2 * len(pairs) + len(ends)
        path = list(range(start, start + 2 + 2 * (grow == side)))
        cycle = list(range(path[-1] + 1, path[-1] + 4 + 2 * (grow == side + 2)))
        chain = path + cycle
        edges += zip(chain, chain[1:])
        edges.append((cycle[-1], cycle[0]))
        pairs += zip(chain[1::2], chain[2::2])
        ends.append(path[0])
        joins.append(cycle[1])
    edges.append(tuple(joins))
    gen.shuffle(pairs)
    gen.shuffle(ends)
    order = []
    for a, b in pairs:
        order += (a, b) if a in joins or gen.next_below(2) else (b, a)
    label = {v: i for i, v in enumerate(order + ends)}
    return {tuple(sorted((label[a], label[b]))) for a, b in edges}


def reference_mask(gen, count: int, p: float) -> bytes:
    """Byte k is 1 iff the k-th ``next_double()`` is below p, one draw at
    a time (reference for one lane of ``rng.bernoulli_masks``)."""
    return bytes(1 if gen.next_double() < p else 0 for _ in range(count))


def reference_shuffle(gen, items: list) -> None:
    """Fisher-Yates from the last index down with ``j = next_below(i + 1)``
    (reference for ``Xoshiro256StarStar.shuffle``)."""
    for i in range(len(items) - 1, 0, -1):
        j = gen.next_below(i + 1)
        items[i], items[j] = items[j], items[i]


def prefix_hitting_times(pg: ProductGraph, ordering) -> tuple[int, int]:
    """(tau1, tau2) of an edge ordering by rebuilding the graph of every
    prefix: tau1 is the first prefix with minimum degree at least 1,
    tau2 the first whose breadth-first search from vertex 0 reaches
    every vertex."""
    tau1 = tau2 = None
    for length in range(1, pg.m + 1):
        adjacency = [[] for _ in range(pg.n)]
        for eid in ordering.permutation[:length]:
            u, v = pg.edges[eid]
            adjacency[u].append(v)
            adjacency[v].append(u)
        if tau1 is None and all(adjacency):
            tau1 = length
        seen = {0}
        frontier = [0]
        while frontier:
            frontier = [w for v in frontier for w in adjacency[v] if w not in seen]
            seen.update(frontier)
        if tau2 is None and len(seen) == pg.n:
            tau2 = length
    return tau1, tau2


def reference_shift_rows(pg: ProductGraph, mask) -> dict[int, int]:
    """Bit u of ``rows[s]`` is set iff edge (u, u + s) is in the 0/1 edge
    mask, built edge by edge over ``pg.edges``; every shift of the
    product has a row (reference for ``graph_core.shift_rows``)."""
    rows = dict.fromkeys((v - u for u, v in pg.edges), 0)
    for eid, (u, v) in enumerate(pg.edges):
        if mask[eid]:
            rows[v - u] |= 1 << u
    return rows


def reference_gather_order(pg: ProductGraph) -> list[int]:
    """Edge ids by shift s = v - u, shifts rising and u rising within
    one, from a walk over ``adj_off``, ``adj_flat`` and ``adj_eid``
    (reference for the gather order of ``ProductGraph.shift_plan``,
    which takes its ids from the digits)."""
    off, flat, eid = pg.adj_off, pg.adj_flat, pg.adj_eid
    by_shift: dict[int, list[int]] = {}
    for u in range(pg.n):
        for k in range(off[u], off[u + 1]):
            if flat[k] > u:
                by_shift.setdefault(flat[k] - u, []).append(eid[k])
    return [e for shift in sorted(by_shift) for e in by_shift[shift]]


def even_order_names(max_vertices: int) -> list[str]:
    """Catalog names with an even vertex count up to ``max_vertices``."""
    orders = {name: math.prod(map(declared_order, specs))
              for name, specs in CATALOG.items()}
    return [name for name, n in orders.items() if n % 2 == 0 and n <= max_vertices]


@dataclass(frozen=True)
class DeficiencyReport:
    """Cross-checks between the matching solver and subset enumeration."""

    deficiency: int
    brute: int
    isolated_count: int
    giant: int
    non_giant_all_isolated: bool
    obstruction_free: bool | None
    structure_consistent: bool | None

    @property
    def ok(self) -> bool:
        if self.deficiency != self.brute:
            return False
        return self.structure_consistent is not False


def deficiency_consistency(pg: ProductGraph, sample: PercolationSample,
                           u_max: int | None = None) -> DeficiencyReport:
    """Cross-check the solver deficiency against subset enumeration.

    Always checks solver deficiency == brute maximum of
    odd(G - U) - |U|.  When the sample has no obstruction of any size
    (the scan up to (n - 1) / 2 is exhaustive: an obstruction needs
    u + 1 components on n - u vertices) and every non-giant component
    is an isolated vertex, additionally checks the structural
    prediction deficiency == (non-giant component count) + (giant
    parity): obstruction-freeness forces the giant to carry a
    perfect or near-perfect matching.
    """
    n = pg.n
    if n > 16:
        raise ValueError(f"deficiency consistency capped at 16 vertices, got {n}")
    deficiency = n - 2 * maximum_matching(pg, sample.mask).size
    brute = reference_deficiency(pg, sample.mask)
    nbr = neighbor_bitmasks(pg, sample.mask)
    comp_masks = components_from_bitmasks(nbr, (1 << n) - 1)
    sizes = sorted((c.bit_count() for c in comp_masks), reverse=True)
    giant = sizes[0]
    isolated_count = sum(1 for s in sizes if s == 1)
    non_giant_all_isolated = all(s == 1 for s in sizes[1:])
    scan_cap = (n - 1) // 2
    obstruction_free: bool | None = None
    structure_consistent: bool | None = None
    if u_max is None or u_max >= scan_cap:
        minimal = find_minimal_obstructions(pg, sample, u_max=scan_cap)
        obstruction_free = not minimal
        if obstruction_free and non_giant_all_isolated:
            structure_consistent = deficiency == (len(sizes) - 1) + giant % 2
    return DeficiencyReport(deficiency=deficiency, brute=brute,
                            isolated_count=isolated_count, giant=giant,
                            non_giant_all_isolated=non_giant_all_isolated,
                            obstruction_free=obstruction_free,
                            structure_consistent=structure_consistent)
