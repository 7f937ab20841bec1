"""Random subgraph samplers and the random graph process.

Two sampling modes share one generator stack (see rng):

* ``sample_percolations`` keeps each edge independently: for each seed,
  edge k is present iff the k-th uniform double of its stream is below
  p, in canonical edge-id order.  All the seeds' masks are drawn in
  lockstep (``rng.bernoulli_masks``); ``sample_percolation`` is the
  one-seed case.
* ``sample_ordering`` draws a uniform permutation of the edge ids by
  Fisher-Yates shuffle; the process at time i consists of the first i
  edges of the permutation.  ``hitting_times(pg, seeds)`` runs the same
  shuffle lazily for each seed (``rng.placements``) and stops it once
  the hitting times are fixed.  The seeds' words are drawn in lockstep
  (``rng.lockstep_words``) in blocks of ``_WORD_BLOCK`` steps, a block
  only when a lane has read all its words, and stored at 8 bytes per
  lane and step: about 1.1 MB for 10 lanes at Q12.  The lanes then run
  one after another; ``hitting_times(pg, [seed])[0]`` is the one-seed
  case.

``double_exposures`` splits G_p into two independent rounds for many
seeds at once, one ``sample_percolations`` call per round.

Hitting times are indexed from 1: tau = i means the property first holds
after the i-th edge is added.  tau1 is minimum degree one, tau2 is
connectivity, tau3 is a matching of size floor(n / 2).  One routine
serves both entry points: ``hitting_times`` feeds it each lazy shuffle,
``run_process`` a materialised permutation.  Fisher-Yates fixes
positions from the last one down, so the routine reads the hitting
times from the final suffix of the ordering and the *set* of edges
below ``lower``, the first prefix with few enough vertices of degree
zero for the matching.  It counts each vertex's unplaced edges down
from its degree: the first vertex to run out gives tau1, the
(n mod 2 + 1)-th gives ``lower``, and no position below ``lower`` is
drawn.  On n >= 2 vertices a connected graph has no isolated vertex, so
tau2 >= tau1: one union pass over the first tau1 edges, then one edge
at a time until one component remains.  tau3 is found with one matching
solve at ``lower``, then, if that falls short, by one augmenting search
per added edge.

``DisjointSet.union_all`` is the one union-find loop, used for tau2.
``component_profile`` needs no edge list: it reads the sample as one
n-bit int per edge shift of the product (``ProductGraph.shift_plan``,
built once per product on first use) and grows each component by
shifting and masking those ints.
"""

from dataclasses import dataclass
from itertools import chain, compress, count

from .catalog import TAU3_MODES
from .graph_core import ProductGraph
from .matching import _augment_once, _solve
from .rng import (Xoshiro256StarStar, bernoulli_masks, lockstep_words, placements,
                  split_seeds)

# Steps a hitting-time group draws in lockstep whenever a lane runs out
# of words: a Q12 trial reads 10k-14k words, and each block costs every
# lane 4 KiB.
_WORD_BLOCK = 512

# mask bytes (0 or 1) to binary digits for int(..., 2), and back
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class EdgeOrdering:
    """Uniform random permutation of the edge ids of one product graph."""

    permutation: tuple[int, ...]


@dataclass(frozen=True)
class PercolationSample:
    """Independent bond percolation outcome; mask is indexed by edge id."""

    mask: bytes
    p: float
    seed: int


@dataclass(frozen=True)
class HittingTimes:
    """1-indexed hitting times; tau3 is None when the full graph has no
    matching of the target size."""

    tau1: int
    tau2: int
    tau3: int | None


@dataclass(frozen=True)
class ComponentProfile:
    """Component structure of one percolation sample.

    ``min_isolated_distance`` is the minimum pairwise distance between
    isolated vertices measured in the host graph, capped at 3 (a value
    of 3 means "at least 3"); None when fewer than two vertices are
    isolated.  ``mid_components`` counts components with size in
    [2, giant), i.e. everything that is neither an isolated vertex nor
    as large as the giant.
    """

    sizes: tuple[int, ...]
    giant: int
    isolated: tuple[int, ...]
    min_isolated_distance: int | None
    mid_components: int


class DisjointSet:
    """Union-find with path halving and union by size."""

    __slots__ = ("parent", "size", "components")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.components = n

    def union_all(self, pairs) -> None:
        """Merge the sets of a and b for every pair (a, b) in order."""
        parent = self.parent
        size = self.size
        merged = 0
        for a, b in pairs:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
                merged += 1
        self.components -= merged


def sample_ordering(pg: ProductGraph, seed: int) -> EdgeOrdering:
    """Uniform edge ordering from the documented generator stack."""
    gen = Xoshiro256StarStar(seed)
    perm = list(range(pg.m))
    gen.shuffle(perm)
    return EdgeOrdering(permutation=tuple(perm))


def sample_percolation(pg: ProductGraph, p: float, seed: int) -> PercolationSample:
    """Keep each edge independently with probability p."""
    return sample_percolations(pg, p, [seed])[0]


def sample_percolations(pg: ProductGraph, p: float, seeds) -> list[PercolationSample]:
    """``sample_percolation(pg, p, seed)`` for every seed, with the masks
    drawn in lockstep (``rng.bernoulli_masks``)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    masks = bernoulli_masks([Xoshiro256StarStar(seed) for seed in seeds], pg.m, p)
    samples = []
    for lane, seed in enumerate(seeds):
        mask, masks[lane] = masks[lane], None  # only this lane is held twice
        samples.append(PercolationSample(mask=bytes(mask), p=p, seed=seed))
    return samples


def double_exposures(pg: ProductGraph, p: float, seeds
                     ) -> list[tuple[PercolationSample, PercolationSample, PercolationSample]]:
    """Split G_p into two independent rounds G_p1 and G_p2 for each seed.

    The second round uses p2 = 1 / d**2 and the first solves
    (1 - p1)(1 - p2) = 1 - p, so the union of the rounds has the law of
    G_p.  Requires p >= p2.  A seed's two round seeds are the first two
    outputs of the splitmix64 sequence started at it, so each round is
    reproducible on its own.  Each round is drawn for all the seeds by
    one ``sample_percolations`` call; the result holds one
    (first, second, union) triple per seed.
    """
    if pg.d is None:
        raise ValueError("double exposure needs a regular product")
    p2 = 1.0 / (pg.d * pg.d)
    if p < p2:
        raise ValueError(f"double exposure needs p >= 1/d^2 = {p2}, got {p}")
    p1 = 1.0 - (1.0 - p) / (1.0 - p2)
    round_seeds = [split_seeds(seed, 2) for seed in seeds]
    firsts = sample_percolations(pg, p1, [s1 for s1, _ in round_seeds])
    seconds = sample_percolations(pg, p2, [s2 for _, s2 in round_seeds])
    out = []
    for seed, first, second in zip(seeds, firsts, seconds):
        # every byte is 0 or 1, so OR-ing the masks as integers ORs each byte
        union = int.from_bytes(first.mask, "little") | int.from_bytes(second.mask, "little")
        union_mask = union.to_bytes(pg.m, "little")
        out.append((first, second, PercolationSample(mask=union_mask, p=p, seed=seed)))
    return out


def critical_p(pg: ProductGraph, omega: float = 1.0) -> float:
    """Probability where the expected isolated-vertex count is omega.

    Solves (1 - p)**d = omega / n.  With omega = 1 this is the isolated
    vertex threshold 1 - (1/n)**(1/d).
    """
    if pg.d is None:
        raise ValueError("critical probability needs a regular product")
    if not 0 < omega <= pg.n:
        raise ValueError(f"omega must be in (0, n], got {omega}")
    return 1.0 - (omega / pg.n) ** (1.0 / pg.d)


def _tau3(pg: ProductGraph, permutation, lower: int, target: int) -> int | None:
    """Smallest prefix whose maximum matching reaches ``target``.

    ``lower`` is the first prefix that leaves at most n - 2 * target
    vertices of degree zero; no shorter prefix can hold the matching.
    One solve at ``lower`` usually succeeds.  Otherwise edges are added
    one at a time: each raises the maximum matching by at most one, and
    a new augmenting path must cross the new edge, so one search from an
    exposed endpoint (or from each remaining exposed vertex when both
    endpoints are matched) restores maximality.
    """
    mask = bytearray(pg.m)
    for eid in permutation[:lower]:
        mask[eid] = 1
    mate, size = _solve(pg, mask, stop_at=target)
    if size >= target:
        return lower
    exposed = [v for v in range(pg.n) if mate[v] < 0]
    for i in range(lower, pg.m):
        eid = permutation[i]
        mask[eid] = 1
        u, v = pg.edges[eid]
        if mate[u] < 0 and mate[v] < 0:
            mate[u] = v
            mate[v] = u
            grew = True
        elif mate[u] < 0 or mate[v] < 0:
            grew = _augment_once(pg, mask, mate, u if mate[u] < 0 else v)
        else:
            grew = any(_augment_once(pg, mask, mate, root) for root in exposed)
        if grew:
            size += 1
            if size >= target:
                return i + 1
            exposed = [x for x in exposed if mate[x] < 0]
    return None


def _hitting_suffix(pg: ProductGraph, items, positions) -> HittingTimes:
    """Hitting times of the ordering ``items``, read from its final suffix.

    ``positions`` yields positions of ``items`` from the top down; when
    it yields i, ``items[i:]`` must be final and ``items[:i]`` hold the
    other edge ids in any order.  Counting down each vertex's unplaced
    edges, the first vertex to reach zero at position i has the latest
    first edge, so tau1 = i + 1; the (slack + 1)-th such completion
    gives ``lower``.  No position below ``lower`` is drawn: tau2 and
    tau3 read only the set of edges below it and the suffix above.
    """
    n = pg.n
    edges = pg.edges
    off = pg.adj_off
    need = [off[v + 1] - off[v] for v in range(n)]
    target = n // 2
    slack = n - 2 * target
    done = 0
    tau1 = None
    for i in positions:
        u, v = edges[items[i]]
        need[u] -= 1
        need[v] -= 1
        if need[u] and need[v]:
            continue
        if tau1 is None:
            tau1 = i + 1
        done += (not need[u]) + (not need[v])
        if done > slack:
            lower = i + 1
            break
    else:
        raise AssertionError("process ended before minimum degree one; ordering incomplete?")
    # on n >= 2 vertices a connected graph has no isolated vertex: tau2 >= tau1
    dsu = DisjointSet(n)
    dsu.union_all(map(edges.__getitem__, items[:tau1]))
    tau2 = tau1
    while dsu.components > 1 and tau2 < pg.m:
        dsu.union_all((edges[items[tau2]],))
        tau2 += 1
    if dsu.components > 1:
        raise AssertionError("process ended before connectivity; ordering incomplete?")
    return HittingTimes(tau1=tau1, tau2=tau2, tau3=_tau3(pg, items, lower, target))


def hitting_times(pg: ProductGraph, seeds) -> list[HittingTimes]:
    """``run_process(pg, sample_ordering(pg, seed))`` for every seed, with
    each shuffle stopped once its hitting times are fixed.  The words
    are drawn in lockstep blocks as the lanes need them (see the module
    docstring)."""
    gens = [Xoshiro256StarStar(seed) for seed in seeds]
    stores = [[] for _ in gens]  # each lane's words, one array per block

    def blocks(lane):
        # lanes before ``lane`` are done; draw only for it and the rest
        store = stores[lane]
        for k in count():
            if k == len(store):
                for later, words in zip(stores[lane:],
                                        lockstep_words(gens[lane:], _WORD_BLOCK)):
                    later.append(words)
            yield store[k]

    out = []
    for lane, store in enumerate(stores):
        items = list(range(pg.m))
        words = chain.from_iterable(blocks(lane))
        out.append(_hitting_suffix(pg, items, placements(items, words)))
        store.clear()
    return out


def run_process(pg: ProductGraph, ordering: EdgeOrdering,
                tau3_mode: str = "bisect") -> HittingTimes:
    """Hitting times of minimum degree 1, connectivity, and matching.

    ``tau3_mode`` is kept for configuration compatibility: every mode in
    ``TAU3_MODES`` runs the same algorithm.
    """
    if tau3_mode not in TAU3_MODES:
        raise ValueError(f"unknown tau3 mode: {tau3_mode!r}")
    perm = ordering.permutation
    if len(perm) != pg.m or set(perm) != set(range(pg.m)):
        raise AssertionError("ordering is not a permutation of the edge ids; "
                             "ordering incomplete?")
    return _hitting_suffix(pg, perm, range(pg.m - 1, -1, -1))


def component_profile(pg: ProductGraph, sample: PercolationSample) -> ComponentProfile:
    """Component sizes, isolated vertices, and their host-graph spacing.

    Every product edge is (u, u + s) for a shift s = (b - a) * stride_i
    of a base edge a < b of factor i.  The kept edges become one n-bit
    int E_s per shift: bit u is set iff edge (u, u + s) is kept.  Base
    edges of one factor with the same b - a share E_s, as their u are
    disjoint.  ``pg.shift_plan`` says where each mask byte goes; it is
    built on the first call for a product and reused after.

    The vertices with a kept edge are the OR of ``E_s | E_s << s``; the
    rest are isolated.  Each other component grows from the lowest
    unvisited vertex, one breadth-first layer F at a time: the next
    layer is the OR of ``((F & E_s) << s) | ((F >> s) & E_s)`` over all
    shifts, less the vertices already visited.
    """
    gather, groups = pg.shift_plan
    n = pg.n
    picked = bytes(gather(sample.mask))
    kept = []
    covered = 0
    for shift, moves in groups:
        row = bytearray(n)
        for dst, src in moves:
            row[dst] = picked[src]
        row.reverse()  # int(..., 2) reads the most significant bit first
        bits = int(row.translate(_TO_DIGITS), 2)
        if bits:
            kept.append((shift, bits))
            covered |= bits | bits << shift
    sizes = []
    rest = covered
    while rest:
        layer = rest & -rest
        rest ^= layer
        size = 1
        while layer:
            grown = 0
            for shift, bits in kept:
                grown |= ((layer & bits) << shift) | ((layer >> shift) & bits)
            layer = grown & rest
            rest ^= layer
            size += layer.bit_count()
        sizes.append(size)
    lonely = format(((1 << n) - 1) ^ covered, f"0{n}b")[::-1].encode()
    isolated = tuple(compress(range(n), lonely.translate(_FROM_DIGITS)))
    sizes = tuple(sorted(sizes + [1] * len(isolated), reverse=True))
    giant = sizes[0]
    mid = sum(1 for s in sizes if 2 <= s < giant)
    min_dist = _min_isolated_distance(pg, isolated)
    return ComponentProfile(sizes=sizes, giant=giant, isolated=isolated,
                            min_isolated_distance=min_dist, mid_components=mid)


def _min_isolated_distance(pg: ProductGraph, isolated) -> int | None:
    """Minimum host-graph distance between isolated vertices, capped at 3."""
    if len(isolated) < 2:
        return None
    iso = set(isolated)
    for v in isolated:
        for w in pg.neighbors(v):
            if w in iso:
                return 1
    for v in isolated:
        for u in pg.neighbors(v):
            for w in pg.neighbors(u):
                if w != v and w in iso:
                    return 2
    return 3
