"""Random subgraph samplers and the random graph process.

Two sampling modes share one generator stack (see rng):

* ``sample_percolations`` keeps each edge independently: for each seed,
  edge k is present iff the k-th uniform double of its stream is below
  p, in canonical edge-id order.  All the seeds' masks are drawn in
  lockstep (``rng.bernoulli_masks``), each split into jump-ahead chunk
  lanes once it is long enough, so even one seed draws in a wide group;
  ``sample_percolation`` is the one-seed case.
* ``sample_ordering`` draws a uniform permutation of the edge ids by
  Fisher-Yates shuffle; the process at time i consists of the first i
  edges of the permutation.  ``hitting_times(pg, seeds)`` runs the same
  shuffle lazily for each seed (``rng.placements``) and stops it once
  the hitting times are fixed.  The seeds' words are drawn in lockstep
  (``rng.lockstep_words``) in blocks of ``_WORD_BLOCK`` steps, a block
  only when a lane has read all its words and only for the lanes not
  yet done, and stored at 8 bytes per lane and step: about 1.1 MB for
  10 lanes at Q12.  The lanes then run one after another;
  ``hitting_times(pg, [seed])[0]`` is the one-seed case.

``double_exposures`` splits G_p into two independent rounds for many
seeds at once, one ``bernoulli_masks`` call per round, and returns the
joined masks rather than samples.

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
drawn.  The routine builds the edge mask of the edges below ``lower``
once.  tau2 reads it first, as one n-bit int per edge shift, and tau3
then solves on it.  On n >= 2 vertices a connected graph has no
isolated vertex, so tau2 >= tau1: a shift-row fill from vertex 0 over
the first tau1 edges, then one edge at a time, filling from an edge's
outer end when it leaves the reached set, until every vertex is
reached.  tau3 is found with one matching solve at ``lower``, then, if
that falls short, by bisecting the later prefixes with the same solve,
each on a copy of the mask.

Both tau2 and ``component_profiles`` read edge masks as one n-bit int
per edge shift of the product (``_shift_rows``, by way of
``ProductGraph.shift_plan``, built once per product on first use) and
grow components by shifting and masking those ints (``_fill``); neither
reads an edge list for it.  ``_fill`` takes its breadth-first layers
from ``graph_core.layers``, the one layer step over shift rows, which
``bipartition_signature`` also runs over the host graph's rows.
``_shift_rows`` gathers a list of masks eight to a byte plane, mask j
of a block in bit j, so a trial group's profiles pay one gather per
eight masks; tau2 passes its one mask, and ``component_profile`` is the
one-sample case of ``component_profiles``.
The profiles take the spacing of the isolated vertices from the host
graph's shift rows (``ProductGraph.host_rows``, built once per product
from the bases), so they read ``pg.m``, the plan, those rows and
nothing else: a percolation run never builds the product's adjacency
arrays.  The hitting-time trials read them (``pg.edges`` and the
degrees) and the matching solve walks them.
"""

from collections.abc import Iterator
from itertools import chain, compress, count
from typing import NamedTuple

from .catalog import TAU3_MODES
from .graph_core import ProductGraph, _identity, layers
from .matching import _solve
from .rng import (Xoshiro256StarStar, bernoulli_masks, lane_values, lockstep_words,
                  placements, split_lanes)

# Steps a hitting-time group draws in lockstep whenever a lane runs out
# of words: a Q12 trial reads 10k-14k words, and each block costs every
# lane 4 KiB.
_WORD_BLOCK = 512

# _shift_rows packs eight masks to a byte plane: lane j's mask bytes (0
# or 1) to 0 or bit j, and plane bytes to lane j's binary digits for
# int(..., 2)
_LANE_BITS = [bytes.maketrans(b"\x00\x01", bytes((0, 1 << j))) for j in range(8)]
_LANE_DIGITS = [bytes(b"01"[b >> j & 1] for b in range(256)) for j in range(8)]
# binary digits to bytes 0 or 1, for compress
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class EdgeOrdering(NamedTuple):
    """Uniform random permutation of the edge ids of one product graph."""

    permutation: tuple[int, ...]


class PercolationSample(NamedTuple):
    """Independent bond percolation outcome; mask is indexed by edge id."""

    mask: bytes
    p: float
    seed: int


class HittingTimes(NamedTuple):
    """1-indexed hitting times; tau3 is None when the full graph has no
    matching of the target size."""

    tau1: int
    tau2: int
    tau3: int | None


class ComponentProfile(NamedTuple):
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
    masks = bernoulli_masks(Xoshiro256StarStar.lanes(seeds), pg.m, p)
    samples = []
    for lane, seed in enumerate(seeds):
        mask, masks[lane] = masks[lane], None  # only this lane is held twice
        samples.append(PercolationSample(mask=bytes(mask), p=p, seed=seed))
    return samples


def double_exposures(pg: ProductGraph, p: float, seeds) -> tuple[bytes, bytes, bytes]:
    """Split G_p into two independent rounds G_p1 and G_p2 for each seed.

    The second round uses p2 = 1 / d**2 and the first solves
    (1 - p1)(1 - p2) = 1 - p, so the union of the rounds has the law of
    G_p.  Requires 1 / d**2 <= p <= 1.  A seed's two round seeds are the
    first two outputs of the splitmix64 sequence started at it
    (``split_lanes`` gives them for all the seeds at once), so each
    round is reproducible on its own: seed i's first round is
    ``sample_percolation(pg, p1, s1).mask``.  Each round is drawn for
    all the seeds by one ``bernoulli_masks`` call.  The result is the
    batch's (first, second, union) masks, each joined as bytes with seed
    i's mask at ``[i * m, (i + 1) * m)``.
    """
    if pg.d is None:
        raise ValueError("double exposure needs a regular product")
    p2 = 1.0 / (pg.d * pg.d)
    if not p2 <= p <= 1.0:
        raise ValueError(f"double exposure needs 1/d^2 = {p2} <= p <= 1, got {p}")
    p1 = 1.0 - (1.0 - p) / (1.0 - p2)
    first_seeds, second_seeds = (lane_values(word, len(seeds))
                                 for word in split_lanes(seeds, 2))
    firsts = b"".join(bernoulli_masks(Xoshiro256StarStar.lanes(first_seeds), pg.m, p1))
    seconds = b"".join(bernoulli_masks(Xoshiro256StarStar.lanes(second_seeds), pg.m, p2))
    # every byte is 0 or 1, so OR-ing the masks as integers ORs each byte
    union = int.from_bytes(firsts, "little") | int.from_bytes(seconds, "little")
    return firsts, seconds, union.to_bytes(len(firsts), "little")


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


def _tau3(pg: ProductGraph, permutation, lower: int, target: int, mask) -> int | None:
    """Smallest prefix whose maximum matching reaches ``target``.

    ``lower`` is the first prefix that leaves at most n - 2 * target
    vertices of degree zero; no shorter prefix can hold the matching.
    ``mask`` is the edge mask of ``permutation[:lower]``.  One solve at
    ``lower`` usually succeeds.  Otherwise the prefixes in (lower, m]
    are bisected with the same solve, each on a copy of ``mask`` with
    the edges up to the probe written in; ``hi = m + 1`` stands for
    "never", which gives None.
    """
    if _solve(pg, mask, stop_at=target)[1] >= target:
        return lower
    lo, hi = lower + 1, pg.m + 1
    while lo < hi:
        mid = (lo + hi) // 2
        probe = bytearray(mask)
        for eid in permutation[lower:mid]:
            probe[eid] = 1
        if _solve(pg, probe, stop_at=target)[1] >= target:
            hi = mid
        else:
            lo = mid + 1
    return hi if hi <= pg.m else None


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
    mask = bytearray(pg.m)
    for eid in items[:lower]:
        mask[eid] = 1
    # on n >= 2 vertices a connected graph has no isolated vertex, so
    # tau2 >= tau1: fill from vertex 0 over the edges below tau1, then
    # add one edge at a time, filling from its outer end when it leaves
    # the reached set, until nothing is left.  lower <= tau1 (equal for
    # even n).
    [rows] = _shift_rows(pg, [mask])
    rows = dict(rows)
    for eid in items[lower:tau1]:
        u, v = edges[eid]
        rows[v - u] |= 1 << u
    rest = _fill(rows.items(), 1, (1 << n) - 2)
    tau2 = tau1
    while rest and tau2 < pg.m:
        u, v = edges[items[tau2]]
        tau2 += 1
        rows[v - u] |= 1 << u
        if (rest >> u & 1) != (rest >> v & 1):
            outer = 1 << (u if rest >> u & 1 else v)
            rest = _fill(rows.items(), outer, rest ^ outer)
    if rest:
        raise AssertionError("process ended before connectivity; ordering incomplete?")
    return HittingTimes(tau1=tau1, tau2=tau2, tau3=_tau3(pg, items, lower, target, mask))


def hitting_times(pg: ProductGraph, seeds) -> list[HittingTimes]:
    """``run_process(pg, sample_ordering(pg, seed))`` for every seed, with
    each shuffle stopped once its hitting times are fixed.  The words
    are drawn in lockstep blocks as the lanes need them (see the module
    docstring)."""
    gen = Xoshiro256StarStar.lanes(seeds)
    stores = [[] for _ in seeds]  # each lane's words, one array per block

    def blocks(lane):
        # lanes before ``lane`` are done and out of ``gen``: draw only
        # for it and the rest
        store = stores[lane]
        for k in count():
            if k == len(store):
                for later, words in zip(stores[lane:], lockstep_words(gen, _WORD_BLOCK)):
                    later.append(words)
            yield store[k]

    out = []
    for lane, store in enumerate(stores):
        items = _identity(pg.m).copy()  # a copy shares the cached ints
        words = chain.from_iterable(blocks(lane))
        out.append(_hitting_suffix(pg, items, placements(items, words)))
        store.clear()
        gen.drop_first_lane()
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


def _shift_rows(pg: ProductGraph, masks) -> Iterator[list[tuple[int, int]]]:
    """The edges of each 0/1 edge mask in ``masks`` as one n-bit int per
    edge shift of the product: yields, mask by mask, the list of
    ``(s, E_s)`` in ``pg.shift_plan`` order.

    Every product edge is (u, u + s) for a shift s = (b - a) * stride_i
    of a base edge a < b of factor i, and bit u of E_s is set iff edge
    (u, u + s) is in the mask.  Base edges of one factor with the same
    b - a share E_s, as their u are disjoint.  ``pg.shift_plan`` says
    where each mask byte goes; it is built on the first call for a
    product and reused after.

    The masks go through the plan eight at a time.  Mask j of a block
    becomes bit j of one byte plane, which is gathered once and moved
    into an n-byte row per shift once; lane j's E_s is then read from
    bit j of that row.  A block's rows are made when the caller reaches
    it, not for every mask up front.
    """
    gather, groups = pg.shift_plan
    n, m = pg.n, pg.m
    for first in range(0, len(masks), 8):
        block = masks[first:first + 8]
        plane = block[0]  # its 0/1 bytes already are bit 0
        if len(block) > 1:
            bits = int.from_bytes(plane, "little")
            for mask, lane_bit in zip(block[1:], _LANE_BITS[1:]):
                bits |= int.from_bytes(mask.translate(lane_bit), "little")
            plane = bits.to_bytes(m, "little")
        picked = bytes(gather(plane))
        lanes = [[] for _ in block]
        for shift, moves in groups:
            row = bytearray(n)
            for dst, src in moves:
                row[dst] = picked[src]
            row.reverse()  # int(..., 2) reads the most significant bit first
            for rows, digits in zip(lanes, _LANE_DIGITS):
                rows.append((shift, int(row.translate(digits), 2)))
        yield from lanes


def _fill(rows, layer: int, rest: int) -> int:
    """``rest`` less every vertex reachable from ``layer`` over the shift
    rows ``(s, E_s)``; ``rest`` must not hold ``layer``.  The fill takes
    one breadth-first layer at a time from ``graph_core.layers``."""
    for grown in layers(rows, layer, rest):
        rest ^= grown & rest
    return rest


def component_profile(pg: ProductGraph, sample: PercolationSample) -> ComponentProfile:
    """Component sizes, isolated vertices, and their host-graph spacing
    of one sample: ``component_profiles(pg, [sample])[0]``."""
    return component_profiles(pg, [sample])[0]


def component_profiles(pg: ProductGraph, samples) -> list[ComponentProfile]:
    """``component_profile(pg, sample)`` for every sample, with the masks
    read as shift rows together (``_shift_rows``, one gather per eight
    masks).  The spacing of the isolated vertices is read from the host
    graph's rows, ``pg.host_rows``.

    For each sample, the kept edges are one n-bit int E_s per edge
    shift s.  The vertices with a kept edge are the OR of
    ``E_s | E_s << s``; the rest are isolated.  Each other component is
    filled (``_fill``) from the lowest vertex not yet visited.
    """
    n = pg.n
    profiles = []
    for rows in _shift_rows(pg, [sample.mask for sample in samples]):
        kept = []
        covered = 0
        for shift, bits in rows:
            if bits:
                kept.append((shift, bits))
                covered |= bits | bits << shift
        sizes = []
        rest = covered
        while rest:
            low = rest & -rest
            left = _fill(kept, low, rest ^ low)
            sizes.append((rest - left).bit_count())
            rest = left
        alone = ((1 << n) - 1) ^ covered
        lonely = format(alone, f"0{n}b")[::-1].encode()
        isolated = tuple(compress(range(n), lonely.translate(_FROM_DIGITS)))
        sizes = tuple(sorted(sizes + [1] * len(isolated), reverse=True))
        giant = sizes[0]
        mid = sum(1 for s in sizes if 2 <= s < giant)
        profiles.append(ComponentProfile(
            sizes=sizes, giant=giant, isolated=isolated,
            min_isolated_distance=_min_isolated_distance(pg.host_rows, alone),
            mid_components=mid))
    return profiles


def _min_isolated_distance(host, iso: int) -> int | None:
    """Minimum host-graph distance between the vertices of ``iso`` (an
    n-bit int), capped at 3; None below two vertices.  ``host`` holds
    the host graph's shift rows ``(s, H_s)``.

    Each row gives two sets of neighbours of ``iso``:
    ``(iso & H_s) << s`` above and ``(iso >> s) & H_s`` below.  The
    offset w - v of a neighbour w of v fixes the row and the side, so a
    vertex in two of these sets has two different neighbours in ``iso``.
    The distance is 1 when a set meets ``iso``, else 2 when some vertex
    is in two sets.
    """
    if not iso & (iso - 1):
        return None
    once = twice = 0
    for shift, bits in host:
        for near in ((iso & bits) << shift, (iso >> shift) & bits):
            if near & iso:
                return 1
            twice |= once & near
            once |= near
    return 2 if twice else 3
