"""Tutte-style obstructions to perfect matchings in percolated products.

For a vertex set U, look at the components of the sampled subgraph with
U removed.  U is an obstruction when at least |U| + 1 of those
components have size different from two.  Components are banded by
size: V1 collects the size-1 components, W the size-2 components, S the
components with size in [3, threshold], and B everything larger.  The
default threshold is max(3, floor(n / d**(C**3 / p))): the analytic
split point is far below 3 at desk scale, and sizes below 3 would make
the S band empty by definition.

A minimal obstruction is one of the globally smallest size.  Records
come only from the scan ``find_minimal_obstructions``, so every
``ObstructionRecord`` is a minimal obstruction.  Two structural checks
accompany the enumeration:

* three-component property: for a minimal obstruction with u >= 2,
  every vertex of U has sampled neighbours in at least three distinct
  components of the subgraph induced on V1 + S + B (size-1 obstructions
  are outside the property's scope and reported as skipped);
* determination: grouping minimal obstructions by their W + S + B
  vertex set, no group may contain more than two obstructions (again
  for u >= 2).
"""

import math
from dataclasses import dataclass
from itertools import combinations

from .graph_core import ProductGraph, components_from_bitmasks, neighbor_bitmasks
from .process import PercolationSample


@dataclass(frozen=True)
class ObstructionRecord:
    """One minimal obstruction U of a sample, with the components of the
    sample less U banded by size."""

    u_set: frozenset
    components: tuple[frozenset, ...]
    v1: frozenset
    w_set: frozenset
    s_set: frozenset
    b_set: frozenset

    @property
    def u(self) -> int:
        return len(self.u_set)

    def wsb_key(self) -> frozenset:
        return self.w_set | self.s_set | self.b_set


@dataclass(frozen=True)
class ThreeComponentReport:
    """Outcome of the three-component check on one record."""

    checked_vertices: int
    skipped_out_of_scope: bool
    counterexamples: tuple[tuple[int, int], ...]  # (vertex, components seen)


@dataclass(frozen=True)
class DeterminationReport:
    """W+S+B group sizes over the minimal obstructions of one sample."""

    group_count: int
    max_group: int
    violating_groups: tuple[frozenset, ...]


def default_threshold(pg: ProductGraph, p: float) -> int:
    """Working S/B split: max(3, floor(n / d**(C**3 / p)))."""
    if pg.d is None:
        raise ValueError("threshold needs a regular product")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    exponent = math.log(pg.n) - (pg.C ** 3 / p) * math.log(pg.d)
    analytic = math.exp(exponent)
    return max(3, math.floor(analytic))


def _record_from_components(pg: ProductGraph, u_frozen: frozenset,
                            comp_masks: list[int], threshold: float) -> ObstructionRecord:
    v1_bits = 0
    w_bits = 0
    s_bits = 0
    b_bits = 0
    for comp in comp_masks:
        size = comp.bit_count()
        if size == 1:
            v1_bits |= comp
        elif size == 2:
            w_bits |= comp
        elif size <= threshold:
            s_bits |= comp
        else:
            b_bits |= comp

    def unpack(bits: int) -> frozenset:
        return frozenset(i for i in range(pg.n) if bits >> i & 1)

    return ObstructionRecord(
        u_set=u_frozen,
        components=tuple(unpack(c) for c in comp_masks),
        v1=unpack(v1_bits), w_set=unpack(w_bits), s_set=unpack(s_bits), b_set=unpack(b_bits))


def find_minimal_obstructions(pg: ProductGraph, sample: PercolationSample,
                              u_max: int = 4,
                              threshold: float | None = None) -> list[ObstructionRecord]:
    """All obstructions of the globally smallest size, by enumeration.

    Scans |U| = 1, 2, ... and stops at the first size admitting any
    obstruction; an empty result means no obstruction exists with size
    up to ``u_max``.  Sizes above (n - 1) / 2 can never obstruct (there
    are not enough remaining vertices for |U| + 1 components), so the
    scan is cut there.  The sets U = P + {w} of size u are taken in
    lexicographic order by prefix: the components of G - P are found
    once per (u - 1)-prefix P, and removing w > max(P) only splits w's
    component C, into at most deg(w) pieces in G - P.  So U cannot
    obstruct unless the components of G - P other than C that are not
    of size two, plus deg(w), reach u + 1; only then is C - w split.
    Enumeration needs n <= 16 or u_max <= 3.
    """
    n = pg.n
    if n > 16 and u_max > 3:
        raise ValueError(f"enumeration needs n <= 16 or u_max <= 3 (n={n}, u_max={u_max})")
    if threshold is None:
        threshold = default_threshold(pg, sample.p)
    nbr = neighbor_bitmasks(pg, sample.mask)
    all_mask = (1 << n) - 1
    effective_max = min(u_max, (n - 1) // 2)
    for u in range(1, effective_max + 1):
        found = []
        for prefix in combinations(range(n), u - 1):
            avail = all_mask & ~sum(1 << v for v in prefix)
            comp_of = [0] * n
            not_two = 0
            for comp in components_from_bitmasks(nbr, avail):
                not_two += comp.bit_count() != 2
                rem = comp
                while rem:
                    low = rem & -rem
                    rem ^= low
                    comp_of[low.bit_length() - 1] = comp
            for w in range(prefix[-1] + 1 if prefix else 0, n):
                comp = comp_of[w]
                rest = not_two - (comp.bit_count() != 2)
                if rest + (nbr[w] & avail).bit_count() < u + 1:
                    continue
                w_bit = 1 << w
                pieces = components_from_bitmasks(nbr, comp & ~w_bit)
                if rest + sum(c.bit_count() != 2 for c in pieces) >= u + 1:
                    comp_masks = components_from_bitmasks(nbr, avail & ~w_bit)
                    found.append(_record_from_components(
                        pg, frozenset(prefix + (w,)), comp_masks, threshold))
        if found:
            return found
    return []


def verify_three_components(pg: ProductGraph, sample: PercolationSample,
                            record: ObstructionRecord) -> ThreeComponentReport:
    """Check that every vertex of a minimal obstruction has sampled
    edges into three components of the subgraph induced on V1 + S + B.

    Minimal obstructions of size 1 are outside the property's scope and
    are reported as skipped, not as failures.
    """
    if record.u < 2:
        return ThreeComponentReport(checked_vertices=0, skipped_out_of_scope=True,
                                    counterexamples=())
    comp_of = {}
    for idx, comp in enumerate(record.components):
        if len(comp) != 2:
            for v in comp:
                comp_of[v] = idx
    counterexamples = []
    for v in sorted(record.u_set):
        seen = set()
        off, flat, eids = pg.adj_off, pg.adj_flat, pg.adj_eid
        for k in range(off[v], off[v + 1]):
            if not sample.mask[eids[k]]:
                continue
            idx = comp_of.get(flat[k])
            if idx is not None:
                seen.add(idx)
        if len(seen) < 3:
            counterexamples.append((v, len(seen)))
    return ThreeComponentReport(checked_vertices=record.u,
                                skipped_out_of_scope=False,
                                counterexamples=tuple(counterexamples))


def verify_determination(pg: ProductGraph, sample: PercolationSample,
                         u_max: int = 4,
                         threshold: float | None = None,
                         minimal: list[ObstructionRecord] | None = None) -> DeterminationReport:
    """Group minimal obstructions by W+S+B and flag groups above two.

    The bound is only claimed for minimal size u >= 2; with u = 1 no
    group is flagged (size-1 obstructions sharing a W+S+B set are
    unconstrained).
    """
    if minimal is None:
        minimal = find_minimal_obstructions(pg, sample, u_max=u_max, threshold=threshold)
    if not minimal:
        return DeterminationReport(group_count=0, max_group=0, violating_groups=())
    groups: dict[frozenset, int] = {}
    for record in minimal:
        key = record.wsb_key()
        groups[key] = groups.get(key, 0) + 1
    violating = () if minimal[0].u < 2 else tuple(
        key for key, count in groups.items() if count > 2)
    return DeterminationReport(group_count=len(groups), max_group=max(groups.values()),
                               violating_groups=violating)
