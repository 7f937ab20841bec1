"""Tutte-style obstructions to perfect matchings in percolated products.

For a vertex set U, look at the components of the sampled subgraph with
U removed.  U is an obstruction when at least |U| + 1 of those
components have size different from two.  Components are banded by
size: V1 collects the size-1 components, W the size-2 components, S the
components with size in [3, threshold], and B everything larger.  The
default threshold is max(3, floor(n / d**(C**3 / p))): the analytic
split point is far below 3 at desk scale, and sizes below 3 would make
the S band empty by definition.

Every vertex set here is an n-bit int, bit v standing for vertex v, as
in the scan's neighbour masks (``graph_core.neighbor_bitmasks``).

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

The three-component property follows from minimality alone, and the
scan leans on it.  Write not_two(H) for the number of components of H
whose size is not two.  Let U be a minimal obstruction with u >= 2, so
no set of size u - 1 obstructs, and let w in U meet j components of
size other than two.  Putting w back merges w and every component it meets
into one, so G - (U - w) keeps at least not_two(G - U) - j of them,
plus the merged one when its size is not two.  If j <= 1 that is at
least u; if j = 2 the merged component holds w and two others, so has
at least three vertices, and the count is again at least u.  Either
way U - w would obstruct at size u - 1.  So j >= 3, and in particular
w has at least three sampled neighbours outside U.
"""

import math
from collections import Counter
from itertools import combinations
from typing import NamedTuple

from .graph_core import ProductGraph, components_from_bitmasks, neighbor_bitmasks
from .process import PercolationSample


class ObstructionRecord(NamedTuple):
    """One minimal obstruction U of a sample, with the components of the
    sample less U banded by size.  Every field is an n-bit vertex mask
    (``components`` a tuple of them, in the scan's order)."""

    u_set: int
    components: tuple[int, ...]
    v1: int
    w_set: int
    s_set: int
    b_set: int

    @property
    def u(self) -> int:
        return self.u_set.bit_count()

    def wsb_key(self) -> int:
        return self.w_set | self.s_set | self.b_set


class ThreeComponentReport(NamedTuple):
    """Outcome of the three-component check on one record."""

    checked_vertices: int
    skipped_out_of_scope: bool
    counterexamples: tuple[tuple[int, int], ...]  # (vertex, components seen)


class DeterminationReport(NamedTuple):
    """W+S+B group sizes over the minimal obstructions of one sample."""

    group_count: int
    max_group: int
    violating_groups: tuple[int, ...]  # W+S+B masks


def default_threshold(pg: ProductGraph, p: float) -> int:
    """Working S/B split: max(3, floor(n / d**(C**3 / p)))."""
    if pg.d is None:
        raise ValueError("threshold needs a regular product")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    exponent = math.log(pg.n) - (pg.C ** 3 / p) * math.log(pg.d)
    analytic = math.exp(exponent)
    return max(3, math.floor(analytic))


def check_enumeration_limit(n: int, u_max: int) -> None:
    """Raise ValueError unless the scan is affordable: n <= 16 or u_max <= 3."""
    if n > 16 and u_max > 3:
        raise ValueError(f"obstruction enumeration needs n <= 16 or u_max <= 3 "
                         f"(n={n}, u_max={u_max})")


def _record_from_components(u_set: int, comp_masks: list[int],
                            threshold: float) -> ObstructionRecord:
    v1 = w_set = s_set = b_set = 0
    for comp in comp_masks:
        size = comp.bit_count()
        if size == 1:
            v1 |= comp
        elif size == 2:
            w_set |= comp
        elif size <= threshold:
            s_set |= comp
        else:
            b_set |= comp
    return ObstructionRecord(u_set=u_set, components=tuple(comp_masks),
                             v1=v1, w_set=w_set, s_set=s_set, b_set=b_set)


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
    G - U is never walked whole: its components are those of G - P
    other than C and the pieces of C - w, listed by lowest vertex as a
    walk would list them.

    A size u >= 2 is reached only when no set of size u - 1 obstructs,
    so by the three-component property (module docstring) every vertex
    of an obstruction U has at least three sampled neighbours outside
    U.  Above size 1 the scan therefore tries only vertices of degree
    three or more, skips a prefix P holding a vertex with fewer than
    three neighbours outside P, and skips w with fewer than three
    outside P + {w}; the records and their order stay those of the full
    lexicographic scan.  Enumeration needs n <= 16 or u_max <= 3
    (``check_enumeration_limit``).
    """
    check_enumeration_limit(pg.n, u_max)
    if threshold is None:
        threshold = default_threshold(pg, sample.p)
    nbr = neighbor_bitmasks(pg, sample.mask)
    all_mask = (1 << pg.n) - 1
    for u in range(1, min(u_max, (pg.n - 1) // 2) + 1):
        found = []
        floor = 3 if u > 1 else 0
        cand = [v for v, mask in enumerate(nbr) if mask.bit_count() >= floor]
        for prefix in combinations(cand, u - 1):
            avail = all_mask
            for a in prefix:
                avail ^= 1 << a
            if any((nbr[a] & avail).bit_count() < floor for a in prefix):
                continue
            comps = components_from_bitmasks(nbr, avail)
            not_two = sum(comp.bit_count() != 2 for comp in comps)
            for w in cand[cand.index(prefix[-1]) + 1:] if prefix else cand:
                outside = (nbr[w] & avail).bit_count()
                if outside < floor:
                    continue
                w_bit = 1 << w
                for comp in comps:
                    if comp & w_bit:
                        break
                rest = not_two - (comp.bit_count() != 2)
                if rest + outside < u + 1:
                    continue
                pieces = components_from_bitmasks(nbr, comp & ~w_bit)
                if rest + sum(c.bit_count() != 2 for c in pieces) >= u + 1:
                    comp_masks = sorted([c for c in comps if c != comp] + pieces,
                                        key=lambda c: c & -c)
                    found.append(_record_from_components(
                        all_mask ^ avail | w_bit, comp_masks, threshold))
        if found:
            return found
    return []


def verify_three_components(pg: ProductGraph, sample: PercolationSample,
                            record: ObstructionRecord) -> ThreeComponentReport:
    """Check that every vertex of a minimal obstruction has sampled
    edges into three components of the subgraph induced on V1 + S + B.
    A vertex's sampled neighbours are its ``neighbor_bitmasks`` entry,
    so a call costs O(m), the cost of building those masks.

    For records of ``find_minimal_obstructions`` the property is a
    theorem (module docstring), and the scan prunes by it; a
    counterexample therefore means a record was built wrong, not that
    the property failed.

    Minimal obstructions of size 1 are outside the property's scope and
    are reported as skipped, not as failures.
    """
    if record.u < 2:
        return ThreeComponentReport(checked_vertices=0, skipped_out_of_scope=True,
                                    counterexamples=())
    nbr = neighbor_bitmasks(pg, sample.mask)
    kept = [comp for comp in record.components if comp.bit_count() != 2]
    counterexamples = []
    for v in range(pg.n):
        if record.u_set >> v & 1:
            seen = sum(1 for comp in kept if comp & nbr[v])
            if seen < 3:
                counterexamples.append((v, seen))
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
    groups = Counter(record.wsb_key() for record in minimal)
    violating = () if minimal[0].u < 2 else tuple(
        key for key, count in groups.items() if count > 2)
    return DeterminationReport(group_count=len(groups), max_group=max(groups.values()),
                               violating_groups=violating)
