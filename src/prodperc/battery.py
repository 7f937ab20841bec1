"""The invariant battery behind ``prodperc verify`` (kind ``verify_all``).

Each suite checks one cross-module invariant at small scale: the
solver's matchings, each proved maximum by its Tutte-Berge barrier
(``matching.certified_deficiency``), exhaustive isoperimetric profiles
against the analytic bound, minimum cuts, rooted-tree counts, the
star-power bipartition identity, obstruction structure, two-round
coupling frequencies, and hitting-time order with tau3 certified by a
matching of floor(n/2) edges at tau3 and a barrier one edge earlier.
The star powers are 2-coloured over their ``host_rows``, so the
identity also checks those rows, which percolation's isolated-vertex
spacing reads, on irregular factors.

A suite is a generator that yields one outcome per instance it checks:
None when the check holds, else a detail naming the counterexample.
``_suite`` counts the outcomes into the row's instances,
counterexamples and detail (the first counterexample's), so
counterexamples <= instances.  ``run_battery`` runs every suite, one
row each; only the ``verify_all`` kind imports this module.
"""

import functools
import math

from .catalog import build_catalog_product, tiny_names
from .graph_core import (BaseGraphSpec, ProductGraph, base_from_edges, bipartition_signature,
                         build_base, build_product, cartesian_product, full_mask, star)
from .isoperimetry import (BoundParams, count_rooted_trees, edge_connectivity,
                           exhaustive_profile, f_star, rooted_tree_bound)
from .matching import certified_deficiency, maximum_matching
from .obstructions import (find_minimal_obstructions, verify_determination,
                           verify_three_components)
from .process import (EdgeOrdering, double_exposures, hitting_times,
                      sample_ordering, sample_percolation, sample_percolations)
from .rng import Xoshiro256StarStar, bernoulli_masks, derive_trial_seed

# Rounds the coupling suite draws in one lockstep group.  Its 32-byte Q4
# masks last one batch, so the trial runner's cap,
# ``experiments.GROUP_LANES``, does not apply.  On one pinned CPU of a
# 2-vCPU x86 VM the suite's 10 000 rounds took 125-140 ms in batches of
# 32 and 78-83 ms in batches of 500, with the same peak RSS (medians of
# 10 runs; 250: 84-88 ms, 1000: 63-85).
_COUPLING_BATCH = 500

# A cubic graph on 10 vertices: two copies of a 5-vertex graph whose
# vertex 0 has degree 2, joined by the bridge 0-5.
_HALF = ((0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
BRIDGED_CUBIC_EDGES = _HALF + tuple((u + 5, v + 5) for u, v in _HALF) + ((0, 5),)


def _suite(outcomes):
    """Decorate a suite generator, which yields one outcome per instance
    (None when the check holds, else a detail), into a function that
    returns (instances, counterexamples, first detail)."""
    @functools.wraps(outcomes)
    def tally(*args, **kwargs):
        instances = counterexamples = 0
        detail = ""
        for outcome in outcomes(*args, **kwargs):
            instances += 1
            if outcome is not None:
                counterexamples += 1
                detail = detail or outcome
        return instances, counterexamples, detail
    return tally


def _certified(pg: ProductGraph, mask) -> int | None:
    """The solver's deficiency on the view if its barrier proves it."""
    return certified_deficiency(pg, mask, maximum_matching(pg, mask).mate)


@_suite
def _suite_oracle_equivalence(seed: int):
    """The solver's matching certified on random masks and the small
    catalog."""
    hosts: dict[int, ProductGraph] = {}
    for i in range(200):
        trial_seed = derive_trial_seed(seed, i)
        gen = Xoshiro256StarStar(trial_seed)
        order = 4 + gen.next_below(7)
        host = hosts.get(order)
        if host is None:
            host = build_product((BaseGraphSpec.complete(order),))
            hosts[order] = host
        p = 0.2 + 0.6 * gen.next_double()
        mask = bernoulli_masks(gen, host.m, p)[0]
        yield (f"random mask K{order} trial {i} seed {trial_seed}"
               if _certified(host, mask) is None else None)
    for j, name in enumerate(tiny_names(12)):
        pg = build_catalog_product(name)
        base = derive_trial_seed(seed, 1000 + j)
        samples = sample_percolations(pg, 0.55, [derive_trial_seed(base, k) for k in range(3)])
        masks = [full_mask(pg)] + [sample.mask for sample in samples]
        for k, mask in enumerate(masks):
            yield f"catalog {name} mask {k}" if _certified(pg, mask) is None else None


@_suite
def _suite_isoperimetry_bounds():
    """Exhaustive f(k) >= f*(k), profile symmetry, and a spot profile."""
    for name in ("Q4", "K3xK3", "C4xK3", "C5xK2"):
        pg = build_catalog_product(name)
        params = BoundParams.from_product(pg, 0.5)
        profile = exhaustive_profile(pg, keep_witnesses=False)
        for k in range(1, pg.n):
            bad_bound = profile.f_of(k) < f_star(params, k) - 1e-9
            bad_symmetry = profile.f_of(k) != profile.f_of(pg.n - k)
            yield f"{name} k={k}" if bad_bound or bad_symmetry else None
    q3 = exhaustive_profile(build_catalog_product("Q3"), keep_witnesses=False)
    yield f"Q3 profile {list(q3.f)}" if q3.f != (3, 4, 5, 4, 5, 4, 3) else None


@_suite
def _suite_edge_connectivity():
    """Global minimum cut: the degree, but 2 < 4 on bridged cubic x K2."""
    for name in ("K3xK3", "Q4", "K4xK3"):
        pg = build_catalog_product(name)
        yield name if edge_connectivity(pg) != pg.d else None
    bridged = cartesian_product([base_from_edges(10, BRIDGED_CUBIC_EDGES, "bridged"),
                                 build_base(BaseGraphSpec.complete(2))])
    yield "bridgedxK2" if edge_connectivity(bridged) != 2 else None


@_suite
def _suite_tree_bounds():
    """Rooted subtree counts against (e*d)**(k-1) for k up to 5."""
    for name in ("petersen", "Q3", "K5", "K3xK3"):
        pg = build_catalog_product(name)
        for k in range(1, 6):
            bound = rooted_tree_bound(pg.d, k)
            for v in range(pg.n):
                yield f"{name} v={v} k={k}" if count_rooted_trees(pg, v, k) > bound else None


@_suite
def _suite_star_identity():
    """Bipartition class difference (1-s)**t on star powers."""
    for s in (2, 3, 4):
        leaves_star = star(s)
        for t in range(1, 6):
            pg = cartesian_product([leaves_star] * t)
            signature = bipartition_signature(pg)
            yield (f"s={s} t={t} signature={signature}"
                   if signature is None or signature[0] - signature[1] != (1 - s) ** t
                   else None)


@_suite
def _suite_obstruction_properties(seed: int, samples: int = 48,
                                  u_max: int | None = 4):
    """Three-component and shared-W+S+B checks on seeded small samples.

    Each sample scans removal sets up to min(u_max, (n - 1) / 2);
    ``u_max=None`` scans to (n - 1) / 2, beyond which no set obstructs.
    Each minimal record is one instance (its partition, then its
    three-component check), and each sample's determination another.
    """
    names = [name for name in tiny_names(14) if name != "Q2"]
    products = [build_catalog_product(name) for name in names]
    for i in range(samples):
        name, pg = names[i % len(names)], products[i % len(products)]
        trial_seed = derive_trial_seed(seed, i)
        gen = Xoshiro256StarStar(trial_seed)
        p = 0.2 + 0.5 * gen.next_double()
        sample = sample_percolation(pg, p, derive_trial_seed(trial_seed, 1))
        u_cap = (pg.n - 1) // 2 if u_max is None else min(u_max, (pg.n - 1) // 2)
        minimal = find_minimal_obstructions(pg, sample, u_max=u_cap)
        for record in minimal:
            if record.u + record.v1.bit_count() + record.w_set.bit_count() + \
                    record.s_set.bit_count() + record.b_set.bit_count() != pg.n:
                yield f"partition {name} trial {i}"
            elif verify_three_components(pg, sample, record).counterexamples:
                yield f"three-component {name} trial {i} seed {trial_seed}"
            else:
                yield None
        det = verify_determination(pg, sample, u_max=u_cap, minimal=minimal)
        yield (f"determination {name} trial {i} seed {trial_seed}"
               if det.violating_groups else None)


@_suite
def _suite_coupling(seed: int, sigmas: float = 4.0):
    """Two-round union inclusion frequency within ``sigmas`` standard
    deviations of p per edge.  Each batch's union is its joined rounds
    ORed once: every byte is 0 or 1, so OR-ing them as ints ORs each
    trial's bytes."""
    pg = build_catalog_product("Q4")
    p = 0.5
    rounds = 10_000
    counts = [0] * pg.m
    for start in range(0, rounds, _COUPLING_BATCH):
        batch = range(start, min(start + _COUPLING_BATCH, rounds))
        firsts, seconds = double_exposures(pg, p, [derive_trial_seed(seed, i) for i in batch])
        union = int.from_bytes(firsts, "little") | int.from_bytes(seconds, "little")
        unions = union.to_bytes(len(firsts), "little")
        # edge eid's byte of every trial is every m-th byte from byte eid
        counts = [total + sum(unions[eid::pg.m]) for eid, total in enumerate(counts)]
    sigma = math.sqrt(p * (1 - p) / rounds)
    for eid, total in enumerate(counts):
        yield (f"edge {eid} freq {total / rounds:.5f}"
               if abs(total / rounds - p) > sigmas * sigma else None)


def _tau3_certified(pg: ProductGraph, ordering: EdgeOrdering, tau3: int | None) -> bool:
    """Whether ``tau3`` is the first prefix of the ordering that holds a
    matching of floor(n/2) edges: the solver's matching there is one,
    and the barrier of the prefix one edge shorter (of the whole graph
    when ``tau3`` is None) proves a deficiency above n mod 2."""
    rank = sorted(range(pg.m), key=ordering.permutation.__getitem__)  # edge id -> position
    parity = pg.n % 2
    if tau3 is not None and _certified(pg, bytes(r < tau3 for r in rank)) != parity:
        return False
    short = pg.m if tau3 is None else tau3 - 1
    return (_certified(pg, bytes(r < short for r in rank)) or 0) > parity  # None: unproved


@_suite
def _suite_hitting_sanity(seed: int):
    """Order invariants and a certified tau3 on small runs, each host's
    trials drawn in one ``hitting_times`` call as the CLI draws them."""
    for name_index, name in enumerate(("Q4", "K3xK3", "C4xK3")):
        pg = build_catalog_product(name)
        seeds = [derive_trial_seed(derive_trial_seed(seed, name_index), i) for i in range(10)]
        for i, (trial_seed, times) in enumerate(zip(seeds, hitting_times(pg, seeds))):
            ordering = sample_ordering(pg, trial_seed)
            bad_order = times.tau1 > times.tau2 or (
                pg.n % 2 == 0 and times.tau3 is not None and times.tau1 > times.tau3)
            yield (f"{name} trial {i} seed {trial_seed}"
                   if bad_order or not _tau3_certified(pg, ordering, times.tau3) else None)


def run_battery(seed: int):
    """Run every suite at ``seed``; rows name each suite with its
    counterexample count."""
    suites = (
        ("oracle_equivalence",
         lambda: _suite_oracle_equivalence(derive_trial_seed(seed, 1))),
        ("isoperimetry_bounds", _suite_isoperimetry_bounds),
        ("edge_connectivity", _suite_edge_connectivity),
        ("tree_bounds", _suite_tree_bounds),
        ("star_identity", _suite_star_identity),
        ("obstruction_properties",
         lambda: _suite_obstruction_properties(derive_trial_seed(seed, 2))),
        ("coupling_statistics",
         lambda: _suite_coupling(derive_trial_seed(seed, 3))),
        ("hitting_sanity",
         lambda: _suite_hitting_sanity(derive_trial_seed(seed, 4))),
    )
    rows = []
    total = 0
    for name, runner in suites:
        instances, counterexamples, detail = runner()
        total += counterexamples
        rows.append((name, instances, counterexamples,
                     "ok" if counterexamples == 0 else "fail",
                     detail.replace(",", ";")))
    aggregates = {
        "suites": len(rows),
        "counterexamples": total,
        "exit_status": 0 if total == 0 else 1,
    }
    return rows, aggregates
