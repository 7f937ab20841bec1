"""The invariant battery behind ``prodperc verify`` (kind ``verify_all``).

Each suite checks one cross-module invariant against an independent
oracle at small scale: solver deficiency against subset enumeration,
exhaustive isoperimetric profiles against the analytic bound, minimum
cuts, rooted-tree counts, the star-power bipartition identity,
obstruction structure, two-round coupling frequencies, and hitting-time
order and tau3 against a from-scratch prefix bisection.

A suite is a generator that yields one outcome per instance it checks:
None when the check holds, else a detail naming the counterexample.
``_suite`` counts the outcomes into the row's instances,
counterexamples and detail (the first counterexample's), so
counterexamples <= instances.  ``run_battery`` runs every suite, one
row each; only the ``verify_all`` kind imports this module.
"""

import functools
import math
import operator

from .catalog import build_catalog_product, tiny_names
from .graph_core import (BaseGraphSpec, ProductGraph, bipartition_signature,
                         build_product, cartesian_product, full_mask, star)
from .isoperimetry import (BoundParams, count_rooted_trees, edge_connectivity,
                           exhaustive_profile, f_star, rooted_tree_bound)
from .matching import brute_deficiency, maximum_matching, tutte_berge_deficiency
from .obstructions import (find_minimal_obstructions, verify_determination,
                           verify_three_components)
from .process import (EdgeOrdering, double_exposures, run_process,
                      sample_ordering, sample_percolation, sample_percolations)
from .rng import GROUP_LANES, Xoshiro256StarStar, bernoulli_masks, derive_trial_seed


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


@_suite
def _suite_oracle_equivalence(seed: int):
    """Solver deficiency vs subset enumeration on random masks and the
    small catalog."""
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
        mask = bernoulli_masks([gen], host.m, p)[0]
        yield (f"random mask K{order} trial {i} seed {trial_seed}"
               if tutte_berge_deficiency(host, mask) != brute_deficiency(host, mask)
               else None)
    for j, name in enumerate(tiny_names(12)):
        pg = build_catalog_product(name)
        base = derive_trial_seed(seed, 1000 + j)
        samples = sample_percolations(pg, 0.55, [derive_trial_seed(base, k) for k in range(3)])
        masks = [full_mask(pg)] + [sample.mask for sample in samples]
        for k, mask in enumerate(masks):
            yield (f"catalog {name} mask {k}"
                   if tutte_berge_deficiency(pg, mask) != brute_deficiency(pg, mask)
                   else None)


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
    """Global minimum cut equals the degree on regular products."""
    for name in ("K3xK3", "Q4", "C5xC5", "K4xK3"):
        pg = build_catalog_product(name)
        yield name if edge_connectivity(pg) != pg.d else None


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
            if len(record.u_set) + len(record.v1) + len(record.w_set) + \
                    len(record.s_set) + len(record.b_set) != pg.n:
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
    deviations of p per edge; a union that is not first | second ends
    the suite as its one instance."""
    pg = build_catalog_product("Q4")
    p = 0.5
    rounds = 10_000
    counts = [0] * pg.m
    for start in range(0, rounds, GROUP_LANES):
        batch = range(start, min(start + GROUP_LANES, rounds))
        exposures = double_exposures(pg, p, [derive_trial_seed(seed, i) for i in batch])
        for i, (first, second, union) in zip(batch, exposures):
            if bytes(map(operator.or_, first.mask, second.mask)) != union.mask:
                yield f"union mismatch at trial {i}"
                return
            counts = list(map(operator.add, counts, union.mask))
    sigma = math.sqrt(p * (1 - p) / rounds)
    for eid, total in enumerate(counts):
        yield (f"edge {eid} freq {total / rounds:.5f}"
               if abs(total / rounds - p) > sigmas * sigma else None)


def _tau3_oracle(pg: ProductGraph, ordering: EdgeOrdering) -> int | None:
    """First prefix of the ordering whose maximum matching has floor(n/2)
    edges, or None: bisection over from-scratch ``maximum_matching``
    solves that share nothing between probes."""
    target = pg.n // 2

    def reaches(length: int) -> bool:
        mask = bytearray(pg.m)
        for eid in ordering.permutation[:length]:
            mask[eid] = 1
        return maximum_matching(pg, mask).size >= target

    if not reaches(pg.m):
        return None
    lo, hi = 0, pg.m
    while lo < hi:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@_suite
def _suite_hitting_sanity(seed: int):
    """Order invariants and tau3 against the prefix oracle on small runs."""
    for name_index, name in enumerate(("Q4", "K3xK3", "C4xK3")):
        pg = build_catalog_product(name)
        for i in range(10):
            trial_seed = derive_trial_seed(derive_trial_seed(seed, name_index), i)
            ordering = sample_ordering(pg, trial_seed)
            times = run_process(pg, ordering)
            bad_order = times.tau1 > times.tau2 or (
                pg.n % 2 == 0 and times.tau3 is not None and times.tau1 > times.tau3)
            yield (f"{name} trial {i} seed {trial_seed}"
                   if bad_order or times.tau3 != _tau3_oracle(pg, ordering) else None)


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
