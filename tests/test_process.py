"""Edge processes, percolation sampling, and hitting times."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import (degree_bound, mask_from_edges, prefix_hitting_times,
                     reference_gather_order, reference_shift_rows, reference_tau3)
import prodperc.process as process
from prodperc.battery import _tau3_certified
from prodperc.catalog import build_catalog_product
from prodperc.graph_core import (BaseGraphSpec, build_product, cartesian_product,
                                 components_from_bitmasks, full_mask,
                                 neighbor_bitmasks, shift_rows, star)
from prodperc.matching import maximum_matching
from prodperc.process import (ComponentProfile, EdgeOrdering, HittingTimes,
                              PercolationSample, component_profile, component_profiles,
                              critical_p, double_exposures, hitting_times, run_process,
                              sample_ordering, sample_percolation, sample_percolations)
from prodperc.rng import split_seeds

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


# --- hand-checked hitting times -------------------------------------------

def test_square_hand_ordering():
    # cycle(4) edge ids follow sorted pairs: (0,1)=0, (0,3)=1, (1,2)=2, (2,3)=3
    pg = build_product((BaseGraphSpec.cycle(4),))
    assert list(pg.edges) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    times = run_process(pg, EdgeOrdering(permutation=(0, 3, 2, 1)))
    assert times == HittingTimes(tau1=2, tau2=3, tau3=2)


def test_triangle_hand_ordering():
    pg = build_product((BaseGraphSpec.complete(3),))
    times = run_process(pg, EdgeOrdering(permutation=(0, 2, 1)))
    # one edge already matches the floor(3/2) target, so tau3 < tau1 here
    assert times == HittingTimes(tau1=2, tau2=2, tau3=1)


def test_incomplete_ordering_rejected():
    pg = build_product((BaseGraphSpec.cycle(4),))
    with pytest.raises(AssertionError):
        run_process(pg, EdgeOrdering(permutation=(0, 2)))
    # (0,1) and (2,3) leave no vertex isolated but two components
    with pytest.raises(AssertionError):
        run_process(pg, EdgeOrdering(permutation=(0, 3)))
    # full length, but edge 1 is missing and edge 0 comes twice
    with pytest.raises(AssertionError):
        run_process(pg, EdgeOrdering(permutation=(0, 0, 2, 3)))
    with pytest.raises(ValueError):
        run_process(pg, sample_ordering(pg, 0), tau3_mode="magic")


def test_tau3_none_when_target_unreachable():
    host = cartesian_product([star(3)])
    assert maximum_matching(host, full_mask(host)).size == 1  # below floor(4/2)
    ordering = sample_ordering(host, 5)
    assert run_process(host, ordering).tau3 is None
    assert _tau3_certified(host, ordering, None)
    # the centre has degree 3 and the leaves degree 1: every leaf must
    # be reached, so tau1 = tau2 = m for every ordering
    assert hitting_times(host, range(20)) == [HittingTimes(tau1=3, tau2=3, tau3=None)] * 20


@pytest.mark.parametrize("name", ["Q4", "K3xK3", "C5xC5", "K5", "C4xK3",
                                  "petersen", "K2"])
def test_lazy_hitting_times_equal_full_ordering(name):
    # the lazy shuffle stops at lower; the full ordering is the same
    # stream run to the end (K3xK3, C5xC5 and K5 have odd n).  One group
    # of seeds 0..59 and 15 of them again; equal seeds must give equal
    # lanes.
    if name == "K2":
        pg = build_product((BaseGraphSpec.complete(2),))
    else:
        pg = build_catalog_product(name)
    seeds = list(range(60)) + list(range(0, 60, 4))
    group = hitting_times(pg, seeds)
    assert len(group) == len(seeds)
    for seed, times in zip(seeds, group):
        ordering = sample_ordering(pg, seed)
        assert times == run_process(pg, ordering)
        assert (times.tau1, times.tau2) == prefix_hitting_times(pg, ordering)
        assert _tau3_certified(pg, ordering, times.tau3)
        if name == "K2":
            assert times == HittingTimes(tau1=1, tau2=1, tau3=1)


@pytest.mark.parametrize("block", [1, 5, 64])
def test_hitting_group_draws_blocks_as_lanes_need_them(monkeypatch, block):
    # small blocks: every lane runs past several, and a later lane that
    # needs more words than the earlier ones draws them for the rest
    monkeypatch.setattr(process, "_WORD_BLOCK", block)
    pg = build_catalog_product("Q4")
    seeds = [7, 3, 7, 11, 0, 3, 29, 5]
    assert hitting_times(pg, seeds) == [run_process(pg, sample_ordering(pg, seed))
                                        for seed in seeds]
    assert hitting_times(pg, []) == []


# --- ordering sampler ------------------------------------------------------

def test_sample_ordering_shape():
    pg = build_catalog_product("Q3")
    ordering = sample_ordering(pg, 42)
    assert sorted(ordering.permutation) == list(range(pg.m))
    assert ordering == sample_ordering(pg, 42)
    assert ordering.permutation != sample_ordering(pg, 43).permutation


def test_tau3_matches_prefix_oracle():
    pg = build_catalog_product("K3xK3")
    for seed in range(30):
        ordering = sample_ordering(pg, seed)
        assert _tau3_certified(pg, ordering, run_process(pg, ordering).tau3)


def test_one_matching_solve_per_trial(monkeypatch):
    # tau3 is one solve at the degree bound lower when that prefix holds
    # the matching; otherwise the later prefixes are bisected, at most
    # 2 + ceil(log2(m - lower)) solves in all and none on a prefix
    # solved before.  On K4 the star at vertex 0 (edges 0, 1, 2) is
    # lower = 3 and edge 5 = (2, 3) gives tau3 = 4; Q8 seeds 0..19
    # include one more such trial.
    sizes = []
    solve = process.maximum_matching

    def counting(pg, mask, **kwargs):
        sizes.append(sum(mask))
        return solve(pg, mask, **kwargs)

    monkeypatch.setattr(process, "maximum_matching", counting)
    k4 = build_product((BaseGraphSpec.complete(4),))
    trials = [(k4, EdgeOrdering(permutation=(0, 1, 2, 5, 3, 4)))]
    q8 = build_catalog_product("Q8")
    trials += [(q8, sample_ordering(q8, seed)) for seed in range(20)]
    past = 0
    for pg, ordering in trials:
        sizes.clear()
        times = run_process(pg, ordering)
        lower = times.tau1  # n is even
        assert sizes[0] == lower
        if times.tau3 == lower:
            assert len(sizes) == 1
        else:
            past += 1
            assert len(sizes) <= 2 + math.ceil(math.log2(pg.m - lower))
            assert len(set(sizes)) == len(sizes)
    assert past >= 2


def test_tau3_far_past_the_degree_bound():
    # Q12 seed 38: the solve at lower falls 1256 edges short of tau3
    pg = build_product((BaseGraphSpec.complete(2),) * 12)
    times = hitting_times(pg, [38])[0]
    assert times.tau3 - times.tau1 == 1256
    assert _tau3_certified(pg, sample_ordering(pg, 38), times.tau3)


def test_tau3_equals_linear_deficiency_scan():
    # reference_tau3 shares neither the solver nor the bisection; odd n
    # (K3xK3, K5), non-bipartite hosts and star(3), whose tau3 is None.
    # 48 of these 120 trials are decided past the degree bound.
    specs = [(BaseGraphSpec.complete(c),) for c in (4, 5, 6)]
    specs.append((BaseGraphSpec.complete(3), BaseGraphSpec.complete(2)))
    hosts = [build_product(spec) for spec in specs]
    hosts += [build_catalog_product(name) for name in ("Q3", "K3xK3", "petersen")]
    hosts.append(cartesian_product([star(3)]))
    past = 0
    for pg in hosts:
        for seed in range(15):
            ordering = sample_ordering(pg, seed)
            tau3 = run_process(pg, ordering).tau3
            assert tau3 == reference_tau3(pg, ordering)
            past += tau3 is None or tau3 > degree_bound(pg, ordering)
    assert past >= 40, past


# --- percolation sampling ---------------------------------------------------

def test_percolation_extremes():
    pg = build_catalog_product("Q4")
    assert sum(sample_percolation(pg, 0.0, 1).mask) == 0
    assert sum(sample_percolation(pg, 1.0, 1).mask) == pg.m
    with pytest.raises(ValueError):
        sample_percolation(pg, -0.1, 1)
    with pytest.raises(ValueError):
        sample_percolation(pg, 1.5, 1)


def test_percolation_reproducible():
    pg = build_catalog_product("Q4")
    a = sample_percolation(pg, 0.3, 9)
    b = sample_percolation(pg, 0.3, 9)
    assert a.mask == b.mask


def test_double_exposure_probability_split():
    pg = build_catalog_product("petersen")  # d = 3
    p = 0.5
    first, second = double_exposures(pg, p, [77])
    p2 = 1.0 / 9.0
    p1 = 1.0 - (1.0 - p) / (1.0 - p2)
    assert abs((1.0 - p1) * (1.0 - p2) - (1.0 - p)) <= 1e-12
    s1, s2 = split_seeds(77, 2)
    assert first == sample_percolation(pg, p1, s1).mask
    assert second == sample_percolation(pg, p2, s2).mask


def test_double_exposure_round_seeds_are_replayable():
    pg = build_catalog_product("Q4")
    p2 = 1.0 / (pg.d * pg.d)
    p1 = 1.0 - (1.0 - 0.4) / (1.0 - p2)
    first, second = double_exposures(pg, 0.4, [123])
    s1, s2 = split_seeds(123, 2)
    assert first == sample_percolation(pg, p1, s1).mask
    assert second == sample_percolation(pg, p2, s2).mask
    # a batch draws in lockstep and gives every seed its own rounds
    seeds = [123, 5, 123, (1 << 64) - 1]
    firsts, seconds = double_exposures(pg, 0.4, seeds)
    assert len(firsts) == len(seconds) == len(seeds) * pg.m
    for i, seed in enumerate(seeds):
        s1, s2 = split_seeds(seed, 2)
        trial = slice(i * pg.m, (i + 1) * pg.m)
        assert firsts[trial] == sample_percolation(pg, p1, s1).mask
        assert seconds[trial] == sample_percolation(pg, p2, s2).mask
    with pytest.raises(ValueError):
        double_exposures(pg, 1.0 / (pg.d * pg.d) - 1e-6, [1])


def test_critical_p_identity():
    for name, omega in (("Q6", 1.0), ("K3xK3", 2.5), ("C5xC5", 0.5)):
        pg = build_catalog_product(name)
        p = critical_p(pg, omega)
        assert 0.0 < p < 1.0
        assert math.isclose(pg.n * (1.0 - p) ** pg.d, omega, rel_tol=1e-9)
    pg = build_catalog_product("Q3")
    with pytest.raises(ValueError):
        critical_p(pg, 0.0)
    with pytest.raises(ValueError):
        critical_p(pg, pg.n + 1.0)


# --- component profiles ------------------------------------------------------

def _mask_without_vertices(pg, blocked):
    edges = [e for e in pg.edges if e[0] not in blocked and e[1] not in blocked]
    return mask_from_edges(pg, edges)


def _sample(pg, mask):
    return PercolationSample(mask=bytes(mask), p=0.5, seed=0)


def test_profile_empty_and_full():
    pg = build_catalog_product("Q3")
    empty = component_profile(pg, _sample(pg, bytes(pg.m)))
    assert empty.sizes == (1,) * 8
    assert empty.giant == 1
    assert empty.isolated == tuple(range(8))
    assert empty.min_isolated_distance == 1
    assert empty.mid_components == 0
    full = component_profile(pg, sample_percolation(pg, 1.0, 0))
    assert full.sizes == (8,)
    assert full.isolated == ()
    assert full.min_isolated_distance is None


def test_profile_isolated_distances():
    pg = build_catalog_product("Q3")
    # 0 = 000 and 7 = 111 sit at host distance 3
    far = component_profile(pg, _sample(pg, _mask_without_vertices(pg, {0, 7})))
    assert far.isolated == (0, 7)
    assert far.min_isolated_distance == 3
    # 0 = 000 and 3 = 011 differ in two coordinates
    mid = component_profile(pg, _sample(pg, _mask_without_vertices(pg, {0, 3})))
    assert mid.isolated == (0, 3)
    assert mid.min_isolated_distance == 2
    near = component_profile(pg, _sample(pg, _mask_without_vertices(pg, {0, 1})))
    assert near.isolated == (0, 1)
    assert near.min_isolated_distance == 1


def test_profile_mid_components():
    pg = build_product((BaseGraphSpec.cycle(8),))
    mask = mask_from_edges(pg, [(0, 1), (1, 2), (2, 3), (5, 6)])
    prof = component_profile(pg, _sample(pg, mask))
    assert prof.sizes == (4, 2, 1, 1)
    assert prof.giant == 4
    assert prof.mid_components == 1
    assert prof.isolated == (4, 7)


# --- distribution-level checks ----------------------------------------------

@settings(deadline=None, max_examples=40)
@given(U64)
def test_hitting_order_even_product(seed):
    pg = build_catalog_product("Q4")
    times = run_process(pg, sample_ordering(pg, seed))
    assert times.tau1 <= times.tau2
    assert times.tau3 is not None and times.tau1 <= times.tau3
    assert 1 <= times.tau1 and times.tau2 <= pg.m


@settings(deadline=None, max_examples=60)
@given(U64, st.sampled_from(("Q3", "Q4", "K3xK3", "C5xK2", "C4xK3", "K5",
                             "petersen", "C5xC5")))
def test_tau3_equals_prefix_oracle(seed, name):
    pg = build_catalog_product(name)
    ordering = sample_ordering(pg, seed)
    times = run_process(pg, ordering)
    assert _tau3_certified(pg, ordering, times.tau3)
    if pg.n % 2 == 0:
        assert times.tau3 is not None and times.tau1 <= times.tau3


@settings(deadline=None, max_examples=100)
@given(U64, st.sampled_from(("Q4", "K3xK3", "C5xC5", "K5", "C4xK3", "petersen")))
def test_tau1_tau2_equal_prefix_oracle(seed, name):
    # tau2 > tau1 in about a third to a half of these orderings
    pg = build_catalog_product(name)
    ordering = sample_ordering(pg, seed)
    times = run_process(pg, ordering)
    assert (times.tau1, times.tau2) == prefix_hitting_times(pg, ordering)


@settings(deadline=None, max_examples=40)
@given(U64, st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_percolation_nested_across_p(seed, p, q):
    # edge k is kept iff the k-th uniform is below p, so one seed couples
    # every p: the sample at the smaller p is a subgraph of the larger
    pg = build_catalog_product("C4xK3")
    low, high = sorted((p, q))
    small = sample_percolation(pg, low, seed).mask
    large = sample_percolation(pg, high, seed).mask
    assert all(a <= b for a, b in zip(small, large))


K2, K3, K4 = (BaseGraphSpec.complete(m) for m in (2, 3, 4))
C4, C5 = BaseGraphSpec.cycle(4), BaseGraphSpec.cycle(5)
PETERSEN = BaseGraphSpec.petersen()
# Q3 with its usual labels, read from an edge-list file
Q3_EDGE_LIST = "8 12\n" + "".join(f"{u} {u | bit}\n" for u in range(8)
                                  for bit in (1, 2, 4) if not u & bit)
PROFILE_PRODUCTS = {
    # factors whose base edges share a shift b - a
    "C5xC4": (C5, C4), "K4xK3": (K4, K3), "C5xK3xK2": (C5, K3, K2),
    "Circ(8;1,3,5,7)xK3": (BaseGraphSpec.circulant(8, (1, 3, 5, 7)), K3),
    # shifts whose digits are not one run from 0: Petersen's shift 2
    # joins digits {5, 6, 7}, the edge-list Q3's shift 1 joins {0, 2, 4, 6}
    "petersen": (PETERSEN,), "petersenxK2": (PETERSEN, K2),
    "edge-list Q3": ("edge_list",), "edge-list Q3xK3": ("edge_list", K3),
    # hypercubes, down to the one-edge K2, and a K3 placed by strided
    # moves two offsets wide
    "K2": (K2,), "Q3": (K2,) * 3, "Q6": (K2,) * 6, "K2xK3xQ3": (K2, K3) + (K2,) * 3,
    # odd n, where a hitting trial's prefix mask stops below tau1
    "C5xK3": (C5, K3), "K3xC5xK3": (K3, C5, K3),
}


# products whose gather order is checked against the adjacency walk
GATHER_PRODUCTS = {**PROFILE_PRODUCTS, "C5^3": (C5,) * 3, "K3^4": (K3,) * 4}
CSR_FIELDS = ("adj_off", "adj_flat", "adj_eid", "edges")


def _profile_product(tmp_path, name):
    edge_list = tmp_path / "q3.txt"
    edge_list.write_text(Q3_EDGE_LIST, encoding="utf-8")
    return build_product([BaseGraphSpec.edge_list(edge_list) if spec == "edge_list" else spec
                          for spec in GATHER_PRODUCTS[name]])


def _isolated_spacing(pg, isolated):
    """Minimum host distance between isolated vertices, capped at 3, from
    host-graph neighbour bitmasks; None below two."""
    if len(isolated) < 2:
        return None
    host = neighbor_bitmasks(pg)
    iso = sum(1 << v for v in isolated)
    spacing = 3
    for v in isolated:
        two = 0
        for w in range(pg.n):
            if host[v] >> w & 1:
                two |= host[w]
        if host[v] & iso:
            return 1
        if two & iso & ~(1 << v):
            spacing = 2
    return spacing


def _oracle_profile(pg, mask):
    """The profile of a mask by a flood fill over neighbour bitmasks."""
    comps = components_from_bitmasks(neighbor_bitmasks(pg, mask), (1 << pg.n) - 1)
    sizes = tuple(sorted((c.bit_count() for c in comps), reverse=True))
    isolated = tuple(sorted(c.bit_length() - 1 for c in comps if c.bit_count() == 1))
    return ComponentProfile(
        sizes=sizes, giant=sizes[0], isolated=isolated,
        min_isolated_distance=_isolated_spacing(pg, isolated),
        mid_components=sum(1 for size in sizes if 2 <= size < sizes[0]))


PROBABILITIES = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(min_value=0.0, max_value=1.0))


@pytest.mark.parametrize("name", ["Circ(8;1,3,5,7)xK3", "petersenxK2", "edge-list Q3xK3",
                                  "C5xK3"])
def test_profile_isolated_distances_on_every_pair(tmp_path, name):
    # shifts shared by several base edges, an edge-list base and odd n:
    # every vertex pair, and larger sets, isolated by dropping their
    # edges; the shift-row spacing against the host-bitmask oracle
    pg = _profile_product(tmp_path, name)
    picks = random.Random(name)
    blocked = [set(pair) for pair in combinations(range(pg.n), 2)]
    blocked += [set(picks.sample(range(pg.n), size)) for size in range(3, 7) for _ in range(40)]
    samples = [_sample(pg, bytes(u not in out and v not in out for u, v in pg.edges))
               for out in blocked]
    profiles = component_profiles(pg, samples)
    for out, profile in zip(blocked, profiles, strict=True):
        assert set(profile.isolated) >= out
        assert profile.min_isolated_distance == _isolated_spacing(pg, profile.isolated)
    assert {profile.min_isolated_distance for profile in profiles} == {1, 2, 3}


@settings(deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(U64, st.sampled_from(sorted(PROFILE_PRODUCTS)), PROBABILITIES)
def test_profile_partition(tmp_path, seed, name, p):
    pg = _profile_product(tmp_path, name)
    sample = sample_percolation(pg, p, seed)
    # the shift-row flood fill against a flood fill over neighbour bitmasks
    assert component_profile(pg, sample) == _oracle_profile(pg, sample.mask)


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(PROFILE_PRODUCTS)),
       st.lists(st.tuples(U64, PROBABILITIES), min_size=1, max_size=20))
def test_profile_group_partition(tmp_path, name, draws):
    # 1-20 samples, so the last byte plane of a group may be short and
    # every lane bit is read; each sample has its own p
    pg = _profile_product(tmp_path, name)
    samples = [sample_percolation(pg, p, seed) for seed, p in draws]
    profiles = component_profiles(pg, samples)
    assert profiles == [_oracle_profile(pg, sample.mask) for sample in samples]


@pytest.mark.parametrize("count", [1, 8, 9, 17])
def test_shift_rows_equal_edge_by_edge_rows(count):
    pg = build_catalog_product("C5xK2xK3")  # m = 75 is not a multiple of 8
    assert pg.m % 8
    masks = [sample.mask for sample in sample_percolations(pg, 0.5, range(count))]
    masks[0] = bytearray(masks[0])  # tau2 passes a bytearray
    gather, groups = pg.shift_plan
    gathers = []

    def counting(plane):
        gathers.append(plane)
        return gather(plane)

    vars(pg)["shift_plan"] = (counting, groups)
    lanes = list(shift_rows(pg, masks))
    assert len(gathers) == -(-count // 8)
    order = [shift for shift, _ in groups]
    assert [[shift for shift, _ in rows] for rows in lanes] == [order] * count
    assert [dict(rows) for rows in lanes] == [reference_shift_rows(pg, mask) for mask in masks]


@pytest.mark.parametrize("count", [1, 8, 16, 20])
def test_profiles_gather_once_per_eight_samples(count):
    # the host rows come from the plan's moves, not from one more lane
    pg = build_catalog_product("C5xK2xK3")
    samples = sample_percolations(pg, 0.5, range(count))
    gather, groups = pg.shift_plan
    gathers = []

    def counting(plane):
        gathers.append(plane)
        return gather(plane)

    vars(pg)["shift_plan"] = (counting, groups)
    for _ in range(2):
        component_profiles(pg, samples)
    assert len(gathers) == 2 * -(-count // 8)


@pytest.mark.parametrize("name", sorted(PROFILE_PRODUCTS))
def test_host_rows_are_the_rows_of_the_all_ones_mask(tmp_path, name):
    pg = _profile_product(tmp_path, name)
    [rows] = shift_rows(pg, [full_mask(pg)])
    assert pg.host_rows == tuple(rows)
    assert dict(rows) == reference_shift_rows(pg, full_mask(pg))


def test_shift_plan_is_built_by_the_first_profile():
    pg = build_catalog_product("C5xK2xK3")
    # cartesian_product leaves both unbuilt
    assert not {"shift_plan", "host_rows"} & set(vars(pg))
    component_profile(pg, sample_percolation(pg, 0.5, 1))
    plan, host = vars(pg)["shift_plan"], vars(pg)["host_rows"]
    component_profile(pg, sample_percolation(pg, 0.5, 2))
    assert vars(pg)["shift_plan"] is plan and vars(pg)["host_rows"] is host


def test_shift_plan_is_built_by_the_first_hitting_trial():
    # tau2 reads the prefix mask through the same shift rows
    pg = build_catalog_product("C5xK2xK3")
    assert "shift_plan" not in vars(pg)
    hitting_times(pg, [1])
    plan = vars(pg)["shift_plan"]
    hitting_times(pg, [2, 3])
    assert vars(pg)["shift_plan"] is plan


@pytest.mark.parametrize("name", sorted(PROFILE_PRODUCTS))
def test_hitting_times_equal_prefix_oracles_on_every_shift_layout(tmp_path, name):
    # tau2's shift-row fill on shared shifts, non-run shifts, edge-list
    # bases and the one-edge K2, with odd and even n
    pg = _profile_product(tmp_path, name)
    seeds = range(12)
    for seed, times in zip(seeds, hitting_times(pg, seeds), strict=True):
        ordering = sample_ordering(pg, seed)
        assert (times.tau1, times.tau2) == prefix_hitting_times(pg, ordering)
        assert _tau3_certified(pg, ordering, times.tau3)


@pytest.mark.parametrize("name", sorted(PROFILE_PRODUCTS))
def test_shift_plan_puts_each_edge_at_its_lower_end(tmp_path, name):
    pg = _profile_product(tmp_path, name)
    mask = bytes(eid % 255 + 1 for eid in range(pg.m))  # nonzero, tells edges apart
    expected = {}
    for eid, (u, v) in enumerate(pg.edges):
        expected.setdefault(v - u, [0] * pg.n)[u] = mask[eid]
    gather, groups = pg.shift_plan
    picked = bytes(gather(mask))
    rows = {}
    for shift, moves in groups:
        row = bytearray(pg.n)
        for dst, src in moves:
            row[dst] = picked[src]
        rows[shift] = list(row)
    assert rows == expected


@pytest.mark.parametrize("name", sorted(GATHER_PRODUCTS))
def test_gather_order_equals_the_adjacency_walk(tmp_path, name):
    pg = _profile_product(tmp_path, name)
    gather, _ = pg.shift_plan
    assert list(gather(range(pg.m + 1)))[:-1] == reference_gather_order(pg)


@pytest.mark.parametrize("name", sorted(PROFILE_PRODUCTS))
def test_adjacency_arrays_are_built_together_on_first_read(tmp_path, name):
    # m comes from the bases; any one of the four arrays builds them all
    for field in CSR_FIELDS:
        pg = _profile_product(tmp_path, name)
        assert not set(CSR_FIELDS) & set(vars(pg))
        getattr(pg, field)
        assert set(CSR_FIELDS) <= set(vars(pg))
        assert pg.m == len(pg.edges)
