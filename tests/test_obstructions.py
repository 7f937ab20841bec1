"""Obstruction banding, minimal enumeration, and the structural checks."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (band_removal, deficiency_consistency, mask_from_edges, mutant,
                     reference_obstructions, vertex_mask)
from prodperc import obstructions
from prodperc.catalog import build_catalog_product, tiny_names
from prodperc.graph_core import (BaseGraphSpec, build_product,
                                 cartesian_product, neighbor_bitmasks, star)
from prodperc.obstructions import (default_threshold, find_minimal_obstructions,
                                   verify_determination,
                                   verify_three_components)
from prodperc.process import (PercolationSample, sample_percolation,
                              sample_percolations)
from prodperc.rng import derive_trial_seed

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)

# spanning theta subgraph of K3xK3: hubs 0 and 4 joined by three
# internally disjoint paths whose interiors have sizes 1, 3, and 3
THETA_EDGES = [(0, 1), (1, 4), (0, 2), (2, 8), (8, 7), (7, 4),
               (0, 6), (6, 3), (3, 5), (5, 4)]


def _sample(pg, mask, p=0.5):
    return PercolationSample(mask=bytes(mask), p=p, seed=0)


def _without_vertices(pg, blocked):
    edges = [e for e in pg.edges if e[0] not in blocked and e[1] not in blocked]
    return mask_from_edges(pg, edges)


def _bands(record):
    """(ell1, ell2, ell3): the number of components in V1, S and B."""
    return tuple(sum(1 for comp in record.components if comp & ~band == 0)
                 for band in (record.v1, record.s_set, record.b_set))


def _obstructs(record):
    """At least |U| + 1 components of size other than two."""
    return sum(_bands(record)) >= record.u + 1


def _trivial(record):
    """|U| isolated vertices plus one larger component."""
    ell1, ell2, ell3 = _bands(record)
    return ell1 == record.u and ell2 + ell3 == 1


def theta_sample():
    pg = build_catalog_product("K3xK3")
    return pg, _sample(pg, mask_from_edges(pg, THETA_EDGES))


# --- threshold --------------------------------------------------------------

def test_default_threshold_is_clamped_at_three():
    assert default_threshold(build_catalog_product("Q3"), 0.5) == 3
    assert default_threshold(build_catalog_product("K3xK3"), 0.9) == 3


def test_default_threshold_domain():
    host = cartesian_product([star(3)])
    with pytest.raises(ValueError):
        default_threshold(host, 0.5)
    pg = build_catalog_product("Q3")
    with pytest.raises(ValueError):
        default_threshold(pg, 0.0)
    with pytest.raises(ValueError):
        default_threshold(pg, 1.5)


# --- classification ----------------------------------------------------------

def test_classify_empty_square():
    pg = build_catalog_product("Q2")
    record = band_removal(pg, _sample(pg, bytes(pg.m)), vertex_mask({0}))
    assert _bands(record) == (3, 0, 0)
    assert record.v1 == vertex_mask({1, 2, 3})
    assert _obstructs(record) and not _trivial(record)


def test_classify_full_cube_vertex():
    pg = build_catalog_product("Q3")
    record = band_removal(pg, sample_percolation(pg, 1.0, 0), vertex_mask({0}))
    assert _bands(record) == (0, 0, 1)
    assert not _obstructs(record)


def test_classify_two_starved_antipodes():
    # sample keeps every edge not touching 0 or 7; removing vertex 1
    # leaves the isolated pair plus one five-vertex component
    pg = build_catalog_product("Q3")
    sample = _sample(pg, _without_vertices(pg, {0, 7}))
    record = band_removal(pg, sample, vertex_mask({1}))
    assert record.v1 == vertex_mask({0, 7})
    assert record.b_set == vertex_mask({2, 3, 4, 5, 6})
    assert _bands(record) == (2, 0, 1)
    assert _obstructs(record) and not _trivial(record)
    # a larger working threshold rebands the five-set from B to S
    rebanded = band_removal(pg, sample, vertex_mask({1}), threshold=10)
    assert rebanded.s_set == vertex_mask({2, 3, 4, 5, 6})
    assert _bands(rebanded)[1:] == (1, 0)


def test_classify_trivial_obstruction():
    pg = build_catalog_product("Q3")
    sample = _sample(pg, _without_vertices(pg, {0}))
    record = band_removal(pg, sample, vertex_mask({1}))
    assert _obstructs(record) and _trivial(record)
    assert _bands(record) == (1, 0, 1)
    assert not record.w_set


@settings(deadline=None, max_examples=50)
@given(U64, st.floats(min_value=0.1, max_value=0.9))
def test_bands_partition_the_vertices(seed, p):
    pg = build_catalog_product("C4xK3")
    sample = sample_percolation(pg, p, seed)
    record = band_removal(pg, sample, vertex_mask({0, 5}))
    pieces = (record.u_set, record.v1, record.w_set, record.s_set, record.b_set)
    assert sum(part.bit_count() for part in pieces) == pg.n
    union = 0
    for part in pieces:
        union |= part
    assert union == (1 << pg.n) - 1
    assert _bands(record)[0] == record.v1.bit_count()
    assert record.w_set.bit_count() % 2 == 0
    assert sum(c.bit_count() for c in record.components) == pg.n - record.u


# --- minimal enumeration ------------------------------------------------------

def test_minimal_obstructions_empty_square():
    pg = build_catalog_product("Q2")
    minimal = find_minimal_obstructions(pg, _sample(pg, bytes(pg.m)))
    assert len(minimal) == 4
    assert all(rec.u == 1 for rec in minimal)
    assert sorted(rec.u_set for rec in minimal) == [vertex_mask({v}) for v in range(4)]


def test_no_obstruction_in_perfect_matching_sample():
    pg = build_catalog_product("Q2")
    sample = _sample(pg, mask_from_edges(pg, [(0, 1), (2, 3)]))
    assert find_minimal_obstructions(pg, sample) == []


def test_minimal_enumeration_cap():
    pg = build_catalog_product("Q5")
    sample = sample_percolation(pg, 0.5, 1)
    with pytest.raises(ValueError):
        find_minimal_obstructions(pg, sample, u_max=4)
    # u_max <= 3 keeps the scan affordable on 32 vertices
    find_minimal_obstructions(pg, sample_percolation(pg, 0.9, 1), u_max=1)


def test_theta_sample_has_unique_minimal_pair():
    pg, sample = theta_sample()
    minimal = find_minimal_obstructions(pg, sample)
    assert len(minimal) == 1
    record = minimal[0]
    assert record.u_set == vertex_mask({0, 4})
    assert _obstructs(record)
    assert sorted(c.bit_count() for c in record.components) == [1, 3, 3]
    assert _bands(record) == (1, 2, 0)


# --- three-component property ---------------------------------------------------

def test_three_components_on_theta_fixture():
    pg, sample = theta_sample()
    record = find_minimal_obstructions(pg, sample)[0]
    report = verify_three_components(pg, sample, record)
    assert not report.counterexamples
    assert report.checked_vertices == 2
    assert not report.skipped_out_of_scope


def test_three_components_skips_singletons():
    pg = build_catalog_product("Q2")
    record = find_minimal_obstructions(pg, _sample(pg, bytes(pg.m)))[0]
    report = verify_three_components(pg, _sample(pg, bytes(pg.m)), record)
    assert report.skipped_out_of_scope and not report.counterexamples
    assert report.checked_vertices == 0


def test_three_components_flags_forced_record():
    # {0, 1} is not an obstruction of the theta sample; checking its
    # record as if the scan had found it must surface both as
    # counterexamples
    pg, sample = theta_sample()
    record = band_removal(pg, sample, vertex_mask({0, 1}))
    assert not _obstructs(record)
    report = verify_three_components(pg, sample, record)
    assert report.counterexamples == ((0, 1), (1, 1))


# the tiny products whose samples at p in [0.6, 0.8] reach a minimal
# obstruction of size two or more in one to seven draws of a hundred
# (Petersen samples, in about one of a thousand)
LEVEL_TWO_NAMES = [name for name in tiny_names(16) if name not in ("Q2", "petersen")]


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(LEVEL_TWO_NAMES), st.floats(min_value=0.6, max_value=0.8), U64)
def test_scan_records_above_size_one_meet_three_components(name, p, seed):
    # the first of 64 samples drawn from the seed whose minimal
    # obstructions have u >= 2: every vertex of U must have three
    # sampled neighbours off U, and the record must pass the check
    pg = build_catalog_product(name)
    samples = sample_percolations(pg, p, [derive_trial_seed(seed, i) for i in range(64)])
    for sample in samples:
        minimal = find_minimal_obstructions(pg, sample)
        if minimal and minimal[0].u >= 2:
            break
    assume(minimal and minimal[0].u >= 2)
    nbr = neighbor_bitmasks(pg, sample.mask)
    for record in minimal:
        for v in range(pg.n):
            if record.u_set >> v & 1:
                assert (nbr[v] & ~record.u_set).bit_count() >= 3
        assert verify_three_components(pg, sample, record).counterexamples == ()


# --- determination ---------------------------------------------------------------

def test_determination_on_theta_fixture():
    pg, sample = theta_sample()
    report = verify_determination(pg, sample)
    assert report.group_count == 1 and report.max_group == 1
    assert not report.violating_groups


def test_determination_out_of_scope_for_singletons():
    pg = build_catalog_product("Q2")
    report = verify_determination(pg, _sample(pg, bytes(pg.m)))
    # four size-1 obstructions share one W+S+B set, but the bound is
    # not claimed for u = 1, so no group violates it
    assert report.max_group == 4 and report.group_count == 1
    assert report.violating_groups == ()


def test_determination_no_obstructions():
    pg = build_catalog_product("Q2")
    sample = _sample(pg, mask_from_edges(pg, [(0, 1), (2, 3)]))
    report = verify_determination(pg, sample)
    assert report.group_count == 0 and report.max_group == 0
    assert not report.violating_groups


def test_determination_group_bound_with_synthetic_records():
    pg, sample = theta_sample()
    base = find_minimal_obstructions(pg, sample)[0]
    pair = [base, base._replace(u_set=vertex_mask({0, 1}))]
    report = verify_determination(pg, sample, minimal=pair)
    assert report.max_group == 2 and not report.violating_groups
    triple = pair + [base._replace(u_set=vertex_mask({1, 4}))]
    report = verify_determination(pg, sample, minimal=triple)
    assert report.max_group == 3
    assert report.violating_groups == (base.wsb_key(),)


# --- deficiency cross-checks -------------------------------------------------------

def test_deficiency_full_rook_graph():
    pg = build_catalog_product("K3xK3")
    report = deficiency_consistency(pg, sample_percolation(pg, 1.0, 0))
    assert report.deficiency == 1 and report.brute == 1
    assert report.obstruction_free
    assert report.structure_consistent and report.ok


def test_deficiency_empty_sample():
    pg = build_catalog_product("Q2")
    report = deficiency_consistency(pg, _sample(pg, bytes(pg.m)))
    assert report.deficiency == 4 and report.brute == 4
    assert report.isolated_count == 4 and report.giant == 1
    assert report.obstruction_free is False
    assert report.structure_consistent is None
    assert report.ok


def test_deficiency_theta_sample():
    pg, sample = theta_sample()
    report = deficiency_consistency(pg, sample)
    assert report.deficiency == 1 and report.brute == 1
    assert report.obstruction_free is False
    assert report.ok


def test_deficiency_skips_scan_when_asked():
    pg = build_catalog_product("Q2")
    report = deficiency_consistency(pg, _sample(pg, bytes(pg.m)), u_max=0)
    assert report.obstruction_free is None
    assert report.structure_consistent is None


def test_deficiency_size_cap():
    pg = build_catalog_product("K3xK3xK2")
    with pytest.raises(ValueError):
        deficiency_consistency(pg, sample_percolation(pg, 0.5, 1))


@settings(deadline=None, max_examples=40)
@given(U64, st.floats(min_value=0.1, max_value=0.9))
def test_deficiency_solver_matches_brute(seed, p):
    pg = build_product((BaseGraphSpec.cycle(6), BaseGraphSpec.complete(2)))
    report = deficiency_consistency(pg, sample_percolation(pg, p, seed))
    assert report.deficiency == report.brute
    assert report.ok


@pytest.mark.parametrize("p", [0.2, 0.45, 0.7])
@pytest.mark.parametrize("name", tiny_names(14))
def test_scan_matches_full_combinations(name, p):
    pg = build_catalog_product(name)
    u_max = (pg.n - 1) // 2
    for seed in range(4):
        sample = sample_percolation(pg, p, seed)
        assert find_minimal_obstructions(pg, sample, u_max=u_max) == \
            reference_obstructions(pg, sample, u_max)


@pytest.fixture(scope="module")
def q4_workload():
    """The samples of the benchmark's obstruct command (Q4 at p = 0.7,
    trial seeds ``derive_trial_seed(0, i)`` for i < 150), each with its
    oracle records up to u = 4."""
    pg = build_catalog_product("Q4")
    samples = sample_percolations(pg, 0.7, [derive_trial_seed(0, i) for i in range(150)])
    return pg, [(sample, reference_obstructions(pg, sample, 4)) for sample in samples]


def check_scan_against_oracle(scan, pg, cases):
    for i, (sample, expected) in enumerate(cases):
        assert scan(pg, sample, u_max=4) == expected, f"Q4 sample {i}"


def test_pruned_scan_matches_oracle_on_workload_samples(q4_workload):
    pg, cases = q4_workload
    sizes = [expected[0].u if expected else 0 for _, expected in cases]
    # the samples must keep reaching the levels the degree floor prunes:
    # one with no obstruction up to u = 4 walks them all
    assert 0 in sizes and max(sizes) >= 2
    check_scan_against_oracle(find_minimal_obstructions, pg, cases)


@pytest.mark.parametrize("floor", ["floor = 4 if u > 1 else 0", "floor = 3"],
                         ids=["floor_raised_to_4", "floor_at_size_1"])
def test_scan_oracle_catches_a_wrong_degree_floor(q4_workload, floor):
    # find_minimal_obstructions recompiled with its degree floor changed
    scan = mutant(obstructions.find_minimal_obstructions, "floor = 3 if u > 1 else 0", floor)
    with pytest.raises(AssertionError, match="Q4 sample"):
        check_scan_against_oracle(scan, *q4_workload)
