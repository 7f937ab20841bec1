"""Maximum matching, augmenting search, and the deficiency oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import blossom_edges, mask_from_edges, reference_deficiency
from prodperc import matching
from prodperc.catalog import build_catalog_product, tiny_names
from prodperc.graph_core import (BaseGraphSpec, build_product, cartesian_product,
                                 components_from_bitmasks, full_mask,
                                 neighbor_bitmasks, star)
from prodperc.matching import (brute_deficiency, maximum_matching,
                               tutte_berge_deficiency, _augment_once)
from prodperc.process import sample_percolation
from prodperc.rng import Xoshiro256StarStar, bernoulli_masks, derive_trial_seed

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


def random_mask(pg, seed, p=0.5):
    return sample_percolation(pg, p, seed).mask


# --- exact sizes on known graphs ----------------------------------------

def test_full_product_matchings():
    for name, size in (("Q3", 4), ("K3xK3", 4), ("petersen", 5), ("C5xK2", 5)):
        pg = build_catalog_product(name)
        assert maximum_matching(pg, full_mask(pg)).size == size


def test_odd_cycle_matching():
    c5 = build_product((BaseGraphSpec.cycle(5),))
    state = maximum_matching(c5, full_mask(c5))
    assert state.size == 2
    assert state.mate.count(-1) == 1


def test_matching_state_is_consistent():
    pg = build_catalog_product("Q3")
    state = maximum_matching(pg, full_mask(pg))
    pairs = [(v, w) for v, w in enumerate(state.mate) if w > v]
    for v, w in pairs:
        assert state.mate[v] == w and state.mate[w] == v
        assert w in pg.neighbors(v)
    assert len(pairs) == state.size


def test_star_deficiency():
    host = cartesian_product([star(3)])
    mask = full_mask(host)
    assert maximum_matching(host, mask).size == 1
    assert tutte_berge_deficiency(host, mask) == 2
    assert brute_deficiency(host, mask) == 2


def test_empty_and_full_masks():
    pg = build_catalog_product("Q3")
    assert maximum_matching(pg, bytes(pg.m)).size == 0
    assert brute_deficiency(pg, bytes(pg.m)) == 8
    assert tutte_berge_deficiency(pg, full_mask(pg)) == 0


def test_blossom_contraction_path():
    # odd cycle plus a pendant forces a blossom during the search
    c5 = build_product((BaseGraphSpec.cycle(5),))
    for seed in range(20):
        mask = random_mask(c5, seed, p=0.7)
        assert tutte_berge_deficiency(c5, mask) == brute_deficiency(c5, mask)


def test_augment_contracts_blossom():
    # from root 6 the search runs 6-3, 3=0, then meets the odd cycle
    # 0-1=2-0; only by contracting it can the path leave through 1-4
    pg = build_catalog_product("K3xK3")
    mask = mask_from_edges(pg, [(6, 3), (3, 0), (0, 1), (0, 2), (1, 2), (1, 4)])
    mate = [-1] * pg.n
    for u, v in ((3, 0), (1, 2)):
        mate[u], mate[v] = v, u
    assert _augment_once(pg, mask, mate, root=6)
    size = sum(1 for v, w in enumerate(mate) if w > v)
    assert size == (pg.n - brute_deficiency(pg, mask)) // 2 == 3


def test_solver_matches_brute_on_blossom_forcing_masks():
    # the greedy warm start leaves both path ends exposed, and every
    # augmenting path between them needs a contracted blossom
    hosts = {n: build_product((BaseGraphSpec.complete(n),)) for n in (10, 12)}
    for i in range(40):
        edges = blossom_edges(Xoshiro256StarStar(derive_trial_seed(2026, i)))
        pg = hosts[1 + max(v for _, v in edges)]
        mask = mask_from_edges(pg, edges)
        assert tutte_berge_deficiency(pg, mask) == brute_deficiency(pg, mask) == 0


def test_augment_leaves_the_cached_identity_unshared():
    # the blossom fixture contracts 0-1-2: it must write to a copy of the
    # cached identity, or the next search starts with 0, 1 and 2 merged
    # and cannot leave the triangle 0-1-2 from 1 or 2
    test_augment_contracts_blossom()
    pg = build_catalog_product("K3xK3")
    assert matching._identity(pg.n) == list(range(pg.n))
    mask = mask_from_edges(pg, [(3, 0), (0, 1), (1, 2), (0, 2), (2, 8), (8, 5)])
    _, size = matching._solve(pg, mask)
    assert pg.n - 2 * size == brute_deficiency(pg, mask) == 3


# --- oracle equivalence --------------------------------------------------

def test_oracle_equivalence_random_masks():
    for i in range(60):
        seed = derive_trial_seed(99, i)
        gen = Xoshiro256StarStar(seed)
        order = 4 + gen.next_below(7)
        host = build_product((BaseGraphSpec.complete(order),))
        p = 0.2 + 0.6 * gen.next_double()
        mask = bernoulli_masks([gen], host.m, p)[0]
        assert tutte_berge_deficiency(host, mask) == brute_deficiency(host, mask)


@pytest.mark.parametrize("name", tiny_names(12))
def test_oracle_equivalence_catalog(name):
    pg = build_catalog_product(name)
    mask = full_mask(pg)
    assert tutte_berge_deficiency(pg, mask) == brute_deficiency(pg, mask)
    for k in range(3):
        mask = random_mask(pg, derive_trial_seed(7, k), p=0.5)
        assert tutte_berge_deficiency(pg, mask) == brute_deficiency(pg, mask)


# --- structural properties -----------------------------------------------

def test_no_augmenting_path_at_maximum():
    def augments(mate):
        return any(mate[root] < 0 and _augment_once(pg, mask, list(mate), root)
                   for root in range(pg.n))

    pg = build_catalog_product("K3xK3")
    mask = random_mask(pg, 3)
    state = maximum_matching(pg, mask)
    assert not augments(state.mate)
    if state.size > 0:
        assert augments([-1] * pg.n)


@settings(deadline=None, max_examples=60)
@given(U64)
def test_deficiency_parity_and_range(seed):
    pg = build_catalog_product("K3xK3")
    mask = random_mask(pg, seed)
    deficiency = tutte_berge_deficiency(pg, mask)
    assert 0 <= deficiency <= pg.n
    assert deficiency % 2 == pg.n % 2


@settings(deadline=None, max_examples=60)
@given(U64)
def test_adding_one_edge_grows_matching_by_at_most_one(seed):
    pg = build_catalog_product("Q3")
    gen = Xoshiro256StarStar(seed)
    mask = bernoulli_masks([gen], pg.m, 0.4)[0]
    absent = [e for e in range(pg.m) if not mask[e]]
    before = maximum_matching(pg, bytes(mask)).size
    if absent:
        eid = absent[gen.next_below(len(absent))]
        mask[eid] = 1
        after = maximum_matching(pg, bytes(mask)).size
        assert after in (before, before + 1)


@pytest.mark.parametrize("name", ["K5", "petersen", "K3xK3", "C5xK2", "C4xK3", "S3xS2"])
def test_brute_deficiency_matches_unpruned_loop(name):
    # S3xS2 = star(3) x star(2) has bipartition classes of 7 and 5, so
    # its full deficiency is reached only at a U whose removal leaves
    # isolated vertices alone
    pg = (cartesian_product([star(3), star(2)]) if name == "S3xS2"
          else build_catalog_product(name))
    masks = [bytes(pg.m), full_mask(pg)] + [
        random_mask(pg, derive_trial_seed(11, k), p=0.05 + 0.1 * k) for k in range(7)]
    for mask in masks:
        assert brute_deficiency(pg, mask) == reference_deficiency(pg, mask)


def test_brute_deficiency_cap():
    q5 = build_catalog_product("Q5")
    with pytest.raises(ValueError):
        brute_deficiency(q5, full_mask(q5))


def test_components_from_bitmasks():
    pg = build_product((BaseGraphSpec.cycle(4),))
    mask = mask_from_edges(pg, [(0, 1)])
    nbr = neighbor_bitmasks(pg, mask)
    comps = components_from_bitmasks(nbr, 0b1111)
    sizes = sorted(c.bit_count() for c in comps)
    assert sizes == [1, 1, 2]
    comps_sub = components_from_bitmasks(nbr, 0b0111)
    assert sorted(c.bit_count() for c in comps_sub) == [1, 2]
