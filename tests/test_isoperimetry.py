"""Boundary profiles, analytic lower bounds, cuts, and tree counts."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import edge_boundary, reference_profile, reference_rooted_trees
from prodperc.catalog import build_catalog_product
from prodperc.graph_core import (BaseGraph, BaseGraphSpec, TooLargeError,
                                 build_base, build_product, cartesian_product)
from prodperc.isoperimetry import (EXHAUSTIVE_MAX_VERTICES, BoundParams,
                                   count_rooted_trees, edge_connectivity,
                                   exhaustive_profile, f_star, rooted_tree_bound)


# --- exact profiles ---------------------------------------------------------

def test_cube_profile_values():
    pg = build_catalog_product("Q3")
    profile = exhaustive_profile(pg)
    assert profile.f == (3, 4, 5, 4, 5, 4, 3)
    assert profile.f_of(1) == 3 and profile.f_of(7) == 3
    with pytest.raises(ValueError):
        profile.f_of(0)
    with pytest.raises(ValueError):
        profile.f_of(8)


def test_profile_witnesses_attain_their_value():
    pg = build_catalog_product("Q3")
    profile = exhaustive_profile(pg)
    assert profile.witnesses is not None
    for k in range(1, pg.n):
        witness = profile.witnesses[k - 1]
        assert len(witness) == k
        assert edge_boundary(pg, witness) == profile.f_of(k)


# the path 0-2-1: its middle vertex is the last, so the last vertex of
# a product with it has more than the least degree
PATH_MIDDLE_LAST = BaseGraph(order=3, degree=None, adjacency=((2,), (2,), (0, 1)), label="P3")


@pytest.mark.parametrize("name", ["K3xK2", "K3xK3", "C5xK2", "petersen", "P3xK3", "P3xC5",
                                  "K2xK2xK2xK2"])
def test_profile_matches_subset_oracle(name):
    # odd n and non-bipartite factors; with P3 the product is not
    # vertex-transitive, and the only (n - 1)-set without the last vertex
    # has boundary above f(n - 1); Q4 walks five vertices past the low block
    bases = {"K2": build_base(BaseGraphSpec.complete(2)),
             "K3": build_base(BaseGraphSpec.complete(3)),
             "C5": build_base(BaseGraphSpec.cycle(5)),
             "petersen": build_base(BaseGraphSpec.petersen()), "P3": PATH_MIDDLE_LAST}
    pg = cartesian_product([bases[factor] for factor in name.split("x")])
    profile = exhaustive_profile(pg)
    assert profile.f == reference_profile(pg)
    for k in range(1, pg.n):
        witness = profile.witnesses[k - 1]
        assert len(witness) == k
        assert edge_boundary(pg, witness) == profile.f_of(k)


@pytest.mark.parametrize("n", [20, EXHAUSTIVE_MAX_VERTICES])
def test_complete_graph_profile_is_k_times_n_minus_k(n):
    # degree n - 1 puts the low block's lanes past one byte
    pg = build_product([BaseGraphSpec.complete(n)])
    profile = exhaustive_profile(pg, keep_witnesses=False)
    assert profile.f == tuple(k * (n - k) for k in range(1, n))


@pytest.mark.parametrize("specs", [(BaseGraphSpec.petersen(), BaseGraphSpec.complete(2)),
                                   (BaseGraphSpec.complete(20),)],
                         ids=["petersenxK2", "K20"])
def test_witnesses_past_one_block_attain_their_value(specs):
    pg = build_product(list(specs))
    profile = exhaustive_profile(pg, keep_witnesses=True)
    for k in range(1, pg.n):
        witness = profile.witnesses[k - 1]
        assert len(witness) == k
        assert edge_boundary(pg, witness) == profile.f_of(k)
    # the walk leaves out the last vertex: witnesses holding it were
    # recorded as complements, the others as the walked subset itself
    assert {pg.n - 1 in witness for witness in profile.witnesses} == {False, True}


def test_witness_retention_defaults():
    q3 = build_catalog_product("Q3")
    assert exhaustive_profile(q3, keep_witnesses=False).witnesses is None
    big = build_catalog_product("K3xK3xK2")  # 18 vertices: profile ok, no witnesses
    profile = exhaustive_profile(big)
    assert profile.witnesses is None
    assert len(profile.f) == big.n - 1


def test_profile_size_cap():
    with pytest.raises(TooLargeError):
        exhaustive_profile(build_catalog_product("Q5"))
    over = build_product([BaseGraphSpec.complete(5), BaseGraphSpec.complete(5)])
    assert over.n == EXHAUSTIVE_MAX_VERTICES + 1
    with pytest.raises(TooLargeError):
        exhaustive_profile(over)


@pytest.mark.parametrize("name", ["Q4", "K3xK3", "C4xK3", "C5xK2"])
def test_profile_dominates_analytic_bound(name):
    pg = build_catalog_product(name)
    profile = exhaustive_profile(pg, keep_witnesses=False)
    params = BoundParams.from_product(pg, 0.5)
    for k in range(1, pg.n):
        assert profile.f_of(k) == profile.f_of(pg.n - k)
        assert profile.f_of(k) >= f_star(params, k) - 1e-9


# --- analytic bounds ----------------------------------------------------------

def test_f_star_spot_values():
    q4 = BoundParams.from_product(build_catalog_product("Q4"), 0.5)
    assert math.isclose(f_star(q4, 1), 4.0)
    q3 = BoundParams.from_product(build_catalog_product("Q3"), 0.5)
    assert math.isclose(f_star(q3, 3), 3 * (3 - math.log2(3)), rel_tol=1e-12)


def test_f_star_folds_above_half():
    params = BoundParams.from_product(build_catalog_product("K3xK3"), 0.3)
    for k in (1, 2, 3, 4):
        assert f_star(params, k) == f_star(params, params.n - k)
    with pytest.raises(ValueError):
        f_star(params, 0)
    with pytest.raises(ValueError):
        f_star(params, params.n)


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(n=1, d=3, C=2, p=0.5)
    with pytest.raises(ValueError):
        BoundParams(n=8, d=0, C=2, p=0.5)
    with pytest.raises(ValueError):
        BoundParams(n=8, d=3, C=1, p=0.5)
    with pytest.raises(ValueError):
        BoundParams(n=8, d=3, C=2, p=0.0)
    with pytest.raises(ValueError):
        BoundParams(n=8, d=3, C=2, p=1.0)


def test_component_size_thresholds():
    params = BoundParams.from_product(build_catalog_product("Q3"), 0.5)
    assert math.isclose(params.s_threshold, 8 / 3 ** 16, rel_tol=1e-12)
    assert math.isclose(params.b_threshold, 8 / 3 ** 64, rel_tol=1e-12)
    assert params.b_threshold < params.s_threshold < 1.0


# --- cuts ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["K3xK3", "Q4", "C5xC5", "K4xK3"])
def test_edge_connectivity_meets_degree(name):
    pg = build_catalog_product(name)
    assert edge_connectivity(pg) == pg.d


def test_edge_connectivity_edge_cases():
    assert edge_connectivity(build_product((BaseGraphSpec.complete(2),))) == 1
    # bypass the builder validation to hit the disconnected-input guard
    two_edges = BaseGraph(order=4, degree=1,
                          adjacency=((1,), (0,), (3,), (2,)), label="2K2")
    with pytest.raises(ValueError):
        edge_connectivity(cartesian_product([two_edges]))


def test_edge_boundary_respects_masks():
    pg = build_catalog_product("Q3")
    assert edge_boundary(pg, {0}) == 3
    assert edge_boundary(pg, {0}, mask=bytes(pg.m)) == 0
    assert edge_boundary(pg, set(range(pg.n))) == 0


# --- rooted subtree counts --------------------------------------------------------

def test_rooted_tree_counts_complete_graphs():
    k4 = build_product((BaseGraphSpec.complete(4),))
    assert count_rooted_trees(k4, 0, 1) == 1
    assert count_rooted_trees(k4, 0, 2) == 3
    assert count_rooted_trees(k4, 0, 3) == 9  # three triangles, three trees each
    k3 = build_product((BaseGraphSpec.complete(3),))
    assert count_rooted_trees(k3, 0, 3) == 3


@pytest.mark.parametrize("name", ["K4", "Q3", "petersen", "C5xK2"])
def test_rooted_tree_counts_equal_edge_subset_oracle(name):
    if name == "K4":
        pg = build_product((BaseGraphSpec.complete(4),))
    else:
        pg = build_catalog_product(name)
    for root in range(pg.n):
        for k in range(1, 5):
            assert count_rooted_trees(pg, root, k) == reference_rooted_trees(pg, root, k)


def test_rooted_tree_counts_respect_analytic_ceiling():
    for name in ("petersen", "Q3", "K5", "K3xK3"):
        pg = build_catalog_product(name)
        for k in range(1, 6):
            count = count_rooted_trees(pg, 0, k)
            assert count <= rooted_tree_bound(pg.d, k)


def test_rooted_tree_count_domain():
    pg = build_catalog_product("Q3")
    with pytest.raises(ValueError):
        count_rooted_trees(pg, 0, 0)
    with pytest.raises(ValueError):
        count_rooted_trees(pg, 0, 8)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=15))
def test_rooted_tree_count_is_root_invariant_on_transitive_graph(root):
    # Q4 is vertex transitive, so the count cannot depend on the root
    pg = build_catalog_product("Q4")
    assert count_rooted_trees(pg, root, 4) == count_rooted_trees(pg, 0, 4)
