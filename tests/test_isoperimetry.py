"""Boundary profiles, analytic lower bounds, cuts, and tree counts."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (edge_boundary, mutant, reference_min_cut, reference_profile,
                     reference_rooted_trees)
from prodperc import battery, isoperimetry
from prodperc.battery import BRIDGED_CUBIC_EDGES
from prodperc.catalog import build_catalog_product, tiny_names
from prodperc.cli import main
from prodperc.graph_core import (BaseGraph, BaseGraphSpec, TooLargeError, base_from_edges,
                                 build_base, build_product, cartesian_product,
                                 neighbor_bitmasks, star)
from prodperc.isoperimetry import (EXHAUSTIVE_MAX_VERTICES, MIN_CUT_MAX_VERTICES, BoundParams,
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
PATH_MIDDLE_LAST = BaseGraph(order=3, degree=None, adjacency=((2,), (2,), (0, 1)))


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

@pytest.mark.parametrize("name", tiny_names(MIN_CUT_MAX_VERTICES))
def test_edge_connectivity_meets_degree(name):
    pg = build_catalog_product(name)
    assert edge_connectivity(pg) == pg.d


def irregular(n: int, edges) -> BaseGraph:
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return BaseGraph(order=n, degree=None, adjacency=tuple(map(tuple, adjacency)))


def min_degree(pg) -> int:
    return min(map(int.bit_count, neighbor_bitmasks(pg)))


def clique(vertices) -> list[tuple[int, int]]:
    return [(u, v) for u in vertices for v in vertices if u < v]


def cut_cases():
    """(label, product, minimum cut, minimum degree), the cut from the
    subset oracle; in the first four the cut is below the degree."""
    bridged = base_from_edges(10, BRIDGED_CUBIC_EDGES, "bridged")
    two_k5 = irregular(10, clique(range(5)) + clique(range(5, 10)) + [(0, 5), (1, 6)])
    # K6xK2 on 0..11 and K4 on 12..15: the greedy dominating set takes
    # 0, then 6 on the same side, so the first flow alone finds no cut
    k6k2_k4 = irregular(16, clique(range(6)) + clique(range(6, 12)) + clique(range(12, 16))
                        + [(v, v + 6) for v in range(6)] + [(0, 12), (1, 13)])
    # one flow on this graph pushes a path back along an edge that
    # carries flow
    cancelling = irregular(9, [(0, 3), (0, 4), (1, 2), (1, 8), (2, 6), (2, 8), (3, 5), (3, 6),
                               (4, 5), (4, 7), (6, 7), (7, 8)])
    # the flow from 0 to 1 cancels the flow on 2-4 along 0-3-4-2-5-1,
    # then needs that edge again for 0-6-4-2-8-1, its third path
    reused = irregular(9, [(0, 2), (0, 3), (0, 6), (0, 7), (1, 4), (1, 5), (1, 8), (2, 4),
                           (2, 5), (2, 8), (3, 4), (3, 7), (4, 6), (5, 8), (6, 7)])
    return [("bridged", cartesian_product([bridged]), 1, 3),
            ("bridgedxK2", cartesian_product([bridged, build_base(BaseGraphSpec.complete(2))]), 2, 4),
            ("two K5 joined by two edges", cartesian_product([two_k5]), 2, 4),
            ("K6xK2 and K4 joined by two edges", cartesian_product([k6k2_k4]), 2, 3),
            ("a flow that cancels flow", cartesian_product([cancelling]), 2, 2),
            ("a flow that reuses a cancelled edge", cartesian_product([reused]), 3, 3),
            ("star", cartesian_product([star(4)]), 1, 1)]


def check_cuts_against_oracle(connectivity):
    for label, pg, cut, degree in cut_cases():
        assert (reference_min_cut(pg), min_degree(pg)) == (cut, degree), label
        assert connectivity(pg) == cut, label


def test_edge_connectivity_matches_oracle_cases():
    check_cuts_against_oracle(edge_connectivity)


def test_cut_oracle_catches_a_flow_to_the_first_sink_only():
    # edge_connectivity recompiled to run the flow to the second vertex
    # of the dominating set only
    first_only = mutant(isoperimetry.edge_connectivity, "for t in dominating[1:]:",
                        "for t in dominating[1:2]:")
    with pytest.raises(AssertionError, match="K6xK2 and K4"):
        check_cuts_against_oracle(first_only)


def test_cut_oracle_catches_a_cancel_that_clears_both_arcs():
    # edge_connectivity recompiled so that a cancel leaves the edge with
    # no residual arc, where it should restore both
    cleared = mutant(isoperimetry.edge_connectivity, "res[w] |= 1 << u  # cancels flow w -> u",
                     "res[u] ^= 1 << w")
    with pytest.raises(AssertionError, match="reuses a cancelled edge"):
        check_cuts_against_oracle(cleared)


# edge_connectivity recompiled to return the least degree at once
LEAST_DEGREE = ("best = min(map(int.bit_count, nbr))", "return min(map(int.bit_count, nbr))")


def test_cut_oracle_catches_a_cut_of_the_least_degree():
    # the bridged graphs' cuts lie below their degrees; verify's suite
    # cuts the bridged cubic graph x K2 for the same reason (next test)
    degree_only = mutant(isoperimetry.edge_connectivity, *LEAST_DEGREE)
    with pytest.raises(AssertionError, match="bridged"):
        check_cuts_against_oracle(degree_only)


def test_verify_cut_suite_catches_a_cut_of_the_least_degree(monkeypatch):
    monkeypatch.setattr(battery, "edge_connectivity",
                        mutant(isoperimetry.edge_connectivity, *LEAST_DEGREE))
    assert battery._suite_edge_connectivity() == (4, 1, "bridgedxK2")


@st.composite
def two_clusters(draw):
    """Two dense clusters of 3 to 7 vertices, each keeping a spanning path,
    joined by one to three crossing edges, with labels shuffled; in more
    than half the draws the minimum cut is below the least degree."""
    sizes = [draw(st.integers(3, 7)), draw(st.integers(3, 7))]
    edges = set()
    for low, size in zip((0, sizes[0]), sizes):
        pairs = [(low + i, low + j) for i in range(size) for j in range(i + 2, size)]
        dropped = draw(st.sets(st.sampled_from(pairs), max_size=2)) if pairs else set()
        edges |= {(low + i, low + i + 1) for i in range(size - 1)} | (set(pairs) - dropped)
    crossing = st.tuples(st.integers(0, sizes[0] - 1), st.integers(sizes[0], sum(sizes) - 1))
    edges |= draw(st.sets(crossing, min_size=1, max_size=3))
    label = draw(st.permutations(range(sum(sizes))))
    return irregular(sum(sizes), [(label[u], label[v]) for u, v in edges])


@settings(deadline=None)
@given(two_clusters())
def test_edge_connectivity_matches_subset_oracle(base):
    pg = cartesian_product([base])
    assert edge_connectivity(pg) == reference_min_cut(pg)


def test_cli_reports_a_cut_below_the_degree(tmp_path, capsys):
    graph = tmp_path / "bridged.txt"
    graph.write_text(f"10 {len(BRIDGED_CUBIC_EDGES)}\n"
                     + "".join(f"{u} {v}\n" for u, v in BRIDGED_CUBIC_EDGES))
    config = tmp_path / "iso.json"
    config.write_text(json.dumps({"product": [{"kind": "edge_list", "path": str(graph)},
                                              {"kind": "complete", "m": 2}]}))
    assert main(["iso", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "# agg:min_cut=2\n" in out and "# agg:min_cut_equals_d=0\n" in out


def test_edge_connectivity_edge_cases():
    assert edge_connectivity(build_product((BaseGraphSpec.complete(2),))) == 1
    # bypass the builder validation to hit the disconnected-input guard
    two_edges = BaseGraph(order=4, degree=1, adjacency=((1,), (0,), (3,), (2,)))
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
