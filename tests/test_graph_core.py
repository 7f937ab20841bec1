"""Base graphs, products, encodings, and input validation."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import coordinates, mask_from_edges, reference_bipartition
from prodperc.catalog import build_catalog_product, tiny_names
from prodperc.graph_core import (BaseGraphSpec, DisconnectedError,
                                 GraphBuildError, MalformedEdgeListError,
                                 NonRegularError, TooLargeError, TooSmallError,
                                 base_from_edges, bipartition_signature,
                                 build_base, build_product, cartesian_product,
                                 full_mask, read_edge_list, star)


def product_of(*specs):
    return build_product(tuple(specs))


# --- base graph builders -------------------------------------------------

def test_complete_graph_parameters():
    k5 = build_base(BaseGraphSpec.complete(5))
    assert k5.order == 5
    assert k5.degree == 4
    assert all(len(k5.adjacency[v]) == 4 for v in range(5))


def test_cycle_parameters():
    c6 = build_base(BaseGraphSpec.cycle(6))
    assert c6.order == 6
    assert c6.degree == 2
    assert set(c6.adjacency[0]) == {1, 5}


def test_cycle_needs_three_vertices():
    with pytest.raises(TooSmallError):
        build_base(BaseGraphSpec.cycle(2))


def test_balanced_bipartite():
    g = build_base(BaseGraphSpec.complete_bipartite_balanced(3))
    assert g.order == 6
    assert g.degree == 3
    assert set(g.adjacency[0]) == {3, 4, 5}
    assert set(g.adjacency[4]) == {0, 1, 2}


def test_petersen_shape():
    g = build_base(BaseGraphSpec.petersen())
    assert g.order == 10
    assert g.degree == 3
    assert set(g.adjacency[0]) == {1, 4, 5}
    # inner 5-cycle steps by two
    assert set(g.adjacency[5]) == {0, 7, 8}


def test_circulant():
    g = build_base(BaseGraphSpec.circulant(7, (1, 6)))
    assert g.order == 7 and g.degree == 2
    with pytest.raises(GraphBuildError):
        build_base(BaseGraphSpec.circulant(7, (1, 2)))  # not closed under negation
    with pytest.raises(GraphBuildError):
        build_base(BaseGraphSpec.circulant(6, (0, 3)))  # zero offset
    with pytest.raises(TooSmallError):
        build_base(BaseGraphSpec.circulant(0, (1,)))  # no modulus


def test_base_from_edges_validation():
    with pytest.raises(MalformedEdgeListError):
        base_from_edges(3, [(0, 0)])
    with pytest.raises(MalformedEdgeListError):
        base_from_edges(3, [(0, 3)])
    with pytest.raises(MalformedEdgeListError):
        base_from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(DisconnectedError):
        base_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(NonRegularError):
        base_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(TooSmallError):
        base_from_edges(1, [])


def test_star_is_irregular_but_buildable():
    s3 = star(3)
    assert s3.order == 4
    assert s3.degree is None
    assert set(s3.adjacency[0]) == {1, 2, 3}


# --- spec parsing --------------------------------------------------------

def test_spec_from_dict_roundtrip():
    for spec in (BaseGraphSpec.complete(4), BaseGraphSpec.cycle(5),
                 BaseGraphSpec.complete_bipartite_balanced(2),
                 BaseGraphSpec.petersen(), BaseGraphSpec.circulant(8, (1, 3, 5, 7))):
        assert BaseGraphSpec.from_dict(spec.to_dict()) == spec


def test_spec_from_dict_rejects_unknown_kind_and_keys():
    with pytest.raises(GraphBuildError):
        BaseGraphSpec.from_dict({"kind": "moebius", "m": 5})
    with pytest.raises(GraphBuildError):
        BaseGraphSpec.from_dict({"kind": "complete", "m": 3, "r": 2})
    with pytest.raises(GraphBuildError):
        BaseGraphSpec.from_dict({"kind": "cycle"})


# --- products ------------------------------------------------------------

def test_hypercube_adjacency_is_bit_flips():
    q4 = product_of(*(BaseGraphSpec.complete(2),) * 4)
    assert q4.n == 16 and q4.d == 4 and q4.C == 2 and q4.m == 32
    for v in range(16):
        assert sorted(q4.neighbors(v)) == sorted(v ^ (1 << b) for b in range(4))


def test_mixed_product_parameters():
    pg = product_of(BaseGraphSpec.cycle(4), BaseGraphSpec.complete(3))
    assert pg.n == 12
    assert pg.d == 4
    assert pg.C == 4
    assert pg.m == 24


def test_coordinates_encode_roundtrip():
    pg = product_of(BaseGraphSpec.cycle(5), BaseGraphSpec.complete(2),
                    BaseGraphSpec.complete(3))
    assert tuple(base.order for base in pg.bases) == (5, 2, 3)
    for v in range(pg.n):
        assert sum(c * s for c, s in zip(coordinates(pg, v), pg.strides)) == v
    # digit 0 is least significant
    assert coordinates(pg, 7) == (2, 1, 0)


def test_edge_ids_are_lexicographic_ranks():
    pg = product_of(BaseGraphSpec.complete(3), BaseGraphSpec.complete(2))
    assert pg.edges == sorted(pg.edges)
    for eid, (u, v) in enumerate(pg.edges):
        assert u < v
        assert pg.adj_eid[pg.adj_off[u] + pg.neighbors(u).index(v)] == eid
        assert pg.adj_eid[pg.adj_off[v] + pg.neighbors(v).index(u)] == eid


def test_incident_edges_match_neighbor_positions():
    for pg in (product_of(BaseGraphSpec.cycle(5), BaseGraphSpec.complete(2)),
               cartesian_product([star(3), star(2)])):
        for v in range(pg.n):
            for w, eid in zip(pg.neighbors(v), pg.adj_eid[pg.adj_off[v]:pg.adj_off[v + 1]]):
                assert pg.edges[eid] == (min(v, w), max(v, w))


def test_single_factor_product_is_the_base():
    pg = product_of(BaseGraphSpec.petersen())
    assert pg.n == 10 and pg.d == 3 and pg.m == 15


def test_product_requires_regular_bases_by_default(tmp_path):
    # build_product rejects an irregular edge list; only cartesian_product,
    # given a star directly, builds an irregular product
    path = tmp_path / "path3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    with pytest.raises(NonRegularError):
        build_product((BaseGraphSpec.edge_list(str(path)),))
    pg = cartesian_product([star(3)])
    assert pg.d is None
    assert pg.n == 4


def test_vertex_cap(monkeypatch):
    monkeypatch.setenv("PPL_MAX_VERTICES", "100")
    with pytest.raises(TooLargeError):
        product_of(*(BaseGraphSpec.complete(2),) * 7)
    pg = product_of(*(BaseGraphSpec.complete(2),) * 6)
    assert pg.n == 64
    monkeypatch.setenv("PPL_MAX_VERTICES", "32")
    with pytest.raises(TooLargeError):
        product_of(*(BaseGraphSpec.complete(2),) * 6)


def test_degree_sum_equals_twice_edges():
    pg = product_of(BaseGraphSpec.cycle(5), BaseGraphSpec.complete(3))
    assert sum(len(pg.neighbors(v)) for v in range(pg.n)) == 2 * pg.m


# --- bipartition ---------------------------------------------------------

def test_bipartition_signature_cases():
    q3 = product_of(*(BaseGraphSpec.complete(2),) * 3)
    assert bipartition_signature(q3) == (4, 4)
    k3 = product_of(BaseGraphSpec.complete(3))
    assert bipartition_signature(k3) is None
    c6 = product_of(BaseGraphSpec.cycle(6))
    assert bipartition_signature(c6) == (3, 3)
    c5 = product_of(BaseGraphSpec.cycle(5))
    assert bipartition_signature(c5) is None
    s4 = cartesian_product([star(4)])
    assert bipartition_signature(s4) == (1, 4)
    for name in tiny_names(200):
        pg = build_catalog_product(name)
        assert bipartition_signature(pg) == reference_bipartition(pg), name
    for s in (2, 3, 4):
        for t in range(1, 6):
            pg = cartesian_product([star(s)] * t)
            assert bipartition_signature(pg) == reference_bipartition(pg), (s, t)
    for name in ("C5xK2", "K3xK3xK2", "C5xK2xK3", "petersenxK2"):
        assert bipartition_signature(build_catalog_product(name)) is None, name


def test_bipartition_reads_no_adjacency_arrays():
    pg = cartesian_product([star(3)] * 4)
    assert bipartition_signature(pg) == (136, 120)
    assert "adj_off" not in vars(pg)


# --- edge list files -----------------------------------------------------

def test_read_edge_list(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("# a square\n4 4\n0 1\n1 2\n\n2 3\n0 3\n")
    order, edges = read_edge_list(str(path))
    assert order == 4
    assert sorted(edges) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    pg = product_of(BaseGraphSpec.edge_list(str(path)), BaseGraphSpec.complete(2))
    assert pg.n == 8 and pg.d == 3


def test_read_edge_list_count_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 3\n0 1\n1 2\n")
    with pytest.raises(MalformedEdgeListError):
        read_edge_list(str(path))


def test_read_edge_list_malformed_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n0 1\n1 two\n")
    with pytest.raises(MalformedEdgeListError):
        read_edge_list(str(path))


# --- masks ---------------------------------------------------------------

def test_masks():
    pg = product_of(BaseGraphSpec.cycle(4))
    assert full_mask(pg) == b"\x01" * 4
    mask = mask_from_edges(pg, [(0, 1), (2, 3)])
    assert sum(mask) == 2
    assert mask[pg.edges.index((0, 1))] == 1
    assert mask[pg.edges.index((1, 2))] == 0


# --- property checks -----------------------------------------------------

SMALL_SPECS = st.sampled_from([
    BaseGraphSpec.complete(2), BaseGraphSpec.complete(3),
    BaseGraphSpec.complete(4), BaseGraphSpec.cycle(4), BaseGraphSpec.cycle(5),
    BaseGraphSpec.complete_bipartite_balanced(2),
])


@settings(deadline=None, max_examples=40)
@given(st.lists(SMALL_SPECS, min_size=1, max_size=3))
def test_product_structural_invariants(specs):
    pg = build_product(tuple(specs))
    base_orders = [b.order for b in pg.bases]
    expected_n = 1
    for o in base_orders:
        expected_n *= o
    assert pg.n == expected_n
    assert pg.d == sum(b.degree for b in pg.bases)
    assert pg.C == max(base_orders)
    assert 2 * pg.m == sum(len(pg.neighbors(v)) for v in range(pg.n))
    assert all(a < b for a, b in zip(pg.edges, pg.edges[1:]))
    # every slot's edge id, in both endpoint rows, names its endpoints
    for v in range(pg.n):
        for k in range(pg.adj_off[v], pg.adj_off[v + 1]):
            w, eid = pg.adj_flat[k], pg.adj_eid[k]
            assert pg.edges[eid] == (min(v, w), max(v, w))
    # neighbor relation is symmetric and derived from one-coordinate moves
    for v in range(0, pg.n, max(1, pg.n // 7)):
        for w in pg.neighbors(v):
            assert v in pg.neighbors(w)
            cv, cw = coordinates(pg, v), coordinates(pg, w)
            diffs = [i for i in range(len(cv)) if cv[i] != cw[i]]
            assert len(diffs) == 1
