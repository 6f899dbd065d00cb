import pytest

from hx.graphs import (
    Multigraph,
    contract,
    contract_edges,
    corank,
    delete,
    incidence_matrix,
    is_connected,
)
from hx.intlinalg import IntMatrix, rank
from hx.verify import connected_multigraphs

THETA = Multigraph(2, ((0, 1), (0, 1), (0, 1)))
TRIANGLE = Multigraph(3, ((0, 1), (1, 2), (0, 2)))


def test_incidence_single_edge():
    g = Multigraph(2, ((0, 1),))
    assert incidence_matrix(g) == IntMatrix.from_columns([[-1, 1]])


def test_incidence_loop_is_zero_column():
    g = Multigraph(1, ((0, 0),))
    assert incidence_matrix(g) == IntMatrix.zero(1, 1)


def test_incidence_theta():
    assert incidence_matrix(THETA) == IntMatrix.from_columns([[-1, 1]] * 3)


def test_is_connected():
    assert is_connected(Multigraph(1, ()))
    assert not is_connected(Multigraph(2, ()))
    assert is_connected(THETA)


def test_contract_single_edge():
    g, relabeling = contract(Multigraph(2, ((0, 1),)), 0)
    assert g == Multigraph(1, ())
    assert relabeling.edges == {}
    assert relabeling.vertices == {0: 0, 1: 0}


def test_contract_theta_edge_makes_loops():
    g, relabeling = contract(THETA, 0)
    assert g == Multigraph(1, ((0, 0), (0, 0)))
    assert relabeling.edges == {1: 0, 2: 1}


def test_contract_loop_equals_delete():
    g = Multigraph(2, ((0, 1), (1, 1)))
    contracted, _ = contract(g, 1)
    deleted, _ = delete(g, 1)
    assert contracted == deleted == Multigraph(2, ((0, 1),))


def test_delete_only_edge_disconnects():
    g, _ = delete(Multigraph(2, ((0, 1),)), 0)
    assert not is_connected(g)


def test_delete_from_theta():
    g, relabeling = delete(THETA, 2)
    assert g == Multigraph(2, ((0, 1), (0, 1)))
    assert relabeling.edges == {0: 0, 1: 1}


def test_delete_invalid_edge():
    with pytest.raises(ValueError):
        delete(THETA, 3)


def test_corank():
    assert corank(Multigraph(2, ((0, 1),))) == 0
    assert corank(THETA) == 2
    assert corank(TRIANGLE) == 1


def test_transport_chain_drops_removed_edge():
    _, relabeling = delete(THETA, 1)
    assert relabeling.transport_chain((7, 9, -3)) == (7, -3)


def test_contract_edges_collapses_cycle():
    g, relabeling = contract_edges(THETA, [0, 1])
    assert g == Multigraph(1, ((0, 0),))
    assert relabeling.edges == {2: 0}


def test_incidence_rank_and_corank_family():
    for g in connected_multigraphs(4, 5):
        r = rank(incidence_matrix(g))
        assert r == g.vertex_count - 1
        assert corank(g) == g.edge_count - r


def test_contraction_counts_family():
    for g in connected_multigraphs(4, 5):
        for e in range(g.edge_count):
            smaller, _ = contract(g, e)
            assert smaller.edge_count == g.edge_count - 1
            expected_vertices = g.vertex_count if g.is_loop(e) else g.vertex_count - 1
            assert smaller.vertex_count == expected_vertices
