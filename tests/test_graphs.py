import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hx.errors import DimensionError
from hx.graphs import (
    Multigraph,
    _spans,
    are_cycles,
    boundary,
    contract,
    contract_edges,
    corank,
    delete,
    incidence_matrix,
    is_connected,
)
from hx.intlinalg import IntMatrix, mat_vec, rank
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
    assert contract(Multigraph(2, ((0, 1),)), 0) == Multigraph(1, ())


def test_contract_theta_edge_makes_loops():
    assert contract(THETA, 0) == Multigraph(1, ((0, 0), (0, 0)))


def test_contract_loop_equals_delete():
    g = Multigraph(2, ((0, 1), (1, 1)))
    assert contract(g, 1) == delete(g, 1) == Multigraph(2, ((0, 1),))


def test_delete_only_edge_disconnects():
    assert not is_connected(delete(Multigraph(2, ((0, 1),)), 0))


def test_delete_from_theta():
    assert delete(THETA, 2) == Multigraph(2, ((0, 1), (0, 1)))
    assert delete(TRIANGLE, 0).edges == TRIANGLE.edges[1:]  # later edges move down one id


def test_delete_invalid_edge():
    with pytest.raises(ValueError):
        delete(THETA, 3)


def test_corank():
    assert corank(Multigraph(2, ((0, 1),))) == 0
    assert corank(THETA) == 2
    assert corank(TRIANGLE) == 1


def test_contract_edges_collapses_cycle():
    assert contract_edges(THETA, [0, 1]) == Multigraph(1, ((0, 0),))


def test_incidence_rank_and_corank_family():
    for g in connected_multigraphs(4, 5):
        r = rank(incidence_matrix(g))
        assert r == g.vertex_count - 1
        assert corank(g) == g.edge_count - r


def test_contraction_counts_family():
    for g in connected_multigraphs(4, 5):
        for e in range(g.edge_count):
            smaller = contract(g, e)
            assert smaller.edge_count == g.edge_count - 1
            expected_vertices = g.vertex_count if g.is_loop(e) else g.vertex_count - 1
            assert smaller.vertex_count == expected_vertices


@st.composite
def chains_on_multigraphs(draw):
    """A multigraph with loops and parallel edges, and an int or Fraction chain on its edges."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    edges = tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=10)))
    coefficient = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=7))
    chain = draw(st.lists(coefficient, min_size=len(edges), max_size=len(edges)))
    return Multigraph(n, edges), chain


@settings(max_examples=300, deadline=None, derandomize=True)
@given(chains_on_multigraphs())
def test_boundary_matches_incidence_product(case):
    g, chain = case
    assert boundary(g, chain) == mat_vec(incidence_matrix(g), chain)
    columns = IntMatrix.from_columns([[int(c) for c in chain]], rows=g.edge_count)
    assert are_cycles(g, columns) == (incidence_matrix(g) @ columns).is_zero()


def test_boundary_rejects_wrong_length():
    with pytest.raises(DimensionError, match="chain length 2 != 3 edges"):
        boundary(THETA, (1, -1))


def spans_by_search(vertex_count, edge_pairs):
    """Connectivity oracle: depth-first search from vertex 0."""
    adjacency = {v: [] for v in range(vertex_count)}
    for t, h in edge_pairs:
        adjacency[t].append(h)
        adjacency[h].append(t)
    seen, stack = {0}, [0]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == vertex_count


def test_spans_matches_search_oracle():
    rng = random.Random(12)
    graphs = list(connected_multigraphs(4, 5))
    graphs += [Multigraph(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 9)))) for n in rng.choices(range(1, 9), k=400)]
    outcomes = set()
    for g in graphs:
        for k in range(g.edge_count + 1):
            subset = rng.sample(g.edges, k)
            outcomes.add(_spans(g.vertex_count, subset))
            assert _spans(g.vertex_count, subset) == spans_by_search(g.vertex_count, subset)
    assert outcomes == {True, False}


def test_spans_fails_fast_on_a_huge_vertex_count():
    # Too few edges is answered before the per-vertex parent list is allocated.
    assert not _spans(10**12, [(0, 1)] * 5)
    assert not is_connected(Multigraph(10**12, ()))


def test_contract_keeps_the_lower_endpoint_family():
    for g in connected_multigraphs(4, 5):
        for e, (t, h) in enumerate(g.edges):
            smaller = contract(g, e)
            if t == h:
                assert smaller == delete(g, e)
                continue
            drop = max(t, h)
            expected = {v: min(t, h) if v == drop else v - (v > drop) for v in range(g.vertex_count)}
            assert smaller.vertex_count == g.vertex_count - 1
            assert smaller.edges == tuple((expected[a], expected[b]) for i, (a, b) in enumerate(g.edges) if i != e)
