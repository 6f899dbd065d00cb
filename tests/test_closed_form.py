"""The closed-form standard harmonic cycle against the cycletree-sum oracle."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hx.cli import main
from hx.errors import InternalError
from hx.graphs import Multigraph
from hx.intlinalg import IntMatrix, det, dot, rank
from hx.spanning import cycletrees, fundamental_basis, lexmin_spanning_tree
from hx.verify import cycletree_sum, exhaustive_family
from hx.winding import (
    contract_unicyclization,
    cycletree_windings,
    delete_unicyclization,
    new_unicyclization,
    standard_harmonic_cycle,
    winding_difference,
    winding_number,
)


def gram_det(a):
    return det(IntMatrix.from_columns([[dot(u, v) for v in a.basis] for u in a.basis], rows=a.cycle_rank))


def assert_matches_oracle(a):
    assert standard_harmonic_cycle(a) == cycletree_sum(a)
    assert cycletree_windings(a) == tuple(winding_number(a, ct.cycle) for ct in cycletrees(a.graph))
    assert gram_det(a) == a.tree_count


def random_unicyclizer(g, rng_entries):
    """Fundamental cycles times an m x (m-1) integer matrix, or None if it is rank deficient."""
    basis = fundamental_basis(g, lexmin_spanning_tree(g))
    m = len(basis.cycles)
    combo = IntMatrix(m, m - 1, tuple(rng_entries(m * (m - 1))))
    if rank(combo) < m - 1:
        return None
    return IntMatrix.from_columns(basis.cycles, rows=g.edge_count) @ combo


def test_family_contractions_and_deletions_match_oracle():
    for g, partial in exhaustive_family(4, 6, 2, per_graph=2):
        a = new_unicyclization(g, partial)
        assert_matches_oracle(a)
        for edge in range(g.edge_count):
            if not g.is_loop(edge):
                assert_matches_oracle(contract_unicyclization(a, edge))
            if winding_difference(a, edge):
                assert_matches_oracle(delete_unicyclization(a, edge)[0])


@st.composite
def unicyclized_multigraphs(draw):
    """Connected multigraphs with 5 to 16 edges, loops and parallel edges allowed."""
    n = draw(st.integers(1, 8))
    edge_count = draw(st.integers(max(5, n), 16))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    edges += [(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(edge_count - len(edges))]
    edges = [(h, t) if draw(st.booleans()) else (t, h) for t, h in draw(st.permutations(edges))]
    g = Multigraph(n, tuple(edges))
    partial = random_unicyclizer(g, lambda size: draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size)))
    assume(partial is not None)
    return new_unicyclization(g, partial)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(unicyclized_multigraphs())
def test_random_multigraphs_match_oracle(a):
    assert_matches_oracle(a)


def test_gram_check_raises_internal_error():
    a = new_unicyclization(Multigraph(2, ((0, 1), (0, 1), (0, 1))), IntMatrix.from_columns([[1, -1, 0]]))
    with pytest.raises(InternalError):
        standard_harmonic_cycle(dataclasses.replace(a, tree_count=a.tree_count + 1))


def test_cli_past_the_enumeration_cap(tmp_path, capsys):
    n = 20
    edges = tuple(e for i in range(n) for e in ((i, (i + 1) % n), (i, (i + 2) % n)))
    g = Multigraph(n, edges)
    rng = random.Random(7)
    partial = None
    while partial is None:
        partial = random_unicyclizer(g, lambda size: [rng.randint(-2, 2) for _ in range(size)])
    path = tmp_path / "circulant-40.json"
    columns = [list(partial.column(j)) for j in range(partial.cols)]
    path.write_text(json.dumps({"vertices": n, "edges": [list(e) for e in edges], "unicyclizer": columns}))

    assert main(["lambda", str(path), "--raw-sign"]) == 0
    out = json.loads(capsys.readouterr().out)
    lam, k = out["lambda"], out["k"]
    a = new_unicyclization(g, partial)
    assert k == a.tree_count
    for z in a.basis:
        assert dot(z, lam) == k * winding_number(a, z)

    chain = [1] + [0] * (len(edges) - 1)
    assert main(["winding", str(path), "--chain=" + ",".join(map(str, chain))]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"value": str(Fraction(lam[0], k)), "cycle": False}
