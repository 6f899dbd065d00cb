"""The closed-form standard harmonic cycle against the cycletree-sum oracle."""

import json
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from hx import complexes, intlinalg, spanning, verify, winding
from hx.cli import main
from hx.errors import InternalError
from hx.graphs import Multigraph, _forest, delete, is_connected
from hx.intlinalg import IntMatrix, det, dot, rank
from hx.spanning import cycletrees, fundamental_basis, lexmin_spanning_tree, tree_number
from hx.verify import basis_cycles, cycletree_split, cycletree_sum, determinant_windings, exhaustive_family
from hx.winding import (
    contract_unicyclization,
    cycletree_windings,
    delete_unicyclization,
    harmonic_to_unicyclizer,
    new_unicyclization,
    split_standard_cycle,
    standard_harmonic_cycle,
    torsion,
    winding_difference,
    winding_number,
)


def gram_det(a):
    cycles = basis_cycles(a)
    return det(IntMatrix.from_columns([[dot(u, v) for v in cycles] for u in cycles], rows=a.cycle_rank))


def assert_matches_oracle(a):
    assert standard_harmonic_cycle(a) == cycletree_sum(a)
    assert list(cycletree_windings(a)) == determinant_windings(a, [ct.cycle for ct in cycletrees(a.graph)])
    assert gram_det(a) == a.tree_count == tree_number(a.graph)
    for edge in range(a.graph.edge_count):
        assert split_standard_cycle(a, edge) == cycletree_split(a, edge)
    assert_matches_gram_oracle(a)
    # tau comes from the covector; sympy's Smith form of the unicyclizer's coordinates is the oracle.
    coords = a.partial.select_rows(a.non_tree_edges)
    snf = smith_normal_form(sympy.Matrix(coords.rows, coords.cols, list(coords.entries)), domain=sympy.ZZ)
    diag = tuple(abs(int(snf[i, i])) for i in range(coords.cols))
    assert torsion(a) == (math.prod(diag), diag)


def random_unicyclizer(g, rng_entries):
    """Fundamental cycles times an m x (m-1) integer matrix, or None if it is rank deficient."""
    cycles = fundamental_basis(g, lexmin_spanning_tree(g))
    m = len(cycles)
    combo = IntMatrix(m, m - 1, tuple(rng_entries(m * (m - 1))))
    if rank(combo) < m - 1:
        return None
    return IntMatrix.from_columns(cycles, rows=g.edge_count) @ combo


def contract_checked(a, edge):
    """Contract the edge; every parent basis cycle keeps its winding after transport."""
    contracted = contract_unicyclization(a, edge)
    for z in basis_cycles(a):
        assert winding_number(contracted, z[:edge] + z[edge + 1 :]) == winding_number(a, z)
    return contracted


def delete_checked(a, edge):
    """Delete the edge; each basis cycle downstairs, lifted with 0 at the edge, winds n times as much upstairs."""
    smaller, n = delete_unicyclization(a, edge)
    for z in basis_cycles(smaller):
        assert winding_number(a, z[:edge] + (0,) + z[edge:]) == n * winding_number(smaller, z)
    return smaller


def test_family_contractions_and_deletions_match_oracle():
    orientations = set()
    for g, partial in exhaustive_family(4, 6, 2, per_graph=2):
        a = new_unicyclization(g, partial)
        assert_matches_oracle(a)
        for edge in range(g.edge_count):
            minors = []
            if not g.is_loop(edge):
                minors.append(contract_checked(a, edge))
            if winding_difference(a, edge):
                minors.append(delete_checked(a, edge))
            for minor in minors:
                assert_matches_oracle(minor)
                orientations.add(minor.orientation)
    assert orientations == {1, -1}


def drawn_tree(draw, g):
    """The greedy spanning forest of a drawn edge order: a spanning tree, the lexmin one only by chance."""
    order = draw(st.permutations(range(g.edge_count)))
    return [order[i] for i in _forest(g.vertex_count, [g.edges[e] for e in order])]


@st.composite
def unicyclized_multigraphs(draw):
    """Connected multigraphs with 5 to 16 edges, loops and parallel edges allowed, on a drawn basis tree."""
    n = draw(st.integers(1, 8))
    edge_count = draw(st.integers(max(5, n), 16))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    edges += [(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(edge_count - len(edges))]
    edges = [(h, t) if draw(st.booleans()) else (t, h) for t, h in draw(st.permutations(edges))]
    g = Multigraph(n, tuple(edges))
    partial = random_unicyclizer(g, lambda size: draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size)))
    assume(partial is not None)
    return new_unicyclization(g, partial, basis_tree=drawn_tree(draw, g))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(unicyclized_multigraphs())
def test_random_multigraphs_match_oracle(a):
    assert_matches_oracle(a)


@st.composite
def unicyclized_circulants(draw):
    """Circulants (i, i+1), (i, i+2) mod n with up to 30 edges, coordinates up to +-9 or +-2^40, on a drawn basis tree."""
    n = draw(st.integers(2, 15))
    bound = draw(st.sampled_from((9, 2**40)))
    g = Multigraph(n, tuple(e for i in range(n) for e in ((i, (i + 1) % n), (i, (i + 2) % n))))
    partial = random_unicyclizer(g, lambda size: draw(st.lists(st.integers(-bound, bound), min_size=size, max_size=size)))
    assume(partial is not None)
    return new_unicyclization(g, partial, basis_tree=drawn_tree(draw, g))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(unicyclized_multigraphs(), unicyclized_circulants()))
def test_covector_matches_determinant_windings(a):
    assert list(a.covector) == determinant_windings(a, basis_cycles(a))
    assert a.torsion_order == math.gcd(*a.covector)
    # The covector gcd is an oracle for the Smith diagonal, which runs modulo
    # a maximal minor that can be far larger than the torsion order.
    order, factors = torsion(a)
    assert order == a.torsion_order
    assert len(factors) == a.cycle_rank - 1 and math.prod(factors) == a.torsion_order


def random_unimodular(rng, n):
    """Row operations of determinant 1 and a row permutation applied to the identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return IntMatrix.from_rows(rows, cols=n)


def planted_torsion_instance(rng, n):
    """A circulant with 2n edges whose unicyclizer coordinates are U D V for
    unimodular U, V and D the m x (m - 1) diagonal of a random divisor chain."""
    g = Multigraph(n, tuple(e for i in range(n) for e in ((i, (i + 1) % n), (i, (i + 2) % n))))
    cycles = fundamental_basis(g, lexmin_spanning_tree(g))
    m = len(cycles)
    chain = [1]
    for _ in range(m - 2):
        chain.append(chain[-1] * rng.choice((1, 1, 1, 2, 3, 5)))
    diagonal = IntMatrix(m, m - 1, tuple(chain[i] if i == j else 0 for i in range(m) for j in range(m - 1)))
    coords = random_unimodular(rng, m) @ diagonal @ random_unimodular(rng, m - 1)
    return new_unicyclization(g, IntMatrix.from_columns(cycles, rows=g.edge_count) @ coords), tuple(chain[: m - 1])


def test_torsion_runs_modulo_the_torsion_order(monkeypatch):
    # The factors are those of the Smith form modulo a maximal minor, which
    # homology runs, on random and on planted-torsion instances.
    rng = random.Random(15)
    instances = [new_unicyclization(g, partial) for g, partial in exhaustive_family(4, 6, 3, per_graph=2)]
    for n in range(2, 13):
        a, planted = planted_torsion_instance(rng, n)
        assert torsion(a) == (math.prod(planted), planted)
        instances.append(a)
        partial = None
        while partial is None:
            partial = random_unicyclizer(a.graph, lambda size: [rng.randint(-9, 9) for _ in range(size)])
        instances.append(new_unicyclization(a.graph, partial))
    assert {a.torsion_order == 1 for a in instances} == {True, False}
    for a in instances:
        coords = a.partial.select_rows(a.non_tree_edges)
        assert torsion(a) == (a.torsion_order, intlinalg.smith_diagonal(coords))
    # Torsion-free instances take no elimination step.
    monkeypatch.setattr(intlinalg, "_clear_row", None)
    for a in instances:
        if a.torsion_order == 1:
            assert torsion(a) == (1, (1,) * (a.cycle_rank - 1))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(unicyclized_multigraphs())
def test_random_contractions_and_deletions_keep_windings(a):
    for edge in range(a.graph.edge_count):
        if not a.graph.is_loop(edge):
            contract_checked(a, edge)
        if winding_difference(a, edge):
            delete_checked(a, edge)


def test_gram_of_dependent_cycles_raises_internal_error():
    cycle = (-1, 1, 0)
    with pytest.raises(InternalError):
        verify._weighted_cycle_sum(3, [cycle, cycle], [1, 1])
    with pytest.raises(InternalError):
        verify._weighted_cycle_sum(3, [cycle, cycle], [1, 2])


def test_builds_and_splits_take_one_laplacian_elimination_and_no_gram_matrix(monkeypatch):
    # k and lambda come from one elimination of the reduced Laplacian next to
    # D x (spanning._cycle_projection); only verify's oracle builds a Gram matrix,
    # and contraction and deletion build no cycle basis.
    def forbidden(*args, **kwargs):
        raise AssertionError("a build or a split took a forbidden route")

    eliminated = []

    def counted(rows, ncols):
        eliminated.append((len(rows), ncols))
        return intlinalg._kernel_vectors(rows, ncols)

    def laplacian_eliminations(g):
        return [(g.vertex_count - 1, g.vertex_count)]

    built = []
    monkeypatch.setattr(verify, "_weighted_cycle_sum", forbidden)
    monkeypatch.setattr(winding, "tree_number", forbidden)
    monkeypatch.setattr(winding, "fundamental_basis", forbidden)
    monkeypatch.setattr(spanning, "_kernel_vectors", counted)
    for g, partial in exhaustive_family(4, 6, 2, per_graph=1):
        eliminated.clear()
        a = new_unicyclization(g, partial)
        assert eliminated == laplacian_eliminations(g)
        built.append(a)
        for edge in range(g.edge_count):
            if not g.is_loop(edge):
                eliminated.clear()
                built.append(contract_unicyclization(a, edge))
                assert eliminated == laplacian_eliminations(built[-1].graph)
            if winding_difference(a, edge):
                eliminated.clear()
                built.append(delete_unicyclization(a, edge)[0])
                assert eliminated == laplacian_eliminations(built[-1].graph)
        with pytest.MonkeyPatch.context() as splitting:
            for name in ("delete", "lexmin_spanning_tree", "fundamental_basis"):
                splitting.setattr(winding, name, forbidden)
            for edge in range(g.edge_count):
                eliminated.clear()
                with_edge, without_edge = split_standard_cycle(a, edge)
                assert eliminated == laplacian_eliminations(g)
                assert tuple(x + y for x, y in zip(with_edge, without_edge)) == a.standard_cycle
        # tree_number reads the same elimination.
        spanning.tree_number.cache_clear()
        eliminated.clear()
        assert spanning.tree_number(g) == a.tree_count
        assert eliminated == laplacian_eliminations(g)
    monkeypatch.undo()
    assert all(a.tree_count == tree_number(a.graph) == gram_det(a) for a in built)


def gram_split(a, edge):
    """The split at the edge by the Gram oracle: the fundamental cycles of the
    graph with the edge deleted, weighted by their windings here."""
    g = a.graph
    smaller = delete(g, edge)
    if is_connected(smaller):
        basis = fundamental_basis(g, {e + (e >= edge) for e in lexmin_spanning_tree(smaller)})
        cycles = [z for z in basis if z[edge] == 0]  # the edge is outside the tree: only its own cycle has it
        _, without_edge = verify._weighted_cycle_sum(g.edge_count, cycles, [winding_number(a, z) for z in cycles])
    else:  # a bridge: every cycletree goes through it
        without_edge = (0,) * g.edge_count
    return tuple(x - y for x, y in zip(a.standard_cycle, without_edge)), without_edge


def assert_matches_gram_oracle(a):
    """(k, lambda) and the split at every edge against the Gram oracle."""
    assert (a.tree_count, a.standard_cycle) == verify._weighted_cycle_sum(a.graph.edge_count, basis_cycles(a), a.covector)
    for edge in range(a.graph.edge_count):
        assert split_standard_cycle(a, edge) == gram_split(a, edge)


def test_circulants_and_a_multigraph_match_the_gram_oracle():
    rng = random.Random(21)
    instances = []
    for n in (10, 17, 23, 30):  # E = 20, 34, 46, 60, coordinates in +-9
        g = Multigraph(n, tuple(e for i in range(n) for e in ((i, (i + 1) % n), (i, (i + 2) % n))))
        partial = None
        while partial is None:
            partial = random_unicyclizer(g, lambda size: [rng.randint(-9, 9) for _ in range(size)])
        instances.append(new_unicyclization(g, partial))
    # Parallel edges, loops and the bridge (1, 2) between two parts with cycles.
    g = Multigraph(4, ((0, 1), (1, 0), (1, 1), (1, 2), (2, 3), (3, 2), (2, 2), (3, 3)))
    partial = None
    while partial is None:
        partial = random_unicyclizer(g, lambda size: [rng.randint(-3, 3) for _ in range(size)])
    instances.append(new_unicyclization(g, partial))
    for a in instances[:-1]:
        assert_matches_gram_oracle(a)
    assert_matches_oracle(instances[-1])
    assert split_standard_cycle(instances[-1], 3)[1] == (0,) * 8


@settings(max_examples=80, deadline=None, derandomize=True)
@given(unicyclized_multigraphs())
def test_random_harmonic_round_trip(a):
    lam = standard_harmonic_cycle(a)
    rebuilt, scale = harmonic_to_unicyclizer(a.graph, lam, a.partial)
    b = new_unicyclization(a.graph, rebuilt)
    assert tuple(scale * x for x in standard_harmonic_cycle(b)) == lam
    assert abs(scale) == a.torsion_order
    if rebuilt.cols > 0:
        assert scale == a.torsion_order
    assert b.torsion_order == 1


def test_build_lambda_and_split_need_no_smith_form_or_enumeration(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the closed-form path called a Smith form or an enumeration")

    n = 10
    circulant = Multigraph(n, tuple(e for i in range(n) for e in ((i, (i + 1) % n), (i, (i + 2) % n))))
    rng = random.Random(5)
    partial = None
    while partial is None:
        partial = random_unicyclizer(circulant, lambda size: [rng.randint(-2, 2) for _ in range(size)])
    for module in (intlinalg, complexes, winding):
        for name in ("smith_diagonal", "kernel_basis"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    monkeypatch.setattr(winding, "cycletrees", forbidden)
    for g, partial in [*exhaustive_family(4, 6, 2, per_graph=2), (circulant, partial)]:
        a = new_unicyclization(g, partial)
        lam = standard_harmonic_cycle(a)
        for edge in range(g.edge_count):
            with_edge, without_edge = split_standard_cycle(a, edge)
            assert tuple(x + y for x, y in zip(with_edge, without_edge)) == lam
        harmonic_to_unicyclizer(g, lam, partial)


def test_deletion_past_the_enumeration_cap():
    """Every deletable edge of the 18-edge circulant (i, i+1), (i, i+2) mod 9.

    The simple cycles of g - edge are the unique cycles of the cycletrees of
    g that avoid the edge, so the closed-form windings z.lambda/k checked
    here are those ``cycletree_windings`` lists, once per distinct cycle.
    """
    n = 9
    edges = tuple(e for i in range(n) for e in ((i, (i + 1) % n), (i, (i + 2) % n)))
    g = Multigraph(n, edges)
    rng = random.Random(3)
    partial = None
    while partial is None:
        partial = random_unicyclizer(g, lambda size: [rng.randint(-2, 2) for _ in range(size)])
    a = new_unicyclization(g, partial)
    cycles = {ct.cycle for ct in cycletrees(g, cap=g.edge_count)}
    deleted = 0
    for edge in range(g.edge_count):
        n_sigma = winding_difference(a, edge)
        if n_sigma == 0:
            continue
        smaller, n2 = delete_unicyclization(a, edge)
        assert n2 == n_sigma
        lam, k = standard_harmonic_cycle(smaller), smaller.tree_count
        for z in cycles:
            if z[edge]:
                continue
            transported = tuple(c for e, c in enumerate(z) if e != edge)
            w = winding_number(smaller, transported)
            assert winding_number(a, z) == n_sigma * w
            assert dot(transported, lam) == k * w
        deleted += 1
    assert deleted > 0


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
    for z in basis_cycles(a):
        assert dot(z, lam) == k * winding_number(a, z)

    chain = [1] + [0] * (len(edges) - 1)
    assert main(["winding", str(path), "--chain=" + ",".join(map(str, chain))]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"value": str(Fraction(lam[0], k)), "cycle": False}

    for flags in ([], ["--raw-sign"]):
        assert main(["lambda", str(path), *flags]) == 0
        lam = json.loads(capsys.readouterr().out)["lambda"]
        assert main(["split", str(path), "--edge", "0", *flags]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [x + y for x, y in zip(out["with_edge"], out["without_edge"])] == lam
