import random
from fractions import Fraction

import pytest
import sympy

from hx.complexes import complex_from_boundaries, graph_homology, harmonic_basis, homology_group
from hx.errors import DimensionError, UnicyclizerAxiomError
from hx.graphs import Multigraph, contract_edges, delete, incidence_matrix, is_connected
from hx.intlinalg import IntMatrix, dot, gcd_of_vector, mat_vec
from hx.spanning import cycletrees, spanning_trees, tree_number
from hx.verify import basis_cycles, cycletree_sum, exhaustive_family, verify_harmonicity, verify_inner_product
from hx.winding import (
    check_axioms,
    contract_unicyclization,
    cycle_coordinates,
    cycletree_windings,
    delete_unicyclization,
    extended_winding,
    face_lattice_basis,
    from_cw,
    harmonic_to_unicyclizer,
    new_unicyclization,
    sign_normalized,
    split_standard_cycle,
    standard_harmonic_cycle,
    standard_harmonic_cycle_grouped,
    winding_difference,
    winding_number,
    winding_report,
)

THETA = Multigraph(2, ((0, 1), (0, 1), (0, 1)))


def theta_instance(column=(1, -1, 0)):
    return new_unicyclization(THETA, IntMatrix.from_columns([list(column)]))


def cycle_graph(n):
    return Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def cycle_instance(n):
    g = cycle_graph(n)
    return new_unicyclization(g, IntMatrix.zero(n, 0))


def small_family(per_graph=4, seed=31):
    for g, partial in exhaustive_family(4, 5, 2, per_graph=per_graph, seed=seed):
        yield new_unicyclization(g, partial)


def test_new_unicyclization_theta():
    a = theta_instance()
    assert a.tree_count == 3
    assert a.torsion_order == 1 and graph_homology(THETA, a.partial, 1).torsion == ()


def test_new_unicyclization_torsion_two():
    a = theta_instance((2, -2, 0))
    assert a.torsion_order == 2 and graph_homology(THETA, a.partial, 1).torsion == (2,)


def test_new_unicyclization_empty_partial_on_cycle_graph():
    a = cycle_instance(3)
    assert a.partial.cols == 0
    assert a.torsion_order == 1 and graph_homology(a.graph, a.partial, 1) == (1, ())


def test_axiom_failures_reported_distinctly():
    with pytest.raises(UnicyclizerAxiomError) as err:
        new_unicyclization(THETA, IntMatrix.from_columns([[1, -1, 0], [2, -2, 0]]))
    assert err.value.axiom == 1
    with pytest.raises(UnicyclizerAxiomError) as err:
        new_unicyclization(THETA, IntMatrix.from_columns([[1, 0, 0]]))
    assert err.value.axiom == 2
    with pytest.raises(UnicyclizerAxiomError) as err:
        new_unicyclization(THETA, IntMatrix.zero(3, 0))
    assert err.value.axiom == 3
    checks = check_axioms(THETA, IntMatrix.zero(3, 0))
    assert [ok for _, ok, _ in checks] == [True, True, False]


def test_winding_examples():
    a = theta_instance()
    assert winding_number(a, (-1, 0, 1)) == 1
    assert winding_number(a, (1, -1, 0)) == 0
    assert winding_number(theta_instance((2, -2, 0)), (-1, 0, 1)) == 2


def test_winding_rejects_non_cycles():
    with pytest.raises(ValueError):
        winding_number(theta_instance(), (1, 0, 0))


def test_winding_vanishes_on_unicyclizer_image():
    rng = random.Random(3)
    for a in small_family(per_graph=2):
        for _ in range(5):
            coeffs = [rng.randint(-2, 2) for _ in range(a.partial.cols)]
            z = tuple(mat_vec(a.partial, coeffs))
            assert winding_number(a, z) == 0


def test_winding_image_gcd_is_torsion_order():
    for a in small_family(per_graph=4):
        image_gcd = gcd_of_vector([winding_number(a, z) for z in basis_cycles(a)])
        assert image_gcd == a.torsion_order


def test_standard_cycle_theta():
    assert standard_harmonic_cycle(theta_instance()) == (-1, -1, 2)
    assert standard_harmonic_cycle(theta_instance((2, -2, 0))) == (-2, -2, 4)


def test_standard_cycle_on_cycle_graph():
    a = cycle_instance(3)
    lam = standard_harmonic_cycle(a)
    assert lam in ((1, 1, 1), (-1, -1, -1))
    assert abs(winding_number(a, cycletrees(a.graph)[0].cycle)) == 1


def test_cycletree_windings_theta():
    assert cycletree_windings(theta_instance()) == (0, -1, -1)


def test_enumerated_sums_run_past_the_cli_cap():
    a = cycle_instance(17)
    (ct,) = cycletrees(a.graph)
    assert a.covector in ((1,), (-1,))
    assert cycletree_windings(a) == (dot(a.covector, cycle_coordinates(a, ct.cycle)),)
    assert cycletree_sum(a) == a.standard_cycle


def test_grouped_equals_plain_on_family():
    for a in small_family(per_graph=3):
        assert standard_harmonic_cycle_grouped(a) == standard_harmonic_cycle(a)


def test_grouped_coefficient_counts_cycletrees_sharing_a_cycle():
    g = Multigraph(2, ((0, 1), (0, 1), (0, 1), (0, 0)))
    a = new_unicyclization(g, IntMatrix.from_columns([[1, -1, 0, 0], [0, 1, -1, 0]]))
    loop_cycle = (0, 0, 0, 1)
    sharing = [ct for ct in cycletrees(g) if ct.cycle == loop_cycle]
    contracted = contract_edges(g, [3])
    assert len(sharing) == tree_number(contracted) == 3
    assert standard_harmonic_cycle_grouped(a) == standard_harmonic_cycle(a)


def test_split_examples():
    a = theta_instance()
    lam = standard_harmonic_cycle(a)
    with_edge, without_edge = split_standard_cycle(a, 2)
    assert with_edge == lam
    assert without_edge == (0, 0, 0)
    for edge in range(3):
        w, wo = split_standard_cycle(a, edge)
        assert tuple(x + y for x, y in zip(w, wo)) == lam


def test_split_loop_is_loop_multiple():
    g = Multigraph(1, ((0, 0), (0, 0)))
    a = new_unicyclization(g, IntMatrix.from_columns([[1, 0]]))
    for edge in range(2):
        lam_with, _ = split_standard_cycle(a, edge)
        assert all(c == 0 for e, c in enumerate(lam_with) if e != edge)


def test_split_zero_row_edge_has_empty_complement():
    a = theta_instance()
    assert winding_difference(a, 2) == 0
    _, without_edge = split_standard_cycle(a, 2)
    assert without_edge == (0, 0, 0)


def test_winding_difference_values():
    a = theta_instance()
    assert [winding_difference(a, e) for e in range(3)] == [1, 1, 0]
    b = theta_instance((2, -2, 0))
    assert [winding_difference(b, e) for e in range(3)] == [2, 2, 0]


def test_contract_preserves_windings():
    a = theta_instance()
    contracted = contract_unicyclization(a, 0)
    assert contracted.graph == Multigraph(1, ((0, 0), (0, 0)))
    for z in basis_cycles(a):
        transported = tuple(c for e, c in enumerate(z) if e != 0)
        assert winding_number(a, z) == winding_number(contracted, transported)


def test_contract_bridge_preserves_windings():
    g = Multigraph(4, ((0, 1), (1, 2), (2, 0), (2, 3)))
    a = new_unicyclization(g, IntMatrix.zero(4, 0))
    assert not is_connected(delete(g, 3))
    contracted = contract_unicyclization(a, 3)
    for z in basis_cycles(a):
        transported = tuple(c for e, c in enumerate(z) if e != 3)
        assert winding_number(a, z) == winding_number(contracted, transported)


def test_contract_rejects_loops():
    g = Multigraph(1, ((0, 0), (0, 0)))
    a = new_unicyclization(g, IntMatrix.from_columns([[1, 0]]))
    with pytest.raises(ValueError):
        contract_unicyclization(a, 0)


def test_delete_theta_examples():
    a = theta_instance()
    smaller, n = delete_unicyclization(a, 1)
    assert n == 1
    assert smaller.graph == Multigraph(2, ((0, 1), (0, 1)))
    assert winding_number(a, (-1, 0, 1)) == n * winding_number(smaller, (-1, 1))

    b = theta_instance((2, -2, 0))
    smaller, n = delete_unicyclization(b, 1)
    assert n == 2
    assert winding_number(b, (-1, 0, 1)) == n * winding_number(smaller, (-1, 1))


def test_delete_rejects_zero_row():
    with pytest.raises(ValueError):
        delete_unicyclization(theta_instance(), 2)


def test_delete_relation_on_family():
    for a in small_family(per_graph=3, seed=101):
        g = a.graph
        cycles = basis_cycles(a)
        for edge in range(g.edge_count):
            n = winding_difference(a, edge)
            if n == 0:
                continue
            smaller, n2 = delete_unicyclization(a, edge)
            assert n2 == n
            for z in cycles:
                if z[edge] != 0:
                    continue
                transported = tuple(c for e, c in enumerate(z) if e != edge)
                assert winding_number(a, z) == n * winding_number(smaller, transported)


def test_basis_change_flips_by_one_global_sign():
    for a in list(small_family(per_graph=2, seed=55))[:40]:
        g = a.graph
        trees = spanning_trees(g)
        if len(trees) > 4:
            continue
        lam = standard_harmonic_cycle(a)
        for tree in trees:
            other = new_unicyclization(g, a.partial, basis_tree=tree)
            lam2 = standard_harmonic_cycle(other)
            assert lam2 in (lam, tuple(-c for c in lam))
            sign = 1 if lam2 == lam else -1
            for z in basis_cycles(a):
                assert winding_number(other, z) == sign * winding_number(a, z)


def test_orientation_flip_leaves_standard_cycle_unchanged():
    a = theta_instance()
    total = [0] * 3
    for ct in cycletrees(a.graph):
        flipped = tuple(-c for c in ct.cycle)
        w = winding_number(a, flipped)
        for e, c in enumerate(flipped):
            total[e] += w * c
    assert tuple(total) == standard_harmonic_cycle(a)


def test_extended_winding_examples():
    a = theta_instance()
    lam = standard_harmonic_cycle(a)
    assert extended_winding(a, lam) == 2
    assert extended_winding(a, (0, 0, 1)) == Fraction(2, 3)
    assert extended_winding(a, (-1, 0, 1)) == winding_number(a, (-1, 0, 1))


def test_winding_report_values():
    a = theta_instance((2, -2, 0))
    report = winding_report(a, (-1, 0, 1))
    assert report.is_cycle and report.value == 2
    assert report.value % a.torsion_order == 0
    report = winding_report(a, (0, 0, 1))
    assert not report.is_cycle
    assert report.value == Fraction(4, 3)


def test_winding_report_cycles_lie_in_torsion_multiples():
    rng = random.Random(8)
    for a in small_family(per_graph=2, seed=77):
        cycles = basis_cycles(a)
        for _ in range(5):
            coeffs = [rng.randint(-3, 3) for _ in cycles]
            z = [0] * a.graph.edge_count
            for c, b in zip(coeffs, cycles):
                for e, v in enumerate(b):
                    z[e] += c * v
            report = winding_report(a, tuple(z))
            assert report.is_cycle
            assert report.value % a.torsion_order == 0


def test_sign_normalized():
    assert sign_normalized((-1, -1, 2)) == (1, 1, -2)
    assert sign_normalized((0, 2, -1)) == (0, 2, -1)
    assert sign_normalized((0, 0)) == (0, 0)


def test_cycle_coordinates_standard_on_basis():
    # Exercises fresh instances and (via contraction, which re-bases onto a
    # tree of the contracted graph) contracted ones.
    for a in small_family(per_graph=2, seed=9):
        cycles = basis_cycles(a)
        for i, z in enumerate(cycles):
            expected = tuple(1 if j == i else 0 for j in range(len(cycles)))
            assert cycle_coordinates(a, z) == expected
        non_loops = [e for e in range(a.graph.edge_count) if not a.graph.is_loop(e)]
        if not non_loops:
            continue
        contracted = contract_unicyclization(a, non_loops[0])
        cycles = basis_cycles(contracted)
        for i, z in enumerate(cycles):
            expected = tuple(1 if j == i else 0 for j in range(len(cycles)))
            assert cycle_coordinates(contracted, z) == expected


def test_harmonic_to_unicyclizer_round_trip():
    a = theta_instance()
    lam = standard_harmonic_cycle(a)
    rebuilt, scale = harmonic_to_unicyclizer(THETA, lam, a.partial)
    assert scale == 1
    basis = sympy.Matrix(rebuilt.rows, rebuilt.cols, list(rebuilt.entries))
    for j in range(a.partial.cols):
        coords, free = basis.gauss_jordan_solve(sympy.Matrix(a.partial.column(j)))
        assert free.rows == 0 and all(c.is_integer for c in coords)
    lam2 = standard_harmonic_cycle(new_unicyclization(THETA, rebuilt))
    assert tuple(scale * c for c in lam2) == lam


def test_harmonic_to_unicyclizer_torsion_scale():
    a = theta_instance((2, -2, 0))
    lam = standard_harmonic_cycle(a)
    rebuilt, scale = harmonic_to_unicyclizer(THETA, lam, a.partial)
    assert scale == 2
    rebuilt_instance = new_unicyclization(THETA, rebuilt)
    assert rebuilt_instance.torsion_order == 1
    assert tuple(scale * c for c in standard_harmonic_cycle(rebuilt_instance)) == lam


def test_harmonic_to_unicyclizer_rank_one_case():
    a = cycle_instance(4)
    lam = standard_harmonic_cycle(a)
    rebuilt, scale = harmonic_to_unicyclizer(a.graph, lam, a.partial)
    assert rebuilt.cols == 0
    assert scale in (1, -1)


def test_harmonic_to_unicyclizer_accepts_rationals():
    a = theta_instance()
    lam = tuple(Fraction(c, 3) for c in standard_harmonic_cycle(a))
    rebuilt, scale = harmonic_to_unicyclizer(THETA, lam, a.partial)
    assert scale == Fraction(1, 3)
    lam2 = standard_harmonic_cycle(new_unicyclization(THETA, rebuilt))
    assert tuple(scale * c for c in lam2) == lam


def test_harmonic_to_unicyclizer_errors():
    a = theta_instance()
    with pytest.raises(ValueError):
        harmonic_to_unicyclizer(THETA, (0, 0, 0), a.partial)
    with pytest.raises(ValueError):
        harmonic_to_unicyclizer(THETA, (1, 0, 0), a.partial)
    with pytest.raises(ValueError):
        harmonic_to_unicyclizer(THETA, (1, -1, 0), a.partial)


def test_from_cw_duplicate_faces_keep_one_column():
    x = complex_from_boundaries(
        incidence_matrix(THETA), IntMatrix.from_columns([[1, -1, 0], [1, -1, 0]])
    )
    a = from_cw(x)
    assert a.partial == IntMatrix.from_columns([[1, -1, 0]])


def test_from_cw_full_rank_kept():
    x = complex_from_boundaries(
        incidence_matrix(THETA), IntMatrix.from_columns([[1, -1, 0]])
    )
    assert from_cw(x).partial.cols == 1


def test_from_cw_graph_only_corank_one():
    x = complex_from_boundaries(incidence_matrix(cycle_graph(3)))
    assert from_cw(x).partial.cols == 0


def test_from_cw_rejects_wrong_rank():
    x = complex_from_boundaries(incidence_matrix(THETA))
    with pytest.raises(ValueError):
        from_cw(x)


def test_from_cw_single_vertex_loop():
    g = Multigraph(1, ((0, 0),))
    x = complex_from_boundaries(incidence_matrix(g))
    assert from_cw(x).graph == g


def test_from_cw_rejects_ambiguous_loop():
    bad = complex_from_boundaries(IntMatrix.zero(2, 1))
    with pytest.raises(ValueError):
        from_cw(bad)


def band_complex(n, k, twist):
    """A band of n squares around and k across, each cut into two triangles,
    with the boundary circles as chains.

    Vertex (i, j) is i(k+1)+j for i mod n and j in 0..k; the Moebius band
    glues (n, j) to (0, k - j) instead of (0, j). Edges are the radial
    (i, j)->(i, j+1), then the around (i, j)->(i+1, j), then the diagonal
    (i, j)->(i+1, j+1); each square p, q, r, s = (i, j), (i+1, j),
    (i+1, j+1), (i, j+1) gives the faces p->q->r->p and p->r->s->p.
    """

    def vertex(i, j):
        if i == n:
            i, j = 0, (k - j if twist else j)
        return i * (k + 1) + j

    edges = [(vertex(i, j), vertex(i, j + 1)) for i in range(n) for j in range(k)]
    edges += [(vertex(i, j), vertex(i + 1, j)) for i in range(n) for j in range(k + 1)]
    edges += [(vertex(i, j), vertex(i + 1, j + 1)) for i in range(n) for j in range(k)]
    assert len({frozenset(e) for e in edges}) == len(edges)  # a path step names one edge
    index = {e: idx for idx, e in enumerate(edges)}

    def chain(*path):
        col = [0] * len(edges)
        for u, v in zip(path, path[1:] + path[:1]):
            if (u, v) in index:
                col[index[u, v]] += 1
            else:
                col[index[v, u]] -= 1
        return col

    faces = []
    for i in range(n):
        for j in range(k):
            p, q, r, s = vertex(i, j), vertex(i + 1, j), vertex(i + 1, j + 1), vertex(i, j + 1)
            faces += [chain(p, q, r), chain(p, r, s)]
    g = Multigraph(n * (k + 1), tuple(edges))
    x = complex_from_boundaries(incidence_matrix(g), IntMatrix.from_columns(faces, rows=len(edges)))
    if twist:  # one circle: around at j = 0, then around at j = k
        return x, [chain(*[vertex(i, 0) for i in range(n)] + [vertex(i, k) for i in range(n)])]
    return x, [chain(*(vertex(i, j) for i in range(n))) for j in (0, k)]


@pytest.mark.parametrize("twist, rim_windings", [(False, [1, 1]), (True, [2])], ids=["annulus", "moebius"])
def test_from_cw_bands_match_the_oracles(twist, rim_windings):
    x, rims = band_complex(3, 1, twist)
    a = from_cw(x)
    assert a.graph.edge_count == 12 and a.cycle_rank == 7
    assert standard_harmonic_cycle(a) == cycletree_sum(a)
    assert verify_harmonicity(a).overall and verify_inner_product(a).overall
    assert homology_group(x, 1) == (1, ())
    assert [abs(winding_number(a, rim)) for rim in rims] == rim_windings


@pytest.mark.parametrize("twist", [False, True], ids=["annulus", "moebius"])
def test_band_minors_keep_windings_past_the_small_family(twist):
    # E = 80 and m = 49: contraction keeps every basis cycle's winding, and deletion
    # scales the winding of each basis cycle downstairs, lifted with 0 at the edge, by n.
    a = from_cw(band_complex(8, 3, twist)[0])
    assert a.graph.edge_count == 80 and a.cycle_rank == 49
    deleted = 0
    for edge in range(0, a.graph.edge_count, 7):
        contracted = contract_unicyclization(a, edge)
        for z in basis_cycles(a):
            assert winding_number(contracted, z[:edge] + z[edge + 1 :]) == winding_number(a, z)
        if winding_difference(a, edge):
            smaller, n = delete_unicyclization(a, edge)
            for z in basis_cycles(smaller):
                assert winding_number(a, z[:edge] + (0,) + z[edge:]) == n * winding_number(smaller, z)
            deleted += 1
    assert deleted


def test_select_independent_columns():
    # The second face is twice the first, so the kept independent columns generate every face.
    m = IntMatrix.from_columns([[1, 0], [2, 0], [0, 1]])
    assert face_lattice_basis(m) == IntMatrix.from_columns([[1, 0], [0, 1]])


def test_unicyclization_complex_shape():
    a = theta_instance()
    x = a.complex()
    assert x.dims == (2, 3, 1)
    assert harmonic_basis(x, 1) == [(1, 1, -2)]
