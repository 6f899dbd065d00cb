import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors
from test_winding import band_complex

from hx.complexes import (
    check_mean_value,
    complex_from_boundaries,
    energy,
    graph_homology,
    harmonic_basis,
    homology_group,
    laplacian,
    new_complex,
)
from hx.errors import DimensionError
from hx.graphs import Multigraph, incidence_matrix
from hx.intlinalg import IntMatrix, kernel_basis, mat_vec
from hx.verify import exhaustive_family

THETA = Multigraph(2, ((0, 1), (0, 1), (0, 1)))
THETA_D1 = incidence_matrix(THETA)


def theta_complex(face):
    return complex_from_boundaries(THETA_D1, IntMatrix.from_columns([face]))


def test_new_complex_graph_only():
    x = complex_from_boundaries(THETA_D1)
    assert x.dimension == 1
    assert x.dims == (2, 3)


def test_new_complex_with_valid_face():
    x = theta_complex([1, -1, 0])
    assert x.dims == (2, 3, 1)


def test_new_complex_rejects_nonzero_composition():
    with pytest.raises(DimensionError):
        theta_complex([1, 1, 0])


def test_new_complex_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        new_complex((2, 3), (IntMatrix.zero(3, 2),))
    with pytest.raises(DimensionError):
        new_complex((2,), (IntMatrix.zero(2, 1),))


def test_laplacian_dim0_is_degree_minus_adjacency():
    g = Multigraph(3, ((0, 1), (1, 2), (0, 2), (0, 1)))
    x = complex_from_boundaries(incidence_matrix(g))
    assert laplacian(x, 0) == IntMatrix.from_rows([[3, -2, -1], [-2, 3, -1], [-1, -1, 2]])


def test_laplacian_single_edge_dim1():
    g = Multigraph(2, ((0, 1),))
    x = complex_from_boundaries(incidence_matrix(g))
    assert laplacian(x, 1) == IntMatrix.from_rows([[2]])


def test_laplacian_theta_dim1_direct_arithmetic():
    x = theta_complex([1, -1, 0])
    d1, d2 = x.boundary(1), x.boundary(2)
    expected = d1.transpose() @ d1 + d2 @ d2.transpose()
    assert laplacian(x, 1) == expected == IntMatrix.from_rows([[3, 1, 2], [1, 3, 2], [2, 2, 2]])


def test_laplacian_out_of_range():
    with pytest.raises(DimensionError):
        laplacian(theta_complex([1, -1, 0]), 3)


def test_harmonic_basis_dim0_is_constant():
    x = complex_from_boundaries(THETA_D1)
    assert harmonic_basis(x, 0) == [(1, 1)]


def test_harmonic_basis_theta_with_face():
    assert harmonic_basis(theta_complex([1, -1, 0]), 1) == [(1, 1, -2)]


def test_harmonic_basis_of_tree_dim1_empty():
    g = Multigraph(3, ((0, 1), (1, 2)))
    assert harmonic_basis(complex_from_boundaries(incidence_matrix(g)), 1) == []


def test_homology_h0_connected():
    assert homology_group(complex_from_boundaries(THETA_D1), 0).rank == 1
    assert homology_group(complex_from_boundaries(THETA_D1), 0).torsion == ()


def test_homology_h1_torsion():
    group = homology_group(theta_complex([2, -2, 0]), 1)
    assert (group.rank, group.torsion) == (1, (2,))
    group = homology_group(theta_complex([1, -1, 0]), 1)
    assert (group.rank, group.torsion) == (1, ())


def test_energy_examples():
    assert energy(()) == 0
    assert energy((-1, -1, 2)) == 6
    assert energy((3, 3, 3, 3)) == 36
    assert energy((Fraction(1, 2), Fraction(1, 2))) == Fraction(1, 2)


def test_mean_value_examples():
    x = complex_from_boundaries(THETA_D1)
    assert check_mean_value(x, (7, 7))
    single = complex_from_boundaries(incidence_matrix(Multigraph(2, ((0, 1),))))
    assert not check_mean_value(single, (0, 1))
    path = complex_from_boundaries(incidence_matrix(Multigraph(3, ((0, 1), (1, 2)))))
    assert not check_mean_value(path, (1, 2, 3))


def test_mean_value_needs_dim1():
    point = new_complex((1,), ())
    with pytest.raises(DimensionError):
        check_mean_value(point, (1,))


def family_complexes():
    for g, partial in exhaustive_family(4, 5, 2, per_graph=3, seed=3):
        yield complex_from_boundaries(incidence_matrix(g), partial)


def seeded_complexes(count=300, seed=29):
    """Complexes whose first boundary has entries in +-3, so its echelon form
    need not have integral kernel vectors; the second boundary's columns are
    integer combinations of the first one's primitive kernel vectors."""
    rng = random.Random(seed)
    for _ in range(count):
        vertices, edges = rng.randint(1, 4), rng.randint(1, 6)
        d1 = IntMatrix(vertices, edges, tuple(rng.randint(-3, 3) for _ in range(vertices * edges)))
        kernel = kernel_basis(d1)
        columns = []
        for _ in range(rng.randint(0, 4)):
            column = [0] * edges
            for v in kernel:
                q = rng.randint(-3, 3)
                column = [a + q * b for a, b in zip(column, v)]
            columns.append(column)
        yield complex_from_boundaries(d1, IntMatrix.from_columns(columns, rows=edges))


def test_hodge_rank_equality_family():
    for x in (*family_complexes(), *seeded_complexes()):
        for i in range(x.dimension + 1):
            assert len(harmonic_basis(x, i)) == homology_group(x, i).rank


def test_harmonic_vectors_are_cycles_and_cocycles():
    for x in family_complexes():
        for i in (0, 1):
            for h in harmonic_basis(x, i):
                assert all(v == 0 for v in mat_vec(x.boundary(i), h))
                assert all(v == 0 for v in mat_vec(x.boundary(i + 1).transpose(), h))
                assert all(v == 0 for v in mat_vec(laplacian(x, i), h))


def test_torsion_matches_plain_snf_oracle():
    # Independent route: sympy's invariant factors > 1 of the raw (i+1)-boundary.
    for x in (*family_complexes(), *seeded_complexes()):
        for i in range(x.dimension + 1):
            up = x.boundary(i + 1)
            factors = invariant_factors(sympy.Matrix(up.rows, up.cols, list(up.entries)), domain=sympy.ZZ)
            assert homology_group(x, i).torsion == tuple(abs(int(d)) for d in factors if abs(d) > 1)


def test_energy_minimization_family():
    rng = random.Random(17)
    for x in family_complexes():
        for h in harmonic_basis(x, 1):
            base = energy(h)
            up = x.boundary(2)
            for _ in range(20):
                y = [rng.randint(-3, 3) for _ in range(up.cols)]
                v = mat_vec(up, y)
                assert sum(a * b for a, b in zip(h, v)) == 0
                perturbed = energy([a + b for a, b in zip(h, v)])
                assert base <= perturbed
                assert (perturbed == base) == all(b == 0 for b in v)


def test_mean_value_for_harmonic_dim0_family():
    for x in family_complexes():
        for h in harmonic_basis(x, 0):
            assert check_mean_value(x, h)


def test_kernel_of_laplacian_matches_harmonic_space():
    for x in family_complexes():
        for i in (0, 1):
            assert len(kernel_basis(laplacian(x, i))) == len(harmonic_basis(x, i))


def assert_graph_homology_matches(g, faces):
    boundaries = [incidence_matrix(g)] + ([] if faces is None else [faces])
    x = complex_from_boundaries(*boundaries)
    for i in range(x.dimension + 1):
        assert graph_homology(g, faces, i) == homology_group(x, i)
    with pytest.raises(DimensionError, match=f"^dimension {x.dimension + 1} out of range 0..{x.dimension}$"):
        graph_homology(g, faces, x.dimension + 1)


def band(twist, tripled):
    """The graph and faces of ``band_complex(8, 3, twist)``, E = 80, with its first face tripled if asked."""
    d1, faces = band_complex(8, 3, twist)[0].boundaries
    g = Multigraph(d1.rows, tuple((col.index(-1), col.index(1)) for col in map(d1.column, range(d1.cols))))
    columns = [faces.column(j) for j in range(faces.cols)]
    if tripled:
        columns[0] = [3 * v for v in columns[0]]
    return g, IntMatrix.from_columns(columns, rows=faces.rows)


@pytest.mark.parametrize("twist", [False, True], ids=["annulus", "moebius"])
@pytest.mark.parametrize("tripled, h1", [(False, (1, ())), (True, (1, (3,)))], ids=["plain", "tripled"])
def test_graph_homology_matches_generic_homology_bands(twist, tripled, h1):
    g, faces = band(twist, tripled)
    assert_graph_homology_matches(g, faces)
    assert graph_homology(g, faces, 1) == h1


def test_graph_homology_matches_generic_homology_family():
    seen = set()
    for g, partial in exhaustive_family(4, 6, 2, per_graph=20, seed=2024):
        assert_graph_homology_matches(g, partial)
        if g not in seen:
            seen.add(g)
            assert_graph_homology_matches(g, None)


@st.composite
def graph_documents(draw):
    """A multigraph, possibly disconnected and with isolated vertices, and faces
    that are integer combinations of its cycles (or no faces)."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    g = Multigraph(n, tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=9))))
    if draw(st.booleans()):
        return g, None
    cycles = kernel_basis(incidence_matrix(g))
    columns = []
    for _ in range(draw(st.integers(0, 4))):
        coefficients = draw(st.lists(st.integers(-4, 4), min_size=len(cycles), max_size=len(cycles)))
        scale = draw(st.sampled_from((1, 1, 2, 3, 6)))
        columns.append([scale * sum(c * z[e] for c, z in zip(coefficients, cycles)) for e in range(g.edge_count)])
    return g, IntMatrix.from_columns(columns, rows=g.edge_count)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graph_documents())
def test_graph_homology_matches_generic_homology_documents(case):
    assert_graph_homology_matches(*case)


def test_graph_homology_rejects_faces_that_are_not_cycles():
    faces = IntMatrix.from_columns([[1, -1, 0], [1, 0, 0]])
    with pytest.raises(DimensionError, match="^boundary 1 composed with boundary 2 is nonzero$"):
        graph_homology(THETA, faces, 1)
    with pytest.raises(DimensionError, match="^boundary 1 composed with boundary 2 is nonzero$"):
        complex_from_boundaries(THETA_D1, faces)
