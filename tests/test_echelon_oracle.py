"""The integer elimination kernel and what reads off it, against sympy and
against the older per-column routes kept here as independent oracles; the
Smith diagonal against sympy's full Smith form and invariant factors."""

import random

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors, smith_normal_form

from hx.intlinalg import (
    IntMatrix,
    _echelon,
    kernel_basis,
    mat_vec,
    rank,
    smith_diagonal,
)
from hx.graphs import Multigraph
from hx.spanning import fundamental_basis, lexmin_spanning_tree
from hx.verify import connected_multigraphs
from hx.winding import face_lattice_basis

BOUND = 9


def random_matrix(rng, rows, cols, bound=BOUND) -> IntMatrix:
    return IntMatrix(rows, cols, tuple(rng.randint(-bound, bound) for _ in range(rows * cols)))


def rank_deficient(rng, rows, cols) -> IntMatrix:
    """A product through a narrower inner dimension, so its rank is below min(rows, cols)."""
    inner = rng.randint(0, max(0, min(rows, cols) - 1))
    return random_matrix(rng, rows, inner, 3) @ random_matrix(rng, inner, cols, 3)


def shapes(rng):
    """0-row, 0-column, tall, wide, square and rank-deficient matrices."""
    yield IntMatrix.zero(0, 0)
    for n in range(1, 5):
        yield IntMatrix.zero(0, n)
        yield IntMatrix.zero(n, 0)
        yield IntMatrix.zero(n, n)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(5, 8)
        yield random_matrix(rng, rows, cols)
        yield random_matrix(rng, cols, rows)
        yield random_matrix(rng, rows + 1, rows + 1)
        yield rank_deficient(rng, rng.randint(1, 7), rng.randint(1, 7))


def to_sympy(m: IntMatrix) -> sympy.Matrix:
    return sympy.Matrix(m.rows, m.cols, list(m.entries))


def test_rank_and_kernel_match_sympy():
    rng = random.Random(2024)
    for m in shapes(rng):
        s = to_sympy(m)
        assert rank(m) == s.rank()
        basis = kernel_basis(m)
        assert len(basis) == m.cols - s.rank() == len(s.nullspace())
        for v in basis:
            assert all(x == 0 for x in mat_vec(m, v))
        if basis:
            # Same span: the sympy nullspace adds nothing to the rank of the basis.
            together = sympy.Matrix.hstack(sympy.Matrix([list(v) for v in basis]).T, *s.nullspace())
            assert together.rank() == len(basis)


def greedy_independent_columns(m: IntMatrix) -> IntMatrix:
    """One rank test per candidate column on the growing kept submatrix."""
    kept: list[int] = []
    for j in range(m.cols):
        candidate = kept + [j]
        if rank(IntMatrix.from_columns([m.column(c) for c in candidate], rows=m.rows)) == len(candidate):
            kept = candidate
    return IntMatrix.from_columns([m.column(c) for c in kept], rows=m.rows)


def pivot_columns(m: IntMatrix) -> IntMatrix:
    return IntMatrix.from_columns([m.column(c) for c in _echelon(m)[1]], rows=m.rows)


def test_select_independent_columns_matches_greedy_rank_loop():
    # The echelon form's pivot columns are the greedy independent subset.
    rng = random.Random(23)
    for m in shapes(rng):
        assert pivot_columns(m) == greedy_independent_columns(m)


def exact_solution(a: IntMatrix, b) -> list:
    """The unique rational x with a x = b, for a of full column rank and b in its span."""
    if a.cols == 0:
        return []
    x, free = to_sympy(a).gauss_jordan_solve(sympy.Matrix(b))
    assert free.rows == 0
    return list(x)


def kept_columns_generate(faces: IntMatrix) -> bool:
    """One exact solve per face column against the greedy independent columns."""
    kept = greedy_independent_columns(faces)
    return all(x.is_integer for j in range(faces.cols) for x in exact_solution(kept, faces.column(j)))


def same_column_lattice(a: IntMatrix, b: IntMatrix) -> bool:
    """Equal Hermite normal forms (sympy), which are unique per lattice."""
    return hermite_normal_form(to_sympy(a)) == hermite_normal_form(to_sympy(b))


def face_matrices(rng):
    """Random integer combinations of each small graph's fundamental cycles, plus the shapes above."""
    for g in connected_multigraphs(4, 6):
        cycles = fundamental_basis(g, lexmin_spanning_tree(g)).cycles
        for _ in range(6):
            columns = []
            for _ in range(rng.randint(0, 4)):
                column = [0] * g.edge_count
                for z in cycles:
                    q = rng.randint(-3, 3)
                    column = [a + q * b for a, b in zip(column, z)]
                columns.append(column)
            yield IntMatrix.from_columns(columns, rows=g.edge_count)
    yield from shapes(rng)


def assert_entries_bounded(basis: IntMatrix, faces: IntMatrix) -> None:
    """Each basis column is K h / |d| with 0 <= h_i <= |d|, so no entry exceeds r max |face entry|."""
    bound = basis.cols * max(map(abs, faces.entries), default=0)
    assert all(abs(x) <= bound for x in basis.entries)


def test_face_lattice_basis_spans_the_faces_lattice():
    rng = random.Random(41)
    echelon_branch = kept_branch = 0
    for faces in face_matrices(rng):
        basis = face_lattice_basis(faces)
        assert basis.cols == rank(faces) == rank(basis)
        assert same_column_lattice(basis, faces)
        assert_entries_bounded(basis, faces)
        if kept_columns_generate(faces):
            # The presentation is kept: the pivot columns, unchanged.
            assert basis == greedy_independent_columns(faces) == pivot_columns(faces)
            kept_branch += 1
        else:
            echelon_branch += 1
    assert echelon_branch > 0 and kept_branch > 0


def test_face_lattice_basis_of_many_faces_stays_small():
    # Twice as many random faces as the cycle rank of a 50-edge circulant:
    # without reduction modulo d, the basis entries grow to over 200 bits.
    n = 25
    g = Multigraph(n, tuple(e for i in range(n) for e in ((i, (i + 1) % n), (i, (i + 2) % n))))
    cycles = fundamental_basis(g, lexmin_spanning_tree(g)).cycles
    combo = random_matrix(random.Random(2), len(cycles), 2 * len(cycles))
    faces = IntMatrix.from_columns(cycles, rows=g.edge_count) @ combo
    basis = face_lattice_basis(faces)
    assert basis.cols == rank(faces)
    assert_entries_bounded(basis, faces)
    assert same_column_lattice(basis, faces)


def sympy_smith_diagonal(m: IntMatrix) -> tuple[int, ...]:
    return tuple(abs(int(d)) for d in invariant_factors(to_sympy(m), domain=sympy.ZZ) if d != 0)


def sympy_full_form_diagonal(m: IntMatrix) -> tuple[int, ...]:
    full = smith_normal_form(to_sympy(m), domain=sympy.ZZ)
    return tuple(abs(int(full[i, i])) for i in range(min(m.rows, m.cols)) if full[i, i] != 0)


def assert_smith_diagonal_matches(m: IntMatrix) -> None:
    diag = smith_diagonal(m)
    assert diag == sympy_full_form_diagonal(m)
    assert diag == sympy_smith_diagonal(m)


def test_smith_diagonal_matches_full_form_and_sympy():
    rng = random.Random(57)
    for m in face_matrices(rng):
        assert_smith_diagonal_matches(m)


@st.composite
def integer_matrices(draw):
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    bound = draw(st.sampled_from((1, 9, 1000, 2**55)))
    entries = draw(st.lists(st.integers(-bound, bound), min_size=rows * cols, max_size=rows * cols))
    return IntMatrix(rows, cols, tuple(entries))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_matrices())
def test_random_smith_diagonal_matches_full_form_and_sympy(m):
    assert_smith_diagonal_matches(m)


def random_unimodular(draw, n: int) -> IntMatrix:
    """A product of random elementary operations: row additions, swaps and negations."""
    u = IntMatrix.identity(n).to_rows()
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(("add", "swap", "negate")))
        if kind == "add" and i != j:
            q = draw(st.integers(-3, 3))
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        elif kind == "swap":
            u[i], u[j] = u[j], u[i]
        elif kind == "negate":
            u[i] = [-x for x in u[i]]
    return IntMatrix.from_rows(u, cols=n)


@st.composite
def planted_torsion_matrices(draw):
    """U diag(d_1, ..., d_r) V for random unimodular U and V, with factors that need not divide each other."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    factors = draw(st.lists(st.integers(1, 60), min_size=1, max_size=min(rows, cols)))
    middle = IntMatrix.zero(rows, cols).to_rows()
    for i, f in enumerate(factors):
        middle[i][i] = f
    return random_unimodular(draw, rows) @ IntMatrix.from_rows(middle, cols=cols) @ random_unimodular(draw, cols)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(planted_torsion_matrices())
def test_planted_torsion_smith_diagonal_matches_sympy(m):
    assert_smith_diagonal_matches(m)
