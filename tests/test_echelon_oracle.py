"""The integer elimination kernel and what reads off it, against sympy and
against the older per-column routes kept here as independent oracles; the
transform-free Smith diagonal against the full Smith form and sympy."""

import random

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors

from hx.intlinalg import (
    IntMatrix,
    kernel_basis,
    mat_vec,
    rank,
    smith_diagonal,
    smith_normal_form,
)
from hx.spanning import fundamental_basis, lexmin_spanning_tree
from hx.verify import connected_multigraphs
from hx.winding import face_lattice_basis, select_independent_columns

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


def test_select_independent_columns_matches_greedy_rank_loop():
    rng = random.Random(23)
    for m in shapes(rng):
        assert select_independent_columns(m) == greedy_independent_columns(m)


def exact_solution(a: IntMatrix, b) -> list:
    """The unique rational x with a x = b, for a of full column rank and b in its span."""
    if a.cols == 0:
        return []
    x, free = to_sympy(a).gauss_jordan_solve(sympy.Matrix(b))
    assert free.rows == 0
    return list(x)


def solve_per_column_face_lattice_basis(faces: IntMatrix) -> IntMatrix:
    """One exact solve per face column against the kept columns."""
    kept = select_independent_columns(faces)
    for j in range(faces.cols):
        if not all(x.is_integer for x in exact_solution(kept, faces.column(j))):
            snf = smith_normal_form(faces)
            columns = [[d * x for x in snf.s.column(i)] for i, d in enumerate(snf.diag)]
            return IntMatrix.from_columns(columns, rows=faces.rows)
    return kept


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


def test_face_lattice_basis_matches_solve_per_column():
    rng = random.Random(41)
    smith_branch = kept_branch = 0
    for faces in face_matrices(rng):
        basis = face_lattice_basis(faces)
        assert basis == solve_per_column_face_lattice_basis(faces)
        if basis == select_independent_columns(faces):
            kept_branch += 1
        else:
            smith_branch += 1
    assert smith_branch > 0 and kept_branch > 0


def sympy_smith_diagonal(m: IntMatrix) -> tuple[int, ...]:
    return tuple(abs(int(d)) for d in invariant_factors(to_sympy(m), domain=sympy.ZZ) if d != 0)


def assert_smith_diagonal_matches(m: IntMatrix) -> None:
    diag = smith_diagonal(m)
    assert diag == smith_normal_form(m).diag
    assert diag == sympy_smith_diagonal(m)


def test_smith_diagonal_matches_full_form_and_sympy():
    rng = random.Random(57)
    for m in face_matrices(rng):
        assert_smith_diagonal_matches(m)


@st.composite
def integer_matrices(draw):
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    bound = draw(st.sampled_from((1, 9, 1000)))
    entries = draw(st.lists(st.integers(-bound, bound), min_size=rows * cols, max_size=rows * cols))
    return IntMatrix(rows, cols, tuple(entries))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_matrices())
def test_random_smith_diagonal_matches_full_form_and_sympy(m):
    assert_smith_diagonal_matches(m)
