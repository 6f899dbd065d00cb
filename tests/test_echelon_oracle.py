"""The integer elimination kernel and what reads off it, against sympy and
against the older per-column routes kept here as independent oracles."""

import random

import pytest
import sympy

import hx.intlinalg
import hx.winding
from hx.complexes import complex_from_boundaries, homology_group
from hx.errors import DimensionError
from hx.graphs import incidence_matrix
from hx.intlinalg import (
    IntMatrix,
    invert_unimodular,
    kernel_basis,
    mat_vec,
    rank,
    smith_normal_form,
    solve_exact,
)
from hx.spanning import fundamental_basis, lexmin_spanning_tree
from hx.verify import connected_multigraphs, exhaustive_family
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


def test_solve_exact_unique_solutions_match_sympy():
    rng = random.Random(7)
    solved = 0
    for _ in range(150):
        cols = rng.randint(0, 5)
        a = random_matrix(rng, cols + rng.randint(0, 3), cols)
        s = to_sympy(a)
        if s.rank() < cols:
            with pytest.raises(DimensionError):
                solve_exact(a, [0] * a.rows)
            continue
        x = [rng.randint(-BOUND, BOUND) for _ in range(cols)]
        assert solve_exact(a, mat_vec(a, x)) == x
        if a.rows == cols:
            b = [rng.randint(-BOUND, BOUND) for _ in range(cols)]
            expected = list(s.LUsolve(sympy.Matrix(b))) if cols else []
            assert solve_exact(a, b) == expected
            solved += 1
    assert solved > 20


def test_solve_exact_inconsistent_systems():
    rng = random.Random(11)
    checked = 0
    for _ in range(150):
        cols = rng.randint(1, 4)
        a = random_matrix(rng, cols + rng.randint(1, 3), cols)
        b = [rng.randint(-BOUND, BOUND) for _ in range(a.rows)]
        s = to_sympy(a)
        if s.rank() < cols:
            continue
        consistent = sympy.Matrix.hstack(s, sympy.Matrix(b)).rank() == cols
        result = solve_exact(a, b)
        if consistent:
            assert result is not None and list(s * sympy.Matrix(result)) == b
        else:
            assert result is None
            checked += 1
    assert checked > 50


def test_solve_exact_rejects_rank_deficient_systems():
    rng = random.Random(13)
    for _ in range(80):
        rows, cols = rng.randint(1, 6), rng.randint(2, 6)
        a = rank_deficient(rng, max(rows, cols), cols)
        b = mat_vec(a, [rng.randint(-BOUND, BOUND) for _ in range(cols)])
        with pytest.raises(DimensionError):
            solve_exact(a, b)


def random_unimodular(rng, n) -> IntMatrix:
    """A product of random elementary integer row operations: swaps, negations and additions."""
    rows = IntMatrix.identity(n).to_rows()
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(3)
        if kind == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 1:
            rows[i] = [-x for x in rows[i]]
        elif i != j:
            q = rng.randint(-3, 3)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows, cols=n)


def test_invert_unimodular_round_trip_matches_sympy():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(0, 6)
        u = random_unimodular(rng, n)
        inverse = invert_unimodular(u)
        assert u @ inverse == IntMatrix.identity(n) == inverse @ u
        if n:
            assert to_sympy(inverse) == to_sympy(u).inv()


def test_invert_unimodular_rejects_singular_and_determinant_two():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 6)
        u = random_unimodular(rng, n)
        doubled = IntMatrix.from_rows([[2 * x for x in u.row(0)]] + u.to_rows()[1:], cols=n)
        assert abs(to_sympy(doubled).det()) == 2
        with pytest.raises(DimensionError, match="not unimodular"):
            invert_unimodular(doubled)
        singular = rank_deficient(rng, n, n)
        with pytest.raises(DimensionError, match="singular"):
            invert_unimodular(singular)


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


def solve_per_column_face_lattice_basis(faces: IntMatrix) -> IntMatrix:
    """One exact solve per face column against the kept columns."""
    kept = select_independent_columns(faces)
    for j in range(faces.cols):
        if any(x.denominator != 1 for x in solve_exact(kept, faces.column(j))):
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


def test_homology_and_face_lattice_need_no_solve_or_unimodular_inverse(monkeypatch):
    def forbidden(*args):
        raise AssertionError("no exact solve or unimodular inverse expected")

    monkeypatch.setattr(hx.intlinalg, "invert_unimodular", forbidden)
    monkeypatch.setattr(hx.winding, "solve_exact", forbidden)
    for g, partial in exhaustive_family(4, 5, 2, per_graph=2, seed=3):
        x = complex_from_boundaries(incidence_matrix(g), partial)
        for i in range(3):
            homology_group(x, i)
    for faces in face_matrices(random.Random(43)):
        face_lattice_basis(faces)
