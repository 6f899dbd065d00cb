"""Exact dense linear algebra over the integers and rationals.

Everything here is exact: matrices hold arbitrary-precision Python ints.
One forward fraction-free elimination, ``_bareiss``, does all elimination
in integers: determinants and rank are read off its triangular form, and
``_kernel_vectors`` back-substitutes the pivot entries of the kernel
vectors that kernel bases, lattice bases and the Smith modulus need; both
work in place on a list of row lists, ``to_rows()`` or a caller's own.
One extended-gcd step, ``_clear_row``, builds lattice bases and the Smith
diagonal (the invariant factors), modulo the gcd of the exposed minors.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import DimensionError

_tuple_new = tuple.__new__


class IntMatrix(namedtuple("IntMatrix", ("rows", "cols", "entries"))):
    """Immutable dense integer matrix, entries stored row-major.

    Zero-row and zero-column matrices are legal values; the 0x0 matrix acts
    as the empty product (determinant 1). The named tuple (rows, cols,
    entries) is compared and hashed as that tuple, for cache keys and set
    members; a copy or an unpickled matrix is checked again by ``__new__``.
    """

    __slots__ = ()

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __new__(cls, rows: int, cols: int, entries: tuple[int, ...]):
        self = _tuple_new(cls, (rows, cols, entries))
        self.__post_init__()
        return self

    def __reduce__(self):  # without it, pickle protocols 0 and 1 rebuild the tuple and skip __new__
        return type(self), tuple(self)

    def __post_init__(self):
        """The entry check of every public construction; results the library
        derives from checked matrices are built by ``_matrix`` without it."""
        rows, cols, entries = self
        if rows < 0 or cols < 0:
            raise DimensionError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise DimensionError(f"expected {rows * cols} entries, got {len(entries)}")
        if not set(map(type, entries)) <= {int}:
            bad = next(e for e in entries if type(e) is not int)
            raise DimensionError(f"matrix entries must be ints, got {type(bad).__name__}")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        """Build a matrix from a sequence of rows.

        ``cols`` disambiguates the width of a matrix with zero rows.
        """
        nrows = len(rows)
        if nrows == 0:
            return IntMatrix(0, 0 if cols is None else cols, ())
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        return IntMatrix(nrows, ncols, tuple(x for row in rows for x in row))

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        """Build a matrix whose columns are the given vectors."""
        ncols = len(columns)
        if ncols == 0:
            return IntMatrix(0 if rows is None else rows, 0, ())
        nrows = len(columns[0])
        if any(len(c) != nrows for c in columns):
            raise DimensionError("ragged columns")
        return IntMatrix(nrows, ncols, tuple(chain.from_iterable(zip(*columns))))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def to_rows(self) -> list[list[int]]:
        if not self.cols:
            return [[] for _ in range(self.rows)]
        # One iterator zipped with itself: each tuple takes the next cols entries.
        return list(map(list, zip(*[iter(self.entries)] * self.cols)))

    def transpose(self) -> "IntMatrix":
        return _matrix(self.cols, self.rows, tuple(chain.from_iterable(map(self.column, range(self.cols)))))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, k, m = self.rows, self.cols, other.cols
        left, right = self.entries, other.entries
        out = [0] * (n * m)
        for i in range(n):
            base = i * k
            for t in range(k):
                a = left[base + t]
                if a:
                    ob = t * m
                    rbase = i * m
                    for j in range(m):
                        out[rbase + j] += a * right[ob + j]
        return _matrix(n, m, tuple(out))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("cannot add matrices of different shapes")
        return _matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def select_rows(self, indices: Sequence[int]) -> "IntMatrix":
        """Rows in the given order (repeats and reorders allowed)."""
        if indices and not (0 <= min(indices) and max(indices) < self.rows):
            raise IndexError(f"row indices must lie in 0..{self.rows - 1}")
        return _matrix(
            len(indices), self.cols, tuple(x for i in indices for x in self.row(i))
        )

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)


def _matrix(rows: int, cols: int, entries: tuple[int, ...]) -> IntMatrix:
    """An ``IntMatrix`` built without ``__post_init__``'s check, for results the
    library computes from matrices already checked, whose shape and int
    entries hold by construction."""
    return _tuple_new(IntMatrix, (rows, cols, entries))


def _from_columns(columns: Sequence[Sequence[int]], rows: int) -> IntMatrix:
    """``IntMatrix.from_columns`` built by ``_matrix``, for equal-length
    columns of ints that the library computed."""
    return _matrix(rows, len(columns), tuple(chain.from_iterable(zip(*columns))))


def vstack(top: IntMatrix, bottom: IntMatrix) -> IntMatrix:
    if top.cols != bottom.cols:
        raise DimensionError("column counts differ")
    return _matrix(top.rows + bottom.rows, top.cols, top.entries + bottom.entries)


def mat_vec(m: IntMatrix, vec: Sequence) -> list:
    """Multiply by a vector with int or Fraction entries (exact).

    Each output entry is one row slice dotted with the vector. To apply a
    graph's boundary, ``graphs.boundary`` is one pass over the edges.
    """
    if len(vec) != m.cols:
        raise DimensionError(f"vector length {len(vec)} != {m.cols} columns")
    c, entries = m.cols, m.entries
    return [sum(map(mul, entries[i * c : (i + 1) * c], vec)) for i in range(m.rows)]


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise DimensionError("vector lengths differ")
    return sum(map(mul, u, v))


def _bareiss(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int], int]:
    """Forward fraction-free elimination over Z (Bareiss, 1968), the one
    elimination loop of the library; everything else is read off its form.

    Eliminates row lists of length ncols in place (reordering, overwriting
    or replacing rows); returns (rows, pivot columns, d). Each step replaces
    every row below the pivot row by (p * row - row[c] * pivot_row) // prev
    past the pivot column c, where p is the new pivot and prev the last one;
    every division is exact because each entry is a minor of the input. A
    row swapped into pivot position is negated, so every row operation has
    determinant 1 and the last pivot d is the minor of the pivot rows and
    columns with its sign, the determinant of an invertible square matrix.
    Columns end zero below their pivots, rows past them zero; d is 1 with no pivot.

    With row[c] = 0 the step only scales the row by p / prev, which is put
    off (Lee and Saunders, J. Symbolic Comput. 19, 1995): a row last updated
    at pivot s divides by s, not prev, and is scaled by prev / s as a pivot.
    A zero row is never updated and never a pivot, so at the first column
    without a pivot the rows with a nonzero entry are counted, once, and the
    walk over the columns stops when each of them holds a pivot.
    """
    nrows = len(rows)
    scale = [1] * nrows  # the pivot each row was last updated at
    pivots: list[int] = []
    prev = 1
    r = 0
    live = None  # the pivot rows and the nonzero rows below them, once counted
    for c in range(ncols if nrows else 0):
        i = next((i for i in range(r, nrows) if rows[i][c]), None)
        if i is None:
            if live is None:
                live = r + sum(map(any, rows[r:]))
            if r == live:
                break
            continue
        top, s = rows[i], scale[i]
        rows[i], scale[i] = rows[r], scale[r]
        if i != r or s != prev:  # a row swapped in is negated, a stale one brought up to date
            top = [(x if i == r else -x) * prev // s for x in top]
        rows[r] = top
        p = top[c]
        pivots.append(c)
        r += 1
        if r == nrows or r == live:
            return rows, pivots, p
        for i in range(r, nrows):
            f = rows[i][c]
            if f:
                row, s = rows[i], scale[i]
                for j in range(c + 1, ncols):
                    row[j] = (row[j] * p - f * top[j]) // s
                row[c], scale[i] = 0, p
        prev = p
    return rows, pivots, prev


def det(m: IntMatrix) -> int:
    """Exact determinant: the last pivot of ``_bareiss``, or 0 when a column
    has none. The 0x0 determinant is 1 (empty product)."""
    if m.rows != m.cols:
        raise DimensionError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    _, pivots, d = _bareiss(m.to_rows(), m.cols)
    return d if len(pivots) == m.rows else 0


def rank(m: IntMatrix) -> int:
    """Rank over Q."""
    return len(_bareiss(m.to_rows(), m.cols)[1])


def _kernel_vectors(rows: list[list[int]], ncols: int) -> tuple[list[int], int, Iterator[tuple[int, list[int]]]]:
    """The pivot columns and d of ``_bareiss`` on the rows, in place, and a
    generator that yields, for each free column j in ascending order, j and
    the r pivot entries, in pivot order, of the kernel vector that is d at j
    and 0 at the other free columns (d times a kernel basis vector over Q).

    Fraction-free back substitution (Nakos, Turner and Williams, ACM SIGSAM
    Bull. 31, 1997) fills them from the last pivot row up, with a table of
    the pivot rows built once a vector is read: x_p = -(row[j] d + sum over
    the later pivots q of row[q] x_q) // row[p], O(r^2) per free column. By
    Cramer's rule each entry is minus the pivot minor with its pivot column
    replaced by column j, an integer, so every division is exact.
    """
    rows, pivots, d = _bareiss(rows, ncols)

    def substitute() -> Iterator[tuple[int, list[int]]]:
        # Each pivot row, last first: its pivot, its entries at the later pivots (last first), the row.
        back = [(row[p], [row[q] for q in pivots[:i:-1]], row) for i, (p, row) in enumerate(zip(pivots, rows))][::-1]
        for j in sorted(set(range(ncols)) - set(pivots)):
            x: list[int] = []  # entries at the pivots already filled, last first
            for p, later, row in back:
                x.append(-(row[j] * d + sum(map(mul, later, x))) // p)
            yield j, x[::-1]

    return pivots, d, substitute()


def _primitive(vec: Sequence) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector, first nonzero positive."""
    denom = math.lcm(*(x.denominator for x in vec)) if vec else 1
    ints = [int(x * denom) for x in vec]
    g = math.gcd(*ints) if ints else 0
    if g > 1:
        ints = [x // g for x in ints]
    first = next((x for x in ints if x != 0), 0)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the rational kernel as primitive integer vectors.

    One vector per free column of the echelon form, ordered by free column
    index; each is scaled primitive with its first nonzero entry positive.
    """
    pivots, d, kernel = _kernel_vectors(m.to_rows(), m.cols)
    vectors = ({**dict(zip(pivots, x)), j: d} for j, x in kernel)
    return [_primitive([v.get(c, 0) for c in range(m.cols)]) for v in vectors]


def gcd_of_vector(vec: Iterable[int]) -> int:
    """gcd of absolute values; 0 for an empty or all-zero vector."""
    return math.gcd(*(int(x) for x in vec)) if vec else 0


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    g, r = a, b
    while r:
        q = g // r
        g, r = r, g - q * r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if g < 0:
        g, x0, y0 = -g, -x0, -y0
    return g, x0, y0


def _clear_row(columns: list[list[int]], i: int) -> None:
    """Column operations of determinant 1, in place, that leave row i nonzero
    only in the last column, which ends with +-gcd of the row there.

    Each earlier column j is paired with the last by one extended-gcd step
    (Cohen, *A Course in Computational Algebraic Number Theory*, 2.4): with
    g = x a + y b for a, b their entries in row i, they become
    (b/g) col_j - (a/g) col_last and x col_j + y col_last. When b divides a,
    ``_xgcd`` gives x = 0, so the last column is kept as it is.
    """
    for j in range(len(columns) - 1):
        lead = columns[j][i]
        if lead == 0:
            continue
        col_j, col_last = columns[j], columns[-1]
        gg, x, y = _xgcd(lead, col_last[i])
        lead_g, corner_g = lead // gg, col_last[i] // gg
        columns[j] = [corner_g * p - lead_g * q for p, q in zip(col_j, col_last)]
        columns[-1] = [x * p + y * q for p, q in zip(col_j, col_last)]


def smith_diagonal(m: IntMatrix) -> tuple[int, ...]:
    """The invariant factors d_1 | d_2 | ... | d_r of the Smith normal form.

    ``_kernel_vectors`` of the wider of m and m^T exposes r x r minors, d
    and the kernel vectors' entries, whose gcd D is a multiple of d_1 ...
    d_r (for m x (m - 1) of full rank, the gcd of all maximal minors: a
    unicyclizer's torsion order, and with D = 1 no elimination step runs).
    The columns of m and of D I span a lattice with invariant factors (d_1,
    ..., d_r, D, ..., D), whose Smith form runs with every entry reduced mod D
    (Domich, Kannan and Trotter, Math. Oper. Res. 12, 1987; Cohen, *A Course
    in Computational Algebraic Number Theory*, 2.4). The pivot is the last
    entry: ``_clear_row`` clears its row, and while the pivot does not
    divide its column the matrix is transposed (same Smith form) and cleared
    again, each time to a strictly smaller pivot. Each pivot p gives the
    factor gcd(p, D), and pairwise gcd/lcm steps order them into a chain, as
    diag(a, b) is equivalent to diag(gcd, lcm).
    """
    rows = list(map(list, map(m.column, range(m.cols)))) if m.rows > m.cols else m.to_rows()  # m^T's rows: m's columns
    pivots, d, kernel = _kernel_vectors(rows, max(m.rows, m.cols))
    modulus = abs(d)
    for _, x in kernel:
        if modulus == 1:
            break
        modulus = math.gcd(modulus, *x)
    if modulus == 1:  # every factor divides 1: no elimination
        return (1,) * len(pivots)
    vectors = [[x % modulus for x in m.column(j)] for j in range(m.cols)]
    diagonal = []
    while vectors and vectors[0]:
        _clear_row(vectors, -1)
        pivot = vectors[-1]
        if math.gcd(*pivot) != pivot[-1]:
            vectors = [[x % modulus for x in row] for row in zip(*vectors)]
            continue
        diagonal.append(math.gcd(pivot[-1], modulus))
        vectors = [[x % modulus for x in v[:-1]] for v in vectors[:-1]]
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            diagonal[i], diagonal[j] = math.gcd(a, b), math.lcm(a, b)
    return tuple(diagonal[: len(pivots)])
