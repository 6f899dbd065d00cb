"""Finite chain complexes with integer boundary maps.

Chains are plain coefficient sequences (ints, or Fractions where a rational
value makes sense); the complex stores one boundary matrix per positive
dimension and treats out-of-range boundary maps as zero maps with the
appropriate empty shape. The complex of a graph and its faces also has
``graph_homology``, which works on the edge list and never builds the
incidence matrix.
"""

from __future__ import annotations

from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import DimensionError
from .graphs import Multigraph, _forest, are_cycles
from .intlinalg import IntMatrix, kernel_basis, mat_vec, rank, smith_diagonal, vstack

if TYPE_CHECKING:
    from fractions import Fraction


class ChainComplex(NamedTuple):
    """Cell counts per dimension plus boundary maps d_1 .. d_d."""

    dims: tuple[int, ...]
    boundaries: tuple[IntMatrix, ...]

    @property
    def dimension(self) -> int:
        return len(self.dims) - 1

    def boundary(self, i: int) -> IntMatrix:
        """The i-th boundary map; zero maps of the right shape out of range."""
        if 1 <= i <= self.dimension:
            return self.boundaries[i - 1]
        if i <= 0:
            return IntMatrix.zero(0, self.dims[0])
        return IntMatrix.zero(self.dims[-1], 0)

    def check_dim(self, i: int) -> None:
        if not (0 <= i <= self.dimension):
            raise DimensionError(f"dimension {i} out of range 0..{self.dimension}")


class HomologyGroup(NamedTuple):
    """Free rank plus the invariant factors larger than one."""

    rank: int
    torsion: tuple[int, ...]


def new_complex(dims: Sequence[int], boundaries: Sequence[IntMatrix]) -> ChainComplex:
    """Validate shapes and the boundary-of-boundary condition."""
    dims = tuple(int(d) for d in dims)
    boundaries = tuple(boundaries)
    if not dims:
        raise DimensionError("a complex needs at least dimension 0")
    if any(d < 0 for d in dims):
        raise DimensionError("cell counts must be nonnegative")
    if len(boundaries) != len(dims) - 1:
        raise DimensionError(
            f"expected {len(dims) - 1} boundary maps for {len(dims)} dimensions, got {len(boundaries)}"
        )
    for i, b in enumerate(boundaries, start=1):
        if (b.rows, b.cols) != (dims[i - 1], dims[i]):
            raise DimensionError(
                f"boundary {i} has shape {b.rows}x{b.cols}, expected {dims[i - 1]}x{dims[i]}"
            )
    for i in range(1, len(boundaries)):
        if not (boundaries[i - 1] @ boundaries[i]).is_zero():
            raise DimensionError(f"boundary {i} composed with boundary {i + 1} is nonzero")
    return ChainComplex(dims=dims, boundaries=boundaries)


def complex_from_boundaries(*boundaries: IntMatrix) -> ChainComplex:
    """Convenience wrapper deriving the cell counts from the matrix shapes."""
    if not boundaries:
        raise DimensionError("need at least one boundary map")
    dims = [boundaries[0].rows] + [b.cols for b in boundaries]
    return new_complex(dims, boundaries)


def laplacian(x: ChainComplex, i: int) -> IntMatrix:
    """The combinatorial Laplacian at dimension i (a symmetric matrix)."""
    x.check_dim(i)
    down = x.boundary(i)
    up = x.boundary(i + 1)
    return down.transpose() @ down + up @ up.transpose()


def harmonic_basis(x: ChainComplex, i: int) -> list[tuple[int, ...]]:
    """Basis of the harmonic space at dimension i.

    Computed as the kernel of the i-th boundary stacked on the transposed
    (i+1)-st boundary, which is exact over Q; vectors come back primitive.
    """
    x.check_dim(i)
    stacked = vstack(x.boundary(i), x.boundary(i + 1).transpose())
    return kernel_basis(stacked)


def homology_group(x: ChainComplex, i: int) -> HomologyGroup:
    """Free rank and torsion of the i-th integral homology group.

    rank H_i = dim C_i - rank d_i - rank d_{i+1}. The cycles are a direct
    summand of the chains, because the boundaries one dimension down form a
    free group; so the torsion of H_i is the torsion of the cokernel of the
    (i+1)-st boundary, its invariant factors above 1 (Munkres, *Elements of
    Algebraic Topology*, §11).
    """
    x.check_dim(i)
    up = x.boundary(i + 1)
    return _cokernel(up, range(up.rows), x.dims[i] - rank(x.boundary(i)))


def _cokernel(up: IntMatrix, rows, cycle_rank: int) -> HomologyGroup:
    """H_i from the rank of the cycles and the boundaries, the columns of up
    at the given rows: coordinates in a free group that has the cycles as a
    direct summand, so the torsion is the invariant factors above 1. Zero
    rows change no invariant factor and are dropped before the Smith diagonal."""
    diag = smith_diagonal(up.select_rows([r for r in rows if any(up.row(r))]))
    return HomologyGroup(rank=cycle_rank - len(diag), torsion=tuple(v for v in diag if v > 1))


def graph_homology(g: Multigraph, faces: IntMatrix | None, i: int) -> HomologyGroup:
    """``homology_group`` of the complex (g's incidence matrix, faces), read off
    a spanning forest F of g without building the incidence matrix.

    H_0 is free of rank the component count. The fundamental cycles of the
    edges outside F are a Z-basis of the cycles, with a cycle's coordinates
    its entries at those edges; so H_1 is the cokernel of the faces' rows
    there, and H_2, the kernel of the faces, is free of rank the face count
    minus their rank. The faces must be cycles, checked once per column.
    """
    if faces is not None and not are_cycles(g, faces):
        raise DimensionError("boundary 1 composed with boundary 2 is nonzero")
    top = 1 if faces is None else 2
    if not 0 <= i <= top:
        raise DimensionError(f"dimension {i} out of range 0..{top}")
    forest = set(_forest(g.vertex_count, g.edges))
    if i == 0:
        return HomologyGroup(rank=g.vertex_count - len(forest), torsion=())
    outside = [e for e in range(g.edge_count) if e not in forest]
    if faces is None:
        return HomologyGroup(rank=len(outside), torsion=())
    if i == 2:  # zero rows change no rank, and dropping them spares their elimination
        nonzero = [e for e in outside if any(faces.row(e))]
        return HomologyGroup(rank=faces.cols - rank(faces.select_rows(nonzero)), torsion=())
    return _cokernel(faces, outside, len(outside))


def energy(coeffs: Sequence) -> int | Fraction:
    """Squared norm of a chain under the standard cellwise inner product."""
    return sum(map(mul, coeffs, coeffs))


def check_mean_value(x: ChainComplex, coeffs: Sequence) -> bool:
    """Whether a 0-chain takes the mean of its neighbors at every vertex.

    Equivalent to lying in the kernel of d_1 d_1^t; loops drop out since
    their incidence columns vanish.
    """
    if x.dimension < 1:
        raise DimensionError("mean value check needs a complex of dimension >= 1")
    if len(coeffs) != x.dims[0]:
        raise DimensionError(f"chain length {len(coeffs)} != {x.dims[0]} vertices")
    down = x.boundary(1)
    return all(v == 0 for v in mat_vec(down, mat_vec(down.transpose(), coeffs)))
