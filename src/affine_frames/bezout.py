"""Minimal Bezout vectors and syzygy bases from pivot structure.

Both constructions read coefficients off the reduced Sylvester system of a
vector, so they are deterministic: the minimal Bezout vector is the unique
solution of ``A b = e1`` supported on pivotal columns, and each syzygy basis
element expresses a basic non-pivotal column through the pivotal columns to
its left.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ratlin
from .sylvester import SylvesterSystem, build_sylvester, flat, sylvester_matrix
from .vectors import PolyVector, RegularityError, outer_product


@dataclass(frozen=True)
class BezoutVector:
    """Vector b with <v, b> = 1 of minimal degree among all such."""

    vector: PolyVector
    degree: int


@dataclass(frozen=True)
class MuBasis:
    """Degree-ordered basis of the syzygy module of a vector.

    ``outer_product(elements)`` equals ``scale * v`` for the nonzero
    rational ``scale``.
    """

    elements: tuple[PolyVector, ...]
    scale: Fraction

    def normalized(self) -> tuple[PolyVector, ...]:
        """Elements with the last divided by ``scale``; their outer product is v."""
        *first, last = self.elements
        return (*first, last.scale(1 / self.scale))


def minimal_bezout(v: PolyVector, system: SylvesterSystem | None = None) -> BezoutVector:
    """Minimal-degree b with ``v . b = 1``, supported on pivotal columns.

    Requires the components of ``v`` to be coprime; the result is unique
    among Bezout vectors supported on the pivotal column set.
    """
    sys = system if system is not None else build_sylvester(v)
    if sys.rank != sys.nrows:  # rank A = nrows - deg gcd(v)
        raise RegularityError("components share a nonconstant factor")
    coords = [Fraction(0)] * sys.ncols
    for row, col in enumerate(sys.pivot_cols):
        coords[col - 1] = sys.reduced_e1[row]
    b = flat(coords, sys.n, sys.d)
    return BezoutVector(b, int(b.degree))


def mu_basis(v: PolyVector, system: SylvesterSystem | None = None) -> MuBasis:
    """Syzygy basis with one element per basic non-pivotal column.

    Element degrees are ascending and sum to the degree of ``v``.
    """
    sys = system if system is not None else build_sylvester(v)
    if sys.rank != sys.nrows:  # rank A = nrows - deg gcd(v)
        raise RegularityError("components share a nonconstant factor")
    if v.dim < 2:
        raise RegularityError("syzygies need dimension at least 2")
    elements = []
    for col, reduced in zip(sys.basic_nonpivot, sys.reduced_basic):
        coords = [Fraction(0)] * sys.ncols
        coords[col - 1] = Fraction(1)
        for prow, pcol in enumerate(sys.pivot_cols):
            coords[pcol - 1] = -reduced[prow]
        elements.append(flat(coords, sys.n, sys.d))
    cross = outer_product(elements)
    a, c = next((a, c) for a, c in zip(v, cross) if not a.is_zero)
    scale = c.coeff(int(a.degree)) / a.leading
    if scale == 0 or cross != v.scale(scale):
        raise RegularityError("syzygy basis is not proportional to input")
    return MuBasis(tuple(elements), scale)


def bezout_degree_search(v: PolyVector) -> int:
    """Smallest degree bound that makes ``v . b = 1`` solvable.

    Independent oracle: b of degree at most e exists exactly when e1 is in
    the span of A_e, the columns of A that encode coefficients up to degree
    e.  For a bound E it runs one forward elimination of ``[A_E | e1]``.  A
    pivot in the e1 column means no e <= E works.  Otherwise let k be the
    last row whose e1 entry is nonzero.  Eliminating the first w columns is
    the same for every prefix, and later steps only combine rows below the
    r_w pivot rows found by then, invertibly; so e1 is in the span of the
    first w columns exactly when its column is zero below row r_w, that is
    when ``pivots[k] < w``, and the minimal degree is ``pivots[k] // n``.
    The bound runs 0, 1, 3, 7, ..., capped at d.  A pass costs more than
    linearly in its width, so the passes together cost a small multiple of
    the last, whose width is about twice the answer's at most; one pass
    over all of A would cost the full width however small the answer is,
    and one pass per degree, as many passes as the answer.  The oracle
    reads only the plain matrix A and its own forward passes, never a
    :class:`SylvesterSystem`, so it stays independent of the
    pivot-supported construction and can certify minimality.
    """
    if v.is_zero:
        raise RegularityError("vector is zero")
    n, d = v.dim, int(v.degree)
    # Scaling leaves pivots alone, so A is cleared once for every prefix.
    work, _ = ratlin.clear_denominators(sylvester_matrix(v))
    bound = 0
    while True:
        width = n * (bound + 1)
        augmented = [row[:width] + [int(i == 0)] for i, row in enumerate(work)]
        pivots = ratlin.Echelon(augmented).pivots  # eliminates ``augmented``
        if width not in pivots:
            k = max(i for i, row in enumerate(augmented) if row[width])
            return pivots[k] // n
        if bound == d:
            raise RegularityError("components share a nonconstant factor")
        bound = min(2 * bound + 1, d)
