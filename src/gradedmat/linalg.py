"""Exact Gaussian elimination over cyclotomic scalars.

Vectors are sequences of CycNumber, or SparseVectors for the span solver; all
routines avoid floating point.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .cyclotomic import CycNumber


class SparseVector(dict):
    """A vector of the given length holding only its nonzero coordinates, keyed by position."""

    __slots__ = ("length",)

    def __init__(self, length: int, items: Mapping[int, CycNumber]):
        super().__init__(items)
        self.length = length


Vector = Union[Sequence[CycNumber], SparseVector]
_Sparse = Dict[int, CycNumber]


def _accumulate(target: _Sparse, terms: Iterable[Tuple[int, CycNumber]]) -> None:
    """Add nonzero (position, value) terms into a sparse vector, dropping cancellations."""
    for i, x in terms:
        y = target.get(i)
        if y is None:
            target[i] = x
        else:
            y = y + x
            if y.is_zero():
                del target[i]
            else:
                target[i] = y


class SpanSolver:
    """Incremental row echelon over a list of vectors, tracking coordinates.

    Supports membership tests and exact coordinate recovery in the original
    spanning set.  Vectors may be dense sequences or SparseVectors; rows are
    kept sparse, and each pivot is the lowest nonzero position of its row.
    """

    def __init__(self, vectors: Iterable[Vector] = ()):  # vectors of equal length
        self._length: Optional[int] = None
        self._count = 0
        # pivot -> (reduced row, combination over the original vectors), in
        # insertion order; each row is reduced against all earlier rows
        self._rows: Dict[int, Tuple[_Sparse, _Sparse]] = {}
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vector: Vector, track: bool = True) -> Tuple[_Sparse, _Sparse]:
        """The vector less its projection on the rows, and minus its coordinates (if tracked)."""
        if isinstance(vector, SparseVector):
            length, vec = vector.length, dict(vector)
        else:
            length = len(vector)
            vec = {i: x for i, x in enumerate(vector) if not x.is_zero()}
        if self._length is None:
            self._length = length
        elif length != self._length:
            raise ValueError(f"vector length {length} != {self._length}")
        rows = self._rows
        combo: _Sparse = {}
        # clear pivots lowest first: a row has no entries below its pivot, so a
        # cleared position never fills again, and the residual does not depend
        # on the order because the rows are triangular in insertion order
        todo = [i for i in vec if i in rows]
        heapq.heapify(todo)
        while todo:
            pivot = heapq.heappop(todo)
            if pivot not in vec:
                continue
            row, row_combo = rows[pivot]
            factor = -vec[pivot]
            _accumulate(vec, ((i, factor * x) for i, x in row.items()))
            if track:
                _accumulate(combo, ((i, factor * x) for i, x in row_combo.items()))
            for i in row:
                if i != pivot and i in rows:
                    heapq.heappush(todo, i)
        return vec, combo

    def add(self, vector: Vector) -> bool:
        """Insert a vector; returns True when it enlarges the span."""
        vec, combo = self._reduce(vector)
        combo[self._count] = CycNumber.one()
        self._count += 1
        if not vec:
            return False
        pivot = min(vec)
        inv = vec[pivot].inverse()
        self._rows[pivot] = ({i: x * inv for i, x in vec.items()},
                             {i: x * inv for i, x in combo.items()})
        return True

    def contains(self, vector: Vector) -> bool:
        vec, _ = self._reduce(vector, track=False)
        return not vec

    def sparse_coordinates(self, vector: Vector) -> Optional[Dict[int, CycNumber]]:
        """Nonzero coefficients over the original vector list, by increasing index; None if outside the span."""
        vec, combo = self._reduce(vector)
        if vec:
            return None
        return {i: -combo[i] for i in sorted(combo)}



def independent_subset(vectors: Sequence[Vector]) -> List[int]:
    """Indices of a maximal independent subset, greedily from the front."""
    solver = SpanSolver()
    out = []
    for i, v in enumerate(vectors):
        if solver.add(v):
            out.append(i)
    return out


def rref(rows: Sequence[Vector]) -> Tuple[List[List[CycNumber]], List[int]]:
    """Reduced row echelon form and pivot columns."""
    solver = SpanSolver(rows)
    echelon = sorted((pivot, row) for pivot, (row, _) in solver._rows.items())
    # clear each pivot column from the rows above it, last pivot first
    for k in range(len(echelon) - 1, 0, -1):
        pivot, row = echelon[k]
        for _, above in echelon[:k]:
            if pivot in above:
                factor = -above[pivot]
                _accumulate(above, ((i, factor * x) for i, x in row.items()))
    zero = CycNumber.zero()
    return ([[row.get(i, zero) for i in range(solver._length)] for _, row in echelon],
            [pivot for pivot, _ in echelon])


def nullspace(rows: Sequence[Vector], ncols: int) -> List[List[CycNumber]]:
    """Basis of the solution space of the homogeneous system rows * x = 0."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    zero, one = CycNumber.zero(), CycNumber.one()
    for free in free_cols:
        vec = [zero] * ncols
        vec[free] = one
        for row, pivot in zip(reduced, pivots):
            vec[pivot] = -row[free]
        basis.append(vec)
    return basis


def solve_linear(rows: Sequence[Vector], rhs: Sequence[CycNumber]) -> Optional[List[CycNumber]]:
    """One exact solution of rows * x = rhs, or None when inconsistent."""
    if len(rows) != len(rhs):
        raise ValueError("rows and right-hand side differ in length")
    if not rows:
        return []
    ncols = len(rows[0])
    augmented = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(augmented)
    zero = CycNumber.zero()
    solution = [zero] * ncols
    for row, pivot in zip(reduced, pivots):
        if pivot == ncols:
            return None  # pivot in the constant column
        solution[pivot] = row[ncols]
    return solution
