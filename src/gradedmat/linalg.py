"""Exact elimination over cyclotomic scalars: one incremental echelon, SpanSolver.

Vectors are sequences of CycNumber or SparseVectors.  Membership, coordinates,
independent subsets and relations (nullspace) are all read off its reduction;
no routine uses floating point.
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


def _is_one(c: CycNumber) -> bool:
    """Whether c is the rational 1 at level 1, so that c * x is x itself."""
    return c.level == 1 and c.nums == (1,) and c.den == 1


def _add_scaled(target: _Sparse, c: CycNumber, source: Mapping[int, CycNumber]) -> None:
    """target += c * source in place, in the source's order, dropping sums that cancel.

    c is nonzero; when it is one (_is_one) the source values are added as they are.
    """
    one = _is_one(c)
    for i, x in source.items():
        if not one:
            x = c * x
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
        if self._length is not None and length != self._length:
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
            _add_scaled(vec, factor, row)
            if track:
                _add_scaled(combo, factor, row_combo)
            for i in row:
                if i != pivot and i in rows:
                    heapq.heappush(todo, i)
        return vec, combo

    def _insert(self, vector: Vector) -> Optional[_Sparse]:
        """Insert a vector; None when it enlarges the span, else its relation.

        The relation holds the coefficients c of sum c_i v_i = 0 over the vectors
        added so far, with c = 1 on this one and 0 on every other dependent one.
        """
        vec, combo = self._reduce(vector)
        if self._length is None:  # only an inserted vector fixes the length
            self._length = vector.length if isinstance(vector, SparseVector) else len(vector)
        combo[self._count] = CycNumber.one()
        self._count += 1
        if not vec:
            return combo
        pivot = min(vec)
        if _is_one(vec[pivot]):
            self._rows[pivot] = (vec, combo)
        else:
            inv = vec[pivot].inverse()
            self._rows[pivot] = ({i: x * inv for i, x in vec.items()},
                                 {i: x * inv for i, x in combo.items()})
        return None

    def add(self, vector: Vector) -> bool:
        """Insert a vector; returns True when it enlarges the span."""
        return self._insert(vector) is None

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


def nullspace(columns: Iterable[Vector]) -> List[List[CycNumber]]:
    """Basis of the relations sum c_i v_i = 0 among the vectors.

    One relation per vector in the span of those before it, with coefficient 1
    on that vector and support on it and the earlier independent vectors (the
    free columns of the reduced echelon form, in order).
    """
    solver = SpanSolver()
    relations = [solver._insert(v) for v in columns]
    zero = CycNumber.zero()
    return [[rel.get(i, zero) for i in range(len(relations))]
            for rel in relations if rel is not None]
