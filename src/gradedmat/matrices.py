"""Sparse square matrices over exact cyclotomic scalars."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Sequence, Tuple, Union

from .cyclotomic import CycNumber
from .linalg import SpanSolver, SparseVector, _accumulate

Scalar = Union[CycNumber, int, Fraction]
Row = Dict[int, CycNumber]


def _coerce(value: Scalar) -> CycNumber:
    if isinstance(value, CycNumber):
        return value
    return CycNumber.rational(value)


class Matrix:
    """Immutable n x n matrix; all arithmetic is exact.

    Only nonzero entries are stored: rows[i] maps a column to its nonzero
    entry.  `entries` and `column()` are read-only dense views.
    """

    __slots__ = ("n", "rows")

    def __init__(self, entries: Iterable[Iterable[Scalar]]):
        dense = [[_coerce(x) for x in row] for row in entries]
        n = len(dense)
        if n == 0 or any(len(row) != n for row in dense):
            raise ValueError("matrix must be square and non-empty")
        self.n = n
        self.rows: Tuple[Row, ...] = tuple(
            {j: x for j, x in enumerate(row) if not x.is_zero()} for row in dense)

    @staticmethod
    def _of(n: int, rows: Iterable[Row]) -> "Matrix":
        """A matrix from rows that already hold only nonzero entries."""
        if n < 1:
            raise ValueError("matrix must be square and non-empty")
        m = object.__new__(Matrix)
        m.n = n
        m.rows = tuple(rows)
        return m

    @staticmethod
    def zeros(n: int) -> "Matrix":
        return Matrix._of(n, ({} for _ in range(n)))

    @staticmethod
    def combination(n: int, terms: Iterable[Tuple[Scalar, "Matrix"]]) -> "Matrix":
        """The n x n sum of c * m over the (c, m) terms, added per entry in the order given."""
        rows: Tuple[Row, ...] = tuple({} for _ in range(n))
        for c, m in terms:
            if m.n != n:
                raise ValueError(f"size mismatch: {n} vs {m.n}")
            c = _coerce(c)
            if c.is_zero():
                continue
            one = c.level == 1 and c.nums == (1,) and c.den == 1  # 1 * a is a, at a's level
            for acc, row in zip(rows, m.rows):
                if row:
                    _accumulate(acc, row.items() if one else ((j, c * a) for j, a in row.items()))
        return Matrix._of(n, rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.diagonal([CycNumber.one()] * n)

    @staticmethod
    def unit(n: int, i: int, j: int) -> "Matrix":
        """The matrix unit E_ij (zero-based indices)."""
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"unit index ({i},{j}) out of range for n={n}")
        return Matrix._of(n, ({j: CycNumber.one()} if r == i else {} for r in range(n)))

    @staticmethod
    def diagonal(values: Sequence[Scalar]) -> "Matrix":
        values = [_coerce(x) for x in values]
        return Matrix._of(len(values),
                          ({} if x.is_zero() else {i: x} for i, x in enumerate(values)))

    def __getitem__(self, index: Tuple[int, int]) -> CycNumber:
        i, j = index
        return self.rows[i].get(j, CycNumber.zero())

    @property
    def entries(self) -> Tuple[Tuple[CycNumber, ...], ...]:
        zero = CycNumber.zero()
        return tuple(tuple(row.get(j, zero) for j in range(self.n)) for row in self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        out = []
        for ra, rb in zip(self.rows, other.rows):
            row = dict(ra)
            _accumulate(row, rb.items())
            out.append(row)
        return Matrix._of(self.n, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.n, ({j: -a for j, a in row.items()} for row in self.rows))

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        out = []
        for row in self.rows:
            acc: Row = {}
            for k, a in row.items():
                if other.rows[k]:
                    _accumulate(acc, ((j, a * b) for j, b in other.rows[k].items()))
            out.append(acc)
        return Matrix._of(self.n, out)

    def __pow__(self, k: int) -> "Matrix":
        if k < 0:
            return self.inverse() ** (-k)
        result = Matrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, c: Scalar) -> "Matrix":
        c = _coerce(c)
        if c.is_zero():
            return Matrix.zeros(self.n)
        return Matrix._of(self.n, ({j: c * a for j, a in row.items()} for row in self.rows))

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; block (i,j) equals self[i][j] * other."""
        m = other.n
        rows = ({j * m + c: a * b for j, a in row.items() for c, b in inner.items()}
                for row in self.rows for inner in other.rows)
        return Matrix._of(self.n * m, rows)

    def transpose(self) -> "Matrix":
        out: Tuple[Row, ...] = tuple({} for _ in range(self.n))
        for i, row in enumerate(self.rows):
            for j, a in row.items():
                out[j][i] = a
        return Matrix._of(self.n, out)

    def inverse(self) -> "Matrix":
        """Exact inverse: row i holds the coordinates of e_i over the rows; raises on singular input."""
        n, one = self.n, CycNumber.one()
        solver = SpanSolver(SparseVector(n, row) for row in self.rows)
        if solver.rank < n:
            raise ZeroDivisionError("matrix is singular")
        return Matrix._of(n, (solver.sparse_coordinates(SparseVector(n, {i: one}))
                              for i in range(n)))

    def trace(self) -> CycNumber:
        total = CycNumber.zero()
        for i, row in enumerate(self.rows):
            if i in row:
                total = total + row[i]
        return total

    def is_zero(self) -> bool:
        return not any(self.rows)

    def nonzero_positions(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((i, j) for i, row in enumerate(self.rows) for j in sorted(row))

    def vector(self) -> SparseVector:
        """The n^2 entries in row-major order as a sparse vector."""
        n = self.n
        return SparseVector(n * n, {i * n + j: a for i, row in enumerate(self.rows)
                                    for j, a in row.items()})

    def column(self, j: int) -> Tuple[CycNumber, ...]:
        zero = CycNumber.zero()
        return tuple(row.get(j, zero) for row in self.rows)

    def apply(self, vector: Sequence[CycNumber]) -> Tuple[CycNumber, ...]:
        if len(vector) != self.n:
            raise ValueError("vector length mismatch")
        out = []
        for row in self.rows:
            total = CycNumber.zero()
            for j, a in row.items():
                if not vector[j].is_zero():
                    total = total + a * vector[j]
            out.append(total)
        return tuple(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    __hash__ = None  # type: ignore[assignment]

    def _check(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(a.to_string() for a in row) for row in self.entries)
        return f"Matrix[{rows}]"
