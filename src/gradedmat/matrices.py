"""Sparse square matrices over exact cyclotomic scalars."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Sequence, Tuple, Union

from .cyclotomic import CycNumber
from .linalg import SpanSolver, SparseVector, _add_scaled

Scalar = Union[CycNumber, int, Fraction]
Row = Dict[int, CycNumber]
Rows = Dict[int, Row]


def _coerce(value: Scalar) -> CycNumber:
    if isinstance(value, CycNumber):
        return value
    return CycNumber.rational(value)


class Matrix:
    """Immutable n x n matrix; all arithmetic is exact.

    Only nonzero entries are stored: rows maps the index of each nonzero row to
    that row's {column: nonzero entry} dict, so an absent key is the only empty
    row and a matrix unit holds one row dict.  Rows may be listed in any order;
    a reader whose sums depend on it goes by increasing index.  `entries` and
    `column()` are read-only dense views.
    """

    __slots__ = ("n", "rows")

    def __init__(self, entries: Iterable[Iterable[Scalar]]):
        dense = [[_coerce(x) for x in row] for row in entries]
        n = len(dense)
        if n == 0 or any(len(row) != n for row in dense):
            raise ValueError("matrix must be square and non-empty")
        self.n = n
        rows = ((i, {j: x for j, x in enumerate(row) if not x.is_zero()}) for i, row in enumerate(dense))
        self.rows: Rows = {i: row for i, row in rows if row}

    @staticmethod
    def _of(n: int, rows: Rows) -> "Matrix":
        """A matrix from nonempty rows that hold only nonzero entries."""
        if n < 1:
            raise ValueError("matrix must be square and non-empty")
        m = object.__new__(Matrix)
        m.n = n
        m.rows = rows
        return m

    @staticmethod
    def zeros(n: int) -> "Matrix":
        return Matrix._of(n, {})

    @staticmethod
    def combination(n: int, terms: Iterable[Tuple[Scalar, "Matrix"]]) -> "Matrix":
        """The n x n sum of c * m over the (c, m) terms, added per entry in the order given."""
        rows: Rows = {}
        for c, m in terms:
            if m.n != n:
                raise ValueError(f"size mismatch: {n} vs {m.n}")
            c = _coerce(c)
            if c.is_zero():
                continue
            for i, row in m.rows.items():
                _add_scaled(rows.setdefault(i, {}), c, row)
        return Matrix._of(n, {i: row for i, row in rows.items() if row})

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.diagonal([CycNumber.one()] * n)

    @staticmethod
    def unit(n: int, i: int, j: int) -> "Matrix":
        """The matrix unit E_ij (zero-based indices)."""
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"unit index ({i},{j}) out of range for n={n}")
        return Matrix._of(n, {i: {j: CycNumber.one()}})

    @staticmethod
    def diagonal(values: Sequence[Scalar]) -> "Matrix":
        values = [_coerce(x) for x in values]
        return Matrix._of(len(values), {i: {i: x} for i, x in enumerate(values) if not x.is_zero()})

    def __getitem__(self, index: Tuple[int, int]) -> CycNumber:
        i, j = index
        row = self.rows.get(i)
        return row[j] if row is not None and j in row else CycNumber.zero()

    @property
    def entries(self) -> Tuple[Tuple[CycNumber, ...], ...]:
        n, zero, empty = self.n, CycNumber.zero(), {}
        return tuple(tuple(row.get(j, zero) for j in range(n))
                     for row in (self.rows.get(i, empty) for i in range(n)))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        one = CycNumber.one()
        return Matrix.combination(self.n, ((one, self), (one, other)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.n, {i: {j: -a for j, a in row.items()} for i, row in self.rows.items()})

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        out: Rows = {}
        right = other.rows
        for i, row in self.rows.items():
            acc: Row = {}
            for k, a in row.items():
                if k in right:
                    _add_scaled(acc, a, right[k])
            if acc:
                out[i] = acc
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
        return Matrix._of(self.n, {i: {j: c * a for j, a in row.items()} for i, row in self.rows.items()})

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; block (i,j) equals self[i][j] * other."""
        m = other.n
        rows = {i * m + r: {j * m + c: a * b for j, a in row.items() for c, b in inner.items()}
                for i, row in self.rows.items() for r, inner in other.rows.items()}
        return Matrix._of(self.n * m, rows)

    def transpose(self) -> "Matrix":
        out: Rows = {}
        for i, row in sorted(self.rows.items()):
            for j, a in row.items():
                out.setdefault(j, {})[i] = a
        return Matrix._of(self.n, out)

    def inverse(self) -> "Matrix":
        """Exact inverse: row i holds the coordinates of e_i over the rows; raises on singular input."""
        n, one = self.n, CycNumber.one()
        solver = SpanSolver(SparseVector(n, self.rows.get(i, {})) for i in range(n))
        if solver.rank < n:
            raise ZeroDivisionError("matrix is singular")
        return Matrix._of(n, {i: solver.sparse_coordinates(SparseVector(n, {i: one})) for i in range(n)})

    def trace(self) -> CycNumber:
        return sum((row[i] for i, row in sorted(self.rows.items()) if i in row), CycNumber.zero())

    def is_zero(self) -> bool:
        return not self.rows

    def nonzero_positions(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((i, j) for i, row in sorted(self.rows.items()) for j in sorted(row))

    def vector(self) -> SparseVector:
        """The n^2 entries in row-major order as a sparse vector."""
        n = self.n
        return SparseVector(n * n, {i * n + j: a for i, row in self.rows.items() for j, a in row.items()})

    def column(self, j: int) -> Tuple[CycNumber, ...]:
        zero, rows = CycNumber.zero(), self.rows
        return tuple(rows[i].get(j, zero) if i in rows else zero for i in range(self.n))

    def apply(self, vector: Sequence[CycNumber]) -> Tuple[CycNumber, ...]:
        if len(vector) != self.n:
            raise ValueError("vector length mismatch")
        zero, rows = CycNumber.zero(), self.rows
        return tuple(sum((a * vector[j] for j, a in rows[i].items() if not vector[j].is_zero()), zero)
                     if i in rows else zero for i in range(self.n))

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
