"""Sparse exact matrices and the incremental span solver."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedmat.cyclotomic import CycNumber, root_of_unity
from gradedmat.linalg import SpanSolver, SparseVector, independent_subset, nullspace
from gradedmat.matrices import Matrix


def _rat(x):
    return CycNumber.rational(Fraction(x))


def _m(rows):
    return Matrix([[_rat(x) for x in row] for row in rows])


def test_identity_and_units():
    I = Matrix.identity(3)
    E = Matrix.unit(3, 0, 2)
    assert I * E == E and E * I == E
    assert E * E == Matrix.zeros(3)
    assert Matrix.unit(3, 0, 1) * Matrix.unit(3, 1, 2) == Matrix.unit(3, 0, 2)


def test_addition_and_scaling():
    a = _m([[1, 2], [3, 4]])
    b = _m([[5, 6], [7, 8]])
    assert a + b == _m([[6, 8], [10, 12]])
    assert a - a == Matrix.zeros(2)
    assert a.scale(_rat(2)) == _m([[2, 4], [6, 8]])
    assert (-a) + a == Matrix.zeros(2)


def test_multiplication_and_power():
    a = _m([[1, 1], [0, 1]])
    assert a ** 3 == _m([[1, 3], [0, 1]])
    assert a ** 0 == Matrix.identity(2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_negative_powers_invert_the_positive_ones(n):
    rng = random.Random(n)
    while True:
        m = _m([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        try:
            m.inverse()
            break
        except ZeroDivisionError:
            continue
    for k in (1, 2, 3):
        assert m ** -k == (m ** k).inverse()
        assert (m ** -k) * (m ** k) == Matrix.identity(n)


@pytest.mark.parametrize("k, products", [(1, 0), (2, 1), (3, 2), (4, 2), (8, 3), (13, 5)])
def test_power_forms_only_the_products_it_reads(monkeypatch, k, products):
    multiply, calls = Matrix.__mul__, []
    monkeypatch.setattr(Matrix, "__mul__", lambda a, b: calls.append(1) or multiply(a, b))
    m = _m([[1, 1], [0, 1]])
    assert m ** k == _m([[1, k], [0, 1]])
    assert len(calls) == products


def test_power_equals_repeated_products_for_scalars_and_matrices():
    z = root_of_unity(12, 1) + CycNumber.rational(Fraction(2, 3))
    m = _m([[2, 1, 0], [0, 1, -1], [1, 0, 1]])
    for x, one in ((z, CycNumber.one()), (m, Matrix.identity(3))):
        assert x ** 0 == one
        for k in range(-3, 14):
            expected = one
            for _ in range(abs(k)):
                expected = expected * (x if k > 0 else x.inverse())
            assert x ** k == expected, (x, k)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        _m([[1, 2], [3, 4]]) * _m([[1]])
    with pytest.raises(ValueError):
        _m([[1, 2], [3, 4]]) + _m([[1]])


def test_inverse_exact():
    a = _m([[2, 1], [1, 1]])
    assert a * a.inverse() == Matrix.identity(2)
    assert a.inverse() * a == Matrix.identity(2)


def test_inverse_with_roots_of_unity():
    z = root_of_unity(3, 1)
    a = Matrix.diagonal([z, z * z])
    inv = a.inverse()
    assert a * inv == Matrix.identity(2)


def test_singular_matrix_raises():
    with pytest.raises(ZeroDivisionError):
        _m([[1, 2], [2, 4]]).inverse()


def test_kron_block_structure():
    a = _m([[0, 1], [0, 0]])
    b = _m([[1, 2], [3, 4]])
    k = a.kron(b)
    assert k.n == 4
    # upper-right block is b, everything else zero
    assert k.entries[0][2] == _rat(1) and k.entries[0][3] == _rat(2)
    assert k.entries[1][2] == _rat(3) and k.entries[1][3] == _rat(4)
    assert all(k.entries[i][j].is_zero()
               for i in range(4) for j in range(4) if not (i < 2 and j >= 2))


def test_kron_is_multiplicative():
    a = _m([[1, 2], [3, 4]])
    b = _m([[0, 1], [1, 0]])
    c = _m([[2, 0], [1, 1]])
    d = _m([[1, 1], [0, 1]])
    assert (a * c).kron(b * d) == a.kron(b) * c.kron(d)


def test_trace_transpose_flatten():
    a = _m([[1, 2], [3, 4]])
    assert a.trace() == _rat(5)
    assert a.transpose() == _m([[1, 3], [2, 4]])
    assert a.vector().length == 4
    assert a.column(1) == (_rat(2), _rat(4))


def test_apply_vector():
    a = _m([[1, 2], [3, 4]])
    assert a.apply((_rat(1), _rat(0))) == (_rat(1), _rat(3))


def test_span_solver_membership_and_coordinates():
    solver = SpanSolver()
    v1 = [_rat(1), _rat(0), _rat(1)]
    v2 = [_rat(0), _rat(1), _rat(1)]
    assert solver.add(v1) and solver.add(v2)
    assert not solver.add([_rat(1), _rat(1), _rat(2)])  # dependent
    assert solver.rank == 2
    target = [_rat(2), _rat(3), _rat(5)]
    coords = solver.sparse_coordinates(target)
    assert coords is not None
    vectors = [v1, v2, [_rat(1), _rat(1), _rat(2)]]
    combo = [CycNumber.zero()] * 3
    for i, c in coords.items():
        combo = [x + c * y for x, y in zip(combo, vectors[i])]
    assert combo == target
    assert solver.sparse_coordinates([_rat(1), _rat(0), _rat(0)]) is None
    assert not solver.contains([_rat(1), _rat(0), _rat(0)])


def test_rank_and_independent_subset():
    rows = [
        [_rat(1), _rat(2)],
        [_rat(2), _rat(4)],
        [_rat(0), _rat(1)],
    ]
    assert SpanSolver(rows).rank == 2
    assert independent_subset(rows) == [0, 2]


def _dot(coeffs, vectors, length):
    total = [CycNumber.zero()] * length
    for c, v in zip(coeffs, vectors):
        total = [x + c * y for x, y in zip(total, v)]
    return total


def test_rref_and_nullspace():
    # the columns of the rows [1 2 3] and [2 4 6]
    columns = [[_rat(1), _rat(2)], [_rat(2), _rat(4)], [_rat(3), _rat(6)]]
    reduced, pivots = rref([list(row) for row in zip(*columns)])
    assert pivots == [0]
    basis = nullspace(columns)
    assert basis == [[_rat(-2), _rat(1), _rat(0)], [_rat(-3), _rat(0), _rat(1)]]
    for vec in basis:
        assert all(x.is_zero() for x in _dot(vec, columns, 2))


def test_coordinates_solve_a_square_system_and_reject_an_inconsistent_one():
    # the columns of the rows [1 1] and [0 1], right-hand side (3, 1)
    solver = SpanSolver([[_rat(1), _rat(0)], [_rat(1), _rat(1)]])
    assert solver.sparse_coordinates([_rat(3), _rat(1)]) == {0: _rat(2), 1: _rat(1)}
    # the row [0 0] with right-hand side 1
    assert SpanSolver([[_rat(0)], [_rat(0)]]).sparse_coordinates([_rat(1)]) is None


def test_span_solver_takes_its_length_from_inserted_vectors_only():
    solver = SpanSolver()
    zero4, zero16 = [_rat(0)] * 4, SparseVector(16, {})
    one16 = SparseVector(16, {3: _rat(2)})
    # an empty solver answers from the vector alone, whatever length it was asked about before
    assert solver.contains(zero4) and solver.sparse_coordinates(zero4) == {}
    assert solver.contains(zero16) and solver.sparse_coordinates(zero16) == {}
    assert not solver.contains(one16) and solver.sparse_coordinates(one16) is None
    assert not solver.contains([_rat(1)] * 4)
    assert solver.add(one16) and solver.sparse_coordinates(one16) == {0: _rat(1)}
    with pytest.raises(ValueError, match="^vector length 4 != 16$"):
        solver.contains(zero4)


_entries = st.integers(-5, 5)


def _matrix_strategy(n):
    return st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n) \
        .map(lambda rows: _m(rows))


@settings(max_examples=40, deadline=None)
@given(_matrix_strategy(3), _matrix_strategy(3), _matrix_strategy(3))
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings(max_examples=40, deadline=None)
@given(_matrix_strategy(3))
def test_inverse_round_trip_or_singular(a):
    try:
        inv = a.inverse()
    except ZeroDivisionError:
        assert SpanSolver(a.entries).rank < 3
        return
    assert a * inv == Matrix.identity(3)


# Sparse storage against a dense reference: random small matrices with many
# zeros and some entries in Q(zeta_4) or Q(zeta_5).

def _scalar(kind, c, level, power):
    if kind < 3:
        return CycNumber.zero()
    if kind == 3:
        return _rat(c)
    return _rat(c) * root_of_unity(level, power)


_sparse_scalars = st.tuples(st.integers(0, 5), st.integers(-3, 3), st.sampled_from((4, 5)),
                            st.integers(0, 4)).map(lambda t: _scalar(*t))


def _dense_rows(n):
    return st.lists(st.lists(_sparse_scalars, min_size=n, max_size=n), min_size=n, max_size=n)


def _dense_pair():
    return st.integers(1, 3).flatmap(lambda n: st.tuples(_dense_rows(n), _dense_rows(n)))


def _ref_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), CycNumber.zero()) for j in range(n)]
            for i in range(n)]


def _ref_kron(a, b):
    n, m = len(a), len(b)
    return [[a[i // m][j // m] * b[i % m][j % m] for j in range(n * m)] for i in range(n * m)]


def _ref_det(a):
    n = len(a)
    total = CycNumber.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = _rat(-1 if inversions % 2 else 1)
        for i in range(n):
            term = term * a[i][perm[i]]
        total = total + term
    return total


def _agrees(m, dense):
    """m holds exactly the nonzero entries of the dense rows."""
    n = len(dense)
    assert m.n == n
    assert all(not x.is_zero() for row in m.rows.values() for x in row.values())
    assert m.entries == tuple(tuple(row) for row in dense)
    assert m.vector().length == n * n
    assert m.vector() == {i * n + j: x for i, row in enumerate(dense)
                          for j, x in enumerate(row) if not x.is_zero()}
    for j in range(n):
        assert m.column(j) == tuple(row[j] for row in dense)
    positions = tuple((i, j) for i in range(n) for j in range(n) if not dense[i][j].is_zero())
    assert m.nonzero_positions() == positions
    assert m.is_zero() == (not positions)


@settings(max_examples=60, deadline=None)
@given(_dense_pair())
def test_sparse_matrices_agree_with_dense_reference(pair):
    a_rows, b_rows = pair
    n = len(a_rows)
    a, b = Matrix(a_rows), Matrix(b_rows)
    _agrees(a, a_rows)
    _agrees(a + b, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a_rows, b_rows)])
    _agrees(a - b, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a_rows, b_rows)])
    _agrees(a * b, _ref_mul(a_rows, b_rows))
    _agrees(a.kron(b), _ref_kron(a_rows, b_rows))
    _agrees(a.transpose(), [[a_rows[j][i] for j in range(n)] for i in range(n)])
    assert (a - a).is_zero() and not any((a - a).rows)
    if _ref_det(a_rows).is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        inv = a.inverse()
        identity = [[_rat(int(i == j)) for j in range(n)] for i in range(n)]
        _agrees(inv, [list(row) for row in inv.entries])
        assert _ref_mul(a_rows, [list(row) for row in inv.entries]) == identity
        assert _ref_mul([list(row) for row in inv.entries], a_rows) == identity


def test_explicit_zeros_are_not_stored():
    assert Matrix([[0, 1], [0, 0]]) == Matrix.unit(2, 0, 1)
    assert Matrix([[0, 1], [0, 0]]).rows == {0: {1: _rat(1)}}
    assert Matrix.diagonal([0, 2]).nonzero_positions() == ((1, 1),)
    assert Matrix.identity(2).scale(0).is_zero()


def test_no_matrix_stores_an_empty_row_or_a_zero_entry():
    a = _m([[1, 0, 2], [0, 0, 0], [3, 0, 4]])
    b = _m([[0, 5, 0], [6, 0, 0], [0, 0, 7]])
    e01 = Matrix.unit(3, 0, 1)
    results = {
        "dense": a, "zeros": Matrix.zeros(3), "unit": e01, "diagonal": Matrix.diagonal([0, 2, 0]),
        "identity": Matrix.identity(3), "product": a * b, "sum": a + b, "difference": a - b,
        "combination": Matrix.combination(3, [(2, a), (-1, b), (1, e01)]), "scale": a.scale(3),
        "scale by 0": a.scale(0), "negation": -a, "kron": a.kron(Matrix.unit(2, 1, 0)),
        "transpose": a.transpose(), "inverse": b.inverse(), "a - a": a - a,
        "cancelling combination": Matrix.combination(3, [(1, a), (1, b), (-1, a), (-1, b)]),
        "E_01 E_01": e01 * e01,
    }
    for name, m in results.items():
        assert all(row and all(not x.is_zero() for x in row.values()) for row in m.rows.values()), name
    for name in ("zeros", "scale by 0", "a - a", "cancelling combination", "E_01 E_01"):
        assert results[name].rows == {}, name


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(_dense_rows(n), min_size=1, max_size=6)))
def test_span_solver_sparse_and_dense_vectors_agree(mats):
    mats = [Matrix(rows) for rows in mats]
    flat = lambda m: [x for row in m.entries for x in row]
    dense, sparse = SpanSolver(), SpanSolver()
    for m in mats:
        assert dense.add(flat(m)) == sparse.add(m.vector())
    assert dense.rank == sparse.rank
    for probe in mats + [mats[0] + mats[-1], mats[0] * mats[-1], Matrix.unit(mats[0].n, 0, 0)]:
        assert dense.contains(flat(probe)) == sparse.contains(probe.vector())
        assert dense.sparse_coordinates(flat(probe)) == sparse.sparse_coordinates(probe.vector())
        assert dense.contains(flat(probe)) == sparse.contains(flat(probe))


# Matrix.combination against the loop it replaced: start from zeros and add
# c * m for every nonzero coefficient.  Entries live at levels 1, 4, 5 and 12,
# so the printed form of a sum shows the level of every partial sum.

def _combination_reference(n, terms):
    out = Matrix.zeros(n)
    for c, m in terms:
        if not c.is_zero():
            out = out + m.scale(c)
    return out


def _random_scalar(rng):
    level = rng.choice((1, 4, 5, 12))
    c = _rat(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return c if level == 1 else c * root_of_unity(level, rng.randrange(level))


def _random_sparse_matrix(rng, n):
    return Matrix([[_random_scalar(rng) if rng.random() < 0.4 else 0 for _ in range(n)]
                   for _ in range(n)])


def test_combination_matches_the_accumulation_loop():
    from gradedmat.specio import matrix_to_json
    rng = random.Random(20240611)
    for _ in range(300):
        n = rng.randint(1, 4)
        terms = []
        for _ in range(rng.randint(0, 6)):
            c, m = _random_scalar(rng), _random_sparse_matrix(rng, n)
            terms.append((CycNumber.zero() if rng.random() < 0.2 else c, m))
            if rng.random() < 0.3:  # a term cancelled by a later one
                terms.append((-c, m))
        rng.shuffle(terms)
        got, want = Matrix.combination(n, terms), _combination_reference(n, terms)
        assert got == want
        assert matrix_to_json(got) == matrix_to_json(want)
        assert all(not x.is_zero() for row in got.rows.values() for x in row.values())


def test_combination_edge_cases():
    assert Matrix.combination(3, []) == Matrix.zeros(3)
    e = Matrix.unit(2, 0, 1)
    assert Matrix.combination(2, [(2, e), (-2, e)]).rows == {}
    half = _rat(Fraction(1, 2))
    assert Matrix.combination(2, [(0, Matrix.identity(2)), (half, e)]) == e.scale(half)
    with pytest.raises(ValueError):
        Matrix.combination(3, [(1, e)])
    # a rational one adds the entries as they are; a one at level 3 still lifts them
    m = Matrix.diagonal([root_of_unity(5, 1), 2])
    assert [x.level for x in Matrix.combination(2, [(1, m)]).rows[0].values()] == [5]
    lifted = Matrix.combination(2, [(root_of_unity(3, 0), m)])
    assert lifted == m and [row[i].level for i, row in sorted(lifted.rows.items())] == [15, 3]


def test_nullspace_of_no_rows_or_zero_rows_is_the_identity_basis():
    zero, one = CycNumber.zero(), CycNumber.one()
    identity = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert nullspace([[]] * 3) == identity  # no rows
    assert nullspace([[zero] * 2] * 3) == identity  # two zero rows
    assert nullspace([]) == []


# Reference elimination: textbook Gauss-Jordan on dense rows, and the nullspace,
# solve and inverse read off it the way the package once did.  SpanSolver must
# give the same values; printed forms agree when the input uses one root level.

def rref(rows):
    """Reduced row echelon form (nonzero rows) and pivot columns."""
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and not row[c].is_zero():
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _ref_nullspace(rows, ncols):
    reduced, pivots = rref(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [CycNumber.zero()] * ncols
        vec[free] = CycNumber.one()
        for row, pivot in zip(reduced, pivots):
            vec[pivot] = -row[free]
        basis.append(vec)
    return basis


def _ref_solve(rows, rhs, ncols):
    """The solution with free variables zero, or None when inconsistent."""
    reduced, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    solution = [CycNumber.zero()] * ncols
    for row, pivot in zip(reduced, pivots):
        solution[pivot] = row[ncols]
    return solution


def _ref_inverse(rows):
    n = len(rows)
    reduced, pivots = rref([list(row) + [_rat(int(i == j)) for j in range(n)]
                            for i, row in enumerate(rows)])
    return [row[n:] for row in reduced] if pivots[:n] == list(range(n)) else None


def _level_scalars(level):
    return st.tuples(st.integers(0, 5), st.integers(-3, 3), st.just(level),
                     st.integers(0, 4)).map(lambda t: _scalar(*t))


@st.composite
def _systems(draw, scalars):
    """Columns (with zero and dependent ones mixed in), a right-hand side and a square matrix."""
    length = draw(st.integers(0, 4))
    vectors = st.lists(scalars, min_size=length, max_size=length)
    columns = draw(st.lists(vectors, max_size=4))
    for kind, c, i, j in draw(st.lists(st.tuples(st.integers(0, 2), scalars, st.integers(0, 9),
                                                 st.integers(0, 9)), max_size=3)):
        if kind == 0 or not columns:
            columns.insert(i % (len(columns) + 1), [CycNumber.zero()] * length)
        else:  # a column in the span of two others
            a, b = columns[i % len(columns)], columns[j % len(columns)]
            columns.append([x + c * y for x, y in zip(a, b)])
    weights = draw(st.lists(scalars, min_size=len(columns), max_size=len(columns)))
    rhs = draw(st.one_of(vectors, st.just(_dot(weights, columns, length))))
    n = draw(st.integers(1, 3))
    square = draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):  # a row in the span of the others
        square[-1] = _dot(weights[:n - 1] + [CycNumber.zero()] * n, square[:-1], n)
    return columns, rhs, square


def _printed(value):
    """Nested lists of scalars as their strings; None stays None."""
    if isinstance(value, CycNumber):
        return value.to_string()
    return None if value is None else [_printed(x) for x in value]


def _check_against_reference(system, printed):
    columns, rhs, square = system
    rows = [[col[i] for col in columns] for i in range(len(rhs))]
    coords = SpanSolver(columns).sparse_coordinates(rhs)
    assert coords is None or all(not x.is_zero() for x in coords.values())
    try:
        inverse = Matrix(square).inverse()
    except ZeroDivisionError:
        inverse = None
    else:
        assert all(not x.is_zero() for row in inverse.rows.values() for x in row.values())
    zero = CycNumber.zero()
    got = (nullspace(columns),
           None if coords is None else [coords.get(k, zero) for k in range(len(columns))],
           None if inverse is None else [list(row) for row in inverse.entries])
    want = (_ref_nullspace(rows, len(columns)), _ref_solve(rows, rhs, len(columns)),
            _ref_inverse(square))
    assert got == want
    if printed:
        assert _printed(got) == _printed(want)


@settings(max_examples=150, deadline=None)
@given(_systems(_sparse_scalars))
def test_elimination_matches_the_reference_on_mixed_levels(system):
    _check_against_reference(system, printed=False)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 4, 5)).flatmap(lambda level: _systems(_level_scalars(level))))
def test_elimination_prints_like_the_reference_on_one_level(system):
    _check_against_reference(system, printed=True)


# The in-place row update against dense sums, on entries from a small set of values
# (±1, ±1/2, ±zeta_4) so that many sums of products cancel to zero.

_CANCELLING = (_rat(1), _rat(-1), _rat(Fraction(1, 2)), _rat(Fraction(-1, 2)),
               root_of_unity(4, 1), root_of_unity(4, 3))


def _cancelling_rows(rng, n):
    return [[rng.choice(_CANCELLING) if rng.random() < 0.6 else CycNumber.zero() for _ in range(n)]
            for _ in range(n)]


def _cancels(a_rows, b_rows):
    """Whether some entry of the product is zero although one of its terms is not."""
    n, product = len(a_rows), _ref_mul(a_rows, b_rows)
    return any(product[i][j].is_zero() and any(not (a_rows[i][k] * b_rows[k][j]).is_zero() for k in range(n))
               for i in range(n) for j in range(n))


def test_row_updates_match_dense_sums_when_entries_cancel():
    rng = random.Random(26)
    cancelled = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        a_rows, b_rows = _cancelling_rows(rng, n), _cancelling_rows(rng, n)
        a, b = Matrix(a_rows), Matrix(b_rows)
        cancelled += _cancels(a_rows, b_rows)
        _agrees(a * b, _ref_mul(a_rows, b_rows))
        terms = [(rng.choice(_CANCELLING), m) for m in (a, b, a * b)]
        terms.append((-terms[0][0], a))  # cancels the first term
        rng.shuffle(terms)
        dense = [[sum((c * m[i, j] for c, m in terms), CycNumber.zero()) for j in range(n)]
                 for i in range(n)]
        _agrees(Matrix.combination(n, terms), dense)
    assert cancelled > 20


def test_sparse_coordinates_match_a_dense_solve_when_entries_cancel():
    rng = random.Random(27)
    for _ in range(100):
        n = rng.randint(1, 3)
        mats = [Matrix(_cancelling_rows(rng, n)) for _ in range(rng.randint(1, 5))]
        columns = [[x for row in m.entries for x in row] for m in mats]
        solver = SpanSolver(m.vector() for m in mats)
        for row in solver._rows.values():
            assert all(not x.is_zero() for part in row for x in part.values())
        weights = [rng.choice(_CANCELLING + (CycNumber.zero(),)) for _ in mats]
        inside = Matrix.combination(n, zip(weights, mats))
        for probe in (inside, Matrix(_cancelling_rows(rng, n))):
            rhs = [x for row in probe.entries for x in row]
            rows = [[col[i] for col in columns] for i in range(n * n)]
            want = _ref_solve(rows, rhs, len(mats))
            got = solver.sparse_coordinates(probe.vector())
            zero = CycNumber.zero()
            assert (None if got is None else [got.get(k, zero) for k in range(len(mats))]) == want
            assert got is None or all(not x.is_zero() for x in got.values())
        assert solver.sparse_coordinates(inside.vector()) is not None
