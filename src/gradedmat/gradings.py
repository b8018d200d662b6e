"""Group gradings on matrix algebras: constructors, verification, structure queries."""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .cyclotomic import CycNumber, root_of_unity
from .groups import (Character, FiniteAbelianGroup, GroupElement, _Frozen, _set, degree_classes,
                     subgroup_generated)
from .linalg import SparseVector, SpanSolver, _add_scaled, independent_subset, nullspace
from .matrices import Matrix


class _lazy:
    """A method read as an attribute: computed on the first read and stored in the
    instance, where every later read finds it as a plain attribute.  Unlike
    functools.cached_property it takes no lock on the first read."""

    def __init__(self, method):
        self.method, self.name = method, method.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


class _Span:
    """The span of a family of n x n matrices, and the coordinates of a matrix over it.

    A family of scaled units c E_ij is read by position, with no elimination: its rank
    is the number of distinct positions, m lies in it exactly when every nonzero entry
    of m sits at one of them, and the coordinate at the index of c E_ij is m_ij / c, of
    the value and level the elimination gives.  A repeated position keeps its first
    unit, as the elimination does.  Any other family, or a matrix of another size, goes
    through one SpanSolver over the flattened matrices, built on first use.
    """

    def __init__(self, mats: Sequence[Matrix], n: int):
        self.mats = mats
        self.n = n

    @_lazy
    def positions(self) -> Optional[Dict[int, int]]:
        """i n + j -> k when the k-th matrix is c E_ij, built in one pass; None unless
        every matrix is n x n with exactly one nonzero entry.  Keys and values are ints,
        so the index holds no object per matrix."""
        index: Dict[int, int] = {}
        n = self.n
        for k, m in enumerate(self.mats):
            if m.n != n or sum(map(len, m.rows.values())) != 1:  # one entry; rows are never empty
                return None
            (i, (j,)), = m.rows.items()
            index.setdefault(i * n + j, k)
        return index

    @_lazy
    def solver(self) -> SpanSolver:
        return SpanSolver(m.vector() for m in self.mats)

    @property
    def rank(self) -> int:
        positions = self.positions
        return self.solver.rank if positions is None else len(positions)

    def contains(self, m: Matrix) -> bool:
        positions = self.positions
        if positions is None or m.n != self.n:
            return self.solver.contains(m.vector())
        n = self.n
        return all(i * n + j in positions for i, row in m.rows.items() for j in row)

    def coordinates(self, m: Matrix) -> Optional[Dict[int, CycNumber]]:
        """Nonzero coefficients of m over the family, by increasing index; None when m
        lies outside the span."""
        positions = self.positions
        if positions is None or m.n != self.n:
            return self.solver.sparse_coordinates(m.vector())
        n, mats = self.n, self.mats
        try:  # (k, i, j, m_ij), k unique; the k-th matrix is c E_ij with c = mats[k][i, j]
            cells = sorted((positions[i * n + j], i, j, a) for i, row in m.rows.items() for j, a in row.items())
        except KeyError:
            return None
        return {k: a * mats[k].rows[i][j].inverse() for k, i, j, a in cells}

    def equals(self, other: "_Span") -> bool:
        """Equal ranks and this span inside the other make the two spans equal."""
        return self.rank == other.rank and all(other.contains(m) for m in self.mats)


class GradedAlgebra:
    """M_n(F) with a decomposition into components indexed by group elements.

    Each component is stored as a list of basis matrices.  Whether the data
    actually forms a grading is established by verify_grading, not assumed.
    """

    def __init__(self, group: FiniteAbelianGroup, n: int,
                 components: Mapping[GroupElement, Sequence[Matrix]]):
        if n < 1:
            raise ValueError(f"matrix size must be positive, got {n}")
        self.group = group
        self.n = n
        cleaned: Dict[GroupElement, Tuple[Matrix, ...]] = {}
        for g in sorted(components, key=GroupElement.sort_key):
            mats = tuple(components[g])
            if not mats:
                continue
            if g.group != group:
                raise ValueError(f"component degree {g} does not belong to {group}")
            for m in mats:
                if m.n != n:
                    raise ValueError(f"component of degree {g} holds a {m.n}x{m.n} matrix, expected {n}x{n}")
            cleaned[g] = mats
        if not cleaned:
            raise ValueError("grading needs at least one non-empty component")
        self.components = cleaned
        self.elementary_tuple: Optional[Tuple[GroupElement, ...]] = None  # set by elementary_grading alone

    @property
    def dimension(self) -> int:
        return _dimension(self.components)

    def component(self, g: GroupElement) -> Tuple[Matrix, ...]:
        return self.components.get(g, ())

    def support(self) -> Tuple[GroupElement, ...]:
        return tuple(self.components.keys())

    @_lazy
    def union_basis(self) -> Tuple[Tuple[GroupElement, Matrix], ...]:
        return tuple((g, m) for g, mats in self.components.items() for m in mats)

    def identity(self) -> Matrix:
        return Matrix.identity(self.n)

    @_lazy
    def _span(self) -> _Span:
        return _Span([m for mats in self.components.values() for m in mats], self.n)

    @_lazy
    def _component_spans(self) -> Dict[GroupElement, _Span]:
        return {g: _Span(mats, self.n) for g, mats in self.components.items()}

    def decompose(self, m: Matrix) -> Dict[GroupElement, Matrix]:
        """Homogeneous parts of m, keyed by degree; only nonzero parts appear."""
        if m.n != self.n:
            raise ValueError(f"matrix size {m.n} does not match algebra size {self.n}")
        coords = self._span.coordinates(m)
        if coords is None:
            raise ValueError("matrix is not in the span of the components")
        basis = self.union_basis  # grouped by degree; coords run in its order
        parts = {g: Matrix.combination(self.n, ((c, basis[k][1]) for k, c in terms))
                 for g, terms in itertools.groupby(coords.items(), key=lambda t: basis[t[0]][0])}
        return {g: part for g, part in parts.items() if not part.is_zero()}

    def degree_of(self, m: Matrix) -> Optional[GroupElement]:
        """Degree of a homogeneous matrix, None if not homogeneous."""
        if m.is_zero():
            raise ValueError("the zero matrix has no degree")
        parts = self.decompose(m)
        if len(parts) == 1:
            return next(iter(parts))
        return None

    def is_fine(self) -> bool:
        return all(len(mats) == 1 for mats in self.components.values()) \
            and self.dimension == self.n * self.n

    def __repr__(self) -> str:
        return f"GradedAlgebra(n={self.n}, group={self.group}, components={len(self.components)})"


def elementary_grading(group: FiniteAbelianGroup,
                       tau: Sequence[GroupElement]) -> GradedAlgebra:
    """Grading of M_n where E_ij is homogeneous of degree g_i^(-1) g_j."""
    tau = tuple(tau)
    if not tau:
        raise ValueError("defining tuple must be non-empty")
    for g in tau:
        if g.group != group:
            raise ValueError("tuple entries must belong to the given group")
    n, one = len(tau), CycNumber.one()
    classes = degree_classes(tau)
    label = {i: k for k, indices in enumerate(classes.values()) for i in indices}  # tau[i] is value k
    components: Dict[GroupElement, List[Matrix]] = {}
    # one product and one list per pair of values; E_ij is appended in row-major order
    lists = []
    for g in classes:
        inverse = g.inverse()
        lists.append([components.setdefault(inverse * h, []) for h in classes])
    for i in range(n):
        row = lists[label[i]]
        for j in range(n):
            row[label[j]].append(Matrix._of(n, {i: {j: one}}))
    algebra = GradedAlgebra(group, n, components)
    algebra.elementary_tuple = tau
    return algebra


def epsilon_grading(n: int, group: Optional[FiniteAbelianGroup] = None,
                    a: Optional[GroupElement] = None,
                    b: Optional[GroupElement] = None) -> GradedAlgebra:
    """Fine Z_n x Z_n grading of M_n spanned by products of the clock and shift matrices.

    The component of degree a^i b^j is spanned by X_a^i X_b^j with
    X_a = diag(eps^(n-1), ..., eps, 1) and X_b the cyclic shift.  Optionally the
    two generators may be placed inside a larger ambient group.
    """
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
    if group is None:
        group = FiniteAbelianGroup((n, n))
        a = group.element([1, 0])
        b = group.element([0, 1])
    if a is None or b is None:
        raise ValueError("an ambient group requires explicit generators a and b")
    if a.group != group or b.group != group:
        raise ValueError("generators must belong to the ambient group")
    labels = {}
    for i in range(n):
        for j in range(n):
            labels[(i, j)] = (a ** i) * (b ** j)
    if len(set(labels.values())) != n * n:
        raise ValueError("generators do not span a Z_n x Z_n subgroup of distinct labels")

    def power(k: int) -> CycNumber:  # eps^k, at level n when k > 0 even if n divides k
        return root_of_unity(n, k) if k else CycNumber.one()

    # X_a^i X_b^j holds eps^(i(n-1-r)) at (r, r + j mod n) and nothing else
    components = {labels[(i, j)]: [Matrix._of(n, {r: {(r + j) % n: power(i * (n - 1 - r))}
                                                  for r in range(n)})]
                  for i in range(n) for j in range(n)}
    return GradedAlgebra(group, n, components)


def induced_tensor_grading(left: GradedAlgebra, right: GradedAlgebra) -> GradedAlgebra:
    """Grading on M_k (x) M_m with deg(x (x) y) = deg x deg y for homogeneous x and y."""
    if left.group != right.group:
        raise ValueError("both factors must be graded by the same group")
    components: Dict[GroupElement, List[Matrix]] = {}
    for g, x in left.union_basis:
        for h, mats in right.components.items():
            components.setdefault(g * h, []).extend(x.kron(y) for y in mats)
    return GradedAlgebra(left.group, left.n * right.n, components)


class GradingReport(_Frozen):
    n: int
    total_dimension: int
    dimension_ok: bool
    independent: bool
    closure_failures: Tuple[Tuple[GroupElement, GroupElement, Matrix], ...]

    @property
    def passed(self) -> bool:
        return self.dimension_ok and self.independent and not self.closure_failures


def verify_grading(algebra: GradedAlgebra) -> GradingReport:
    """Check that the stored components really grade M_n.

    Verifies that the component bases are jointly independent, that their
    dimensions add up to n^2, and that products land in the right component.
    Every violating (g, h, witness product) triple is reported.

    When the components span M_n directly, they grade it exactly when each generator
    chi of the dual group acts by an automorphism phi = sum chi(g) pi_g, and every
    automorphism of M_n is inner.  The certificate builds a candidate implementer Y
    from the n images phi(E_k0): with a the column of the first nonzero entry of
    phi(E_00), column k of Y is column a of phi(E_k0).  It passes when
    Y B = chi(g) B Y for every basis matrix B of every R_g.  This is exact:
      - if it passes, Y M = phi(M) Y for all M; Y is nonzero (its column 0 is column a
        of phi(E_00)), so Yv = 0 would give Y M v = 0 for all M and Y = 0; hence Y is
        invertible, phi = Ad Y and phi is multiplicative;
      - if phi = Ad X, then phi(E_k0) = X E_k0 X^-1 and Y = (X^-1)_0a X, where
        (X^-1)_0a != 0 because column a of phi(E_00) = X E_00 X^-1 is nonzero.
    Y is the implementer of chi up to a scalar.  Basis pairs are scanned only when
    the certificate fails.

    A basis of scaled matrix units c E_ij is read by position instead, with no
    elimination: it is independent exactly when its positions are distinct, and
    R_g spans the matrices supported on the positions of its units.  With all n^2
    positions distinct it grades M_n exactly when deg(i, j) = h_i^-1 h_j for all
    i, j, where h_j = deg(0, j):
      - if that holds, (a E_ij)(b E_jl) = ab E_il lies in the component of degree
        h_i^-1 h_l = deg(i, j) deg(j, l), and units in other positions multiply to
        zero, so every product of basis matrices lands in its component;
      - if the products close, (a E_0i)(b E_ij) = ab E_0j lies in R_(deg(0, i) deg(i, j)),
        and (0, j) is the position of one unit only, of degree h_j; so
        h_i deg(i, j) = h_j.
    Otherwise the pair (a E_ij, b E_jl) of R_g x R_h fails exactly when (i, l) is not
    a position of R_gh; only failing pairs are multiplied.

    A fine basis, one matrix X_t per degree and n^2 of them, is certified by its
    cocycle instead, with no elimination: it passes when the support is a subgroup,
    every X_t is nonzero, X_t X_g is a nonzero multiple of X_(tg) for every t and every
    g in the greedy generating set S of the support (_generator_scalars), and
    tr X_u = 0 for u != e while tr X_e != 0.  That is n^2 |S| products and n^2 traces.
      - if it passes, every X_t X_s = alpha(t, s) X_(ts) with alpha != 0, by the
        induction of cocycle_from_units, so the products close; and if sum c_s X_s = 0,
        multiplying by X_t and taking traces leaves c_(t^-1) alpha(t, t^-1) tr X_e = 0,
        so every c_s = 0 and the n^2 matrices are independent;
      - if the X_t grade M_n, it is a graded division algebra: I is homogeneous of
        degree e (compare degrees in x = x I = sum x I_g), so X_e is a nonzero multiple
        of I and tr X_e != 0; I lies in M_n X_t M_n, and the degree-e part of that ideal
        is spanned by the X_a X_t X_b with atb = e, each a multiple of I, so one of them
        is invertible and so is X_t; products of the X_t are then nonzero, so the
        support is closed and a subgroup; and for u != e some chi has chi(u) != 1 while
        phi_chi is inner, so tr X_u = tr phi_chi(X_u) = chi(u) tr X_u = 0.
    So a failed certificate is a failed grading, and only the scan runs to list why.
    """
    n = algebra.n
    total = algebra.dimension
    dimension_ok = total == n * n
    index = algebra._span.positions
    if index is not None:
        independent = len(index) == total
        if dimension_ok and independent:
            degrees = [g for g, mats in algebra.components.items() for _ in mats]
            h = [degrees[index[j]] for j in range(n)]
            if all(h[i] * degrees[index[i * n + j]] == h[j] for i in range(n) for j in range(n)):
                return GradingReport(n, total, True, True, ())
        return GradingReport(n, total, dimension_ok, independent, _unit_closure_failures(algebra))
    fine = algebra.is_fine()
    if fine and _cocycle_certifies(algebra):
        return GradingReport(n, total, True, True, ())
    independent = algebra._span.rank == total
    if dimension_ok and independent and not fine:
        columns = [algebra.decompose(Matrix.unit(n, k, 0)) for k in range(n)]
        if all(_implementer(algebra, chi, columns) for chi in _dual_generators(algebra.group)):
            return GradingReport(n, total, True, True, ())
    failures: List[Tuple[GroupElement, GroupElement, Matrix]] = []
    for g, g_mats in algebra.components.items():
        for h, h_mats in algebra.components.items():
            target = algebra._component_spans.get(g * h)
            for x in g_mats:
                for y in h_mats:
                    product = x * y
                    if product.is_zero():
                        continue
                    if target is None or not target.contains(product):
                        failures.append((g, h, product))
    return GradingReport(n, total, dimension_ok, independent, tuple(failures))


def _unit_closure_failures(algebra: GradedAlgebra) -> Tuple[Tuple[GroupElement, GroupElement, Matrix], ...]:
    """The failing (g, h, x y) of a basis of scaled units, in the order of the full scan:
    x = a E_ij in R_g and y = b E_jl in R_h multiply to ab E_il, which lies in R_gh
    exactly when (i, l) is one of its positions."""
    cells = {g: [(m, *m.nonzero_positions()[0]) for m in mats]
             for g, mats in algebra.components.items()}
    positions = {g: {(i, j) for _, i, j in units} for g, units in cells.items()}
    by_row: Dict[GroupElement, Dict[int, List[Tuple[Matrix, int]]]] = {}
    for h, units in cells.items():
        rows = by_row[h] = {}
        for y, k, l in units:
            rows.setdefault(k, []).append((y, l))
    failures: List[Tuple[GroupElement, GroupElement, Matrix]] = []
    for g, g_units in cells.items():
        for h, rows in by_row.items():
            target = positions.get(g * h, ())
            for x, i, j in g_units:
                failures.extend((g, h, x * y) for y, l in rows.get(j, ()) if (i, l) not in target)
    return tuple(failures)


def _dual_generators(group: FiniteAbelianGroup) -> List[Character]:
    """One character per cyclic factor; together they generate the dual group."""
    factors = range(len(group.factors))
    return [Character(group, tuple(int(s == t) for s in factors)) for t in factors]


def _implementer(algebra: GradedAlgebra, chi: Character,
                 columns: Sequence[Dict[GroupElement, Matrix]]) -> Optional[Matrix]:
    """Y with Y M = phi(M) Y for all M, phi = sum chi(g) pi_g, built from the homogeneous
    parts of E_00, ..., E_(n-1)0; None when no such Y exists (see verify_grading).

    It runs only on an independent union basis, so phi(E_00) = sum chi(g) (E_00)_g is
    nonzero: the parts lie in independent components and every chi(g) != 0."""
    n = algebra.n
    images = [_act(chi, n, parts) for parts in columns]
    first = images[0].rows
    a = min(first[min(first)])
    # column k of y is column a of images[k]
    columns = ((k, {i: row[a] for i, row in image.rows.items() if a in row}) for k, image in enumerate(images))
    y = Matrix._of(n, {k: column for k, column in columns if column}).transpose()
    for g, mats in algebra.components.items():
        c = chi(g)
        for b in mats:
            if y * b != (b * y).scale(c):
                return None
    return y


def _cocycle_certifies(algebra: GradedAlgebra) -> bool:
    """The certificate of a fine basis (see verify_grading): a subgroup support, every
    X_t nonzero, X_t X_g a nonzero multiple of X_(tg) for g in S, and the trace test."""
    support = algebra.support()
    generators, spans = _greedy_generators(support)
    basis = {g: mats[0] for g, mats in algebra.components.items()}
    return spans and not any(m.is_zero() for m in basis.values()) and _traces_separate(basis) \
        and _generator_scalars(basis, _pivots(basis), support, generators or support) is not None


def _traces_separate(basis: Mapping[GroupElement, Matrix]) -> bool:
    """tr X_e != 0 and tr X_u = 0 for every other degree u."""
    return all(m.trace().is_zero() != t.is_identity() for t, m in basis.items())


def support_is_subgroup(algebra: GradedAlgebra) -> bool:
    return _greedy_generators(algebra.support())[1]


def _greedy_generators(support: Sequence[GroupElement]) -> Tuple[List[GroupElement], bool]:
    """The elements of the support, in order, lying outside the span of those before them,
    and whether their span is exactly the support (in a finite group: it is a subgroup)."""
    if not support:
        return [], False
    generators: List[GroupElement] = []
    span = {support[0].group.identity()}
    for t in support:
        if t not in span:
            generators.append(t)
            span = set(subgroup_generated(generators))
    return generators, span == set(support)


class Cocycle(_Frozen):
    """Table alpha(t, s) with X_t X_s = alpha(t, s) X_(ts) for a fine grading."""

    group: FiniteAbelianGroup
    support: Tuple[GroupElement, ...]
    values: Dict[Tuple[GroupElement, GroupElement], CycNumber]

    _from_units = False  # set on the tables that cocycle_from_units reads off matrices

    def __call__(self, t: GroupElement, s: GroupElement) -> CycNumber:
        return self.values[(t, s)]

    def first_identity_violation(self) -> Optional[Tuple[GroupElement, GroupElement, GroupElement]]:
        """First triple violating alpha(t,s) alpha(ts,u) = alpha(s,u) alpha(t,su), if any.

        A table returned by cocycle_from_units holds the identity with no check: it was
        read off X_t X_s = alpha(t, s) X_(ts) for nonzero matrices on a subgroup support,
        and (X_t X_s) X_u = X_t (X_s X_u) reads alpha(t,s) alpha(ts,u) X_(tsu) =
        alpha(s,u) alpha(t,su) X_(tsu) with X_(tsu) != 0.

        On any other table with a subgroup support and nonzero values the identity is
        associativity of the twisted group algebra on (e_t, e_s, e_u), so it holds for
        all u once it holds for u in a generating set: reassociate (e_t e_s)(e_z e_g) for
        u = zg, g a generator, and divide by alpha(z, g).  The certificate indexes the
        support once, so its |T|^2 |S| terms are scalar products and list lookups.  All
        triples are scanned only when it fails.
        """
        if self._from_units or self._identity_holds_on_generators():
            return None
        for t in self.support:
            for s in self.support:
                for u in self.support:
                    lhs = self.values[(t, s)] * self.values[(t * s, u)]
                    rhs = self.values[(s, u)] * self.values[(t, s * u)]
                    if lhs != rhs:
                        return (t, s, u)
        return None

    def _identity_holds_on_generators(self) -> bool:
        support = self.support
        generators, spans = _greedy_generators(support)
        table = [[self.values.get((t, s)) for s in support] for t in support]
        if not spans or any(a is None or a.is_zero() for row in table for a in row):
            return False
        index = {t: k for k, t in enumerate(support)}
        times = [[index[t * s] for s in support] for t in support]
        gens = [index[g] for g in generators]
        return all(row[s] * table[times[t][s]][g] == table[s][g] * row[times[s][g]]
                   for t, row in enumerate(table) for s in range(len(support)) for g in gens)

    def equals(self, other: "Cocycle") -> bool:
        if set(self.support) != set(other.support):
            return False
        return all(self.values[(t, s)] == other.values[(t, s)]
                   for t in self.support for s in self.support)


def _pivots(basis: Mapping[GroupElement, Matrix]) -> Dict[GroupElement, Tuple[int, int, CycNumber]]:
    """degree -> (i, j, 1/X[i, j]) at the first nonzero entry of X; a zero X has none."""
    pivots = {}
    for t, m in basis.items():
        for p in m.nonzero_positions()[:1]:
            pivots[t] = (*p, m[p].inverse())
    return pivots


def _generator_scalars(basis: Mapping[GroupElement, Matrix],
                       pivots: Mapping[GroupElement, Tuple[int, int, CycNumber]],
                       support: Sequence[GroupElement], generators: Sequence[GroupElement]
                       ) -> Optional[Dict[Tuple[GroupElement, GroupElement], CycNumber]]:
    """alpha(t, g) with X_t X_g = alpha(t, g) X_(tg) != 0 for t in support and g in
    generators, or None at the first product that is no such multiple.  The support must
    be a subgroup and every X_t nonzero and of one size."""
    scalars = {}
    for t in support:
        for g in generators:
            product = basis[t] * basis[g]
            i, j, inverse = pivots[t * g]
            scalar = product[i, j] * inverse
            if scalar.is_zero() or product != basis[t * g].scale(scalar):
                return None
            scalars[(t, g)] = scalar
    return scalars


def cocycle_from_units(group: FiniteAbelianGroup,
                       basis: Dict[GroupElement, Matrix]) -> Cocycle:
    """Twisting scalars of a one-matrix-per-degree family closed under products.

    Full products X_t X_g are compared with alpha(t, g) X_(tg) only for g in the greedy
    generating set S of the support, once every X_t is known to be nonzero
    (_generator_scalars).  That is enough: if s = zg with g in S and z a shorter word in
    S, then X_s = alpha(z, g)^(-1) X_z X_g, so X_t X_s = alpha(z, g)^(-1) alpha(t, z)
    alpha(tz, g) X_(ts) is a nonzero multiple by induction on the word length.  Every
    other alpha(t, s) is then read from the pivot entry (i, j) of X_(ts) alone, summed in
    the order Matrix.__mul__ uses, so each value is the one the full product gives.  All
    pairs are multiplied out, and the first fault in (t, s) order raised, only when that
    certificate fails.  The returned table holds the 2-cocycle identity by associativity
    (see Cocycle.first_identity_violation).
    """
    support = tuple(sorted(basis, key=GroupElement.sort_key))
    if not support:
        raise ValueError("need at least one generator")
    generators, spans = _greedy_generators(support)
    if not spans:
        raise ValueError("the degrees of the basis must form a subgroup")
    pivots = _pivots(basis)
    certified = None
    if len(pivots) == len(support) and len({m.n for m in basis.values()}) == 1:
        certified = _generator_scalars(basis, pivots, support, generators or support)

    def alpha(t: GroupElement, s: GroupElement) -> CycNumber:
        ts = t * s
        if certified is not None:  # X_t X_s is known to be a nonzero multiple of X_(ts)
            if (t, s) in certified:
                return certified[(t, s)]
            i, j, inverse = pivots[ts]
            return _product_entry(basis[t], basis[s], i, j) * inverse
        product = basis[t] * basis[s]  # uncertified: every pair is checked, in (t, s) order
        if ts not in pivots:
            raise ValueError(f"basis element of degree {ts} is zero")
        i, j, inverse = pivots[ts]
        scalar = product[i, j] * inverse
        if scalar.is_zero() or product != basis[ts].scale(scalar):
            raise ValueError(
                f"product of degrees {t} and {s} is not a nonzero multiple of the {ts} basis")
        return scalar

    cocycle = Cocycle(group, support, {(t, s): alpha(t, s) for t in support for s in support})
    _set(cocycle, "_from_units", True)
    return cocycle


def _product_entry(x: Matrix, y: Matrix, i: int, j: int) -> CycNumber:
    """(xy)[i, j], added up in the order Matrix.__mul__ adds it."""
    entry: Dict[int, CycNumber] = {}
    for k, a in x.rows.get(i, {}).items():
        b = y.rows.get(k, {}).get(j)
        if b is not None:
            _add_scaled(entry, a, {j: b})
    return entry.get(j, CycNumber.zero())


def extract_cocycle(algebra: GradedAlgebra) -> Cocycle:
    """Read off the twisting cocycle of a fine grading from its fixed basis.

    Once the products close, the n^2 matrices are independent exactly when tr X_e != 0
    and tr X_u = 0 for every other degree u (see verify_grading), so a closed but
    dependent family raises too."""
    if not algebra.is_fine():
        raise ValueError("cocycle extraction requires a fine grading")
    basis = {g: mats[0] for g, mats in algebra.components.items()}
    cocycle = cocycle_from_units(algebra.group, basis)
    if not _traces_separate(basis):
        raise ValueError("the basis of the fine grading is not linearly independent")
    return cocycle


def _stacked(mats: Sequence[Matrix]) -> SparseVector:
    """The entries of the (equal-size) matrices, one after another, as one vector."""
    size = mats[0].n ** 2 if mats else 0
    return SparseVector(len(mats) * size, {k * size + p: x for k, m in enumerate(mats)
                                           for p, x in m.vector().items()})


def centralizer(algebra: GradedAlgebra, mats: Sequence[Matrix]) -> List[Matrix]:
    """Basis of the centralizer of the given matrices inside M_n, for a grading of M_n.

    On a graded span (is_graded_subspace) the basis is solved component by component:
    for s of degree d the degree-gd part of M s - s M is M_g s - s M_g, so M commutes
    with a homogeneous spanning set exactly when every M_g does.  Any other span gets a
    plain basis from one kernel over the n^2 matrix units.
    """
    n = algebra.n

    def kernel(basis: Sequence[Matrix]) -> List[Matrix]:
        return [Matrix.combination(n, zip(sol, basis))
                for sol in nullspace(_stacked([b * s - s * b for s in mats]) for b in basis)]

    if not is_graded_subspace(algebra, mats):
        return kernel([Matrix.unit(n, i, j) for i in range(n) for j in range(n)])
    return [m for basis in algebra.components.values() for m in kernel(basis) if not m.is_zero()]


class IdentityComponentIdeal(_Frozen):
    """Simple block of the identity component of an elementary grading."""

    degree: GroupElement
    indices: Tuple[int, ...]

    @property
    def block_dimension(self) -> int:
        return len(self.indices)


def identity_component_ideals(algebra: GradedAlgebra) -> Tuple[IdentityComponentIdeal, ...]:
    """Blocks of the identity component, one per value of the defining tuple."""
    tau = algebra.elementary_tuple
    if tau is None:
        raise ValueError("identity component ideals need an elementary grading with a known tuple")
    classes = degree_classes(tau)
    return tuple(IdentityComponentIdeal(g, tuple(classes[g]))
                 for g in sorted(classes, key=GroupElement.sort_key))


def character_action(chi: Character, algebra: GradedAlgebra, m: Matrix) -> Matrix:
    """chi * m = sum over homogeneous parts m_g of chi(g) m_g."""
    return _act(chi, algebra.n, algebra.decompose(m))


def _act(chi: Character, n: int, parts: Dict[GroupElement, Matrix]) -> Matrix:
    return Matrix.combination(n, ((chi(g), part) for g, part in parts.items()))


def is_graded_subspace(algebra: GradedAlgebra, vectors: Sequence[Matrix]) -> bool:
    """True when every homogeneous part of every member stays in the subspace."""
    span = _Span(vectors, algebra.n)
    return all(span.contains(part) for v in vectors for part in algebra.decompose(v).values())


def is_invariant_subspace(algebra: GradedAlgebra, vectors: Sequence[Matrix],
                          characters: Optional[Sequence[Character]] = None) -> bool:
    """True when the subspace is stable under the character action.

    By default only the generators of the dual group are applied: phi_(chi psi) is
    phi_chi after phi_psi, so stability under them is stability under every character.
    """
    if characters is None:
        characters = _dual_generators(algebra.group)
    span = _Span(vectors, algebra.n)
    return all(span.contains(_act(chi, algebra.n, parts))
               for parts in map(algebra.decompose, vectors) for chi in characters)


class GradedMap(_Frozen):
    """A linear map between graded matrix algebras, given on a basis."""

    domain: GradedAlgebra
    codomain: GradedAlgebra
    pairs: Tuple[Tuple[Matrix, Matrix], ...]

    @_lazy
    def _sources(self) -> _Span:
        return _Span([src for src, _ in self.pairs], self.domain.n)

    def apply(self, m: Matrix) -> Matrix:
        """f(m) from the coordinates of m over the sources, summed in source order."""
        coords = self._sources.coordinates(m)
        if coords is None:
            raise ValueError("matrix is outside the span of the map's source basis")
        return Matrix.combination(self.codomain.n, ((c, self.pairs[k][1]) for k, c in coords.items()))


class HomomorphismReport(_Frozen):
    basis_ok: bool
    multiplicative_failures: Tuple[Tuple[int, int], ...]
    injective: bool
    degree_failures: Tuple[GroupElement, ...]

    @property
    def passed(self) -> bool:
        return self.basis_ok and self.injective and \
            not self.multiplicative_failures and not self.degree_failures


def _unit_table_from(column: Sequence[Matrix], row: Sequence[Matrix]) -> Optional[List[List[Matrix]]]:
    """Matrix units T_ij = F_i G_j from F_i = column[i], G_0 = F_0 and G_j = row[j - 1]
    for j >= 1; None unless F_i F_0 = F_i and G_j F_a = delta_ja F_0.

    These relations make T a system of matrix units: T_i0 = F_i F_0 = F_i and
    T_ij T_ab = F_i G_j F_a G_b = delta_ja F_i F_0 G_b = delta_ja T_ib.  Conversely any
    system of matrix units passes with F_i = T_i0 and G_j = T_0j, since T_i0 T_00 = T_i0
    and T_0j T_a0 = delta_ja T_00.  A system of matrix units is zero or independent:
    sum c_ij T_ij = 0 gives c_ij T_ab = T_ai (sum c T) T_jb = 0, and T_ab = 0 forces
    T_00 = T_0a T_ab T_b0 = 0.  This is the one place the unit relations are evaluated.
    """
    row = [column[0], *row]
    zero = Matrix.zeros(column[0].n)
    if not all(f * column[0] == f for f in column) or not all(
            g * f == (column[0] if j == a else zero) for j, g in enumerate(row) for a, f in enumerate(column)):
        return None
    return [[f] + [f * g for g in row[1:]] for f in column]


def graded_homomorphism_check(gmap: GradedMap) -> HomomorphismReport:
    """Verify that a basis table defines an injective degree-preserving algebra map.

    A map that sends scaled matrix units to multiples of units, between elementary
    gradings, is read off positions and tuples (_unit_map_report): index, scalar and
    group equalities, with no matrix built.  Any other map, and one that fails there,
    gets the certificate that applies the map f to 2n - 1 units only: F_i = f(E_i0) and
    G_j = f(E_0j), with G_0 = F_0.  It passes when _unit_table_from(F, G) gives a
    system T of matrix units and f(x) = sum x_ij T_ij on every given pair (x, f(x)).
    This is exact:
      - if it passes, psi(x) = sum x_ij T_ij is multiplicative, and f = psi on a basis
        of M_n;
      - if f is multiplicative, F_i F_0 = f(E_i0 E_00) = F_i, G_j F_a = f(E_0j E_a0) =
        delta_ja F_0 and T_ij = f(E_i0 E_0j) = f(E_ij), so f(x) = sum x_ij T_ij.
    Either way T_ij = f(E_ij) once it passes.  Only when it fails are all n^2 units
    applied and all basis pairs compared, f(xy) read as sum (xy)_ab f(E_ab).  Spans
    of scaled matrix units, among the sources and in the codomain's components, are
    read by position (see _Span).
    """
    domain, codomain = gmap.domain, gmap.codomain
    n = domain.n
    images = _Span([img for _, img in gmap.pairs], codomain.n)
    basis_ok = len(gmap.pairs) == gmap._sources.rank == n * n
    if not basis_ok:
        return HomomorphismReport(False, (), images.rank == len(gmap.pairs), ())
    report = _unit_map_report(gmap)
    if report is not None:
        return report
    fs = [gmap.apply(Matrix.unit(n, i, 0)) for i in range(n)]
    gs = [gmap.apply(Matrix.unit(n, 0, j)) for j in range(1, n)]
    units = _unit_table_from(fs, gs)
    if units is not None and any(_image(x, units) != fx for x, fx in gmap.pairs):
        units = None
    mult_failures: List[Tuple[int, int]] = []
    if units is None:
        units = [[fs[i] if j == 0 else gs[j - 1] if i == 0 else gmap.apply(Matrix.unit(n, i, j))
                  for j in range(n)] for i in range(n)]
        mult_failures = [(i, j) for i, (x, fx) in enumerate(gmap.pairs)
                         for j, (y, fy) in enumerate(gmap.pairs) if _image(x * y, units) != fx * fy]
    if not mult_failures:  # the kernel is an ideal of the simple M_n, so 0 or all
        injective = any(not t.is_zero() for row in units for t in row)
    else:
        injective = images.rank == len(gmap.pairs)
    degree_failures: List[GroupElement] = []
    for g, mats in domain.components.items():
        target = codomain._component_spans.get(g)
        for b in mats:
            image = _image(b, units)
            if not image.is_zero() and (target is None or not target.contains(image)):
                degree_failures.append(g)
                break
    return HomomorphismReport(True, tuple(mult_failures), injective, tuple(degree_failures))


def _unit_map_report(gmap: GradedMap) -> Optional[HomomorphismReport]:
    """The report of a unit map between elementary gradings, read off positions and tuples
    with no matrix or solver built; None unless the route applies and f is multiplicative.

    The route applies when the n^2 sources are scaled units a E_ij at distinct
    positions, every image is a codomain-size matrix with one nonzero entry, and both
    algebras are elementary gradings, of tuples tau and tau' over one group.  Write f(E_ij)
    = lambda_ij E_(r_ij, c_ij), so lambda_ij = mu / a for the pair (a E_ij, mu E_(r, c)),
    and sigma(i) = r_i0.  f is multiplicative exactly when
      (1) sigma is injective, (2) lambda_00 = 1 and lambda_0j lambda_j0 = 1 for all j,
      (3) f(E_ij) = lambda_i0 lambda_0j E_(sigma(i), sigma(j)) for all i, j.
    Proof, from the certificate of graded_homomorphism_check, which passes exactly on
    multiplicative maps: _unit_table_from's relations on F_i = f(E_i0), G_j = f(E_0j)
    and G_0 = F_0, then f(E_ij) = T_ij on every pair.  Every lambda is nonzero.
      - F_i F_0 = lambda_i0 lambda_00 [c_i0 = r_00] E_(r_i0, c_00) is F_i for all i
        exactly when c_i0 = c_00 = r_00 = sigma(0) and lambda_00 = 1;
      - given that, G_j F_a = lambda_0j lambda_a0 [c_0j = sigma(a)] E_(r_0j, sigma(0))
        is delta_ja F_0 = delta_ja E_(sigma(0), sigma(0)) for all j, a exactly when
        r_0j = sigma(0), c_0j = sigma(j), lambda_0j lambda_j0 = 1 (a = j) and
        sigma(j) != sigma(a) for a != j, that is, (1);
      - so the relations hold exactly when (1), (2), F_i = lambda_i0 E_(sigma(i), sigma(0))
        and G_j = lambda_0j E_(sigma(0), sigma(j)), and then T_ij = F_i G_j =
        lambda_i0 lambda_0j E_(sigma(i), sigma(j)); f(E_ij) = T_ij is (3), which at
        i = 0 or j = 0 is those shapes of F_i and G_j.
    Once they hold, f is injective, as every f(E_ij) = T_ij is nonzero, and sends E_ij,
    of degree tau_i^(-1) tau_j, into degree tau'_sigma(i)^(-1) tau'_sigma(j) =
    tau_i^(-1) tau_j c_i^(-1) c_j, with c_i = tau'_sigma(i) tau_i^(-1).  So f is graded
    exactly when all c_i are equal; otherwise the tau_i^(-1) tau_j with c_i != c_j fail.
    lambda_00 = 1 needs no test of its own: (3) at (0, 0) reads lambda_00 = lambda_00^2.
    That is n^2 index comparisons, 2 n^2 + O(n) scalar and O(n) group products on a
    graded map.  A map that fails (1)-(3) is not multiplicative, and None sends it to the
    certificate's fallback, which lists every failure.
    """
    domain, codomain = gmap.domain, gmap.codomain
    n, m = domain.n, codomain.n
    tau, tau_p, index = domain.elementary_tuple, codomain.elementary_tuple, gmap._sources.positions
    if index is None or tau is None or tau_p is None or domain.group != codomain.group:
        return None
    cells = []  # (r, c, mu, a) of the pair (a E_ij, mu E_(r, c)), at i n + j
    for p in range(n * n):
        source, image = gmap.pairs[index[p]]
        if image.n != m or len(image.rows) != 1:
            return None
        (r, row), = image.rows.items()
        if len(row) != 1:
            return None
        (c, mu), = row.items()
        (a,) = source.rows[p // n].values()
        cells.append((r, c, mu, a))
    sigma = [r for r, _, _, _ in cells[::n]]
    lambda_i0 = [mu * a.inverse() for _, _, mu, a in cells[::n]]
    lambda_0j = [mu * a.inverse() for _, _, mu, a in cells[:n]]
    one = CycNumber.one()
    if len(set(sigma)) != n or any(x * y != one for x, y in zip(lambda_0j, lambda_i0)):
        return None
    for p, (r, c, mu, a) in enumerate(cells):
        i, j = divmod(p, n)
        if r != sigma[i] or c != sigma[j] or mu != a * lambda_i0[i] * lambda_0j[j]:
            return None
    shifts = [tau_p[s] * t.inverse() for s, t in zip(sigma, tau)]  # c_i
    kinds = set(zip(tau, shifts)) if len(set(shifts)) > 1 else ()  # none when f is graded
    failing = {t.inverse() * u for t, c in kinds for u, d in kinds if c != d}
    return HomomorphismReport(True, (), True, tuple(g for g in domain.components if g in failing))


def _image(x: Matrix, units: Sequence[Sequence[Matrix]]) -> Matrix:
    """sum x_ij units[i][j], added by increasing i: x under the linear map sending E_ij to units[i][j]."""
    return Matrix.combination(units[0][0].n, (
        (a, units[i][j]) for i, row in sorted(x.rows.items()) for j, a in row.items()))


class ElementaryUnits(_Frozen):
    """Homogeneous matrix units certifying that a graded algebra is elementary."""

    size: int
    units: Dict[Tuple[int, int], Matrix]
    degrees: Tuple[GroupElement, ...]


def _unit_relation_violation(table: Sequence[Sequence[Matrix]]) -> Optional[Tuple[int, ...]]:
    """First (i, j, a, b) with table[i][j] * table[a][b] != delta_ja table[i][b], if any.
    The table is a system of matrix units exactly when _unit_table_from rebuilds it
    from its first column and first row; only a table that fails is scanned."""
    if _unit_table_from([row[0] for row in table], table[0][1:]) == [list(row) for row in table]:
        return None
    k = len(table)
    for i, j, a, b in itertools.product(range(k), repeat=4):
        product = table[i][j] * table[a][b]
        if (product != table[i][b]) if j == a else not product.is_zero():
            return i, j, a, b
    return None


def _reduce_component(mats: Sequence[Matrix]) -> List[Matrix]:
    return [mats[i] for i in independent_subset([m.vector() for m in mats])]


def _dimension(components: Mapping[GroupElement, Sequence[Matrix]]) -> int:
    return sum(len(mats) for mats in components.values())


def homogeneous_matrix_units(components: Mapping[GroupElement, Sequence[Matrix]],
                             unit: Matrix) -> ElementaryUnits:
    """Find homogeneous matrix units of a simple algebra C spanned homogeneously.

    The search descends from the unit to one primitive homogeneous idempotent f0 by
    exact linear algebra: an annihilator of a module vector gives a singular
    homogeneous element, the graded left ideal it generates has a homogeneous right
    identity f, and only the smaller corner, of f or u - f, is built and searched next:
    C ~ M_p acts on u F^n as m copies of F^p, so an idempotent e of C has tr e =
    m rank e and dim eCe = (rank e)^2, and the smaller trace wins, f on a tie.
    Homogeneous bases v_i of C f0 and w_j of f0 C pair into the one-dimensional
    corner, w_j v_i = B_ji f0, and E_ij = v_i sum_k (B^-1)_jk w_k are matrix units
    of degree deg(v_i) deg(v_j)^-1.  Raises ValueError when the bounded candidate
    search fails; success is a proof that the grading is elementary, failure is
    not a disproof.
    """
    # sorted once: every corner keeps this order of degrees
    comps = {g: _reduce_component(components[g]) for g in sorted(components, key=GroupElement.sort_key)}
    comps = {g: mats for g, mats in comps.items() if mats}
    if not comps:
        raise ValueError("empty algebra")
    identity = next(iter(comps)).group.identity()
    total_dim = _dimension(comps)
    p = math.isqrt(total_dim)
    if p * p != total_dim:
        raise ValueError(f"dimension {total_dim} is not a perfect square")
    n = unit.n

    def candidate_vectors(u: Matrix, cc) -> Iterator[Tuple[CycNumber, ...]]:
        """The nonzero columns of u and of each basis matrix, then, for pairs i < j of
        the first 12 of them, the sum and the difference when nonzero; each made when read."""
        base = []
        for column in (m.column(j) for m in itertools.chain([u], *cc.values()) for j in range(n)):
            if any(not x.is_zero() for x in column):
                base.append(column)
                yield column
        for a, b in itertools.combinations(base[:12], 2):
            for vec in (tuple(x + y for x, y in zip(a, b)), tuple(x - y for x, y in zip(a, b))):
                if any(not x.is_zero() for x in vec):
                    yield vec

    def find_singular(u: Matrix, cc) -> Optional[Tuple[Matrix, GroupElement]]:
        """A nonzero homogeneous element annihilating some candidate vector w.  Each basis
        is independent, so the nonzero relation among the b w that nullspace gives
        combines the basis into x != 0."""
        for w in candidate_vectors(u, cc):
            for g, basis in cc.items():
                solutions = nullspace([b.apply(w) for b in basis])
                if solutions:
                    return Matrix.combination(n, zip(solutions[0], basis)), g
        return None

    def corner_components(f: Matrix, cc) -> Dict[GroupElement, List[Matrix]]:
        reduced = ((g, _reduce_component([f * b * f for b in basis])) for g, basis in cc.items())
        return {g: mats for g, mats in reduced if mats}

    def split(u: Matrix, cc) -> Matrix:
        """A homogeneous idempotent f with 0 != f != u inside the corner of u.  The solve
        gives y f = y for the members y of an ideal; f is a combination of them, so f f = f,
        and f != 0 as some y != 0."""
        found = find_singular(u, cc)
        if found is None:
            raise ValueError("no homogeneous singular element found; cannot certify an elementary structure")
        x, x_deg = found
        # g -> g deg x is a bijection, so no two degrees of cc share a key
        ideal = {g * x_deg: mats for g, basis in cc.items()
                 if (mats := _reduce_component([b * x for b in basis]))}
        identity_part = ideal.get(identity, [])
        if not identity_part:
            raise ValueError("graded left ideal has no identity-degree part; cannot split")
        all_members = [m for g in sorted(ideal, key=GroupElement.sort_key) for m in ideal[g]]
        # f = sum c_k f_k with y*f = y for every member y
        solver = SpanSolver(_stacked([y * fk for y in all_members]) for fk in identity_part)
        solution = solver.sparse_coordinates(_stacked(all_members))
        if solution is None:
            raise ValueError("graded left ideal has no homogeneous right identity")
        f = Matrix.combination(n, ((c, identity_part[k]) for k, c in solution.items()))
        if f == u:
            raise ValueError("ideal splitting degenerated to the whole algebra")
        return f

    f0, corner = unit, comps
    while _dimension(corner) > 1:
        f = split(f0, corner)
        f0 = f if 2 * f.trace().as_rational() <= f0.trace().as_rational() else f0 - f
        corner = corner_components(f0, corner)

    # homogeneous bases of C f0 and f0 C, with the degree of each member
    columns = [(m, g) for g, basis in comps.items() for m in _reduce_component([b * f0 for b in basis])]
    rows = [w for basis in comps.values() for w in _reduce_component([f0 * b for b in basis])]
    if len(columns) != p or len(rows) != p:
        raise ValueError(f"a primitive idempotent has {len(columns)} columns and {len(rows)} rows, "
                         f"expected {p}")
    i0, j0 = f0.nonzero_positions()[0]
    scale = f0[i0, j0].inverse()
    pairing = Matrix([[_product_entry(w, v, i0, j0) * scale for v, _ in columns] for w in rows])
    try:
        inverse = pairing.inverse()
    except ZeroDivisionError:
        raise ValueError("the column and row spaces of the primitive idempotent pair singularly") from None
    duals = [Matrix.combination(n, ((c, rows[k]) for k, c in row.items()))
             for _, row in sorted(inverse.rows.items())]
    # v_i d_j = v_i d_0 v_0 d_j, as d_0 v_0 = f0 and v_i f0 = v_i
    table = _unit_table_from([v * duals[0] for v, _ in columns], [columns[0][0] * d for d in duals[1:]])
    if table is None:
        raise ValueError("candidate matrix units violate the unit relations")
    if sum((table[i][i] for i in range(p)), Matrix.zeros(n)) != unit:
        raise ValueError("diagonal units do not sum to the unit")
    if table[0][0].is_zero():  # matrix units are independent unless they all vanish
        raise ValueError("matrix units are not independent")
    units = {(i, j): t for i, row in enumerate(table) for j, t in enumerate(row)}
    return ElementaryUnits(p, units, tuple(g.inverse() for _, g in columns))


def is_elementary(algebra: GradedAlgebra) -> bool:
    """True when homogeneous matrix units certify the grading elementary.

    Every True carries units that `homogeneous_matrix_units` has checked.  Complete
    for fine gradings (answer False for n > 1) and for gradings whose identity
    component contains the diagonal; otherwise False means that the bounded search
    for a singular element failed in a corner on the way down to a primitive
    idempotent, not that no units exist.
    """
    if algebra.n == 1:
        return True
    if algebra.is_fine():
        return False
    try:
        homogeneous_matrix_units(algebra.components, algebra.identity())
        return True
    except ValueError:
        return False
