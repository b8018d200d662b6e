"""Group gradings on matrix algebras: constructors, verification, structure queries."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .cyclotomic import CycNumber, root_of_unity
from .groups import Character, FiniteAbelianGroup, GroupElement, degree_classes, subgroup_generated
from .linalg import SpanSolver, independent_subset, nullspace, solve_linear
from .matrices import Matrix


class GradedAlgebra:
    """M_n(F) with a decomposition into components indexed by group elements.

    Each component is stored as a list of basis matrices.  Whether the data
    actually forms a grading is established by verify_grading, not assumed.
    """

    def __init__(self, group: FiniteAbelianGroup, n: int,
                 components: Mapping[GroupElement, Sequence[Matrix]],
                 elementary_tuple: Optional[Tuple[GroupElement, ...]] = None):
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
        self.elementary_tuple = tuple(elementary_tuple) if elementary_tuple is not None else None

    @property
    def dimension(self) -> int:
        return sum(len(mats) for mats in self.components.values())

    def component(self, g: GroupElement) -> Tuple[Matrix, ...]:
        return self.components.get(g, ())

    def support(self) -> Tuple[GroupElement, ...]:
        return tuple(self.components.keys())

    @cached_property
    def _union_basis(self) -> Tuple[Tuple[GroupElement, Matrix], ...]:
        return tuple((g, m) for g, mats in self.components.items() for m in mats)

    def union_basis(self) -> Tuple[Tuple[GroupElement, Matrix], ...]:
        return self._union_basis

    def identity(self) -> Matrix:
        return Matrix.identity(self.n)

    @cached_property
    def _solver(self) -> SpanSolver:
        return SpanSolver([m.vector() for _, m in self._union_basis])

    @cached_property
    def _component_solvers(self) -> Dict[GroupElement, SpanSolver]:
        return {g: SpanSolver([m.vector() for m in mats])
                for g, mats in self.components.items()}

    def decompose(self, m: Matrix) -> Dict[GroupElement, Matrix]:
        """Homogeneous parts of m, keyed by degree; only nonzero parts appear."""
        if m.n != self.n:
            raise ValueError(f"matrix size {m.n} does not match algebra size {self.n}")
        coords = self._solver.sparse_coordinates(m.vector())
        if coords is None:
            raise ValueError("matrix is not in the span of the components")
        basis = self._union_basis  # grouped by degree; coords run in its order
        parts = {g: Matrix.combination(self.n, ((c, basis[i][1]) for i, c in terms))
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
    n = len(tau)
    components: Dict[GroupElement, List[Matrix]] = {}
    for i in range(n):
        for j in range(n):
            degree = tau[i].inverse() * tau[j]
            components.setdefault(degree, []).append(Matrix.unit(n, i, j))
    return GradedAlgebra(group, n, components, elementary_tuple=tau)


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
    eps = root_of_unity(n, 1)
    x_a = Matrix.diagonal([eps ** (n - 1 - i) for i in range(n)])
    shift_rows = [[CycNumber.one() if c == (r + 1) % n else CycNumber.zero()
                   for c in range(n)] for r in range(n)]
    x_b = Matrix(shift_rows)
    powers_a = [Matrix.identity(n)]
    powers_b = [Matrix.identity(n)]
    for _ in range(n - 1):
        powers_a.append(powers_a[-1] * x_a)
        powers_b.append(powers_b[-1] * x_b)
    components = {labels[(i, j)]: [powers_a[i] * powers_b[j]]
                  for i in range(n) for j in range(n)}
    return GradedAlgebra(group, n, components)


def induced_tensor_grading(left: GradedAlgebra, right: GradedAlgebra) -> GradedAlgebra:
    """Grading on M_k (x) M_m with deg(E_ij (x) x) = g_i^(-1) h g_j for deg x = h."""
    if left.group != right.group:
        raise ValueError("both factors must be graded by the same group")
    if left.elementary_tuple is None:
        raise ValueError("left factor must be elementary with a known defining tuple")
    tau = left.elementary_tuple
    k = left.n
    components: Dict[GroupElement, List[Matrix]] = {}
    for i in range(k):
        for j in range(k):
            unit = Matrix.unit(k, i, j)
            prefix = tau[i].inverse() * tau[j]
            for h, mats in right.components.items():
                degree = prefix * h
                for x in mats:
                    components.setdefault(degree, []).append(unit.kron(x))
    return GradedAlgebra(left.group, k * right.n, components)


@dataclass(frozen=True)
class GradingReport:
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
    chi of the dual group acts by an algebra map sum chi(g) pi_g, i.e. its images of
    the matrix units satisfy the unit relations; basis pairs are scanned only if not.
    """
    n = algebra.n
    total = algebra.dimension
    dimension_ok = total == n * n
    independent = algebra._solver.rank == total
    if dimension_ok and independent:
        parts = [[algebra.decompose(Matrix.unit(n, i, j)) for j in range(n)] for i in range(n)]
        factors = range(len(algebra.group.factors))
        generators = [Character(algebra.group, tuple(int(s == t) for s in factors)) for t in factors]
        if all(_unit_relations_hold([[_act(chi, n, p) for p in row] for row in parts])
               for chi in generators):
            return GradingReport(n, total, True, True, ())
    failures: List[Tuple[GroupElement, GroupElement, Matrix]] = []
    for g, g_mats in algebra.components.items():
        for h, h_mats in algebra.components.items():
            target_solver = algebra._component_solvers.get(g * h)
            for x in g_mats:
                for y in h_mats:
                    product = x * y
                    if product.is_zero():
                        continue
                    if target_solver is None or not target_solver.contains(product.vector()):
                        failures.append((g, h, product))
    return GradingReport(n, total, dimension_ok, independent, tuple(failures))


def support_is_subgroup(algebra: GradedAlgebra) -> bool:
    supp = set(algebra.components.keys())
    identity = algebra.group.identity()
    if identity not in supp:
        return False
    return all(g * h in supp for g in supp for h in supp) and \
        all(g.inverse() in supp for g in supp)


@dataclass(frozen=True)
class Cocycle:
    """Table alpha(t, s) with X_t X_s = alpha(t, s) X_(ts) for a fine grading."""

    group: FiniteAbelianGroup
    support: Tuple[GroupElement, ...]
    values: Dict[Tuple[GroupElement, GroupElement], CycNumber]

    def __call__(self, t: GroupElement, s: GroupElement) -> CycNumber:
        return self.values[(t, s)]

    def first_identity_violation(self) -> Optional[Tuple[GroupElement, GroupElement, GroupElement]]:
        """First triple violating alpha(t,s) alpha(ts,u) = alpha(s,u) alpha(t,su), if any.

        On a subgroup support with nonzero values this is associativity of the twisted group
        algebra on (e_t, e_s, e_u), so it holds for all u once it holds for u in a generating
        set: reassociate (e_t e_s)(e_z e_g) for u = zg, g a generator, and divide by
        alpha(z, g).  All triples are scanned only when that certificate fails.
        """
        if self._identity_holds_on_generators():
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
        generators: List[GroupElement] = []
        span = {self.group.identity()}
        for t in self.support:
            if t not in span:
                generators.append(t)
                span = set(subgroup_generated(generators))
        alpha = self.values
        if not self.support or span != set(self.support) or any(
                (t, s) not in alpha or alpha[(t, s)].is_zero()
                for t in self.support for s in self.support):
            return False
        return all(alpha[(t, s)] * alpha[(t * s, g)] == alpha[(s, g)] * alpha[(t, s * g)]
                   for t in self.support for s in self.support for g in generators)

    def equals(self, other: "Cocycle") -> bool:
        if set(self.support) != set(other.support):
            return False
        return all(self.values[(t, s)] == other.values[(t, s)]
                   for t in self.support for s in self.support)


def cocycle_from_units(group: FiniteAbelianGroup,
                       basis: Dict[GroupElement, Matrix]) -> Cocycle:
    """Twisting scalars of a one-matrix-per-degree family closed under products."""
    support = tuple(sorted(basis, key=GroupElement.sort_key))
    if set(subgroup_generated(support)) != set(support):
        raise ValueError("the degrees of the basis must form a subgroup")
    values: Dict[Tuple[GroupElement, GroupElement], CycNumber] = {}
    pivots: Dict[GroupElement, Tuple[int, int, CycNumber]] = {}  # degree -> (i, j, 1/X[i, j])
    for t in support:
        for s in support:
            product = basis[t] * basis[s]
            target = basis[t * s]
            if t * s not in pivots:
                positions = target.nonzero_positions()
                if not positions:
                    raise ValueError(f"basis element of degree {t * s} is zero")
                pivots[t * s] = (*positions[0], target[positions[0]].inverse())
            i, j, inverse = pivots[t * s]
            scalar = product[i, j] * inverse
            if scalar.is_zero() or product != target.scale(scalar):
                raise ValueError(
                    f"product of degrees {t} and {s} is not a nonzero multiple of the {t * s} basis")
            values[(t, s)] = scalar
    return Cocycle(group, support, values)


def extract_cocycle(algebra: GradedAlgebra) -> Cocycle:
    """Read off the twisting cocycle of a fine grading from its fixed basis."""
    if not algebra.is_fine():
        raise ValueError("cocycle extraction requires a fine grading")
    if not support_is_subgroup(algebra):
        raise ValueError("the support of a fine grading must be a subgroup")
    basis = {g: mats[0] for g, mats in algebra.components.items()}
    return cocycle_from_units(algebra.group, basis)


def centralizer(algebra: GradedAlgebra, mats: Sequence[Matrix]) -> List[Matrix]:
    """Basis of the centralizer of the given matrices inside M_n.

    When the input is spanned by homogeneous elements the returned basis is
    homogeneous (component by component); otherwise a plain basis is returned.
    """
    n = algebra.n

    def commutator_rows(basis: Sequence[Matrix]) -> List[List[CycNumber]]:
        rows = []
        for s in mats:
            images = [b * s - s * b for b in basis]
            positions = sorted({p for img in images for p in img.nonzero_positions()})
            rows.extend([img[i, j] for img in images] for i, j in positions)
        return rows

    full_basis = [Matrix.unit(n, i, j) for i in range(n) for j in range(n)]
    full_solutions = nullspace(commutator_rows(full_basis), n * n)

    graded: List[Matrix] = []
    for basis in algebra.components.values():
        for sol in nullspace(commutator_rows(basis), len(basis)):
            m = Matrix.combination(n, zip(sol, basis))
            if not m.is_zero():
                graded.append(m)
    if len(graded) == len(full_solutions):
        return graded
    out = []
    for sol in full_solutions:
        rows_m = [[sol[i * n + j] for j in range(n)] for i in range(n)]
        out.append(Matrix(rows_m))
    return out


@dataclass(frozen=True)
class IdentityComponentIdeal:
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
    solver = SpanSolver([v.vector() for v in vectors])
    for v in vectors:
        for part in algebra.decompose(v).values():
            if not solver.contains(part.vector()):
                return False
    return True


def is_invariant_subspace(algebra: GradedAlgebra, vectors: Sequence[Matrix],
                          characters: Optional[Sequence[Character]] = None) -> bool:
    """True when the subspace is stable under the character action."""
    if characters is None:
        characters = algebra.group.characters()
    solver = SpanSolver([v.vector() for v in vectors])
    for v in vectors:
        parts = algebra.decompose(v)
        for chi in characters:
            if not solver.contains(_act(chi, algebra.n, parts).vector()):
                return False
    return True


@dataclass(frozen=True)
class GradedMap:
    """A linear map between graded matrix algebras, given on a basis."""

    domain: GradedAlgebra
    codomain: GradedAlgebra
    pairs: Tuple[Tuple[Matrix, Matrix], ...]

    @cached_property
    def _source_solver(self) -> SpanSolver:
        return SpanSolver([src.vector() for src, _ in self.pairs])

    def apply(self, m: Matrix) -> Matrix:
        coords = self._source_solver.sparse_coordinates(m.vector())
        if coords is None:
            raise ValueError("matrix is outside the span of the map's source basis")
        return Matrix.combination(self.codomain.n, ((c, self.pairs[i][1]) for i, c in coords.items()))


@dataclass(frozen=True)
class HomomorphismReport:
    basis_ok: bool
    multiplicative_failures: Tuple[Tuple[int, int], ...]
    injective: bool
    degree_failures: Tuple[GroupElement, ...]

    @property
    def passed(self) -> bool:
        return self.basis_ok and self.injective and \
            not self.multiplicative_failures and not self.degree_failures


def graded_homomorphism_check(gmap: GradedMap) -> HomomorphismReport:
    """Verify that a basis table defines an injective degree-preserving algebra map.

    The map is multiplicative exactly when its images of the matrix units
    satisfy the unit relations; all basis pairs are compared only if they fail.
    """
    domain = gmap.domain
    n1 = domain.n
    basis_ok = len(gmap.pairs) == gmap._source_solver.rank == n1 * n1
    images = [[gmap.apply(Matrix.unit(n1, i, j)) for j in range(n1)] for i in range(n1)] if basis_ok else []
    mult_failures: List[Tuple[int, int]] = []
    if basis_ok and not _unit_relations_hold(images):
        for i, (x, fx) in enumerate(gmap.pairs):
            for j, (y, fy) in enumerate(gmap.pairs):
                if gmap.apply(x * y) != fx * fy:
                    mult_failures.append((i, j))
    if basis_ok and not mult_failures:  # the kernel is an ideal of the simple M_n, so 0 or all
        injective = any(not image.is_zero() for row in images for image in row)
    else:
        image_solver = SpanSolver()
        injective = all(image_solver.add(img.vector()) for _, img in gmap.pairs)
    degree_failures: List[GroupElement] = []
    if basis_ok:
        codomain_solvers = gmap.codomain._component_solvers
        for g, mats in domain.components.items():
            target = codomain_solvers.get(g)
            for b in mats:
                image = Matrix.combination(gmap.codomain.n, (
                    (a, images[i][j]) for i, row in enumerate(b.rows) for j, a in row.items()))
                if image.is_zero():
                    continue
                if target is None or not target.contains(image.vector()):
                    if g not in degree_failures:
                        degree_failures.append(g)
    return HomomorphismReport(basis_ok, tuple(mult_failures), injective, tuple(degree_failures))


def matrix_degree_for_tuple(m: Matrix, tau: Sequence[GroupElement]) -> Optional[GroupElement]:
    """Degree of m in the elementary grading by tau, None if not homogeneous."""
    degree = None
    for (i, j) in m.nonzero_positions():
        d = tau[i].inverse() * tau[j]
        if degree is None:
            degree = d
        elif degree != d:
            return None
    if degree is None:
        raise ValueError("the zero matrix has no degree")
    return degree


@dataclass(frozen=True)
class ElementaryUnits:
    """Homogeneous matrix units certifying that a graded algebra is elementary."""

    size: int
    units: Dict[Tuple[int, int], Matrix]
    degrees: Tuple[GroupElement, ...]


def _unit_relations_hold(table: Sequence[Sequence[Matrix]]) -> bool:
    """True when T_ij T_ab = delta_ja T_ib for the table T.  Only T_i0 T_0j = T_ij and
    T_0j T_a0 = delta_ja T_00 are tested: they give T_ij T_ab = delta_ja T_i0 T_00 T_0b."""
    pairs = list(itertools.product(range(len(table)), repeat=2))
    zero = Matrix.zeros(table[0][0].n)
    return all(table[i][0] * table[0][j] == table[i][j] for i, j in pairs) \
        and all(table[0][j] * table[a][0] == (table[0][0] if j == a else zero) for j, a in pairs)


def _unit_relation_violation(table: Sequence[Sequence[Matrix]]) -> Optional[Tuple[int, ...]]:
    """First (i, j, a, b) with table[i][j] * table[a][b] != delta_ja table[i][b], if any."""
    if _unit_relations_hold(table):
        return None
    k = len(table)
    for i, j, a, b in itertools.product(range(k), repeat=4):
        product = table[i][j] * table[a][b]
        if (product != table[i][b]) if j == a else not product.is_zero():
            return i, j, a, b
    return None


def _reduce_component(mats: Sequence[Matrix]) -> List[Matrix]:
    return [mats[i] for i in independent_subset([m.vector() for m in mats])]


def homogeneous_matrix_units(components: Mapping[GroupElement, Sequence[Matrix]],
                             unit: Matrix) -> ElementaryUnits:
    """Find homogeneous matrix units of a simple algebra spanned homogeneously.

    The search splits the unit into primitive homogeneous idempotents by exact
    linear algebra: an annihilator of a module vector gives a singular
    homogeneous element, the graded left ideal it generates has a homogeneous
    right identity, and that idempotent splits the algebra into corners.
    Raises ValueError when the bounded candidate search fails; success is a
    proof that the grading is elementary, failure is not a disproof.
    """
    comps = {g: _reduce_component(mats) for g, mats in components.items()}
    comps = {g: mats for g, mats in comps.items() if mats}
    if not comps:
        raise ValueError("empty algebra")
    group = next(iter(comps)).group
    identity = group.identity()
    total_dim = sum(len(mats) for mats in comps.values())
    p = math.isqrt(total_dim)
    if p * p != total_dim:
        raise ValueError(f"dimension {total_dim} is not a perfect square")
    n = unit.n

    def sorted_degrees(cc):
        return sorted(cc, key=GroupElement.sort_key)

    def candidate_vectors(u: Matrix, cc) -> List[Tuple[CycNumber, ...]]:
        pool: List[Tuple[CycNumber, ...]] = []

        def push(vec):
            if any(not x.is_zero() for x in vec):
                pool.append(tuple(vec))

        for j in range(n):
            push(u.column(j))
        for g in sorted_degrees(cc):
            for b in cc[g]:
                for j in range(n):
                    push(b.column(j))
        base = list(pool)
        cap = min(len(base), 12)
        for i in range(cap):
            for j in range(i + 1, cap):
                push([x + y for x, y in zip(base[i], base[j])])
                push([x - y for x, y in zip(base[i], base[j])])
        return pool

    def find_singular(u: Matrix, cc) -> Optional[Tuple[Matrix, GroupElement]]:
        """A nonzero homogeneous element annihilating some candidate vector."""
        for w in candidate_vectors(u, cc):
            for g in sorted_degrees(cc):
                basis = cc[g]
                images = [b.apply(w) for b in basis]
                solutions = nullspace([[img[i] for img in images] for i in range(n)], len(basis))
                if solutions:
                    x = Matrix.combination(n, zip(solutions[0], basis))
                    if not x.is_zero():
                        return x, g
        return None

    def corner_components(f: Matrix, cc) -> Dict[GroupElement, List[Matrix]]:
        out: Dict[GroupElement, List[Matrix]] = {}
        for g in sorted_degrees(cc):
            reduced = _reduce_component([f * b * f for b in cc[g]])
            if reduced:
                out[g] = reduced
        return out

    def split(u: Matrix, cc) -> List[Matrix]:
        dim = sum(len(mats) for mats in cc.values())
        if dim == 1:
            return [u]
        found = find_singular(u, cc)
        if found is None:
            raise ValueError("no homogeneous singular element found; cannot certify an elementary structure")
        x, x_deg = found
        ideal_by_degree: Dict[GroupElement, List[Matrix]] = {}
        for g in sorted_degrees(cc):
            for b in cc[g]:
                product = b * x
                if not product.is_zero():
                    ideal_by_degree.setdefault(g * x_deg, []).append(product)
        ideal_by_degree = {g: mats for g, mats in
                           ((g, _reduce_component(v)) for g, v in ideal_by_degree.items()) if mats}
        identity_part = ideal_by_degree.get(identity, [])
        if not identity_part:
            raise ValueError("graded left ideal has no identity-degree part; cannot split")
        all_members = [m for g in sorted_degrees(ideal_by_degree) for m in ideal_by_degree[g]]
        rows = []
        rhs = []
        for y in all_members:
            products = [y * fk for fk in identity_part]
            # positions where y and every product vanish give only zero equations
            for i, j in sorted({p for m in products + [y] for p in m.nonzero_positions()}):
                rows.append([prod[i, j] for prod in products])
                rhs.append(y[i, j])
        solution = solve_linear(rows, rhs)
        if solution is None:
            raise ValueError("graded left ideal has no homogeneous right identity")
        f = Matrix.combination(n, zip(solution, identity_part))
        if f.is_zero() or f * f != f:
            raise ValueError("right identity solve produced a non-idempotent")
        if f == u:
            raise ValueError("ideal splitting degenerated to the whole algebra")
        complement = u - f
        return split(f, corner_components(f, cc)) + split(complement, corner_components(complement, cc))

    primitives = split(unit, comps)
    if len(primitives) != p:
        raise ValueError(f"found {len(primitives)} primitive idempotents, expected {p}")

    def bridge(i: int, j: int) -> Tuple[Matrix, GroupElement]:
        candidates = []
        for g in sorted_degrees(comps):
            for b in comps[g]:
                m = primitives[i] * b * primitives[j]
                if not m.is_zero():
                    candidates.append((m, g))
        reduced = _reduce_component([m for m, _ in candidates])
        if len(reduced) != 1:
            raise ValueError(f"corner space ({i},{j}) has dimension {len(reduced)}, expected 1")
        # all nonzero candidates are proportional, hence share one degree
        return candidates[0]

    units: Dict[Tuple[int, int], Matrix] = {(0, 0): primitives[0]}
    degrees: List[GroupElement] = [identity]
    row_units: Dict[int, Matrix] = {0: primitives[0]}
    col_units: Dict[int, Matrix] = {0: primitives[0]}
    for j in range(1, p):
        u1j, g1j = bridge(0, j)
        vj1, _ = bridge(j, 0)
        product = u1j * vj1
        solver = SpanSolver([primitives[0].vector()])
        coords = solver.coordinates(product.vector())
        if coords is None or coords[0].is_zero():
            raise ValueError("corner bridges do not compose to the base idempotent")
        row_units[j] = u1j
        col_units[j] = vj1.scale(coords[0].inverse())
        degrees.append(g1j)
    for i in range(p):
        for j in range(p):
            if i == j == 0:
                continue
            left = col_units[i] if i else primitives[0]
            right = row_units[j] if j else primitives[0]
            units[(i, j)] = left * right
    if not _unit_relations_hold([[units[(i, j)] for j in range(p)] for i in range(p)]):
        raise ValueError("candidate matrix units violate the unit relations")
    if sum((units[(i, i)] for i in range(p)), Matrix.zeros(n)) != unit:
        raise ValueError("diagonal units do not sum to the unit")
    solver = SpanSolver()
    for i in range(p):
        for j in range(p):
            if not solver.add(units[(i, j)].vector()):
                raise ValueError("matrix units are not independent")
    return ElementaryUnits(p, units, tuple(degrees))


def is_elementary(algebra: GradedAlgebra) -> bool:
    """True when a homogeneous matrix-unit system certifies the grading elementary.

    Complete for fine gradings (answer False for n > 1) and for gradings whose
    identity component contains the diagonal; otherwise a failed certificate
    search reports False.
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
