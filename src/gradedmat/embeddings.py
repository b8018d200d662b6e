"""Graded embeddings of matrix algebras and regularization of factor decompositions."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .cyclotomic import CycNumber
from .groups import FiniteAbelianGroup, GroupElement, _Frozen, degree_classes
from .linalg import SpanSolver, nullspace
from .matrices import Matrix
from .gradings import (Cocycle, ElementaryUnits, GradedAlgebra, GradedMap,
                       elementary_grading, cocycle_from_units, centralizer,
                       homogeneous_matrix_units, _lazy, _Span, _greedy_generators,
                       _unit_relation_violation)


class EmbeddingConditionError(ValueError):
    """Raised when a tuple fails the repeated-ratio block condition."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def find_block_violation(h: Sequence[GroupElement], k: int, m: int, r: int) -> Optional[int]:
    """First position i where consecutive ratios h_i^(-1) h_(i+1) differ across
    the m size-k blocks, or None when the pattern repeats (zero-based)."""
    h = tuple(h)
    if k < 1 or m < 1 or r < 0:
        raise ValueError(f"need k, m >= 1 and r >= 0, got k={k}, m={m}, r={r}")
    if len(h) != k * m + r:
        raise ValueError(f"tuple length {len(h)} != k*m + r = {k * m + r}")
    for i in range(k - 1):
        base = h[i].inverse() * h[i + 1]
        for block in range(1, m):
            offset = block * k
            if h[i + offset].inverse() * h[i + offset + 1] != base:
                return i
    return None


def block_diagonal_embedding(domain: GradedAlgebra, m: int, r: int,
                             target: Sequence[GroupElement]) -> GradedMap:
    """Graded embedding X -> diag(X, ..., X, 0) of an elementary M_k into M_(km+r).

    Requires the repeated-ratio condition on the target tuple and that its
    k-prefix is a translate of the domain tuple.
    """
    if domain.elementary_tuple is None:
        raise ValueError("the domain must carry an elementary tuple")
    source = domain.elementary_tuple
    target = tuple(target)
    k = len(source)
    violation = find_block_violation(target, k, m, r)
    if violation is not None:
        raise EmbeddingConditionError(
            violation, f"target tuple ratio at position {violation} differs between blocks")
    shift = target[0] * source[0].inverse()
    for alpha in range(k):
        if target[alpha] != shift * source[alpha]:
            raise ValueError(f"target prefix is not a translate of the source tuple at index {alpha}")
    n = k * m + r
    codomain = elementary_grading(domain.group, target)
    one = CycNumber.one()
    pairs = tuple((Matrix.unit(k, i, j),
                   Matrix._of(n, {i + block * k: {j + block * k: one} for block in range(m)}))
                  for i in range(k) for j in range(k))
    return GradedMap(domain, codomain, pairs)


class GradedVectorSpace(_Frozen):
    """F^n with homogeneous coordinates; deg v_i = g_i^(-1) for the tuple entry g_i."""

    group: FiniteAbelianGroup
    degrees: Tuple[GroupElement, ...]

    @staticmethod
    def from_tuple(group: FiniteAbelianGroup, tau: Sequence[GroupElement]) -> "GradedVectorSpace":
        return GradedVectorSpace(group, tuple(g.inverse() for g in tau))

    @property
    def n(self) -> int:
        return len(self.degrees)

    def induced_tuple(self) -> Tuple[GroupElement, ...]:
        return tuple(d.inverse() for d in self.degrees)

    def coordinate_classes(self) -> Dict[GroupElement, List[int]]:
        return degree_classes(self.degrees)

    def vector_degree(self, vector: Sequence[CycNumber]) -> Optional[GroupElement]:
        degree = None
        for i, x in enumerate(vector):
            if x.is_zero():
                continue
            if degree is None:
                degree = self.degrees[i]
            elif degree != self.degrees[i]:
                return None
        return degree

    def matrix_degree(self, m: Matrix) -> Optional[GroupElement]:
        """Degree of a homogeneous map of the space, None if not homogeneous: E_ij sends
        v_j to v_i, so it has degree deg v_i deg v_j^(-1)."""
        if m.is_zero():
            raise ValueError("the zero matrix has no degree")
        d = self.degrees
        degrees = {d[i] * d[j].inverse() for i, row in m.rows.items() for j in row}
        return degrees.pop() if len(degrees) == 1 else None


class ModuleSplit(_Frozen):
    """Decomposition V = V_1 + ... + V_m + V_0 under a copy of M_k."""

    summands: Tuple[Tuple[Tuple[CycNumber, ...], ...], ...]
    annihilated: Tuple[Tuple[CycNumber, ...], ...]
    change_of_basis: Matrix
    induced_tuple: Tuple[GroupElement, ...]

    @property
    def copies(self) -> int:
        return len(self.summands)


def split_module_decomposition(space: GradedVectorSpace,
                               unit_images: Sequence[Sequence[Matrix]]) -> ModuleSplit:
    """Split F^n into irreducible modules over a homogeneous copy of M_k.

    unit_images[i][j] realizes the matrix unit E_ij inside End(F^n); all images
    must be homogeneous and satisfy the unit relations.  Each summand basis is
    built as v_i = E_ik v from a homogeneous v spanning a line of E_kk V.

    Only the sizes, the relations and the degrees of the first row and column are
    checked; the rest follows.  E_00 has a degree, so it is nonzero, and so is every
    E_ij, as E_0i E_ij E_j0 = E_00; being idempotent, E_00 has degree e.  With
    c_j = deg E_0j, a homogeneous E_i0 has degree c_i^(-1), as E_0i E_i0 = E_00, and
    then E_ij = E_i0 E_0j has degree c_i^(-1) c_j.  The E_ii are orthogonal
    idempotents of degree e, so e_c = sum E_ii is an idempotent of degree e,
    V = E_00 V + ... + E_(k-1,k-1) V + ker e_c, and ker e_c is spanned by the kernel
    vectors read per degree class.  E_(i,k-1) maps E_(k-1,k-1) V onto E_ii V and back
    by E_(k-1,i), so the v_si = E_(i,k-1) w_s, over a basis w_s of E_(k-1,k-1) V, and
    the kernel vectors are a basis of V, n vectors in which E_ij sends v_sl to
    delta_jl v_si and kills ker e_c: the block-diagonal form.  Each w_s is a column of
    the degree-e corner, so every basis vector is homogeneous.
    """
    n = space.n
    k = len(unit_images)
    if k < 1 or any(len(row) != k for row in unit_images):
        raise ValueError("unit images must form a square k x k table")
    for i in range(k):
        for j in range(k):
            if unit_images[i][j].n != n:
                raise ValueError("unit images must act on the given space")
    violation = _unit_relation_violation(unit_images)
    if violation is not None:
        i, j, a, b = violation
        raise ValueError(f"images of E_{i}{j} and E_{a}{b} violate the unit relations")
    c_tuple: List[GroupElement] = []
    for j in range(k):
        d = space.matrix_degree(unit_images[0][j])
        if d is None:
            raise ValueError(f"image of E_0{j} is not homogeneous")
        c_tuple.append(d)
    for i in range(1, k):  # a row with a homogeneous E_i0 is consistent
        if space.matrix_degree(unit_images[i][0]) != c_tuple[i].inverse():
            raise ValueError(f"image degrees are inconsistent at ({i},0)")

    classes = space.coordinate_classes()
    zero = CycNumber.zero()

    def homogeneous_column_basis(m: Matrix) -> List[Tuple[CycNumber, ...]]:
        """Homogeneous basis of the column space of a degree-e idempotent."""
        out: List[Tuple[CycNumber, ...]] = []
        solver = SpanSolver()
        for d in sorted(classes, key=GroupElement.sort_key):
            for j in classes[d]:
                col = m.column(j)
                if solver.add(col):
                    out.append(col)
        return out

    corner = unit_images[k - 1][k - 1]
    anchors = homogeneous_column_basis(corner)
    summands: List[Tuple[Tuple[CycNumber, ...], ...]] = []
    for w in anchors:
        vectors = [unit_images[i][k - 1].apply(w) for i in range(k)]
        summands.append(tuple(vectors))

    # homogeneous kernel of e_c
    e_c = sum((unit_images[i][i] for i in range(k)), Matrix.zeros(n))
    annihilated: List[Tuple[CycNumber, ...]] = []
    for d in sorted(classes, key=GroupElement.sort_key):
        idx = classes[d]
        for sol in nullspace(e_c.column(j) for j in idx):
            vec = [zero] * n
            for c, j in zip(sol, idx):
                vec[j] = c
            annihilated.append(tuple(vec))

    columns = [v for summand in summands for v in summand] + annihilated
    basis_matrix = Matrix([[columns[j][i] for j in range(n)] for i in range(n)])
    induced = tuple(space.vector_degree(vec).inverse() for vec in columns)
    return ModuleSplit(tuple(summands), tuple(annihilated), basis_matrix, induced)


class DecompositionPair(_Frozen):
    """R = C * D with C elementary-graded, D fine with a fixed homogeneous basis."""

    algebra: GradedAlgebra
    c_basis: Tuple[Matrix, ...]
    d_units: Dict[GroupElement, Matrix]
    identity: Matrix

    def support(self) -> Tuple[GroupElement, ...]:
        return tuple(sorted(self.d_units, key=GroupElement.sort_key))

    @_lazy
    def cocycle(self) -> Cocycle:
        return cocycle_from_units(self.algebra.group, self.d_units)

    def verify(self) -> List[str]:
        """Structural checks; returns a list of human-readable problems."""
        problems = []
        n = self.algebra.n
        for i, c in enumerate(self.c_basis):
            for t, x in self.d_units.items():
                if c * x != x * c:
                    problems.append(f"factor bases do not commute: C-basis element {i} at degree {t}")
        if any(self.identity * b != b or b * self.identity != b
               for b in (*self.c_basis, *self.d_units.values())):
            problems.append("identity is not the unit of the factors")
        if len(self.c_basis) * len(self.d_units) != n * n:
            problems.append(
                f"dimension product {len(self.c_basis)}*{len(self.d_units)} != {n * n}")
        if _Span([c * x for c in self.c_basis for x in self.d_units.values()], n).rank != n * n:
            problems.append("products of the two factors do not span the algebra")
        components = self.algebra._component_spans
        for t, x in self.d_units.items():
            if t not in components or not components[t].contains(x):
                problems.append(f"the D-unit at degree {t} is not homogeneous of degree {t}")
        c_degrees = set()
        for i, c in enumerate(self.c_basis):
            if c.is_zero():
                problems.append(f"C-basis element {i} is zero")
                continue
            if not self.algebra._span.contains(c):
                problems.append(f"C-basis element {i} is not in the span of the components")
                continue
            d = self.algebra.degree_of(c)
            if d is None:
                problems.append(f"C-basis element {i} is not homogeneous")
            else:
                c_degrees.add(d)
        identity_g = self.algebra.group.identity()
        overlap = c_degrees & set(self.support())
        if overlap - {identity_g}:
            problems.append(f"factor supports overlap beyond the identity: {sorted(overlap, key=GroupElement.sort_key)}")
        try:  # a table that builds holds the cocycle identity (see cocycle_from_units)
            self.cocycle
        except ValueError as exc:
            problems.append(str(exc))
        return problems


class RegularizationResult(_Frozen):
    """Adjusted fine factor and its centralizer after straightening an embedding."""

    pair: DecompositionPair
    psi: Dict[GroupElement, Matrix]
    multipliers: Dict[GroupElement, Matrix]
    c_units: ElementaryUnits
    corner_equal: bool


def regularize_decomposition(phi: GradedMap, source: DecompositionPair,
                             target: DecompositionPair) -> RegularizationResult:
    """Straighten a graded injection so its image meshes with the target factors.

    Writes phi(X_t) = A_t X_t' with A_t in the elementary factor, corrects the
    multipliers to A_t' = A_t phi(e1) + e2 - phi(e1), and returns the adjusted
    fine basis X_t'' = A_t' X_t' together with its centralizer and the
    homogeneous matrix units certifying that centralizer elementary.
    """
    algebra2 = phi.codomain
    support = source.support()
    if support != target.support():
        raise ValueError("fine factors have different supports")
    source_alpha, alpha = source.cocycle, target.cocycle
    if not source_alpha.equals(alpha):
        raise ValueError("fine factors have different cocycles")
    e2 = target.identity
    phi_e1 = phi.apply(source.identity)
    n = algebra2.n
    c_span = _Span(target.c_basis, n)
    identity_g = algebra2.group.identity()

    multipliers: Dict[GroupElement, Matrix] = {}
    adjusted: Dict[GroupElement, Matrix] = {}
    for t in support:
        x_t = source.d_units[t]
        x_t_prime = target.d_units[t]
        a_t = phi.apply(x_t) * x_t_prime.inverse()
        if not c_span.contains(a_t):
            raise ValueError(f"multiplier at {t} lies outside the elementary factor; the map is not graded")
        degree = algebra2.degree_of(a_t)
        if degree != identity_g:
            raise ValueError(f"multiplier at {t} has degree {degree}, expected the identity")
        multipliers[t] = a_t
        a_t_corrected = a_t * phi_e1 + e2 - phi_e1
        adjusted[t] = a_t_corrected * x_t_prime

    for t in support:
        for s in support:
            lhs = adjusted[t] * adjusted[s]
            rhs = adjusted[t * s].scale(alpha(t, s))
            if lhs != rhs:
                raise ValueError(f"adjusted basis breaks the cocycle relation at ({t},{s})")
    if adjusted[identity_g] != e2:
        raise ValueError("adjusted basis does not recover the identity")

    # The adjusted units of a generating set S of the support commute with the same
    # matrices as all of them: each adjusted X_t is a nonzero multiple of a product of
    # them (the cocycle relation just checked; e2 too, via a power of a generator), so
    # the centralizers are one space, the kernels among each component's basis one
    # relation space, and nullspace's basis of it (one relation per dependent basis
    # matrix, coefficient 1 there) one basis.  For a graded phi and verified pairs every
    # adjusted unit is homogeneous, so both families take centralizer's graded route.
    # A trivial support has no generators.
    generators, _ = _greedy_generators(support)
    new_centralizer = centralizer(algebra2, [adjusted[g] for g in generators] or [e2])
    grouped: Dict[GroupElement, List[Matrix]] = {}
    for m in new_centralizer:
        d = algebra2.degree_of(m)
        if d is None:
            raise ValueError("centralizer basis is not homogeneous")
        grouped.setdefault(d, []).append(m)
    units = homogeneous_matrix_units(grouped, e2)

    # the straightened fine basis must stay compatible with the original map
    for a in source.c_basis:
        phi_a = phi.apply(a)
        for t in support:
            if phi_a * adjusted[t] != phi_a * phi.apply(source.d_units[t]):
                raise ValueError(f"adjusted basis is incompatible with the map at degree {t}")

    image = _Span([phi.apply(c * x) for c in source.c_basis for x in source.d_units.values()], n)
    corner_equal = image.equals(_Span([phi_e1 * b * phi_e1 for _, b in algebra2.union_basis], n))
    if corner_equal:
        cut = _Span([phi_e1 * m * phi_e1 for m in new_centralizer], n)
        if not cut.equals(_Span([phi.apply(c) for c in source.c_basis], n)):
            raise ValueError("corner of the new elementary factor does not match the mapped one")

    pair = DecompositionPair(algebra2, tuple(new_centralizer), dict(adjusted), e2)
    return RegularizationResult(pair, dict(adjusted), multipliers, units, corner_equal)
