"""Grading constructors, verification, structure queries, and duality."""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gradedmat.cyclotomic import CycNumber, root_of_unity
from gradedmat.embeddings import block_diagonal_embedding
from gradedmat.equivalence import build_isomorphism
from gradedmat.groups import FiniteAbelianGroup, GroupElement, subgroup_generated
from gradedmat import gradings
from gradedmat.gradings import (Cocycle, GradedAlgebra, GradedMap, GradingReport,
                                HomomorphismReport, centralizer, character_action,
                                cocycle_from_units,
                                elementary_grading, epsilon_grading, extract_cocycle,
                                graded_homomorphism_check, homogeneous_matrix_units,
                                identity_component_ideals, induced_tensor_grading,
                                is_elementary, is_graded_subspace, is_invariant_subspace,
                                support_is_subgroup, verify_grading, _greedy_generators,
                                _unit_relation_violation)
from gradedmat.linalg import SpanSolver, nullspace
from gradedmat.matrices import Matrix

Z2 = FiniteAbelianGroup((2,))
E0 = Z2.element((0,))
A0 = Z2.element((1,))


def test_elementary_degrees_match_tuple_rule():
    alg = elementary_grading(Z2, (E0, A0))
    assert alg.degree_of(Matrix.unit(2, 0, 1)) == A0
    assert alg.degree_of(Matrix.unit(2, 1, 0)) == A0
    assert alg.degree_of(Matrix.unit(2, 0, 0)) == E0
    assert alg.degree_of(Matrix.unit(2, 1, 1)) == E0


def test_constant_tuple_gives_trivial_grading():
    alg = elementary_grading(Z2, (E0, E0, E0))
    assert set(alg.components) == {E0}
    assert len(alg.components[E0]) == 9


def test_elementary_z3_cycle_component():
    G = FiniteAbelianGroup((3,))
    tau = tuple(G.element((i,)) for i in range(3))
    alg = elementary_grading(G, tau)
    one = G.element((1,))
    got = {m.nonzero_positions()[0] for m in alg.components[one]}
    assert got == {(0, 1), (1, 2), (2, 0)}


def test_epsilon_2_matches_clock_and_shift():
    alg = epsilon_grading(2)
    G = alg.group
    x_a = alg.components[G.element((1, 0))][0]
    x_b = alg.components[G.element((0, 1))][0]
    minus = CycNumber.rational(-1)
    assert x_a == Matrix.diagonal([minus, CycNumber.one()])
    assert x_b == Matrix([[CycNumber.zero(), CycNumber.one()],
                          [CycNumber.one(), CycNumber.zero()]])
    # X_a X_b X_a^{-1} = -X_b
    assert x_a * x_b * x_a.inverse() == x_b.scale(minus)


def test_epsilon_1_trivial():
    alg = epsilon_grading(1)
    assert alg.n == 1
    assert len(alg.components) == 1
    assert verify_grading(alg).passed


def test_epsilon_3_relations_and_independence():
    alg = epsilon_grading(3)
    G = alg.group
    x_a = alg.components[G.element((1, 0))][0]
    x_b = alg.components[G.element((0, 1))][0]
    eps = root_of_unity(3, 1)
    assert x_a ** 3 == Matrix.identity(3)
    assert x_b ** 3 == Matrix.identity(3)
    assert x_a * x_b * x_a.inverse() == x_b.scale(eps)
    assert len(alg.components) == 9
    assert all(len(mats) == 1 for mats in alg.components.values())
    assert verify_grading(alg).passed


def test_epsilon_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        epsilon_grading(0)


def test_tensor_with_trivial_left_factor_keeps_right_grading():
    G = epsilon_grading(2).group
    left = elementary_grading(G, (G.identity(),))
    right = epsilon_grading(2)
    prod = induced_tensor_grading(left, right)
    assert prod.n == 2
    assert set(prod.components) == set(right.components)
    for g, mats in right.components.items():
        assert prod.components[g] == mats


def test_tensor_elementary_with_epsilon_verifies():
    right = epsilon_grading(2)
    G = right.group
    left = elementary_grading(G, (G.identity(), G.element((1, 0))))
    prod = induced_tensor_grading(left, right)
    assert prod.n == 4
    assert verify_grading(prod).passed


def test_tensor_degree_formula_agrees_with_products():
    right = epsilon_grading(2)
    G = right.group
    g1 = G.element((1, 1))
    left = elementary_grading(G, (G.identity(), g1))
    prod = induced_tensor_grading(left, right)
    b = G.element((0, 1))
    x_b = right.components[b][0]
    expected = g1.inverse() * b  # deg(E_12 (x) X_b) with tuple (e, g1)
    assert prod.degree_of(Matrix.unit(2, 0, 1).kron(x_b)) == expected


def test_tensor_group_mismatch_rejected():
    left = elementary_grading(Z2, (E0, A0))
    right = epsilon_grading(2)
    with pytest.raises(ValueError):
        induced_tensor_grading(left, right)


def test_tensor_restriction_reproduces_factors():
    right = epsilon_grading(2)
    G = right.group
    tau = (G.identity(), G.element((1, 0)))
    left = elementary_grading(G, tau)
    prod = induced_tensor_grading(left, right)
    I2 = Matrix.identity(2)
    for i in range(2):
        for j in range(2):
            if i != j:
                assert prod.degree_of(Matrix.unit(2, i, j).kron(I2)) \
                    == tau[i].inverse() * tau[j]
    for h, mats in right.components.items():
        assert prod.degree_of(I2.kron(mats[0])) == h


def _reference_induced_tensor(left, right):
    """The tensor grading built from the left factor's defining tuple, unit by unit:
    deg(E_ij (x) x) = g_i^(-1) g_j h for deg x = h."""
    tau, k = left.elementary_tuple, left.n
    components = {}
    for i in range(k):
        for j in range(k):
            unit = Matrix.unit(k, i, j)
            prefix = tau[i].inverse() * tau[j]
            for h, mats in right.components.items():
                for x in mats:
                    components.setdefault(prefix * h, []).append(unit.kron(x))
    return GradedAlgebra(left.group, k * right.n, components)


def _matrix_multiset(mats):
    return sorted(tuple(sorted((i, j, x.to_string()) for i, row in m.rows.items()
                               for j, x in row.items())) for m in mats)


def _random_elementary_left_tensors():
    """40 seeded (left, right) pairs over Z_m x Z_m, m = 2..4, with an elementary left
    factor of size 1..4 and an elementary or epsilon right factor."""
    rng = random.Random(2701)
    cases = []
    for _ in range(40):
        m = rng.randrange(2, 5)
        group = FiniteAbelianGroup((m, m))
        left = elementary_grading(group, _random_tuple(rng, group, rng.randrange(1, 5)))
        right = epsilon_grading(m) if rng.random() < 0.5 \
            else elementary_grading(group, _random_tuple(rng, group, rng.randrange(1, 4)))
        cases.append((left, right))
    return cases


def test_tensor_puts_the_same_matrices_in_each_degree_as_the_tuple_construction():
    for left, right in _random_elementary_left_tensors():
        prod, reference = induced_tensor_grading(left, right), _reference_induced_tensor(left, right)
        assert prod.n == reference.n
        assert set(prod.components) == set(reference.components)
        for g, mats in reference.components.items():
            assert _matrix_multiset(prod.components[g]) == _matrix_multiset(mats)


@pytest.mark.parametrize("n", [2, 3])
def test_tensor_of_two_epsilon_gradings_is_fine_and_multiplies_their_cocycles(n):
    """eps_n (x) eps_n over Z_n^4, the factors graded by the first and the last two
    coordinates: the product grading is fine, and X_t1 (x) X_t2 has the cocycle
    alpha((t1 t2), (s1 s2)) = alpha_1(t1, s1) alpha_2(t2, s2)."""
    G = FiniteAbelianGroup((n,) * 4)
    basis = [G.element(tuple(int(i == c) for i in range(4))) for c in range(4)]
    left = epsilon_grading(n, group=G, a=basis[0], b=basis[1])
    right = epsilon_grading(n, group=G, a=basis[2], b=basis[3])
    prod = induced_tensor_grading(left, right)
    assert prod.is_fine() and left.elementary_tuple is None
    assert verify_grading(prod).passed
    co, co1, co2 = extract_cocycle(prod), extract_cocycle(left), extract_cocycle(right)
    for t1 in co1.support:
        for t2 in co2.support:
            for s1 in co1.support:
                for s2 in co2.support:
                    assert co(t1 * t2, s1 * s2) == co1(t1, s1) * co2(t2, s2)


def test_verify_flags_mislabeled_components():
    alg = elementary_grading(Z2, (E0, A0))
    swapped = GradedAlgebra(Z2, 2, {E0: alg.components[A0], A0: alg.components[E0]})
    report = verify_grading(swapped)
    assert not report.passed
    witnesses = {(g, h) for g, h, _ in report.closure_failures}
    assert (E0, E0) in witnesses  # E_12 * E_21 lands in the wrong component


def test_support_examples():
    trivial = elementary_grading(Z2, (E0, E0))
    assert trivial.support() == (E0,)
    eps = epsilon_grading(2)
    assert set(eps.support()) == set(eps.group.elements())
    assert elementary_grading(Z2, (E0, A0)).support() == (E0, A0)


def test_degree_of_signals():
    alg = elementary_grading(Z2, (E0, A0))
    assert alg.degree_of(Matrix.identity(2)) == E0
    assert alg.degree_of(Matrix.unit(2, 0, 0) + Matrix.unit(2, 0, 1)) is None
    with pytest.raises(ValueError):
        alg.degree_of(Matrix.zeros(2))


def test_fine_predicates():
    for n in (2, 3):
        eps = epsilon_grading(n)
        assert eps.is_fine()
        assert support_is_subgroup(eps)
    assert not elementary_grading(Z2, (E0, A0)).is_fine()
    G1 = FiniteAbelianGroup((1,))
    assert elementary_grading(G1, (G1.identity(),)).is_fine()


def test_epsilon_cocycle_matches_frozen_pattern():
    # alpha((i,j),(k,l)) = eps^(-jk), from multiplying all basis pairs directly
    for n in (2, 3, 4):
        alg = epsilon_grading(n)
        G = alg.group
        co = extract_cocycle(alg)
        eps = root_of_unity(n, 1)
        for t in G.elements():
            for s in G.elements():
                i, j = t.exponents
                k, l = s.exponents
                assert co(t, s) == eps ** (-j * k)
    alg2 = epsilon_grading(2)
    co2 = extract_cocycle(alg2)
    assert co2.first_identity_violation() is None


def test_cocycle_identity_normalization():
    alg = epsilon_grading(2)
    co = extract_cocycle(alg)
    e = alg.group.identity()
    for t in alg.group.elements():
        assert co(e, t) == CycNumber.one()
        assert co(t, e) == CycNumber.one()


def test_cocycle_requires_fine_grading():
    with pytest.raises(ValueError):
        extract_cocycle(elementary_grading(Z2, (E0, A0)))


def test_centralizer_of_identity_is_full_algebra():
    alg = elementary_grading(Z2, (E0, A0))
    basis = centralizer(alg, [Matrix.identity(2)])
    assert len(basis) == 4


def test_centralizer_of_epsilon_basis_is_scalars():
    alg = epsilon_grading(2)
    mats = [mats[0] for mats in alg.components.values()]
    basis = centralizer(alg, mats)
    assert len(basis) == 1
    assert basis[0].scale(basis[0].entries[0][0].inverse()) == Matrix.identity(2)


def test_centralizer_of_tensor_factor():
    right = epsilon_grading(2)
    G = right.group
    left = elementary_grading(G, (G.identity(), G.element((1, 0))))
    prod = induced_tensor_grading(left, right)
    I2 = Matrix.identity(2)
    embedded = [I2.kron(mats[0]) for mats in right.components.values()]
    basis = centralizer(prod, embedded)
    assert len(basis) == 4
    for m in basis:
        # every element is a 2x2 block pattern c (x) I
        for i in range(2):
            for j in range(2):
                block = [[m.entries[2 * i + r][2 * j + c] for c in range(2)]
                         for r in range(2)]
                assert block[0][1].is_zero() and block[1][0].is_zero()
                assert block[0][0] == block[1][1]


def test_identity_component_ideals():
    alg = elementary_grading(Z2, (E0, A0))
    ideals = identity_component_ideals(alg)
    assert [(i.degree, i.indices) for i in ideals] == [(E0, (0,)), (A0, (1,))]
    single = identity_component_ideals(elementary_grading(Z2, (E0, E0)))
    assert len(single) == 1 and single[0].block_dimension == 2
    paired = identity_component_ideals(elementary_grading(Z2, (E0, A0, E0, A0)))
    assert [(i.degree, i.indices) for i in paired] == [(E0, (0, 2)), (A0, (1, 3))]


def test_character_action_trivial_character_is_identity():
    alg = elementary_grading(Z2, (E0, A0))
    chi = next(c for c in Z2.characters()
               if all(c(g) == CycNumber.one() for g in Z2.elements()))
    m = Matrix.unit(2, 0, 1) + Matrix.unit(2, 1, 1)
    assert character_action(chi, alg, m) == m


def test_sign_character_action_is_diagonal_conjugation():
    alg = elementary_grading(Z2, (E0, A0))
    chi = next(c for c in Z2.characters() if c(A0) != CycNumber.one())
    d = Matrix.diagonal([CycNumber.one(), CycNumber.rational(-1)])
    d_inv = d.inverse()
    for i in range(2):
        for j in range(2):
            unit = Matrix.unit(2, i, j)
            assert character_action(chi, alg, unit) == d * unit * d_inv


def test_character_action_is_multiplicative():
    alg = elementary_grading(Z2, (E0, A0, E0))
    rng = random.Random(5)
    chars = Z2.characters()
    for _ in range(20):
        chi = rng.choice(chars)
        x = Matrix([[CycNumber.rational(rng.randint(-3, 3)) for _ in range(3)]
                    for _ in range(3)])
        y = Matrix([[CycNumber.rational(rng.randint(-3, 3)) for _ in range(3)]
                    for _ in range(3)])
        lhs = character_action(chi, alg, x * y)
        rhs = character_action(chi, alg, x) * character_action(chi, alg, y)
        assert lhs == rhs


def test_graded_and_invariant_agree_on_examples():
    alg = elementary_grading(Z2, (E0, A0))
    chars = Z2.characters()
    line = [Matrix.unit(2, 0, 1)]
    assert is_graded_subspace(alg, line)
    assert is_invariant_subspace(alg, line, chars)
    mixed = [Matrix.unit(2, 0, 0) + Matrix.unit(2, 0, 1)]
    assert not is_graded_subspace(alg, mixed)
    assert not is_invariant_subspace(alg, mixed, chars)
    plane = [Matrix.unit(2, 0, 0), Matrix.unit(2, 0, 1)]
    assert is_graded_subspace(alg, plane)
    assert is_invariant_subspace(alg, plane, chars)


def test_invariant_subspace_defaults_to_the_generators_of_the_dual_group():
    V4 = FiniteAbelianGroup((2, 2))
    elementary = elementary_grading(V4, (V4.identity(), V4.element((0, 1)), V4.element((1, 1))))
    eps = epsilon_grading(3)
    x, y = (eps.components[eps.group.element(g)][0] for g in ((1, 0), (0, 1)))
    inputs = [(elementary_grading(Z2, (E0, A0)), [Matrix.unit(2, 0, 1)]),
              (elementary_grading(Z2, (E0, A0)), [Matrix.unit(2, 0, 0) + Matrix.unit(2, 0, 1)]),
              (elementary_grading(Z2, (E0, A0)), [Matrix.unit(2, 0, 0), Matrix.unit(2, 0, 1)]),
              (elementary, [Matrix.unit(3, 0, 1) + Matrix.unit(3, 1, 2)]),
              (elementary, [Matrix.unit(3, 0, 2) + Matrix.unit(3, 1, 2)]),
              (elementary, [Matrix.unit(3, 0, 1), Matrix.unit(3, 1, 2)]),
              (eps, [x, y]), (eps, [x + y]), (eps, [x + x * x]), (eps, [x * y, y * x])]
    verdicts = []
    for algebra, vectors in inputs:
        verdict = is_invariant_subspace(algebra, vectors)
        assert verdict == is_invariant_subspace(algebra, vectors, algebra.group.characters())
        verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def test_invariant_subspace_decomposes_each_vector_once(monkeypatch):
    alg = epsilon_grading(3)
    vectors = [alg.components[g][0] for g in list(alg.components)[:4]]
    vectors.append(vectors[0] + vectors[1])
    calls = []
    decompose = GradedAlgebra.decompose

    def counted(self, m):
        calls.append(m)
        return decompose(self, m)

    monkeypatch.setattr(GradedAlgebra, "decompose", counted)
    assert is_invariant_subspace(alg, vectors)
    assert len(calls) == len(vectors)


def test_identity_map_passes_homomorphism_check():
    alg = elementary_grading(Z2, (E0, A0))
    pairs = tuple((m, m) for mats in alg.components.values() for m in mats)
    report = graded_homomorphism_check(GradedMap(alg, alg, pairs))
    assert report.passed and report.injective


def test_degree_shifting_map_fails_degree_preservation():
    alg = elementary_grading(Z2, (E0, A0))
    relabeled = GradedAlgebra(Z2, 2, {E0: alg.components[A0], A0: alg.components[E0]})
    pairs = tuple((m, m) for mats in alg.components.values() for m in mats)
    report = graded_homomorphism_check(GradedMap(alg, relabeled, pairs))
    assert not report.passed
    assert report.degree_failures


def test_homogeneous_matrix_units_certify_elementary():
    G = FiniteAbelianGroup((2, 2))
    tau = (G.identity(), G.element((0, 1)), G.element((1, 0)))
    alg = elementary_grading(G, tau)
    units = homogeneous_matrix_units(dict(alg.components), Matrix.identity(3))
    assert units.size == 3
    # all matrix-unit relations hold
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    product = units.units[(i, j)] * units.units[(k, l)]
                    expected = units.units[(i, l)] if j == k else Matrix.zeros(3)
                    assert product == expected


@st.composite
def _conjugated_elementary_gradings(draw):
    """An elementary grading over a small group, conjugated by an invertible rational matrix."""
    group = FiniteAbelianGroup(draw(st.sampled_from([(2,), (3,), (4,), (2, 2), (6,)])))
    element = st.tuples(*(st.integers(0, k - 1) for k in group.factors)).map(group.element)
    n = draw(st.integers(2, 5))
    tau = tuple(draw(st.lists(element, min_size=n, max_size=n)))
    p = Matrix(draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                             min_size=n, max_size=n)))
    try:
        p_inverse = p.inverse()
    except ZeroDivisionError:
        p, p_inverse = Matrix.identity(n), Matrix.identity(n)
    components = {g: [p_inverse * m * p for m in mats]
                  for g, mats in elementary_grading(group, tau).components.items()}
    return GradedAlgebra(group, n, components)


@settings(max_examples=20, deadline=None)
@given(_conjugated_elementary_gradings())
def test_homogeneous_matrix_units_of_conjugated_elementary_gradings(alg):
    n = alg.n
    units = homogeneous_matrix_units(alg.components, Matrix.identity(n))
    assert units.size == n
    table = [[units.units[(i, j)] for j in range(n)] for i in range(n)]
    assert _unit_relation_violation(table) is None
    assert _solver(units.units.values()).rank == n * n
    assert sum((table[i][i] for i in range(n)), Matrix.zeros(n)) == Matrix.identity(n)
    for (i, j), unit in units.units.items():
        assert alg.degree_of(unit) == units.degrees[i].inverse() * units.degrees[j]
    assert is_elementary(alg)


def test_homogeneous_matrix_units_report_a_singular_pairing(monkeypatch):
    def singular(self):
        raise ZeroDivisionError("matrix is singular")

    monkeypatch.setattr(Matrix, "inverse", singular)
    with pytest.raises(ValueError, match="^the column and row spaces of the primitive idempotent "
                                         "pair singularly$"):
        homogeneous_matrix_units(elementary_grading(Z2, (E0, A0)).components, Matrix.identity(2))


def test_is_elementary_distinguishes_species():
    assert is_elementary(elementary_grading(Z2, (E0, A0)))
    assert not is_elementary(epsilon_grading(2))
    assert not is_elementary(epsilon_grading(3))
    G1 = FiniteAbelianGroup((1,))
    assert is_elementary(elementary_grading(G1, (G1.identity(),)))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_matrix_unit_search_reads_columns_on_demand(monkeypatch, n):
    Z4 = FiniteAbelianGroup((4,))
    alg = elementary_grading(Z4, tuple(Z4.element((i % 3,)) for i in range(n)))
    columns = _count_calls(monkeypatch, Matrix, "column")
    homogeneous_matrix_units(alg.components, Matrix.identity(n))
    # the first column of the unit is annihilated by a homogeneous element; the whole pool
    # holds n (1 + n^2) columns
    assert len(columns) == 1


def test_matrix_unit_search_fails_after_every_candidate_on_a_graded_division_algebra(monkeypatch):
    # R_0 = span{I, X, X^2} is the field Q(zeta_3)[x]/(x^3 - 2) and R_k = R_0 D_k, so no
    # homogeneous element is singular and every candidate is solved in every degree:
    # 30 nonzero columns and 121 nonzero sums and differences of the first 12
    solves = _count_calls(monkeypatch, gradings, "nullspace")
    with pytest.raises(ValueError, match="^no homogeneous singular element found; "
                                         "cannot certify an elementary structure$"):
        homogeneous_matrix_units(_companion_grading().components, Matrix.identity(3))
    assert len(solves) == 151 * 3


def test_graded_algebra_validates_input():
    with pytest.raises(ValueError):
        GradedAlgebra(Z2, 2, {})
    with pytest.raises(ValueError):
        GradedAlgebra(Z2, 2, {E0: [Matrix.identity(3)]})


def test_only_elementary_grading_sets_the_tuple():
    units = elementary_grading(Z2, (E0, A0))
    assert units.elementary_tuple == (E0, A0)
    assert GradedAlgebra(Z2, 2, units.components).elementary_tuple is None
    with pytest.raises(TypeError):
        GradedAlgebra(Z2, 2, units.components, elementary_tuple=(E0, A0))


def test_unit_relation_check_returns_the_first_violation():
    from gradedmat.gradings import _unit_relation_violation
    units = [[Matrix.unit(3, i, j) for j in range(3)] for i in range(3)]
    assert _unit_relation_violation(units) is None
    assert _unit_relation_violation([[Matrix.identity(2)]]) is None
    units[1][2] = Matrix.unit(3, 2, 1)  # E_12 replaced by E_21
    assert _unit_relation_violation(units) == (0, 1, 1, 2)
    assert _unit_relation_violation([[Matrix.zeros(2)]]) is None
    assert _unit_relation_violation([[Matrix.unit(2, 0, 1)]]) == (0, 0, 0, 0)
    e = Matrix.unit(2, 0, 0)
    assert _unit_relation_violation([[e, e], [e, e]]) == (0, 0, 1, 0)  # E_00 E_11 != 0


# --- oracle: the full scans, kept here as references for the certificates ---

def _reference_verify(algebra):
    """Every product of basis pairs reduced in its target component."""
    n = algebra.n
    total = algebra.dimension
    solver = SpanSolver()
    independent = True
    for _, m in algebra.union_basis:
        if not solver.add(m.vector()):
            independent = False
    component_solvers = {g: SpanSolver([m.vector() for m in mats])
                         for g, mats in algebra.components.items()}
    failures = []
    for g, g_mats in algebra.components.items():
        for h, h_mats in algebra.components.items():
            target = component_solvers.get(g * h)
            for x in g_mats:
                for y in h_mats:
                    product = x * y
                    if product.is_zero():
                        continue
                    if target is None or not target.contains(product.vector()):
                        failures.append((g, h, product))
    return GradingReport(n, total, total == n * n, independent, tuple(failures))


def _reference_homomorphism_check(gmap):
    """Every product of basis pairs mapped through a coordinate solve."""
    domain, codomain = gmap.domain, gmap.codomain
    source_solver = SpanSolver()
    basis_ok = True
    for src, _ in gmap.pairs:
        if not source_solver.add(src.vector()):
            basis_ok = False
    if source_solver.rank != domain.n * domain.n:
        basis_ok = False

    def apply(m):
        coords = source_solver.sparse_coordinates(m.vector())
        return Matrix.combination(codomain.n, ((c, gmap.pairs[i][1]) for i, c in coords.items()))

    mult_failures = []
    if basis_ok:
        for i, (x, fx) in enumerate(gmap.pairs):
            for j, (y, fy) in enumerate(gmap.pairs):
                if apply(x * y) != fx * fy:
                    mult_failures.append((i, j))
    image_solver = SpanSolver()
    injective = all(image_solver.add(img.vector()) for _, img in gmap.pairs)
    degree_failures = []
    if basis_ok:
        for g, mats in domain.components.items():
            target = SpanSolver([m.vector() for m in codomain.component(g)])
            for b in mats:
                image = apply(b)
                if not image.is_zero() and not target.contains(image.vector()) \
                        and g not in degree_failures:
                    degree_failures.append(g)
    return HomomorphismReport(basis_ok, tuple(mult_failures), injective, tuple(degree_failures))


def _random_epsilon_grading(rng, n, group):
    """An epsilon grading on random generators inside group; its labels need not be a subgroup."""
    elements = group.elements()
    while True:
        a, b = rng.choice(elements), rng.choice(elements)
        try:
            return epsilon_grading(n, group=group, a=a, b=b)
        except ValueError:  # the labels repeat
            continue


def _basis(algebra):
    return {g: mats[0] for g, mats in algebra.components.items()}


def _monomial(rng, n):
    """A random permutation matrix with random nonzero rational entries, and its inverse."""
    perm = list(range(n))
    rng.shuffle(perm)
    p = Matrix([[rng.choice([1, -1, 2, -3]) if j == perm[i] else 0 for j in range(n)]
                for i in range(n)])
    return p, p.inverse()


def _pauli_basis():
    G = FiniteAbelianGroup((2, 2))
    z = Matrix.diagonal([1, -1])
    x = Matrix([[0, 1], [1, 0]])
    return G, {G.element((0, 0)): Matrix.identity(2), G.element((1, 0)): z,
               G.element((0, 1)): x, G.element((1, 1)): z * x}


def _random_tuple(rng, group, n):
    elements = group.elements()
    return tuple(rng.choice(elements) for _ in range(n))


def _conjugated(algebra, rng):
    """The same grading carried by a random invertible integer matrix p: m -> p^-1 m p."""
    n = algebra.n
    while True:
        p = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        try:
            p_inverse = p.inverse()
        except ZeroDivisionError:
            continue
        return GradedAlgebra(algebra.group, n, {g: [p_inverse * m * p for m in mats]
                                                for g, mats in algebra.components.items()})


def _companion_grading():
    """The Z3-grading of M_3 by the eigenspaces of Ad X, X the companion matrix of x^3 - 2
    (X^3 = 2I): R_k is spanned by X^j D_k with D_k = diag(1, w^-k, w^-2k), w = zeta_3."""
    Z3 = FiniteAbelianGroup((3,))
    x = Matrix([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    components = {}
    for k in range(3):
        d = Matrix.diagonal([root_of_unity(3, -k * i) for i in range(3)])
        components[Z3.element((k,))] = [d, x * d, x * x * d]
    return GradedAlgebra(Z3, 3, components)


def _relabeled(algebra, swap):
    """The same component bases with the labels of two degrees exchanged."""
    g, h = swap
    rename = {g: h, h: g}
    return GradedAlgebra(algebra.group, algebra.n,
                         {rename.get(d, d): mats for d, mats in algebra.components.items()})


@functools.lru_cache(maxsize=None)
def _grading_cases():
    rng = random.Random(20260)
    cases = []
    for group in (FiniteAbelianGroup((4,)), FiniteAbelianGroup((2, 2))):
        for n in range(1, 9):
            cases.append(elementary_grading(group, _random_tuple(rng, group, n)))
    cases.extend(epsilon_grading(n) for n in range(1, 6))
    right = epsilon_grading(3)
    G = right.group
    cases.append(induced_tensor_grading(elementary_grading(G, (G.identity(), G.element((1, 2)))), right))
    mislabeled = elementary_grading(Z2, (E0, A0, A0))
    cases.append(_relabeled(mislabeled, (E0, A0)))
    Z4 = FiniteAbelianGroup((4,))
    cases.append(_relabeled(elementary_grading(Z4, tuple(Z4.element((i,)) for i in range(4))),
                            (Z4.element((1,)), Z4.element((2,)))))
    eps = epsilon_grading(3)
    cases.append(_relabeled(eps, (eps.group.element((1, 0)), eps.group.element((0, 1)))))
    # labels that differ only in the second coordinate: only its character sees it
    cases.append(_relabeled(eps, (eps.group.element((1, 0)), eps.group.element((1, 1)))))
    V4 = FiniteAbelianGroup((2, 2))
    cases.append(_relabeled(elementary_grading(V4, (V4.identity(), V4.element((0, 1)), V4.identity())),
                            (V4.identity(), V4.element((0, 1)))))
    units = [Matrix.unit(2, i, j) for i in range(2) for j in range(2)]
    cases.append(GradedAlgebra(Z2, 2, {E0: units[:1] + units[3:] + units[:1], A0: units[1:3]}))
    cases.append(GradedAlgebra(Z2, 2, {E0: units[:1] + units[3:], A0: units[1:2]}))
    # dense implementers: gradings carried by random integer matrices, valid and relabeled
    rng = random.Random(15)
    for group, n in ((Z2, 2), (Z4, 3), (V4, 4), (FiniteAbelianGroup((3,)), 4), (Z4, 5)):
        carried = _conjugated(elementary_grading(group, _random_tuple(rng, group, n)), rng)
        support = carried.support()
        other = support[1] if len(support) > 1 else next(g for g in group.elements() if g != support[0])
        cases.extend((carried, _relabeled(carried, (support[0], other))))
    for n in (2, 3, 4):
        carried = _conjugated(epsilon_grading(n), rng)
        cases.extend((carried, _relabeled(carried, carried.support()[1:3])))
    cases.append(_companion_grading())
    # bases of scaled units, read by position
    Z3 = FiniteAbelianGroup((3,))
    for group, n in ((Z3, 3), (V4, 4)):
        scaled = _scaled(elementary_grading(group, _random_tuple(rng, group, n)))
        cases.extend((scaled, _relabeled(scaled, scaled.support()[:2])))
    e = [[Matrix.unit(3, i, j) for j in range(3)] for i in range(3)]
    Z3g = [Z3.element((k,)) for k in range(3)]
    # nine matrices with E_00 twice and E_22 missing: dimension_ok, dependent
    cases.append(GradedAlgebra(Z3, 3, {Z3g[0]: [e[0][0], e[1][1], e[0][0].scale(2)],
                                       Z3g[1]: [e[0][1], e[1][2], e[2][0]],
                                       Z3g[2]: [e[0][2], e[1][0], e[2][1]]}))
    # E_12 missing
    cases.append(GradedAlgebra(Z3, 3, {Z3g[0]: [e[0][0], e[1][1], e[2][2]],
                                       Z3g[1]: [e[0][1], e[2][0]],
                                       Z3g[2]: [e[0][2], e[1][0], e[2][1]]}))
    # a zero matrix in a component: not a unit basis, so eliminated as before
    cases.append(GradedAlgebra(Z2, 2, {E0: [units[0], units[3], Matrix.zeros(2)], A0: units[1:3]}))
    # n = 1: 3 E_00 at the identity, and E_00 at a degree whose square differs from it
    one = Matrix.unit(1, 0, 0)
    cases.extend((GradedAlgebra(Z4, 1, {Z4.identity(): [one.scale(3)]}),
                   GradedAlgebra(Z4, 1, {Z4.element((1,)): [one]})))
    # every degree shifted by a generator: each of the n^3 nonzero products fails
    cases.append(_shifted(elementary_grading(Z4, _random_tuple(rng, Z4, 4))))
    cases.extend(_fine_cases())
    return cases


def _fine_cases():
    """Fine bases, one matrix per degree, reaching every step of the cocycle certificate."""
    rng = random.Random(18)
    cases = []
    # epsilon on random generators in larger groups (labels not always a subgroup),
    # scaled by roots of unity, conjugated by monomial and dense matrices, labels swapped
    for n, factors in ((2, (2, 4)), (3, (3, 6)), (3, (3, 3)), (4, (4, 4)), (4, (2, 4, 4))):
        eps = _random_epsilon_grading(rng, n, FiniteAbelianGroup(factors))
        p, p_inverse = _monomial(rng, n)
        for fine in (eps, _rooted(eps, rng), _from_basis(eps.group, {
                g: p * m * p_inverse for g, m in _basis(eps).items()}), _conjugated(eps, rng)):
            cases.extend((fine, _relabeled(fine, fine.support()[1:3])))
    G, pauli = _pauli_basis()
    cases.append(_from_basis(G, pauli))
    cases.append(_relabeled(_from_basis(G, pauli), G.elements()[:2]))  # X_e = X: tr X_e = 0
    # closed but dependent: I, diag(-1, 1), diag(1, -1), -I
    cases.append(_from_basis(G, _diagonal_family()))
    # a zero X_t, one at the identity, and the zero 1 x 1 matrix
    cases.append(_from_basis(G, {**pauli, G.element((1, 1)): Matrix.zeros(2)}))
    cases.append(_from_basis(G, {**pauli, G.identity(): Matrix.zeros(2)}))
    Z4 = FiniteAbelianGroup((4,))
    cases.append(GradedAlgebra(Z4, 1, {Z4.identity(): [Matrix.zeros(1)]}))
    # a support that is not a subgroup: (2, 0) is missing
    ambient = FiniteAbelianGroup((4, 2))
    cases.append(epsilon_grading(2, ambient, ambient.element((1, 0)), ambient.element((0, 1))))
    return cases


def _from_basis(group, basis):
    return GradedAlgebra(group, next(iter(basis.values())).n, {g: [m] for g, m in basis.items()})


def _rooted(algebra, rng):
    """The same fine basis with each matrix scaled by a random root of unity."""
    return _from_basis(algebra.group, {
        g: m.scale(root_of_unity(rng.choice((2, 3, 4, 6)), rng.randrange(6)))
        for g, m in _basis(algebra).items()})


def _diagonal_family():
    """I, diag(-1, 1), diag(1, -1) and -I over Z2 x Z2: closed under products, dependent."""
    G = FiniteAbelianGroup((2, 2))
    return {G.element((a, b)): Matrix.diagonal([(-1) ** a, (-1) ** b])
            for a in range(2) for b in range(2)}


_SCALARS = (CycNumber.rational(2), CycNumber.rational(-1), root_of_unity(3, 1))


def _scaled(algebra):
    """The same components with their matrices scaled by 2, -1 and zeta_3 in turn."""
    scale = itertools.cycle(_SCALARS)
    return GradedAlgebra(algebra.group, algebra.n, {g: [m.scale(next(scale)) for m in mats]
                                                    for g, mats in algebra.components.items()})


def _shifted(algebra):
    """The same components with every degree multiplied by the first generator."""
    a = algebra.group.element((1,) + (0,) * (len(algebra.group.factors) - 1))
    return GradedAlgebra(algebra.group, algebra.n, {g * a: mats for g, mats in algebra.components.items()})


@pytest.mark.parametrize("case", range(len(_grading_cases())))
def test_verify_grading_matches_the_full_scan(case):
    algebra = _grading_cases()[case]
    assert verify_grading(algebra) == _reference_verify(algebra)


def test_verify_grading_oracle_covers_both_verdicts():
    verdicts = [verify_grading(algebra) for algebra in _grading_cases()]
    assert sum(r.passed for r in verdicts) >= 20
    assert any(r.closure_failures for r in verdicts)
    assert any(not r.independent for r in verdicts)
    assert any(not r.dimension_ok for r in verdicts)


# --- oracle: centralizer against the kernel over all n^2 matrix units ---

def _reference_centralizer(n, mats):
    units = [Matrix.unit(n, i, j) for i in range(n) for j in range(n)]
    return [Matrix.combination(n, zip(sol, units))
            for sol in nullspace(gradings._stacked([b * s - s * b for s in mats]) for b in units)]


@functools.lru_cache(maxsize=None)
def _centralizer_cases():
    """(algebra, inputs, graded) for the valid gradings of _grading_cases() up to n = 4 and a
    tensor grading: (i) a few basis matrices, (ii) X + Y and X - Y for X and Y of two
    degrees, a graded span with no homogeneous member, (iii) X + Y, a span that is not graded."""
    right = epsilon_grading(2)
    G = right.group
    tensor = induced_tensor_grading(elementary_grading(G, (G.identity(), G.element((1, 0)))), right)
    rng = random.Random(21)
    cases = []
    for algebra in [a for a in _grading_cases() if a.n <= 4 and verify_grading(a).passed] + [tensor]:
        basis = [m for _, m in algebra.union_basis]
        cases.append((algebra, rng.sample(basis, min(len(basis), rng.randint(1, 3))), True))
        if len(algebra.components) > 1:
            x, y = (rng.choice(algebra.components[g]) for g in rng.sample(algebra.support(), 2))
            cases.extend(((algebra, [x + y, x - y], True), (algebra, [x + y], False)))
    return cases


@pytest.mark.parametrize("case", range(len(_centralizer_cases())))
def test_centralizer_matches_the_unit_kernel(case):
    algebra, mats, graded = _centralizer_cases()[case]
    n = algebra.n
    assert is_graded_subspace(algebra, mats) == graded
    reference = _reference_centralizer(n, mats)
    basis = centralizer(algebra, mats)
    assert len(basis) == len(reference)
    assert all(m * s == s * m for m in basis for s in mats)
    assert gradings._Span(basis, n).equals(gradings._Span(reference, n))
    if graded:
        assert all(algebra.degree_of(m) is not None for m in basis)


def test_centralizer_oracle_covers_every_kind_of_span():
    cases = _centralizer_cases()
    assert sum(graded for _, _, graded in cases) >= 40
    assert sum(not graded for _, _, graded in cases) >= 15
    assert any(a.is_fine() for a, _, _ in cases) and any(a.elementary_tuple for a, _, _ in cases)
    assert any(not a.is_fine() and a.elementary_tuple is None for a, _, _ in cases)


def test_centralizer_of_a_span_that_is_not_graded_is_a_plain_basis():
    alg = elementary_grading(Z2, (E0, A0))
    e01 = Matrix.unit(2, 0, 1)
    basis = centralizer(alg, [Matrix.identity(2) + e01])
    assert len(basis) == 2
    assert gradings._Span(basis, 2).equals(gradings._Span([Matrix.identity(2), e01], 2))


def test_centralizer_of_a_graded_span_solves_component_kernels_only(monkeypatch):
    eps = epsilon_grading(3)
    x, y = (m for _, m in eps.union_basis[1:3])
    cases = [(eps, [x, y]), (eps, [x + y, x - y]),
             (_conjugated(elementary_grading(Z2, (E0, A0, A0)), random.Random(3)), [Matrix.identity(3)])]
    products = _count_calls(monkeypatch, Matrix, "__mul__")
    for algebra, mats in cases:
        products.clear()
        centralizer(algebra, mats)
        assert len(products) == 2 * len(mats) * algebra.n ** 2


@functools.lru_cache(maxsize=None)
def _map_cases():
    rng = random.Random(4242)
    cases = []
    Z4 = FiniteAbelianGroup((4,))
    for n in range(1, 6):
        tau = _random_tuple(rng, Z4, n)
        alg = elementary_grading(Z4, tau)
        basis = [m for mats in alg.components.values() for m in mats]
        cases.append(GradedMap(alg, alg, tuple((m, m) for m in basis)))
        # conjugation by an invertible diagonal matrix keeps every degree
        d = Matrix.diagonal([CycNumber.rational(rng.choice([1, 2, 3, -1, -5])) for _ in range(n)])
        d_inv = d.inverse()
        cases.append(GradedMap(alg, alg, tuple((m, d * m * d_inv) for m in basis)))
        # a permutation onto the elementary grading of the permuted tuple
        sigma = list(range(n))
        rng.shuffle(sigma)
        target = elementary_grading(Z4, tuple(tau[sigma.index(i)] for i in range(n)))
        permuted = tuple((Matrix.unit(n, i, j), Matrix.unit(n, sigma[i], sigma[j]))
                         for i in range(n) for j in range(n))
        cases.append(GradedMap(alg, target, permuted))
        # degree-preserving but not multiplicative: one unit's image doubled
        cases.append(GradedMap(alg, alg, tuple((m, m.scale(2) if k == n - 1 else m)
                                               for k, m in enumerate(basis))))
    for n in (2, 3):
        eps = epsilon_grading(n)
        x_a = eps.components[eps.group.element((1, 0))][0]
        basis = [mats[0] for mats in eps.components.values()]
        cases.append(GradedMap(eps, eps, tuple((m, x_a * m * x_a.inverse()) for m in basis)))
        cases.append(GradedMap(eps, eps, tuple((m, m.scale(2) if k == 1 else m)
                                               for k, m in enumerate(basis))))
        # moves degrees: the basis sent to itself, with two labels exchanged
        swap = (eps.group.element((1, 0)), eps.group.element((0, 1)))
        cases.append(GradedMap(eps, _relabeled(eps, swap), tuple((m, m) for m in basis)))
    alg = elementary_grading(Z2, (E0, A0))
    basis = [m for mats in alg.components.values() for m in mats]
    cases.append(GradedMap(alg, _relabeled(alg, (E0, A0)), tuple((m, m) for m in basis)))
    # not injective: E_01 goes to zero
    cases.append(GradedMap(alg, alg, tuple(
        (m, Matrix.zeros(2) if m == Matrix.unit(2, 0, 1) else m) for m in basis)))
    # not injective: two units go to the same image
    cases.append(GradedMap(alg, alg, tuple(
        (m, Matrix.unit(2, 0, 0) if m == Matrix.unit(2, 1, 1) else m) for m in basis)))
    # the zero map is multiplicative and not injective
    cases.append(GradedMap(alg, alg, tuple((m, Matrix.zeros(2)) for m in basis)))
    # every unit goes to E_00: T_ij T_jl = T_il holds, orthogonality fails
    trivial = elementary_grading(Z2, (E0, E0))
    cases.append(GradedMap(trivial, trivial, tuple(
        (Matrix.unit(2, i, j), Matrix.unit(2, 0, 0)) for i in range(2) for j in range(2))))
    # dependent source bases, spanning and not, and a short one
    cases.append(GradedMap(alg, alg, tuple((m, m) for m in basis + basis[:1])))
    cases.append(GradedMap(alg, alg, tuple((m, m) for m in basis[:3] + basis[:1])))
    cases.append(GradedMap(alg, alg, tuple((m, m) for m in basis[:3])))
    # non-unital embeddings X -> diag(X, X, 0), with k = 1..3
    for k in (1, 2, 3):
        tau = _random_tuple(rng, Z4, k)
        a, b, c = (rng.choice(Z4.elements()) for _ in range(3))
        embedding = block_diagonal_embedding(elementary_grading(Z4, tau), 2, 1,
                                             tuple(a * t for t in tau) + tuple(b * t for t in tau) + (c,))
        cases.append(embedding)
    # the certificate's relations broken one at a time, and psi != f on one pair alone
    tau = tuple(Z4.element((i,)) for i in (0, 1, 3))
    alg3 = elementary_grading(Z4, tau)

    def changed(domain, codomain, key, image):
        """E_ij -> E_ij in the codomain's size, except the unit at key."""
        n, m = domain.n, codomain.n
        return GradedMap(domain, codomain, tuple(
            (Matrix.unit(n, i, j), image if (i, j) == key else Matrix.unit(m, i, j))
            for i in range(n) for j in range(n)))

    # F_1 = E_10 + E_21 in M_3: F_1 F_0 = E_10 != F_1, while every G_j F_a is right
    cases.append(changed(elementary_grading(Z4, tau[:2]), alg3, (1, 0),
                         Matrix.unit(3, 1, 0) + Matrix.unit(3, 2, 1)))
    # F_1 = 2 E_10: F_i F_0 = F_i holds, G_1 F_1 = 2 F_0 does not
    cases.append(changed(alg3, alg3, (1, 0), Matrix.unit(3, 1, 0).scale(2)))
    # every relation on the 2n - 1 images holds; f(E_21) = 2 E_21 differs from T_21
    cases.append(changed(alg3, alg3, (2, 1), Matrix.unit(3, 2, 1).scale(2)))
    # f(E_12) = E_12 + E_11 differs from T_12 on that pair alone, and is not homogeneous
    cases.append(changed(alg3, alg3, (1, 2), Matrix.unit(3, 1, 2) + Matrix.unit(3, 1, 1)))
    # the identity onto the grading of a tuple with its last entry moved: E_i2 changes degree
    moved = elementary_grading(Z4, tau[:2] + (tau[2] * Z4.element((1,)),))
    cases.append(GradedMap(alg3, moved, tuple((m, m) for _, m in alg3.union_basis)))
    # isomorphisms onto a codomain carried by a dense matrix, and one onto the relabeled copy
    rng = random.Random(16)
    for group, n in ((Z4, 3), (FiniteAbelianGroup((2, 2)), 4)):
        alg = elementary_grading(group, _random_tuple(rng, group, n))
        carried = _conjugated(alg, rng)
        pairs = tuple(zip((m for _, m in alg.union_basis), (m for _, m in carried.union_basis)))
        cases.append(GradedMap(alg, carried, pairs))
        support = carried.support()
        if len(support) > 1:
            cases.append(GradedMap(alg, _relabeled(carried, support[:2]), pairs))
    # sources that are scaled units in shuffled order, onto the grading of the permuted tuple
    for n in (3, 4):
        tau = _random_tuple(rng, Z4, n)
        sigma = list(range(n))
        rng.shuffle(sigma)
        target = elementary_grading(Z4, tuple(tau[sigma.index(i)] for i in range(n)))
        pairs = [(Matrix.unit(n, i, j).scale(c), Matrix.unit(n, sigma[i], sigma[j]).scale(c))
                 for (i, j), c in zip(itertools.product(range(n), repeat=2), itertools.cycle(_SCALARS))]
        rng.shuffle(pairs)
        cases.append(GradedMap(elementary_grading(Z4, tau), target, tuple(pairs)))
    # E_00 and 2 E_00 among n^2 sources, E_11 missing
    cases.append(GradedMap(alg3, alg3, tuple(
        (Matrix.unit(3, 0, 0).scale(2) if (i, j) == (1, 1) else Matrix.unit(3, i, j), Matrix.unit(3, i, j))
        for i in range(3) for j in range(3))))
    # one source E_00 + E_11, which is not a unit: coordinates by elimination
    cases.append(GradedMap(alg3, alg3, tuple(
        (m + Matrix.unit(3, 1, 1), m + Matrix.unit(3, 1, 1)) if m == Matrix.unit(3, 0, 0) else (m, m)
        for _, m in alg3.union_basis)))
    # elementary codomains against the same components without the tuple
    for gmap in list(cases):
        if gmap.codomain.elementary_tuple is not None:
            cases.append(GradedMap(gmap.domain, _untupled(gmap.codomain), gmap.pairs))
    # n = 1: into M_1, doubled, and the zero map
    one = elementary_grading(Z4, (Z4.element((1,)),))
    e00 = Matrix.unit(1, 0, 0)
    for image in (e00, e00.scale(2), Matrix.zeros(1)):
        cases.append(GradedMap(one, one, ((e00, image),)))
    return cases


def _untupled(algebra):
    """The same components with no elementary tuple, so degrees are read by elimination."""
    return GradedAlgebra(algebra.group, algebra.n, algebra.components)


@pytest.mark.parametrize("case", range(len(_map_cases())))
def test_homomorphism_check_matches_the_full_scan(case):
    gmap = _map_cases()[case]
    assert graded_homomorphism_check(gmap) == _reference_homomorphism_check(gmap)


def test_homomorphism_oracle_covers_every_failure_kind():
    reports = [graded_homomorphism_check(gmap) for gmap in _map_cases()]
    assert sum(r.passed for r in reports) >= 10
    assert any(r.multiplicative_failures and not r.degree_failures for r in reports)
    assert any(r.degree_failures for r in reports)
    assert any(not r.injective and not r.multiplicative_failures for r in reports)
    assert any(not r.injective and r.multiplicative_failures for r in reports)
    assert any(not r.basis_ok for r in reports)


def test_passing_verify_builds_no_component_solvers(monkeypatch):
    algebras = (elementary_grading(FiniteAbelianGroup((4,)), tuple(
        FiniteAbelianGroup((4,)).element((i % 3,)) for i in range(6))), epsilon_grading(4),
                _companion_grading())
    solvers = _count_calls(monkeypatch, SpanSolver, "__init__")
    for algebra in algebras:
        solvers.clear()
        assert verify_grading(algebra).passed
        assert "_component_spans" not in vars(algebra)
        # units by position and a fine basis by its cocycle; the companion basis by one union solver
        assert len(solvers) == (algebra is algebras[2])


def test_passing_verify_decomposes_at_most_n_units(monkeypatch):
    G = FiniteAbelianGroup((4,))
    algebras = [elementary_grading(G, tuple(G.element((i,)) for i in (0, 1, 1, 3, 2, 0))),
                epsilon_grading(4), _conjugated(epsilon_grading(3), random.Random(7))]
    calls = _count_calls(monkeypatch, GradedAlgebra, "decompose")
    for algebra in algebras:
        calls.clear()
        assert verify_grading(algebra).passed
        assert len(calls) <= algebra.n


def test_relabeled_verify_multiplies_fewer_than_n4_pairs(monkeypatch):
    n = 6
    G = FiniteAbelianGroup((6,))
    tau = tuple(G.element((i,)) for i in (0, 1, 2, 3, 4, 5))
    algebra = _relabeled(elementary_grading(G, tau), (G.element((1,)), G.element((2,))))
    calls = _count_calls(monkeypatch, Matrix, "__mul__")
    report = verify_grading(algebra)
    assert report.closure_failures and report.dimension_ok and report.independent
    assert len(calls) < n ** 4


def _passing_fine_gradings():
    rng = random.Random(5)
    yield epsilon_grading(4)
    yield _rooted(epsilon_grading(4), rng)
    yield _conjugated(epsilon_grading(3), rng)
    yield _from_basis(*_pauli_basis())
    ambient = FiniteAbelianGroup((3, 6))  # (1, 2) and (0, 2) span a subgroup of order 9
    yield epsilon_grading(3, ambient, ambient.element((1, 2)), ambient.element((0, 2)))


def test_passing_fine_verify_multiplies_generator_pairs_and_eliminates_nothing(monkeypatch):
    algebras = list(_passing_fine_gradings())  # _conjugated inverts a matrix by elimination
    products = _count_calls(monkeypatch, Matrix, "__mul__")
    decompositions = _count_calls(monkeypatch, GradedAlgebra, "decompose")
    implementers = _count_calls(monkeypatch, gradings, "_implementer")
    solvers = _count_calls(monkeypatch, SpanSolver, "__init__")
    for algebra in algebras:
        products.clear()
        assert verify_grading(algebra).passed
        generators, _ = _greedy_generators(algebra.support())
        assert len(products) <= algebra.n ** 2 * len(generators)
    assert not decompositions and not implementers and not solvers


def test_relabeled_fine_verify_builds_no_implementer(monkeypatch):
    decompositions = _count_calls(monkeypatch, GradedAlgebra, "decompose")
    implementers = _count_calls(monkeypatch, gradings, "_implementer")
    failed = 0
    for fine in _passing_fine_gradings():
        algebra = _relabeled(fine, fine.support()[1:3])
        report = verify_grading(algebra)
        assert report == _reference_verify(algebra)
        failed += not report.passed  # Pauli's swap is an automorphism of Z2 x Z2
    assert failed == 4 and not decompositions and not implementers


def test_passing_homomorphism_check_applies_the_map_at_most_twice_per_unit(monkeypatch):
    calls = []
    apply = GradedMap.apply

    def counted(self, m):
        calls.append(m)
        return apply(self, m)

    monkeypatch.setattr(GradedMap, "apply", counted)
    n = 5
    G = FiniteAbelianGroup((4,))
    alg = elementary_grading(G, tuple(G.element((i,)) for i in (0, 1, 1, 3, 2)))
    pairs = tuple((m, m) for mats in alg.components.values() for m in mats)
    assert graded_homomorphism_check(GradedMap(alg, alg, pairs)).passed
    assert len(calls) <= 2 * n * n


def _passing_maps():
    G = FiniteAbelianGroup((4,))
    alg = elementary_grading(G, tuple(G.element((i,)) for i in (0, 1, 1, 3, 2)))
    d = Matrix.diagonal([1, 2, -1, 3, 5])
    yield GradedMap(alg, alg, tuple((m, d * m * d.inverse()) for _, m in alg.union_basis))
    yield block_diagonal_embedding(alg, 2, 1, alg.elementary_tuple * 2 + (G.identity(),))
    eps = epsilon_grading(3)
    x_a = eps.components[eps.group.element((1, 0))][0]
    yield GradedMap(eps, eps, tuple((m, x_a * m * x_a.inverse()) for _, m in eps.union_basis))


def test_passing_homomorphism_check_applies_the_map_to_2n_minus_1_units(monkeypatch):
    calls = _count_calls(monkeypatch, GradedMap, "apply")
    for gmap in _passing_maps():
        calls.clear()
        assert graded_homomorphism_check(gmap).passed
        assert len(calls) <= 2 * gmap.domain.n - 1


def test_passing_homomorphism_check_reads_elementary_degrees_off_positions(monkeypatch):
    maps = list(_passing_maps())  # built before counting: they invert matrices by elimination
    solvers = _count_calls(monkeypatch, SpanSolver, "__init__")
    elementary = 0
    for gmap in maps:
        solvers.clear()
        assert graded_homomorphism_check(gmap).passed
        if gmap.codomain.elementary_tuple is not None:
            elementary += 1
            assert not solvers
    assert elementary == 2


def _solver(mats):
    """A plain SpanSolver over the flattened matrices: the reference for _Span."""
    return SpanSolver([m.vector() for m in mats])


def _solved_apply(gmap, m):
    """f(m) from the coordinates of m that a solver over the sources gives."""
    coords = _solver(src for src, _ in gmap.pairs).sparse_coordinates(m.vector())
    return Matrix.combination(gmap.codomain.n, ((c, gmap.pairs[k][1]) for k, c in coords.items()))


def _entries(m):
    return [(i, j, a.level, a.nums, a.den) for i, row in sorted(m.rows.items()) for j, a in sorted(row.items())]


def test_apply_reads_unit_sources_by_position_with_the_solver_levels():
    n = 3
    G = FiniteAbelianGroup((4,))
    alg = elementary_grading(G, tuple(G.element((i,)) for i in (0, 1, 3)))
    scalars = _SCALARS + (root_of_unity(4, 1), root_of_unity(4, 1) + CycNumber.rational(1))
    sources = [m.scale(scalars[k % 5]) for k, (_, m) in enumerate(alg.union_basis)]
    images = [m.scale(scalars[(k + 2) % 5]) + Matrix.unit(n, 0, 0).scale(scalars[k % 5])
              for k, (_, m) in enumerate(alg.union_basis)]
    gmap = GradedMap(alg, alg, tuple(zip(sources, images)))
    rng = random.Random(17)
    levels = {1: CycNumber.rational(3), 3: root_of_unity(3, 2), 4: root_of_unity(4, 3) - CycNumber.rational(2)}
    inputs = [Matrix([[levels[rng.choice((1, 3, 4))] if rng.random() < 0.7 else 0 for _ in range(n)]
                      for _ in range(n)]) for _ in range(12)]
    inputs += [Matrix.unit(n, i, j) for i in range(n) for j in range(n)] + [Matrix.zeros(n)]
    for m in inputs:
        assert _entries(gmap.apply(m)) == _entries(_solved_apply(gmap, m))
    assert {a.level for m in inputs for row in gmap.apply(m).rows.values() for a in row.values()} >= {1, 3, 4, 12}
    short = GradedMap(alg, alg, tuple(zip(sources[1:], images[1:])))
    outside = alg.union_basis[0][1]
    assert _solver(src for src, _ in short.pairs).sparse_coordinates(outside.vector()) is None
    with pytest.raises(ValueError, match="^matrix is outside the span of the map's source basis$"):
        short.apply(outside)


def test_image_adds_by_increasing_row_whatever_order_the_rows_are_stored_in():
    # -z4 + z3 + z4 keeps level 12, z4 - z4 + z3 drops to level 3
    z4, z3 = root_of_unity(4, 1), root_of_unity(3, 1)
    x = Matrix.combination(2, [(z4, Matrix.unit(2, 1, 0)), (-z4, Matrix.unit(2, 0, 0)),
                               (z3, Matrix.unit(2, 0, 1))])
    assert list(x.rows) == [1, 0]
    units = [[Matrix.unit(2, 0, 0)] * 2] * 2
    got, want = gradings._image(x, units), gradings._image(Matrix(x.entries), units)
    assert _entries(got) == _entries(want)
    assert got[0, 0].level == 12


def _unit_gradings():
    G = FiniteAbelianGroup((4,))
    alg = elementary_grading(G, tuple(G.element((i,)) for i in (0, 1, 1, 3, 2, 0)))
    yield alg
    yield _scaled(alg)
    yield _untupled(alg)


def test_passing_unit_verify_multiplies_nothing_and_builds_no_solver(monkeypatch):
    calls = _count_calls(monkeypatch, Matrix, "__mul__")
    solvers = _count_calls(monkeypatch, SpanSolver, "__init__")
    for algebra in _unit_gradings():
        assert verify_grading(algebra).passed
        assert not calls and not solvers


def test_relabeled_unit_verify_multiplies_only_the_failing_pairs(monkeypatch):
    calls = _count_calls(monkeypatch, Matrix, "__mul__")
    solvers = _count_calls(monkeypatch, SpanSolver, "__init__")
    for algebra in _unit_gradings():
        G = algebra.group
        for relabeled in (_relabeled(algebra, (G.element((1,)), G.element((2,)))), _shifted(algebra)):
            calls.clear()
            report = verify_grading(relabeled)
            assert report.closure_failures and len(calls) == len(report.closure_failures)
    assert not solvers


def test_unit_source_maps_build_no_source_solver():
    # fresh copies: the cached cases share their spans with the other tests
    maps = [GradedMap(gmap.domain, gmap.codomain, gmap.pairs) for gmap in _map_cases()]
    maps = [gmap for gmap in maps if gmap._sources.positions is not None]
    assert len(maps) >= 40
    for gmap in maps:
        graded_homomorphism_check(gmap)
        assert "solver" not in vars(gmap._sources)


def test_untupled_elementary_codomains_build_no_component_solvers(monkeypatch):
    maps = [GradedMap(gmap.domain, _untupled(gmap.codomain), gmap.pairs) for gmap in _passing_maps()
            if gmap.codomain.elementary_tuple is not None]
    assert maps
    solvers = _count_calls(monkeypatch, SpanSolver, "__init__")
    for gmap in maps:
        assert graded_homomorphism_check(gmap).passed
    assert not solvers


# --- the position route of graded_homomorphism_check on maps of scaled units ---

def _position_maps(rng, group, n, extra):
    """A seeded map E_ij -> lambda_ij E_(iota(i) iota(j)) into M_(n + extra), iota injective,
    with lambda_ij = d_i / d_j (some d rational, some roots of unity) and sources scaled by
    1 and _SCALARS in turn, onto a tuple that keeps every degree; then its corrupted copies,
    each with its name."""
    m = n + extra
    tau = _random_tuple(rng, group, n)
    iota = rng.sample(range(m), n)
    shift = rng.choice(group.elements())
    tau_p = list(_random_tuple(rng, group, m))
    for i, k in enumerate(iota):
        tau_p[k] = shift * tau[i]
    domain, codomain = elementary_grading(group, tau), elementary_grading(group, tuple(tau_p))
    d = [rng.choice([CycNumber.rational(rng.choice([1, 2, -3])), CycNumber.rational(1) / 5,
                     root_of_unity(rng.choice([3, 4, 5]), rng.randrange(1, 3))]) for _ in range(n)]
    scale = itertools.cycle((CycNumber.one(),) + _SCALARS)
    cells = {(i, j): (next(scale), d[i] * d[j].inverse(), iota[i], iota[j])
             for i in range(n) for j in range(n)}

    def build(cells, codomain=codomain):
        items = list(cells.items())
        rng.shuffle(items)  # the pairs in no particular order
        return GradedMap(domain, codomain, tuple(
            (Matrix.unit(n, i, j).scale(a), Matrix.unit(m, r, c).scale(a * lam))
            for (i, j), (a, lam, r, c) in items))

    def changed(key, **parts):
        a, lam, r, c = cells[key]
        return build({**cells, key: (a, parts.get("lam", lam), parts.get("r", r), parts.get("c", c))})

    key = (rng.randrange(n), rng.randrange(n))
    a, lam, r, c = cells[key]
    passing = build(cells)
    yield "passing", passing
    yield "one lambda changed", changed(key, lam=lam * root_of_unity(3, 1))
    if m > 1:
        yield "one column moved", changed(key, c=(c + 1) % m)
        yield "one row moved", changed(key, r=(r + 1) % m)
    yield "lambda_00 != 1", changed((0, 0), lam=CycNumber.rational(-1))
    yield "every lambda doubled", build({k: (a, 2 * lam, r, c) for k, (a, lam, r, c) in cells.items()})
    if n > 1:
        # lambda_ij c_j, c_0 = 1 and c_j = 2 otherwise: lambda_ij = lambda_i0 lambda_0j still
        # holds everywhere, lambda_0j lambda_j0 = 1 does not
        yield "columns scaled apart", build({(i, j): (a, lam * (2 if j else 1), r, c)
                                             for (i, j), (a, lam, r, c) in cells.items()})
        fold = [iota[0], iota[0], *iota[2:]]  # indices 0 and 1 to one row and one column
        yield "sigma not injective", build({(i, j): (a, lam, fold[i], fold[j])
                                            for (i, j), (a, lam, _, _) in cells.items()})
    support = codomain.support()
    if len(support) > 1:
        yield "relabeled codomain", build(cells, _relabeled(codomain, support[:2]))
    # the entry of tau' at iota(key[0]) moved by the first generator: c_i differs there alone
    moved = list(tau_p)
    moved[iota[key[0]]] *= group.element((1,) + (0,) * (len(group.factors) - 1))
    yield "retupled codomain", GradedMap(domain, elementary_grading(group, tuple(moved)), passing.pairs)


@functools.lru_cache(maxsize=None)
def _position_map_cases():
    rng = random.Random(2024)
    groups = (FiniteAbelianGroup((4,)), FiniteAbelianGroup((2, 2)), FiniteAbelianGroup((6,)))
    return [case for k in range(24)
            for case in _position_maps(rng, groups[k % 3], 1 + k % 6, (0, 0, 2)[k % 3])]


def test_position_route_gives_the_report_of_the_unit_table_route(monkeypatch):
    cases = _position_map_cases()
    reports = [graded_homomorphism_check(gmap) for _, gmap in cases]
    answered = [gradings._unit_map_report(gmap) is not None for _, gmap in cases]
    monkeypatch.setattr(gradings, "_unit_map_report", lambda gmap: None)
    for (name, gmap), report, read in zip(cases, reports, answered):
        assert graded_homomorphism_check(gmap) == report, name
        if gmap.codomain.elementary_tuple is None:  # relabeled: the certificate answers, as the scan does
            assert not read and report == _reference_homomorphism_check(gmap), name
        else:  # the position certificate passes exactly on multiplicative maps
            assert read == (not report.multiplicative_failures), name
    names = {name for name, _ in cases}
    assert all(r.passed for (name, _), r in zip(cases, reports) if name == "passing")
    for kind in names - {"passing", "relabeled codomain", "retupled codomain"}:
        assert all(r.multiplicative_failures for (name, _), r in zip(cases, reports) if name == kind), kind
    assert any(r.degree_failures and read for r, read in zip(reports, answered))
    assert any(not r.injective for r in reports)
    assert sum(answered) >= 30 and len(cases) - sum(answered) >= 60


def _reference_unit_degree_failures(gmap):
    """The degree failures of a multiplicative unit map, component by component: every
    unit position of the domain's R_g, moved by sigma, among the positions of the
    codomain's R_g."""
    domain, codomain = gmap.domain, gmap.codomain
    n, m = domain.n, codomain.n
    sigma = {i: next(iter(image.rows)) for source, image in gmap.pairs
             for i, row in source.rows.items() if 0 in row}
    codomain_spans = codomain._component_spans
    return tuple(
        g for g, span in domain._component_spans.items()
        if (target := codomain_spans.get(g)) is None
        or any(sigma[p // n] * m + sigma[p % n] not in target.positions for p in span.positions))


def _shifted_unit_maps():
    """Seeded maps a E_ij -> a E_(iota(i) iota(j)) into M_(n + extra) between elementary
    gradings, tau'_iota(i) = c_i tau_i with the shifts c_i drawn at random, the last one
    moved off the first by a generator so that they are never all equal."""
    rng = random.Random(28)
    for group in (FiniteAbelianGroup((4,)), FiniteAbelianGroup((2, 2)), FiniteAbelianGroup((6,))):
        for n in (2, 5, 9, 16):
            extra = rng.choice((0, 3))
            tau, iota = _random_tuple(rng, group, n), rng.sample(range(n + extra), n)
            tau_p = list(_random_tuple(rng, group, n + extra))
            shifts = list(_random_tuple(rng, group, n))
            shifts[-1] = shifts[0] * group.element((1,) + (0,) * (len(group.factors) - 1))
            for i, c in enumerate(shifts):
                tau_p[iota[i]] = c * tau[i]
            scale = itertools.cycle((CycNumber.one(),) + _SCALARS)
            yield GradedMap(elementary_grading(group, tau), elementary_grading(group, tuple(tau_p)), tuple(
                (Matrix.unit(n, i, j).scale(a), Matrix.unit(n + extra, iota[i], iota[j]).scale(a))
                for (i, j), a in zip(itertools.product(range(n), repeat=2), scale)))


def test_tuple_degrees_match_the_component_positions():
    for gmap in _shifted_unit_maps():
        failures = gradings._unit_map_report(gmap).degree_failures
        assert failures and failures == _reference_unit_degree_failures(gmap)


def test_passing_tupled_check_indexes_the_sources_alone(monkeypatch):
    rng = random.Random(32)
    G, n = FiniteAbelianGroup((4,)), 32
    tau = _random_tuple(rng, G, n)
    sigma = list(range(n))
    rng.shuffle(sigma)
    tau_p = tuple(tau[sigma.index(i)] for i in range(n))
    gmap = GradedMap(elementary_grading(G, tau), elementary_grading(G, tau_p), build_isomorphism(sigma, n))
    passes, index = [], gradings._Span.positions.method

    def positions(span):
        passes.append(span)
        return index(span)

    monkeypatch.setattr(gradings._Span, "positions", gradings._lazy(positions))
    assert graded_homomorphism_check(gmap).passed
    assert passes == [gmap._sources]
    assert "_component_spans" not in vars(gmap.domain) and "_component_spans" not in vars(gmap.codomain)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_passing_unit_isomorphism_check_builds_no_matrix_and_multiplies_n2_scalars(monkeypatch, n):
    rng = random.Random(n)
    G = FiniteAbelianGroup((4,))
    tau = _random_tuple(rng, G, n)
    sigma = list(range(n))
    rng.shuffle(sigma)
    tau_p = tuple(tau[sigma.index(i)] for i in range(n))  # E_ij keeps its degree
    gmap = GradedMap(elementary_grading(G, tau), elementary_grading(G, tau_p), build_isomorphism(sigma, n))
    counted = [_count_calls(monkeypatch, cls, name) for cls, name in (
        (Matrix, "__mul__"), (Matrix, "combination"), (GradedMap, "apply"), (SpanSolver, "__init__"))]
    scalars = _count_calls(monkeypatch, CycNumber, "__mul__")
    assert graded_homomorphism_check(gmap).passed
    assert [len(calls) for calls in counted] == [0, 0, 0, 0]
    assert len(scalars) <= 3 * n * n


# --- oracle: _Span against a plain SpanSolver over the flattened matrices ---

def _span_families():
    """Families of 3 x 3 matrices, by what each one covers."""
    units = [Matrix.unit(3, i, j) for i in range(3) for j in range(3)]
    zeta = root_of_unity(4, 1)
    return {
        "units at repeated positions": [units[0], units[4].scale(2), units[0].scale(-1), units[5],
                                        units[4].scale(zeta)],
        "units scaled by roots of unity": [u.scale(root_of_unity(k, 1))
                                           for u, k in zip(units, (1, 2, 3, 4, 6, 12, 3, 4, 5))],
        "not units, with a zero": [units[0] + units[4], Matrix.zeros(3), units[1].scale(zeta),
                                   units[0], units[8] - units[2]],
        "empty": [],
    }


def _span_inputs(mats, rng):
    """Random matrices, random combinations of the family (inside its span), units and zero."""
    values = [CycNumber.rational(3), root_of_unity(3, 2), root_of_unity(4, 3) - CycNumber.rational(2)]
    inputs = [Matrix([[rng.choice(values) if rng.random() < 0.4 else 0 for _ in range(3)]
                      for _ in range(3)]) for _ in range(8)]
    inputs += [Matrix.combination(3, ((rng.choice(values), m) for m in mats if rng.random() < 0.7))
               for _ in range(8)]
    return inputs + [Matrix.unit(3, i, j) for i in range(3) for j in range(3)] + [Matrix.zeros(3)]


def _coordinate_entries(coords):
    return None if coords is None else [(k, c.level, c.nums, c.den) for k, c in coords.items()]


@pytest.mark.parametrize("name", sorted(_span_families()))
def test_span_matches_a_plain_solver_in_value_and_level(name):
    mats = _span_families()[name]
    span, solver = gradings._Span(mats, 3), _solver(mats)
    assert span.rank == solver.rank
    inside = 0
    for m in _span_inputs(mats, random.Random(19)):
        assert span.contains(m) == solver.contains(m.vector())
        coords = span.coordinates(m)
        assert _coordinate_entries(coords) == _coordinate_entries(solver.sparse_coordinates(m.vector()))
        inside += coords is not None and not m.is_zero()
    assert inside >= (4 if mats else 0)
    # only the family that is not all scaled units is eliminated
    assert ("solver" in vars(span)) == (span.positions is None) == (name == "not units, with a zero")


def test_lazy_span_attributes_are_computed_once_per_instance(monkeypatch):
    mats = [Matrix.unit(3, 0, 1), Matrix.unit(3, 2, 2)]
    calls = []
    index = gradings._Span.positions.method

    def positions(span):
        calls.append(span)
        return index(span)

    monkeypatch.setattr(gradings._Span, "positions", gradings._lazy(positions))
    span, other = gradings._Span(mats, 3), gradings._Span(mats, 3)
    assert "positions" not in vars(span)
    first = span.positions
    assert first == {1: 0, 8: 1} and span.positions is first is vars(span)["positions"]
    assert span.rank == 2 and span.contains(Matrix.unit(3, 2, 2)) and calls == [span]
    assert other.positions == first and other.positions is not first and calls == [span, other]
    assert "solver" not in vars(span)


def _outcome_of(read, *args):
    try:
        value = read(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return ("returned", _coordinate_entries(value) if isinstance(value, dict) else value)


@pytest.mark.parametrize("name", sorted(_span_families()))
def test_span_of_another_size_answers_as_a_plain_solver(name):
    mats = _span_families()[name]
    span, solver = gradings._Span(mats, 3), _solver(mats)
    outcomes = []
    for m in (Matrix.identity(2), Matrix.zeros(2), Matrix.unit(4, 0, 0)):
        assert _outcome_of(span.contains, m) == _outcome_of(solver.contains, m.vector())
        got = _outcome_of(span.coordinates, m)
        assert got == _outcome_of(solver.sparse_coordinates, m.vector())
        outcomes.append(got[0])
    # a solver holding a vector raises on another length
    assert outcomes[0] == ("ValueError" if mats else "returned")
    assert not mats or outcomes == ["ValueError"] * 3


def _solved_decompose(algebra, m):
    """Homogeneous parts from the coordinates that a solver over the union basis gives."""
    coords = _solver(b for _, b in algebra.union_basis).sparse_coordinates(m.vector())
    terms = {}
    for k, c in coords.items():
        g, b = algebra.union_basis[k]
        terms.setdefault(g, []).append((c, b))
    parts = {g: Matrix.combination(algebra.n, t) for g, t in terms.items()}
    return {g: part for g, part in parts.items() if not part.is_zero()}


def test_unit_decompose_degree_and_action_read_positions_and_match_the_solver(monkeypatch):
    rng = random.Random(1919)
    values = [CycNumber.rational(-2), root_of_unity(3, 1), root_of_unity(4, 1) + CycNumber.rational(1)]
    cases = []
    for algebra in _unit_gradings():
        n = algebra.n
        inputs = [Matrix([[rng.choice(values) if rng.random() < 0.5 else 0 for _ in range(n)]
                          for _ in range(n)]) for _ in range(6)]
        inputs += [Matrix.combination(n, ((rng.choice(values), m) for m in mats))
                   for mats in algebra.components.values()]  # homogeneous
        chi = gradings.Character(algebra.group, (1,))
        expected = []
        for m in inputs:
            parts = _solved_decompose(algebra, m)
            expected.append(({g: _entries(p) for g, p in parts.items()},
                             next(iter(parts)) if len(parts) == 1 else None,
                             _entries(Matrix.combination(n, ((chi(g), p) for g, p in parts.items())))))
        cases.append((algebra, chi, inputs, expected))
    solvers = _count_calls(monkeypatch, SpanSolver, "__init__")
    homogeneous = 0
    for algebra, chi, inputs, expected in cases:
        for m, (parts, degree, acted) in zip(inputs, expected):
            assert {g: _entries(p) for g, p in algebra.decompose(m).items()} == parts
            assert algebra.degree_of(m) == degree
            assert _entries(character_action(chi, algebra, m)) == acted
            homogeneous += degree is not None
    assert not solvers and homogeneous >= 3 * len(cases)


# --- oracle: the |T|^3 scan of the 2-cocycle identity, kept as the reference ---

def _reference_identity_violation(cocycle):
    """First (t, s, u) of the support, in order, breaking the 2-cocycle identity."""
    alpha = cocycle.values
    for t in cocycle.support:
        for s in cocycle.support:
            for u in cocycle.support:
                if alpha[(t, s)] * alpha[(t * s, u)] != alpha[(s, u)] * alpha[(t, s * u)]:
                    return (t, s, u)
    return None


def _outcome(check, cocycle):
    try:
        return ("returned", check(cocycle))
    except KeyError as exc:
        return ("KeyError", exc.args)


def _random_epsilon_cocycle(rng, n, group):
    """The extracted cocycle of an epsilon grading on random generators inside group."""
    while True:
        try:
            return extract_cocycle(_random_epsilon_grading(rng, n, group))
        except ValueError:  # the support is not a subgroup, or not closed under products
            continue


def _by_hand(cocycle):
    """A table with the same values, built directly rather than read off matrices."""
    return Cocycle(cocycle.group, cocycle.support, dict(cocycle.values))


def _bicharacter(group, rng):
    """zeta^b(t,s) for a random bilinear b on the cyclic factors."""
    level = group.exponent_lcm
    factors = group.factors
    coeffs = [[rng.randrange(level) * (level // math.gcd(p, q)) for q in factors] for p in factors]

    def value(t, s):
        return root_of_unity(level, sum(coeffs[i][j] * x * y for i, x in enumerate(t.exponents)
                                        for j, y in enumerate(s.exponents)) % level)
    return value


def _twisted_tables(rng, group):
    """A bicharacter and a coboundary-twisted bicharacter, each on a shuffled support."""
    support = list(group.elements())
    beta = _bicharacter(group, rng)
    f = {t: CycNumber.rational(rng.choice([1, -1, 2, -3, 5])) * beta(t, t) for t in support}
    tables = []
    for twisted in (False, True):
        rng.shuffle(support)
        values = {}
        for t in support:
            for s in support:
                value = beta(t, s)
                if twisted:
                    value = value * f[t] * f[s] / f[t * s]
                values[(t, s)] = value
        tables.append(Cocycle(group, tuple(support), values))
    return tables


def _changed(cocycle, rng, factor):
    """The same table with one value multiplied by factor."""
    values = dict(cocycle.values)
    key = rng.choice(sorted(values, key=lambda ts: (ts[0].sort_key(), ts[1].sort_key())))
    values[key] = values[key] * factor
    return Cocycle(cocycle.group, cocycle.support, values)


@functools.lru_cache(maxsize=None)
def _cocycle_cases():
    rng = random.Random(7070)
    cocycles = []
    for n in range(1, 7):
        cocycles.append(_random_epsilon_cocycle(rng, n, FiniteAbelianGroup((n, n))))
        cocycles.append(_random_epsilon_cocycle(rng, n, FiniteAbelianGroup((n, 2 * n))))
    extracted = list(cocycles)
    for factors in ((2, 2, 2), (2, 4, 3)):
        cocycles.extend(_twisted_tables(rng, FiniteAbelianGroup(factors)))
    cases = list(cocycles)
    for co in cocycles:
        cases.append(_changed(co, rng, CycNumber.rational(2)))
        cases.append(_changed(co, rng, root_of_unity(3, 1)))
    co = cocycles[-1]
    cases.append(_changed(co, rng, CycNumber.zero()))
    G = FiniteAbelianGroup((2, 2, 2))
    cases.append(Cocycle(G, (), {}))
    # a support that is not a subgroup: the scan reaches a missing value
    partial = tuple(t for t in G.elements() if t != G.element((1, 1, 1)))
    cases.append(Cocycle(G, partial, {(t, s): CycNumber.one() for t in partial for s in partial}))
    # the extracted tables built by hand, so that the generator certificate checks them
    cases.extend(_by_hand(co) for co in extracted)
    return cases


@functools.lru_cache(maxsize=None)
def _reference_outcome(case):
    return _outcome(_reference_identity_violation, _cocycle_cases()[case])


@pytest.mark.parametrize("case", range(len(_cocycle_cases())))
def test_cocycle_identity_matches_the_full_scan(case):
    co = _cocycle_cases()[case]
    assert _outcome(Cocycle.first_identity_violation, co) == _reference_outcome(case)


def test_cocycle_oracle_covers_both_verdicts_and_every_fallback():
    outcomes = [_reference_outcome(case) for case in range(len(_cocycle_cases()))]
    assert sum(o == ("returned", None) for o in outcomes) >= 17
    assert sum(o[0] == "returned" and o[1] is not None for o in outcomes) >= 25
    assert any(o[0] == "KeyError" for o in outcomes)
    assert any(co.support and any(v.is_zero() for v in co.values.values())
               for co in _cocycle_cases())


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_passing_identity_check_multiplies_only_generator_triples(monkeypatch):
    co = _by_hand(extract_cocycle(epsilon_grading(5)))
    calls = _count_calls(monkeypatch, CycNumber, "__mul__")
    assert co.first_identity_violation() is None
    size, generators = 25, 2  # Z5 x Z5 is generated by (0, 1) and (1, 0)
    assert len(calls) <= 2 * size * size * generators


def test_cocycle_from_units_inverts_one_pivot_per_degree(monkeypatch):
    alg = epsilon_grading(5)
    basis = {g: mats[0] for g, mats in alg.components.items()}
    calls = _count_calls(monkeypatch, CycNumber, "inverse")
    cocycle_from_units(alg.group, basis)
    assert len(calls) <= len(basis)


def test_cocycle_from_units_raises_the_first_fault_in_pair_order():
    Z3 = FiniteAbelianGroup((3,))
    e, g, g2 = (Z3.element((k,)) for k in range(3))
    zero = Matrix.zeros(2)
    # (e, g): E_00 E_11 = 0 comes before the zero basis element of degree g^2 is reached
    with pytest.raises(ValueError) as excinfo:
        cocycle_from_units(Z3, {e: Matrix.unit(2, 0, 0), g: Matrix.unit(2, 1, 1), g2: zero})
    assert str(excinfo.value) == \
        f"product of degrees {e} and {g} is not a nonzero multiple of the {g} basis"
    # (e, g) reaches the zero basis element first; (g, g^2) would fail as a non-multiple
    with pytest.raises(ValueError) as excinfo:
        cocycle_from_units(Z3, {e: Matrix.identity(2), g: zero, g2: Matrix.unit(2, 0, 1)})
    assert str(excinfo.value) == f"basis element of degree {g} is zero"


def test_extraction_multiplies_only_generator_pairs(monkeypatch):
    alg = epsilon_grading(5)
    calls = _count_calls(monkeypatch, Matrix, "__mul__")
    extract_cocycle(alg)
    size, generators = 25, 2
    assert len(calls) <= size * generators


def test_passing_identity_check_indexes_the_support_once(monkeypatch):
    co = _by_hand(extract_cocycle(epsilon_grading(5)))
    calls = _count_calls(monkeypatch, GroupElement, "__mul__")
    assert co.first_identity_violation() is None
    size = 25
    assert len(calls) <= 2 * size * size


def test_extracted_tables_answer_the_identity_without_multiplying(monkeypatch):
    G, pauli = _pauli_basis()
    tables = [extract_cocycle(epsilon_grading(5)), cocycle_from_units(G, pauli)]
    copies = [_by_hand(co) for co in tables]
    calls = _count_calls(monkeypatch, CycNumber, "__mul__")
    for co in tables:
        assert co.first_identity_violation() is None
    assert not calls
    for co, copy in zip(tables, copies):
        assert copy == co and copy.first_identity_violation() is None
    assert calls  # a table built by hand keeps its certificate


def test_extraction_rejects_a_closed_dependent_family():
    G, basis = FiniteAbelianGroup((2, 2)), _diagonal_family()
    assert cocycle_from_units(G, basis).first_identity_violation() is None
    report = verify_grading(_from_basis(G, basis))
    assert report.dimension_ok and not report.independent and not report.closure_failures
    with pytest.raises(ValueError, match="^the basis of the fine grading is not linearly independent$"):
        extract_cocycle(_from_basis(G, basis))


def test_extraction_succeeds_exactly_on_fine_gradings():
    outcomes = []
    for algebra in _fine_cases():
        try:
            extract_cocycle(algebra)
        except ValueError as exc:
            outcomes.append((str(exc), verify_grading(algebra).passed))
        else:
            outcomes.append(("extracted", verify_grading(algebra).passed))
    assert all((text == "extracted") == passed for text, passed in outcomes)
    texts = {text for text, _ in outcomes}
    assert {"extracted", "the degrees of the basis must form a subgroup",
            "the basis of the fine grading is not linearly independent"} <= texts
    assert any(text.startswith("product of degrees") for text in texts)
    assert any(text.startswith("basis element of degree") for text in texts)


def test_support_is_subgroup_matches_closure():
    for factors in ((1,), (4,), (6,), (2, 2)):
        G = FiniteAbelianGroup(factors)
        elements = G.elements()
        for mask in range(1, 2 ** len(elements)):
            supp = {g for k, g in enumerate(elements) if mask >> k & 1}
            closed = G.identity() in supp and all(g * h in supp for g in supp for h in supp)
            algebra = GradedAlgebra(G, 1, {g: [Matrix.identity(1)] for g in supp})
            assert support_is_subgroup(algebra) == closed


# --- oracle: the |T|^2 pair scan of cocycle_from_units, kept as the reference ---

def _reference_cocycle_from_units(group, basis):
    """Every product X_t X_s compared with a multiple of X_(ts), faults raised in (t, s) order."""
    support = tuple(sorted(basis, key=GroupElement.sort_key))
    if set(subgroup_generated(support)) != set(support):
        raise ValueError("the degrees of the basis must form a subgroup")
    values = {}
    pivots = {}
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


def _extraction_outcome(extract, group, basis):
    try:
        co = extract(group, basis)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return ("returned", co.support,
            [(key, value.to_string(), value.level) for key, value in co.values.items()])


@functools.lru_cache(maxsize=None)
def _extraction_cases():
    rng = random.Random(1010)
    families = []
    for n in range(1, 7):
        for factors in ((n, n), (n, 2 * n), (2, n, n))[:3 if n <= 4 else 2]:
            group = FiniteAbelianGroup(factors)
            families.append((group, _basis(_random_epsilon_grading(rng, n, group))))
    cases = list(families)
    closed = [f for f in families
              if _extraction_outcome(_reference_cocycle_from_units, *f)[0] == "returned"]
    for group, basis in closed[1::2]:
        degrees = sorted(basis, key=GroupElement.sort_key)
        t, s = rng.sample(degrees, 2) if len(degrees) > 1 else (degrees[0], degrees[0])
        scaled = dict(basis)
        scaled[t] = scaled[t].scale(CycNumber.rational(rng.choice([2, -3, 5])) * root_of_unity(3, 1))
        p, p_inv = _monomial(rng, basis[t].n)
        conjugated = {g: p * m * p_inv for g, m in basis.items()}
        swapped = dict(basis)
        swapped[t], swapped[s] = basis[s], basis[t]
        zeroed = dict(basis)
        zeroed[s] = Matrix.zeros(basis[s].n)
        cases.extend((group, family) for family in (scaled, conjugated, swapped, zeroed))
    G, pauli = _pauli_basis()
    pauli[G.element((1, 1))] = pauli[G.element((0, 1))]
    cases.append((G, pauli))
    cases.append((G, {**_pauli_basis()[1], G.element((1, 1)): Matrix.unit(3, 2, 2)}))
    cases.append((G, {}))
    Z1 = FiniteAbelianGroup((1,))  # no generators: the one pair is multiplied out
    cases.extend((Z1, {Z1.identity(): m}) for m in (Matrix.unit(2, 1, 1), Matrix.unit(2, 0, 1)))
    cases.append((G, {g: m for g, m in _pauli_basis()[1].items() if g != G.element((1, 1))}))
    return cases


@functools.lru_cache(maxsize=None)
def _reference_extraction(case):
    return _extraction_outcome(_reference_cocycle_from_units, *_extraction_cases()[case])


@pytest.mark.parametrize("case", range(len(_extraction_cases())))
def test_cocycle_from_units_matches_the_pair_scan(case):
    got = _extraction_outcome(cocycle_from_units, *_extraction_cases()[case])
    assert got == _reference_extraction(case)


def test_extraction_oracle_covers_values_and_every_fault():
    outcomes = [_reference_extraction(case) for case in range(len(_extraction_cases()))]
    assert sum(o[0] == "returned" for o in outcomes) >= 25
    texts = [o[1] for o in outcomes if o[0] == "ValueError"]
    assert any(t.startswith("product of degrees") for t in texts)
    assert any(t.startswith("basis element of degree") for t in texts)
    assert "the degrees of the basis must form a subgroup" in texts
    assert "need at least one generator" in texts
    assert "product of degrees (0,1) and (1,0) is not a nonzero multiple of the (1,1) basis" in texts


def _generator_pairs_pass(basis):
    """Every X_t nonzero, and X_t X_g a nonzero multiple of X_(tg) for g in the greedy generators."""
    support = sorted(basis, key=GroupElement.sort_key)
    generators, span = [], {support[0].group.identity()}
    for t in support:
        if t not in span:
            generators.append(t)
            span = set(subgroup_generated(generators))
    if span != set(support) or any(m.is_zero() for m in basis.values()):
        return False
    for t in support:
        for g in generators or support:
            product, target = basis[t] * basis[g], basis[t * g]
            i, j = target.nonzero_positions()[0]
            scalar = product[i, j] / target[i, j]
            if scalar.is_zero() or product != target.scale(scalar):
                return False
    return True


_small_entries = st.sampled_from([0, 0, 1, -1, 2])


@st.composite
def _perturbed_families(draw):
    """A Pauli or epsilon family, scaled, conjugated, and with degrees swapped or entries replaced."""
    choice = draw(st.sampled_from(["pauli", 1, 2, 3]))
    if choice == "pauli":
        group, basis = _pauli_basis()
    else:
        group, basis = epsilon_grading(choice).group, _basis(epsilon_grading(choice))
    degrees = sorted(basis, key=GroupElement.sort_key)
    n = basis[degrees[0]].n
    for t in degrees:
        basis[t] = basis[t].scale(draw(st.sampled_from([1, -1, 2, root_of_unity(4, 1)])))
    if draw(st.booleans()):
        p, p_inv = _monomial(random.Random(draw(st.integers(0, 99))), n)
        basis = {g: p * m * p_inv for g, m in basis.items()}
    for _ in range(draw(st.integers(0, 2))):
        t, s = draw(st.sampled_from(degrees)), draw(st.sampled_from(degrees))
        if draw(st.booleans()):
            basis[t], basis[s] = basis[s], basis[t]
        else:
            basis[t] = Matrix([[draw(_small_entries) for _ in range(n)] for _ in range(n)])
    return group, basis


@settings(max_examples=80, deadline=None)
@given(_perturbed_families())
def test_generator_pairs_certify_the_pair_scan(family):
    group, basis = family
    reference = _extraction_outcome(_reference_cocycle_from_units, group, basis)
    if _generator_pairs_pass(basis):
        assert reference[0] == "returned"
    assert _extraction_outcome(cocycle_from_units, group, basis) == reference
    if reference[0] == "returned":  # a table read off matrices holds the identity
        assert _reference_identity_violation(cocycle_from_units(group, basis)) is None


@settings(max_examples=60, deadline=None)
@given(_perturbed_families())
def test_verify_grading_matches_the_full_scan_on_perturbed_families(family):
    algebra = _from_basis(*family)
    assert verify_grading(algebra) == _reference_verify(algebra)
