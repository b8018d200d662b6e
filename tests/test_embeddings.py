"""Block embeddings, module splitting, and regularization of fine factors."""

import pytest
from hypothesis import given, settings, strategies as st

from gradedmat import embeddings
from gradedmat.cyclotomic import CycNumber, root_of_unity
from gradedmat.embeddings import (DecompositionPair, EmbeddingConditionError,
                                  GradedVectorSpace, block_diagonal_embedding,
                                  find_block_violation,
                                  regularize_decomposition, split_module_decomposition)
from gradedmat.gradings import (GradedAlgebra, GradedMap, elementary_grading,
                                graded_homomorphism_check, induced_tensor_grading)
from gradedmat.groups import FiniteAbelianGroup
from gradedmat.linalg import SpanSolver
from gradedmat.matrices import Matrix

Z2 = FiniteAbelianGroup((2,))
E0 = Z2.element((0,))
A0 = Z2.element((1,))


def test_block_condition_on_repeating_tuple():
    assert find_block_violation((E0, A0, E0, A0), 2, 2, 0) is None
    assert find_block_violation((E0, A0, E0, A0), 2, 2, 0) is None


def test_block_condition_vacuous_for_unit_blocks():
    assert find_block_violation((E0, A0, A0), 1, 3, 0) is None


def test_block_condition_reports_first_bad_position():
    assert find_block_violation((E0, A0, E0, E0), 2, 2, 0) == 0
    assert find_block_violation((E0, A0, E0, E0), 2, 2, 0) is not None


def test_block_condition_ignores_tail():
    assert find_block_violation((E0, A0, E0, A0, A0), 2, 2, 1) is None
    assert find_block_violation((E0, A0, E0, A0, E0), 2, 2, 1) is None


def test_block_condition_validates_parameters():
    with pytest.raises(ValueError):
        find_block_violation((E0, A0), 0, 2, 0)
    with pytest.raises(ValueError):
        find_block_violation((E0, A0, E0), 2, 2, 0)


def test_embedding_of_scalars_doubles_identity():
    domain = elementary_grading(Z2, (E0,))
    phi = block_diagonal_embedding(domain, 2, 0, (E0, E0))
    assert phi.pairs == ((Matrix.identity(1), Matrix.identity(2)),)


def test_embedding_unit_images_and_grading():
    domain = elementary_grading(Z2, (E0, A0))
    phi = block_diagonal_embedding(domain, 2, 0, (E0, A0, E0, A0))
    images = {src.nonzero_positions()[0]: img for src, img in phi.pairs}
    assert images[(0, 1)] == Matrix.unit(4, 0, 1) + Matrix.unit(4, 2, 3)
    assert images[(1, 0)] == Matrix.unit(4, 1, 0) + Matrix.unit(4, 3, 2)
    report = graded_homomorphism_check(phi)
    assert report.passed and report.injective


def test_embedding_with_remainder_leaves_zero_tail():
    domain = elementary_grading(Z2, (E0, A0))
    phi = block_diagonal_embedding(domain, 2, 1, (E0, A0, E0, A0, A0))
    for _, img in phi.pairs:
        assert all(img.entries[4][j].is_zero() for j in range(5))
        assert all(img.entries[i][4].is_zero() for i in range(5))
    assert graded_homomorphism_check(phi).passed


def test_embedding_image_sits_inside_its_corner():
    domain = elementary_grading(Z2, (E0, A0))
    phi = block_diagonal_embedding(domain, 2, 1, (E0, A0, E0, A0, E0))
    e_prime = phi.apply(Matrix.identity(2))
    for _, img in phi.pairs:
        assert e_prime * img * e_prime == img
    # with m = 1 the image fills the corner; with m > 1 it is a proper subspace
    single = block_diagonal_embedding(domain, 1, 1, (E0, A0, A0))
    e_single = single.apply(Matrix.identity(2))
    corner = SpanSolver()
    for i in range(3):
        for j in range(3):
            corner.add((e_single * Matrix.unit(3, i, j) * e_single).vector())
    image = SpanSolver(img.vector() for _, img in single.pairs)
    assert corner.rank == image.rank == 4
    corner_double = SpanSolver()
    for i in range(5):
        for j in range(5):
            corner_double.add((e_prime * Matrix.unit(5, i, j) * e_prime).vector())
    assert corner_double.rank == 16 > 4


def test_embedding_rejects_ratio_violation_with_index():
    domain = elementary_grading(Z2, (E0, A0))
    with pytest.raises(EmbeddingConditionError) as info:
        block_diagonal_embedding(domain, 2, 0, (E0, A0, E0, E0))
    assert info.value.index == 0


def test_embedding_rejects_non_translate_prefix():
    domain = elementary_grading(Z2, (E0, A0))
    with pytest.raises(ValueError):
        block_diagonal_embedding(domain, 2, 0, (E0, E0, E0, E0))


def test_embedding_requires_elementary_domain():
    from gradedmat.gradings import epsilon_grading
    eps = epsilon_grading(2)
    with pytest.raises(ValueError):
        block_diagonal_embedding(eps, 1, 0, (eps.group.identity(), eps.group.identity()))


def test_graded_vector_space_basics():
    space = GradedVectorSpace.from_tuple(Z2, (E0, A0, A0))
    assert space.n == 3
    assert space.degrees == (E0, A0, A0)  # inverses coincide in Z_2
    assert space.induced_tuple() == (E0, A0, A0)
    assert space.coordinate_classes() == {E0: [0], A0: [1, 2]}
    one = CycNumber.one()
    zero = CycNumber.zero()
    assert space.vector_degree((zero, one, one)) == A0
    assert space.vector_degree((one, one, zero)) is None
    assert space.vector_degree((zero, zero, zero)) is None


def _unit_table(n, k, m):
    """Images of E_ij as m diagonal copies inside M_n."""
    table = []
    for i in range(k):
        row = []
        for j in range(k):
            img = Matrix.zeros(n)
            for block in range(m):
                img = img + Matrix.unit(n, i + block * k, j + block * k)
            row.append(img)
        table.append(row)
    return table


def test_split_full_matrix_algebra_single_summand():
    space = GradedVectorSpace.from_tuple(Z2, (E0, A0))
    split = split_module_decomposition(space, _unit_table(2, 2, 1))
    assert split.copies == 1
    assert split.annihilated == ()
    assert split.induced_tuple == (E0, A0)
    assert split.change_of_basis.inverse() * split.change_of_basis == Matrix.identity(2)


def test_split_two_copies():
    space = GradedVectorSpace.from_tuple(Z2, (E0, A0, E0, A0))
    split = split_module_decomposition(space, _unit_table(4, 2, 2))
    assert split.copies == 2
    assert split.annihilated == ()
    assert len(split.summands[0]) == 2


def test_split_with_annihilated_part():
    space = GradedVectorSpace.from_tuple(Z2, (E0, A0, E0, A0, E0))
    split = split_module_decomposition(space, _unit_table(5, 2, 2))
    assert split.copies == 2
    assert len(split.annihilated) == 1
    zero = CycNumber.zero()
    assert split.annihilated[0] == (zero, zero, zero, zero, CycNumber.one())


def test_split_rejects_broken_unit_relations():
    e = [[Matrix.unit(2, i, j) for j in range(2)] for i in range(2)]
    e[1][1] = e[0][0]
    space = GradedVectorSpace.from_tuple(Z2, (E0, A0))
    with pytest.raises(ValueError, match="images of E_00 and E_11 violate the unit relations"):
        split_module_decomposition(space, e)


def test_split_rejects_ragged_table():
    space = GradedVectorSpace.from_tuple(Z2, (E0, A0))
    with pytest.raises(ValueError):
        split_module_decomposition(space, [[Matrix.identity(2)], []])


def _outer_units(n, vs, ws):
    """The table E_ij = v_i w_j^T inside M_n, each vector given by the coordinates that hold 1."""
    return [[Matrix.combination(n, ((1, Matrix.unit(n, a, b)) for a in v for b in w))
             for w in ws] for v in vs]


# e_1 and e_2 have different degrees
_SPLIT_SPACE = GradedVectorSpace.from_tuple(Z2, (E0, A0, E0))


@pytest.mark.parametrize("table, message", [
    (_unit_table(2, 2, 1), "unit images must act on the given space"),
    ([[Matrix.zeros(3)]], "the zero matrix has no degree"),
    (_outer_units(3, [(0,)], [(0, 1)]), "image of E_00 is not homogeneous"),
    (_outer_units(3, [(0,), (1,)], [(0,), (1, 2)]), "image of E_01 is not homogeneous"),
    (_outer_units(3, [(0,), (1, 2)], [(0,), (1,)]), r"image degrees are inconsistent at \(1,0\)"),
], ids=["another-size", "zero", "E00-not-homogeneous", "E01-not-homogeneous", "E10-not-homogeneous"])
def test_split_rejects_images_it_cannot_split(table, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        split_module_decomposition(_SPLIT_SPACE, table)


@st.composite
def _permuted_block_embeddings(draw):
    """(k, m, space, images): the unit images of a block-diagonal embedding of M_k into
    M_(km+r), conjugated by a random permutation of F^n that carries the degrees along."""
    group = FiniteAbelianGroup(draw(st.sampled_from([(2,), (3,), (4,), (2, 2)])))
    element = st.tuples(*(st.integers(0, f - 1) for f in group.factors)).map(group.element)
    k, m, r = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    source = draw(st.lists(element, min_size=k, max_size=k))
    target = [t * g for t in draw(st.lists(element, min_size=m, max_size=m)) for g in source]
    target += draw(st.lists(element, min_size=r, max_size=r))
    phi = block_diagonal_embedding(elementary_grading(group, source), m, r, target)
    n = k * m + r
    perm = draw(st.permutations(range(n)))  # e_a -> e_perm[a]
    p = Matrix.combination(n, ((1, Matrix.unit(n, perm[a], a)) for a in range(n)))
    images = [[p * phi.apply(Matrix.unit(k, i, j)) * p.transpose() for j in range(k)]
              for i in range(k)]
    tau = [target[perm.index(c)] for c in range(n)]
    return k, m, GradedVectorSpace.from_tuple(group, tau), images


@settings(max_examples=40, deadline=None)
@given(_permuted_block_embeddings())
def test_split_of_permuted_block_embeddings_realizes_the_block_form(case):
    k, m, space, images = case
    n = space.n
    split = split_module_decomposition(space, images)
    basis = split.change_of_basis
    inverse = basis.inverse()  # raises when the columns are dependent
    for i in range(k):
        for j in range(k):
            expected = sum((Matrix.unit(n, i + l * k, j + l * k) for l in range(m)), Matrix.zeros(n))
            assert inverse * images[i][j] * basis == expected
    degrees = [space.vector_degree(basis.column(c)) for c in range(n)]
    assert None not in degrees
    assert split.induced_tuple == tuple(d.inverse() for d in degrees)


def test_matrix_degree_reads_the_space_degrees():
    G = FiniteAbelianGroup((4,))
    tau = tuple(G.element((a,)) for a in (0, 1, 3))
    space = GradedVectorSpace.from_tuple(G, tau)
    for i in range(3):
        for j in range(3):  # E_ij has degree deg v_i deg v_j^(-1) = g_i^(-1) g_j
            assert space.matrix_degree(Matrix.unit(3, i, j)) == tau[i].inverse() * tau[j]
    assert space.matrix_degree(Matrix.unit(3, 0, 1) + Matrix.unit(3, 1, 0)) is None
    assert space.matrix_degree(Matrix.unit(3, 0, 0) + Matrix.unit(3, 2, 2)) == G.identity()
    with pytest.raises(ValueError, match="^the zero matrix has no degree$"):
        space.matrix_degree(Matrix.zeros(3))


def _no_elementary_grading(*args):
    raise AssertionError("the split builds no elementary grading")


@settings(max_examples=40, deadline=None)
@given(_permuted_block_embeddings())
def test_split_reads_degrees_off_the_space_alone(case):
    """matrix_degree agrees with degree_of in the elementary grading of the induced tuple
    on every image and on the sums of neighbouring images, and the split runs, to the
    same ModuleSplit, with elementary_grading unavailable."""
    k, m, space, images = case
    reference = elementary_grading(space.group, space.induced_tuple())
    mats = [x for row in images for x in row]
    for x in mats + [a + b for a, b in zip(mats, mats[1:])]:
        assert space.matrix_degree(x) == reference.degree_of(x)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embeddings, "elementary_grading", _no_elementary_grading)
        split = split_module_decomposition(space, images)
    assert split == split_module_decomposition(space, images)
    assert split.copies == m

# --- regularization fixture: M_2 with a fine Z_2 x Z_2 factor, embedded ---
# --- into M_4 = M_2 (x) M_2 off the identity corner                      ---

G3 = FiniteAbelianGroup((2, 2, 2))
T_SUPPORT = tuple(sorted((G3.element((i, j, 0)) for i in range(2) for j in range(2)),
                         key=lambda g: g.exponents))
A_PRIME = G3.element((0, 0, 1))


def _pauli_units():
    minus = CycNumber.rational(-1)
    x_a = Matrix.diagonal([minus, CycNumber.one()])
    x_b = Matrix([[CycNumber.zero(), CycNumber.one()],
                  [CycNumber.one(), CycNumber.zero()]])
    units = {}
    for t in T_SUPPORT:
        i, j, _ = t.exponents
        units[t] = (x_a ** i) * (x_b ** j)
    return units


def _source_pair():
    units = _pauli_units()
    alg = GradedAlgebra(G3, 2, {t: [m] for t, m in units.items()})
    return DecompositionPair(alg, (Matrix.identity(2),), units, Matrix.identity(2))


def _target_pair(source):
    left = elementary_grading(G3, (G3.identity(), A_PRIME))
    big = induced_tensor_grading(left, source.algebra)
    i2 = Matrix.identity(2)
    c_basis = tuple(Matrix.unit(2, i, j).kron(i2) for i in range(2) for j in range(2))
    d_units = {t: i2.kron(x) for t, x in source.d_units.items()}
    return DecompositionPair(big, c_basis, d_units, Matrix.identity(4))


def _corner_map(source, target, scale):
    e11 = Matrix.unit(2, 0, 0)
    pairs = tuple((x, e11.kron(x).scale(scale(t))) for t, x in source.d_units.items())
    return GradedMap(source.algebra, target.algebra, pairs)


def test_fixture_pairs_verify_cleanly():
    source = _source_pair()
    target = _target_pair(source)
    assert source.verify() == []
    assert target.verify() == []
    assert source.support() == target.support() == T_SUPPORT
    assert source.cocycle.equals(target.cocycle)


def test_regularize_twisted_corner_embedding():
    source = _source_pair()
    target = _target_pair(source)
    sign = lambda t: CycNumber.rational(-1 if t.exponents[0] else 1)
    phi = _corner_map(source, target, sign)
    assert graded_homomorphism_check(phi).passed
    result = regularize_decomposition(phi, source, target)

    # adjusted basis keeps degrees, cocycle, and the identity element
    big = target.algebra
    for t, x in result.psi.items():
        assert big.degree_of(x) == t
    assert result.pair.cocycle.equals(source.cocycle)
    assert result.psi[G3.identity()] == Matrix.identity(4)

    # the sign twist forces an actual correction on the two twisted degrees
    changed = {t for t, x in result.psi.items() if x != target.d_units[t]}
    assert changed == {t for t in T_SUPPORT if t.exponents[0] == 1}
    identity_mult = sum(1 for a in result.multipliers.values()
                        if a == Matrix.unit(2, 0, 0).kron(Matrix.identity(2)))
    assert identity_mult == 2

    # centralizer of the adjusted basis is elementary with a 2 x 2 unit system
    assert len(result.pair.c_basis) == 4
    assert result.c_units.size == 2
    c_support = {big.degree_of(m) for m in result.pair.c_basis}
    assert c_support == {G3.identity(), G3.element((0, 1, 1))}
    assert set(c_support) & set(T_SUPPORT) == {G3.identity()}

    # the image equals the corner cut by phi(1), so the corner of the new
    # centralizer matches the mapped one (checked internally) and is reported
    assert result.corner_equal
    c_span = SpanSolver(m.vector() for m in result.pair.c_basis)
    assert c_span.contains(phi.apply(Matrix.identity(2)).vector())
    assert result.pair.verify() == []


def test_regularize_reads_one_column_in_the_matrix_unit_search(monkeypatch):
    source = _source_pair()
    target = _target_pair(source)
    phi = _corner_map(source, target, lambda t: CycNumber.one())
    columns = []
    column = Matrix.column
    monkeypatch.setattr(Matrix, "column", lambda m, j: columns.append(j) or column(m, j))
    regularize_decomposition(phi, source, target)
    assert len(columns) == 1


def test_regularize_identity_embedding_is_untouched():
    source = _source_pair()
    target = _target_pair(source)
    pairs = tuple((c * x, c * x) for c in target.c_basis for x in target.d_units.values())
    identity_map = GradedMap(target.algebra, target.algebra, pairs)
    result = regularize_decomposition(identity_map, target, target)
    assert result.psi == target.d_units
    assert all(a == Matrix.identity(4) for a in result.multipliers.values())
    assert result.corner_equal
    assert result.c_units.size == 2


def test_regularize_rejects_support_mismatch():
    source = _source_pair()
    target = _target_pair(source)
    e = G3.identity()
    small = DecompositionPair(source.algebra, source.c_basis,
                              {e: source.d_units[e]}, source.identity)
    phi = _corner_map(source, target, lambda t: CycNumber.one())
    with pytest.raises(ValueError, match="support"):
        regularize_decomposition(phi, small, target)


def test_regularize_rejects_cocycle_mismatch():
    source = _source_pair()
    target = _target_pair(source)
    b = G3.element((0, 1, 0))
    scaled = dict(source.d_units)
    scaled[b] = scaled[b].scale(root_of_unity(4, 1))  # X_b^2 becomes -1
    twisted = DecompositionPair(source.algebra, source.c_basis, scaled, source.identity)
    phi = _corner_map(source, target, lambda t: CycNumber.one())
    with pytest.raises(ValueError, match="cocycle"):
        regularize_decomposition(phi, twisted, target)


def test_regularize_rejects_multiplier_outside_factor():
    source = _source_pair()
    target = _target_pair(source)
    e11 = Matrix.unit(2, 0, 0)
    b = G3.element((0, 1, 0))
    ab = G3.element((1, 1, 0))
    pairs = tuple((x, e11.kron(source.d_units[ab] if t == b else x))
                  for t, x in source.d_units.items())
    broken = GradedMap(source.algebra, target.algebra, pairs)
    with pytest.raises(ValueError, match="not graded"):
        regularize_decomposition(broken, source, target)


def test_regularize_rejects_multiplier_of_wrong_degree():
    source = _source_pair()
    target = _target_pair(source)
    e12 = Matrix.unit(2, 0, 1)
    e11 = Matrix.unit(2, 0, 0)
    b = G3.element((0, 1, 0))
    pairs = tuple((x, (e12 if t == b else e11).kron(x))
                  for t, x in source.d_units.items())
    shifted = GradedMap(source.algebra, target.algebra, pairs)
    with pytest.raises(ValueError, match="degree"):
        regularize_decomposition(shifted, source, target)


def test_decomposition_pair_reports_structural_problems():
    source = _source_pair()
    target = _target_pair(source)
    bad_basis = list(target.c_basis)
    bad_basis[1] = Matrix.identity(2).kron(_pauli_units()[G3.element((0, 1, 0))])
    bad = DecompositionPair(target.algebra, tuple(bad_basis),
                            target.d_units, target.identity)
    problems = bad.verify()
    assert any("commute" in p for p in problems)
    assert any("overlap" in p for p in problems)
