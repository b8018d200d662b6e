"""Acceptance gate: one test per criterion, each printing a verdict line.

Each test covers one numbered criterion and ends by printing
"criterion N: pass"; a failing criterion prints the matching fail line
before the assertion error surfaces.
"""

import contextlib
import itertools
import json
import os
import random
import subprocess
import sys

from gradedmat.cyclotomic import CycNumber, root_of_unity
from gradedmat.chains import (ChainSpec, DoubleStep, TwistStep, bratteli_of_chain,
                              diagrams_equal, steinitz_signature)
from gradedmat.equivalence import OMEGA, DefiningSequence, decide_equivalence
from gradedmat.embeddings import block_diagonal_embedding, regularize_decomposition
from gradedmat.gradings import (GradedMap, character_action, elementary_grading,
                                epsilon_grading, extract_cocycle,
                                graded_homomorphism_check, identity_component_ideals,
                                is_graded_subspace, is_invariant_subspace,
                                verify_grading)
from gradedmat.groups import EmbeddingConditionError, FiniteAbelianGroup, find_block_violation
from gradedmat.linalg import SpanSolver
from gradedmat.matrices import Matrix, build_isomorphism

from test_embeddings import _corner_map, _source_pair, _target_pair, T_SUPPORT, G3
from test_equivalence import exhaustive_monomial_oracle

Z2 = FiniteAbelianGroup((2,))
E0 = Z2.element((0,))
A0 = Z2.element((1,))
SMALL_GROUPS = (FiniteAbelianGroup((2,)), FiniteAbelianGroup((4,)),
                FiniteAbelianGroup((2, 2)), FiniteAbelianGroup((3,)))


@contextlib.contextmanager
def criterion(num: int):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: fail")
        raise
    print(f"criterion {num}: pass")


def test_criterion_1_epsilon_suite():
    with criterion(1):
        for n in (2, 3, 4, 5):
            alg = epsilon_grading(n)
            assert verify_grading(alg).passed
            G = alg.group
            x_a = alg.components[G.element((1, 0))][0]
            x_b = alg.components[G.element((0, 1))][0]
            eps = root_of_unity(n, 1)
            assert x_a * x_b * x_a.inverse() == x_b.scale(eps)
            assert x_a ** n == Matrix.identity(n)
            assert x_b ** n == Matrix.identity(n)
            assert len(alg.components) == n * n
            assert all(len(mats) == 1 for mats in alg.components.values())
            co = extract_cocycle(alg)
            for t in G.elements():
                for s in G.elements():
                    for u in G.elements():
                        assert co(t, s) * co(t * s, u) == co(s, u) * co(t, s * u)


def test_criterion_2_elementary_suite():
    with criterion(2):
        rng = random.Random(2026)
        for _ in range(200):
            G = rng.choice(SMALL_GROUPS)
            n = rng.randint(1, 6)
            tau = tuple(rng.choice(G.elements()) for _ in range(n))
            alg = elementary_grading(G, tau)
            assert verify_grading(alg).passed
            expected_support = {tau[i].inverse() * tau[j]
                                for i in range(n) for j in range(n)}
            assert set(alg.support()) == expected_support
            ideals = identity_component_ideals(alg)
            by_degree = {}
            for index, g in enumerate(tau):
                by_degree.setdefault(g, []).append(index)
            assert {i.degree: list(i.indices) for i in ideals} == by_degree
            assert all(i.block_dimension == len(by_degree[i.degree]) for i in ideals)
            assert sum(i.block_dimension for i in ideals) == n


def _check_positive_witness(group, tau, tau_prime, witness):
    beta = witness.beta
    assert beta is not None
    pairs = build_isomorphism(beta, len(tau))
    gmap = GradedMap(elementary_grading(group, tau),
                     elementary_grading(group, tau_prime), pairs)
    report = graded_homomorphism_check(gmap)
    assert report.passed and report.injective


def test_criterion_3_equivalence_suite():
    with criterion(3):
        for G in (FiniteAbelianGroup((2,)), FiniteAbelianGroup((2, 2))):
            tuples = []
            for length in (1, 2, 3):
                tuples.extend(itertools.product(G.elements(), repeat=length))
            for tau in tuples:
                for tau_prime in tuples:
                    witness = decide_equivalence(DefiningSequence.finite(G, tau),
                                                 DefiningSequence.finite(G, tau_prime))
                    assert (witness is not None) == \
                        exhaustive_monomial_oracle(tau, tau_prime)
                    if witness is not None:
                        _check_positive_witness(G, tau, tau_prime, witness)
        rng = random.Random(5)
        for _ in range(500):
            G = rng.choice(SMALL_GROUPS)
            n = rng.randint(1, 5)
            tau = tuple(rng.choice(G.elements()) for _ in range(n))
            tau_prime = tuple(rng.choice(G.elements()) for _ in range(n))
            seq = DefiningSequence.finite(G, tau)
            witness = decide_equivalence(seq, DefiningSequence.finite(G, tau_prime))
            assert (witness is not None) == exhaustive_monomial_oracle(tau, tau_prime)
            if witness is not None:
                _check_positive_witness(G, tau, tau_prime, witness)
            shift = rng.choice(G.elements())
            translated = DefiningSequence.finite(G, tuple(shift * g for g in tau))
            assert decide_equivalence(seq, translated) is not None
            shuffled = list(tau)
            rng.shuffle(shuffled)
            assert decide_equivalence(seq, DefiningSequence.finite(G, shuffled)) is not None


def test_criterion_4_regularization_suite():
    with criterion(4):
        source = _source_pair()
        target = _target_pair(source)
        sign = lambda t: CycNumber.rational(-1 if t.exponents[0] else 1)
        phi = _corner_map(source, target, sign)
        result = regularize_decomposition(phi, source, target)
        big = target.algebra

        # adjusted fine factor has the source cocycle
        assert result.pair.cocycle.equals(source.cocycle)
        # its centralizer is elementary and meets the fine support only at e
        assert result.c_units.size == 2
        for (i, j), unit in result.c_units.units.items():
            assert big.degree_of(unit) is not None
        c_support = {big.degree_of(m) for m in result.pair.c_basis}
        assert c_support & set(T_SUPPORT) == {G3.identity()}
        # the mapped elementary factor lands inside the new centralizer
        c_span = SpanSolver(m.vector() for m in result.pair.c_basis)
        for c in source.c_basis:
            assert c_span.contains(phi.apply(c).vector())
        # the premise phi(e1) R2 phi(e1) = phi(R1) holds here, so the corner
        # of the new centralizer matched the mapped factor (raised otherwise)
        e1_image = phi.apply(source.identity)
        image = [phi.apply(c * x).vector()
                 for c in source.c_basis for x in source.d_units.values()]
        corner = SpanSolver((e1_image * m * e1_image).vector()
                            for mats in big.components.values() for m in mats)
        premise = (SpanSolver(image).rank == corner.rank
                   and all(corner.contains(v) for v in image))
        assert premise and result.corner_equal
        # the adjusted basis acts like the original one against the image
        for a in source.c_basis:
            fa = phi.apply(a)
            for t, x in source.d_units.items():
                assert fa * result.psi[t] == fa * phi.apply(x)

        # trivial instance: regularizing an identity embedding changes nothing
        pairs = tuple((c * x, c * x)
                      for c in target.c_basis for x in target.d_units.values())
        identity_map = GradedMap(big, big, pairs)
        trivial = regularize_decomposition(identity_map, target, target)
        assert trivial.psi == target.d_units
        assert all(a == target.identity for a in trivial.multipliers.values())
        assert trivial.corner_equal


def test_criterion_5_block_condition_suite():
    with criterion(5):
        for k in (1, 2, 3):
            for m in (1, 2, 3):
                for r in (0, 1):
                    for target in itertools.product(Z2.elements(), repeat=k * m + r):
                        domain = elementary_grading(Z2, target[:k])
                        try:
                            gmap = block_diagonal_embedding(domain, m, r, target)
                            accepted = True
                        except EmbeddingConditionError:
                            accepted = False
                        assert accepted == (find_block_violation(target, k, m, r) is None)
                        if accepted:
                            report = graded_homomorphism_check(gmap)
                            assert report.passed and report.injective
                            e_prime = gmap.apply(Matrix.identity(k))
                            for _, img in gmap.pairs:
                                assert e_prime * img * e_prime == img


def _traced_edge_counts(tau, tau_next):
    """Push each diagonal unit through X -> diag(X, X) and bin the landings."""
    n = len(tau)
    counts = {}
    for g in dict.fromkeys(tau):
        members = [j for j, h in enumerate(tau) if h == g]
        per_member = []
        for j in members:
            image = Matrix.identity(2).kron(Matrix.unit(n, j, j))
            local = {}
            for idx in range(2 * n):
                if not image.entries[idx][idx].is_zero():
                    h = tau_next[idx]
                    local[h] = local.get(h, 0) + 1
            per_member.append(local)
        assert all(local == per_member[0] for local in per_member)
        counts[g] = per_member[0]
    return counts


def test_criterion_6_chain_counterexample():
    with criterion(6):
        double = ChainSpec(Z2, (E0, A0), (DoubleStep(),))
        twist = ChainSpec(Z2, (E0, A0), (TwistStep(A0),))
        sig_double = steinitz_signature(double)
        sig_twist = steinitz_signature(twist)
        assert sig_double == sig_twist
        assert sig_double.get(E0) is OMEGA and sig_double.get(A0) is OMEGA

        depth = 4
        d_double = bratteli_of_chain(double, depth)
        d_twist = bratteli_of_chain(twist, depth)
        for spec, diagram in ((double, d_double), (twist, d_twist)):
            tuples = spec.unfold(depth)
            for level in range(depth - 1):
                traced = _traced_edge_counts(tuples[level], tuples[level + 1])
                for g, local in traced.items():
                    for h in (E0, A0):
                        assert diagram.multiplicity(level, g, h) == local.get(h, 0)
        for level in range(depth - 1):
            for g in (E0, A0):
                for h in (E0, A0):
                    expected = 2 if g == h else 0
                    assert d_double.multiplicity(level, g, h) == expected
                    assert d_twist.multiplicity(level, g, h) == 1
        assert not diagrams_equal(d_double, d_twist)
        for partial_depth in range(2, depth + 1):
            assert not diagrams_equal(bratteli_of_chain(double, partial_depth),
                                      bratteli_of_chain(twist, partial_depth))


def _random_matrix(rng, n):
    return Matrix([[CycNumber.rational(rng.randint(-2, 2)) for _ in range(n)]
                   for _ in range(n)])


def _random_graded_basis(rng, alg):
    degrees = [g for g in alg.components if rng.random() < 0.5] or \
        [rng.choice(list(alg.components))]
    basis = []
    for g in degrees:
        mats = alg.components[g]
        for _ in range(rng.randint(1, len(mats))):
            combo = Matrix.zeros(alg.n)
            for m in mats:
                combo = combo + m.scale(CycNumber.rational(rng.randint(-2, 2)))
            if not combo.is_zero():
                basis.append(combo)
    return basis or [alg.components[degrees[0]][0]]


def test_criterion_7_duality_suite():
    with criterion(7):
        rng = random.Random(7)
        for G in (FiniteAbelianGroup((2,)), FiniteAbelianGroup((2, 2))):
            chars = G.characters()
            for index in range(50):
                n = rng.randint(1, 4)
                tau = tuple(rng.choice(G.elements()) for _ in range(n))
                alg = elementary_grading(G, tau)
                if index % 2:
                    basis = _random_graded_basis(rng, alg)
                    assert is_graded_subspace(alg, basis)
                else:
                    basis = [_random_matrix(rng, n)
                             for _ in range(rng.randint(1, n * n))]
                assert is_graded_subspace(alg, basis) == \
                    is_invariant_subspace(alg, basis, chars)

            # the action of each character is a unital algebra automorphism
            tau = tuple(rng.choice(G.elements()) for _ in range(3))
            alg = elementary_grading(G, tau)
            for chi in chars:
                assert character_action(chi, alg, Matrix.identity(3)) == Matrix.identity(3)
                action = SpanSolver()
                for i in range(3):
                    for j in range(3):
                        image = character_action(chi, alg, Matrix.unit(3, i, j))
                        assert action.add(image.vector())
                assert action.rank == 9
                for _ in range(10):
                    x = _random_matrix(rng, 3)
                    y = _random_matrix(rng, 3)
                    assert character_action(chi, alg, x * y) == \
                        character_action(chi, alg, x) * character_action(chi, alg, y)


def _run_cli(argv, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "-m", "gradedmat", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_criterion_8_cli_determinism():
    with criterion(8):
        demo = ["demo-remark1", "--depth", "4"]
        equiv = ["equiv", "--group", '{"factors": [2, 2]}',
                 "--tau", "[[0, 0], [1, 1], [0, 1]]",
                 "--tau-prime", "[[1, 1], [0, 0], [1, 0]]"]
        for argv in (demo, equiv):
            first = _run_cli(argv, "0")
            second = _run_cli(argv, "271828")
            assert first.returncode == 0 and second.returncode == 0
            assert first.stdout == second.stdout and first.stdout

        payload = json.loads(_run_cli(equiv, "0").stdout)
        reverify = _run_cli(["verify", "--spec", json.dumps(payload["certificate"])], "0")
        assert reverify.returncode == 0
        assert json.loads(reverify.stdout)["verdict"] == "pass"

        embed = _run_cli(["embed", "--spec", json.dumps(
            {"group": {"factors": [2]}, "source": [[0], [1]],
             "m": 2, "r": 1, "target": [[0], [1], [0], [1], [1]]})], "0")
        assert embed.returncode == 0
        cert = json.loads(embed.stdout)["certificate"]
        reverify = _run_cli(["verify", "--spec", json.dumps(cert)], "0")
        assert reverify.returncode == 0
        assert json.loads(reverify.stdout)["verdict"] == "pass"
