"""Seeded operation lists for the four workloads.

Each workload is a fixed list of operations built from the seed; one round
runs them in order, one at a time (a closed loop with one client).  Setup only
draws plain data (exponent tuples, sizes, sign choices); every gradedmat object
is built inside the timed operation, so rounds repeat exactly and nothing is
cached between them.  Each operation has a check against `oracles`.

Sizes are chosen so that the cost of a round hardly depends on the seed: the
seed moves labels, tuples and shifts, while sizes, class profiles and the
relative rank of each true shift are fixed.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import gradedmat as gm
from gradedmat import specio

import oracles as o

Elem = Tuple[int, ...]


@dataclass
class Op:
    name: str
    run: Callable[[Dict[str, Any]], Any]
    check: Callable[[Any, Dict[str, Any]], None]
    fault: Optional[str] = None  # a known program fault that makes this operation fail
    largest: bool = False
    tag: Optional[Tuple[str, int]] = None  # (series, size) for fitted exponents


def _elems(group, exps: Sequence[Elem]):
    return tuple(group.element(e) for e in exps)


def _exp(g) -> Elem:
    return tuple(specio.element_to_json(g))


def _values(m):
    return o.matrix_values(specio.matrix_to_json(m))


def _random_elem(rng: random.Random, factors) -> Elem:
    return o.from_rank(rng.randrange(o.order(factors)), factors)


def _balanced_tuple(rng: random.Random, factors, n: int, classes: int = 3) -> Tuple[Elem, ...]:
    """n entries spread evenly over `classes` distinct random values, shuffled."""
    values = rng.sample(o.elements(factors), min(classes, o.order(factors)))
    tau = [values[i % len(values)] for i in range(n)]
    rng.shuffle(tau)
    return tuple(tau)


def _shuffled_translate(rng, tau, shift, factors):
    out = [o.add(shift, g, factors) for g in tau]
    rng.shuffle(out)
    return tuple(out)


def _perturbed(rng, tau, tau_p, factors):
    """tau' with one entry replaced so that no shift matches the counts."""
    while True:
        out = list(tau_p)
        out[rng.randrange(len(out))] = _random_elem(rng, factors)
        if o.equivalence_shift(tau, out, factors) is None:
            return tuple(out)


def _stratified_rank(rng, size: int, stratum: int, strata: int) -> int:
    """A rank near the middle of stratum `stratum` of `strata` equal slices, so
    the shifts cover the whole group while their summed cost stays fixed."""
    width = size / strata
    centre = (stratum + 0.5) * width
    return min(size - 1, max(0, int(centre + rng.uniform(-0.05, 0.05) * width)))


# --- shared operation builders ----------------------------------------------

def decide_op(name, factors, tau, tau_p, largest=False) -> Op:
    def run(ctx):
        group = gm.FiniteAbelianGroup(factors)
        return gm.decide_equivalence(gm.DefiningSequence.finite(group, _elems(group, tau)),
                                     gm.DefiningSequence.finite(group, _elems(group, tau_p)))

    def check(witness, ctx):
        want = o.equivalence_shift(tau, tau_p, factors)
        if want is None:
            o.expect(witness is None, "decided equivalent, but no shift matches the counts")
            return
        o.expect(witness is not None, f"decided inequivalent, but shift {want} matches the counts")
        o.expect(o.witness_ok(tau, tau_p, _exp(witness.shift), witness.beta, factors),
                 "witness breaks tau'[beta(i)] = shift * tau[i]")

    return Op(name, run, check, largest=largest, tag=("decide", o.order(factors)))


def verify_elementary_op(name, factors, tau, largest=False) -> Op:
    def run(ctx):
        group = gm.FiniteAbelianGroup(factors)
        algebra = gm.elementary_grading(group, _elems(group, tau))
        return algebra, gm.verify_grading(algebra)

    def check(out, ctx):
        algebra, report = out
        dims = {_exp(g): len(mats) for g, mats in algebra.components.items()}
        o.expect(dims == dict(o.elementary_dims(tau, factors)),
                 "component dimensions differ from the counts of tau_i^-1 tau_j")
        o.expect(report.passed, "an elementary grading failed verification")

    return Op(name, run, check, largest=largest, tag=("verify", len(tau)))


def mislabeled_elementary_op(name, factors, tau, pos, label) -> Op:
    # E_ij (i != j) moved to a wrong degree: E_ij E_ji = E_ii has degree e, but
    # the labels now multiply to label * (tau_j^-1 tau_i) != e, so closure fails.
    n = len(tau)

    def run(ctx):
        group = gm.FiniteAbelianGroup(factors)
        comps: Dict[Any, List[Any]] = {}
        for i in range(n):
            for j in range(n):
                degree = label if (i, j) == pos else o.ratio(tau[i], tau[j], factors)
                comps.setdefault(group.element(degree), []).append(gm.Matrix.unit(n, i, j))
        return gm.verify_grading(gm.GradedAlgebra(group, n, comps))

    def check(report, ctx):
        o.expect(report.dimension_ok and report.independent, "relabeling changed the span")
        o.expect(not report.passed and report.closure_failures,
                 "a mislabeled grading passed verification")

    return Op(name, run, check)


# --- elementary ---------------------------------------------------------------

# (n, group) for the verification sweep; the last one is the largest case.
ELEMENTARY_VERIFY = [(4, (2,)), (5, (4,)), (6, (2, 2)), (8, (6,)), (10, (4,))]
ELEMENTARY_MISLABELED = [(4, (4,)), (5, (2, 2)), (6, (6,))]
SMALL_GROUPS = [(2,), (4,), (2, 2), (6,)]


def elementary_ops(rng: random.Random, quick: bool) -> List[Op]:
    ops: List[Op] = []
    sweep = ELEMENTARY_VERIFY[:2] if quick else ELEMENTARY_VERIFY
    for idx, (n, factors) in enumerate(sweep):
        tau = _balanced_tuple(rng, factors, n)
        ops.append(verify_elementary_op(f"verify-n{n}", factors, tau,
                                        largest=idx == len(sweep) - 1))
    for n, factors in ELEMENTARY_MISLABELED[:1] if quick else ELEMENTARY_MISLABELED:
        tau = _balanced_tuple(rng, factors, n)
        i, j = rng.sample(range(n), 2)
        old = o.ratio(tau[i], tau[j], factors)
        label = rng.choice([g for g in o.elements(factors) if g != old])
        ops.append(mislabeled_elementary_op(f"mislabeled-n{n}", factors, tau, (i, j), label))

    pairs = 4 if quick else 12
    for k in range(pairs):
        factors = SMALL_GROUPS[k % len(SMALL_GROUPS)]
        tau = _balanced_tuple(rng, factors, 3 + k % 3, classes=2)
        shift = _random_elem(rng, factors)
        tau_p = _shuffled_translate(rng, tau, shift, factors)
        pos = f"decide-pos{k}"
        ops.append(decide_op(pos, factors, tau, tau_p))
        ops.append(isomorphism_op(f"iso-pos{k}", pos, factors, tau, tau_p))
        ops.append(decide_op(f"decide-neg{k}", factors, tau, _perturbed(rng, tau, tau_p, factors)))

    for k in range(2 if quick else 4):
        factors = SMALL_GROUPS[k % len(SMALL_GROUPS)]
        n = 3 + k % 2
        values = rng.sample(o.elements(factors), 2)
        tau = tuple(values[i % 2] for i in range(n))
        ops.append(broken_map_op(f"broken-map{k}", factors, tau, _random_elem(rng, factors)))

    for k in range(4 if quick else 16):
        factors = SMALL_GROUPS[k % len(SMALL_GROUPS)]
        ops.append(embedding_op(f"embed{k}", factors, rng, k))
    return ops


def isomorphism_op(name, decide_name, factors, tau, tau_p) -> Op:
    def run(ctx):
        witness = ctx[decide_name]
        group = gm.FiniteAbelianGroup(factors)
        pairs = gm.build_isomorphism(witness.beta, len(tau))
        gmap = gm.GradedMap(gm.elementary_grading(group, _elems(group, tau)),
                            gm.elementary_grading(group, _elems(group, tau_p)), pairs)
        return gm.graded_homomorphism_check(gmap)

    def check(report, ctx):
        o.expect(report.passed, "the isomorphism built from a witness failed the homomorphism check")

    return Op(name, run, check)


def broken_map_op(name, factors, tau, shift) -> Op:
    """E_ij -> E_(beta(i) beta(j)) for a correct matching beta of tau onto
    shift*tau, with the images of two indices of different degree swapped: the
    degree of E_(i1 j) then moves from tau_i1^-1 tau_j to tau_i2^-1 tau_j."""
    n = len(tau)
    tau_p = tuple(o.add(shift, g, factors) for g in tau)
    i1 = 0
    i2 = next(i for i in range(n) if tau[i] != tau[0])
    beta = list(range(n))
    beta[i1], beta[i2] = beta[i2], beta[i1]

    def run(ctx):
        group = gm.FiniteAbelianGroup(factors)
        pairs = tuple((gm.Matrix.unit(n, i, j), gm.Matrix.unit(n, beta[i], beta[j]))
                      for i in range(n) for j in range(n))
        gmap = gm.GradedMap(gm.elementary_grading(group, _elems(group, tau)),
                            gm.elementary_grading(group, _elems(group, tau_p)), pairs)
        return gm.graded_homomorphism_check(gmap)

    def check(report, ctx):
        o.expect(not report.passed and report.degree_failures,
                 "a map that moves degrees passed the homomorphism check")

    return Op(name, run, check)


def embedding_op(name, factors, rng, k_index) -> Op:
    # mode = k_index % 4 picks accepted (0, 2), a broken ratio (1) or a prefix that
    # is no translate (3); every mode meets each (k, m) in {2, 3} x {2, 3}
    k, m, r = 2 + (k_index // 4) % 2, 2 + (k_index // 8) % 2, (k_index // 2) % 2
    source = tuple(_random_elem(rng, factors) for _ in range(k))
    target = [o.add(_random_elem(rng, factors), g, factors) for _ in range(m) for g in source]
    target += [_random_elem(rng, factors) for _ in range(r)]
    mode = k_index % 4
    if mode == 1:  # break the repeated-ratio condition in a later block
        while o.block_violation(target, k, m, factors) is None:
            target[k * rng.randrange(1, m) + rng.randrange(k)] = _random_elem(rng, factors)
    elif mode == 3:  # keep the ratios but make the prefix no translate of the source
        other = tuple(_random_elem(rng, factors) for _ in range(k))
        while o.is_translate(other, source, factors):
            other = tuple(_random_elem(rng, factors) for _ in range(k))
        target = [o.add(_random_elem(rng, factors), g, factors) for _ in range(m) for g in other]
        target += [_random_elem(rng, factors) for _ in range(r)]
    target = tuple(target)
    n = k * m + r

    def run(ctx):
        group = gm.FiniteAbelianGroup(factors)
        domain = gm.elementary_grading(group, _elems(group, source))
        try:
            return gm.block_diagonal_embedding(domain, m, r, _elems(group, target))
        except ValueError as exc:  # EmbeddingConditionError is a ValueError
            return exc

    def check(out, ctx):
        violation = o.block_violation(target, k, m, factors)
        if violation is not None:
            o.expect(isinstance(out, gm.EmbeddingConditionError) and out.index == violation,
                     f"expected a ratio violation at {violation}, got {out!r}")
            return
        if not o.is_translate(target[:k], source, factors):
            o.expect(isinstance(out, ValueError) and not isinstance(out, gm.EmbeddingConditionError),
                     f"expected a rejected prefix, got {out!r}")
            return
        o.expect(isinstance(out, gm.GradedMap), f"expected an embedding, got {out!r}")
        o.expect(len(out.pairs) == k * k, "wrong number of basis pairs")
        for (src, img), (i, j) in zip(out.pairs, [(i, j) for i in range(k) for j in range(k)]):
            o.expect(o.mat_close(_values(src), o.unit_values(k, i, j)), "source basis is not E_ij")
            want = o.mat_sum((o.unit_values(n, i + b * k, j + b * k) for b in range(m)), n)
            o.expect(o.mat_close(_values(img), want), f"image of E_{i}{j} is not block diagonal")

    return Op(name, run, check)


# --- fine -----------------------------------------------------------------------

def _random_basis(rng, n) -> Tuple[Elem, Elem]:
    """Generators a, b of Z_n x Z_n (the columns of a matrix invertible mod n)."""
    while True:
        p, q, r, s = (rng.randrange(n) for _ in range(4))
        if math.gcd(p * s - q * r, n) == 1:
            return (p, q), (r, s)


def _labels(n, a, b) -> Dict[Tuple[int, int], Elem]:
    f = (n, n)
    return {(i, j): o.add(tuple(i * x % n for x in a), tuple(j * x % n for x in b), f)
            for i in range(n) for j in range(n)}


def _non_automorphic_swap(rng, n, labels) -> Tuple[Elem, Elem]:
    """Two labels whose exchange is no automorphism of Z_n x Z_n, so the
    relabeled clock-and-shift family is no grading."""
    f = (n, n)
    pool = [g for g in labels.values() if g != (0, 0)]
    while True:
        t, u = rng.sample(pool, 2)
        swap = {t: u, u: t}
        pi = {g: swap.get(g, g) for g in pool + [(0, 0)]}
        if any(o.add(pi[x], pi[y], f) != pi[o.add(x, y, f)] for x in pi for y in pi):
            return t, u


def _epsilon(n, a, b):
    group = gm.FiniteAbelianGroup((n, n))
    return gm.epsilon_grading(n, group, group.element(a), group.element(b))


def _swapped(algebra, t, u):
    group = algebra.group
    tg, ug = group.element(t), group.element(u)
    comps = dict(algebra.components)
    comps[tg], comps[ug] = comps[ug], comps[tg]
    return gm.GradedAlgebra(group, algebra.n, comps)


EPSILON_VERIFY = [3, 4, 5]
COCYCLE_SIZES = [2, 3, 4, 5]  # the last one is the largest case
TENSOR_SHAPES = [(2, 2), (2, 3), (3, 2)]  # (k, m): elementary M_k (x) epsilon M_m


def fine_ops(rng: random.Random, quick: bool) -> List[Op]:
    ops: List[Op] = []
    for n in EPSILON_VERIFY[:1] if quick else EPSILON_VERIFY:
        ops.append(epsilon_verify_op(f"verify-eps{n}", n, *_random_basis(rng, n)))
    for n in (3,) if quick else (3, 4):
        a, b = _random_basis(rng, n)
        ops.append(epsilon_mislabeled_op(f"mislabeled-eps{n}", n, a, b,
                                         _non_automorphic_swap(rng, n, _labels(n, a, b))))
    for k, m in TENSOR_SHAPES[:1] if quick else TENSOR_SHAPES:
        tau = tuple(rng.sample(o.elements((m, m)), k))
        ops.append(tensor_op(f"verify-tensor{k}x{m}", m, tau))
    sizes = COCYCLE_SIZES[:2] if quick else COCYCLE_SIZES
    for idx, n in enumerate(sizes):
        ops.append(cocycle_op(f"cocycle-eps{n}", n, *_random_basis(rng, n),
                              largest=idx == len(sizes) - 1))
    a, b = _random_basis(rng, 3)
    ops.append(cocycle_mislabeled_op("cocycle-mislabeled", 3, a, b,
                                     _non_automorphic_swap(rng, 3, _labels(3, a, b))))
    for k in range(4 if quick else 8):
        ops.append(subspace_op(f"subspace{k}", 3, rng, graded=k % 2 == 0))
    for k in range(4 if quick else 10):
        n = 3 + k % 2
        ops.append(character_op(f"character{k}", n, rng))
    twists = range(0, 16, 5) if quick else range(16)
    for mask in twists:
        ops.append(regularize_op(f"regularize-twist{mask}", mask))
    return ops


def epsilon_verify_op(name, n, a, b) -> Op:
    labels = _labels(n, a, b)

    def run(ctx):
        algebra = _epsilon(n, a, b)
        return algebra, gm.verify_grading(algebra)

    def check(out, ctx):
        algebra, report = out
        o.expect(set(map(_exp, algebra.components)) == set(labels.values()),
                 "support differs from the n^2 labels i*a + j*b")
        for (i, j), label in labels.items():
            mats = algebra.components[algebra.group.element(label)]
            o.expect(len(mats) == 1 and o.mat_close(_values(mats[0]), o.clock_shift_values(n, i, j)),
                     f"component {label} is not X_a^{i} X_b^{j}")
        o.expect(report.passed, "a clock-and-shift grading failed verification")

    return Op(name, run, check, tag=("verify", n))


def epsilon_mislabeled_op(name, n, a, b, swap) -> Op:
    def run(ctx):
        return gm.verify_grading(_swapped(_epsilon(n, a, b), *swap))

    def check(report, ctx):
        o.expect(not report.passed and report.closure_failures,
                 "a relabeled clock-and-shift family passed verification")

    return Op(name, run, check)


def tensor_op(name, m, tau) -> Op:
    f = (m, m)
    want = Counter(o.add(o.ratio(gi, gj, f), (p, q), f)
                   for gi in tau for gj in tau for p in range(m) for q in range(m))

    def run(ctx):
        group = gm.FiniteAbelianGroup(f)
        left = gm.elementary_grading(group, _elems(group, tau))
        algebra = gm.induced_tensor_grading(left, gm.epsilon_grading(m))
        return algebra, gm.verify_grading(algebra)

    def check(out, ctx):
        algebra, report = out
        dims = {_exp(g): len(mats) for g, mats in algebra.components.items()}
        o.expect(dims == dict(want), "tensor component dimensions differ from the degree counts")
        o.expect(report.passed, "a tensor grading failed verification")

    return Op(name, run, check)


def cocycle_op(name, n, a, b, largest=False) -> Op:
    coords = {label: ij for ij, label in _labels(n, a, b).items()}

    def run(ctx):
        cocycle = gm.extract_cocycle(_epsilon(n, a, b))
        return cocycle, cocycle.first_identity_violation()

    def check(out, ctx):
        cocycle, violation = out
        o.expect(violation is None, f"cocycle identity reported broken at {violation}")
        support = [_exp(t) for t in cocycle.support]
        o.expect(set(support) == set(coords), "cocycle support is not Z_n x Z_n")
        for t in cocycle.support:
            for s in cocycle.support:
                got = o.scalar_value(cocycle(t, s).to_string())
                want = o.clock_shift_cocycle(n, coords[_exp(t)], coords[_exp(s)])
                o.expect(o.close(got, want), f"alpha({_exp(t)}, {_exp(s)}) is not zeta^(-jk)")

    return Op(name, run, check, largest=largest)


def cocycle_mislabeled_op(name, n, a, b, swap) -> Op:
    def run(ctx):
        try:
            return gm.extract_cocycle(_swapped(_epsilon(n, a, b), *swap))
        except ValueError as exc:
            return exc

    def check(out, ctx):
        o.expect(isinstance(out, ValueError), "a cocycle was extracted from a relabeled family")

    return Op(name, run, check)


def subspace_op(name, n, rng, graded: bool) -> Op:
    """Spans of clock-and-shift basis elements are graded; a span holding
    X_s + X_t (s != t) but neither summand alone is not.  Character invariance
    must give the same answer (duality)."""
    a, b = _random_basis(rng, n)
    labels = list(_labels(n, a, b).values())
    s, t, u = rng.sample(labels, 3)
    c = Fraction(rng.randrange(1, 7), rng.randrange(1, 5))
    if graded:
        recipe = [((s, c),), ((t, 1),), ((s, 1), (t, 1)), ((u, -c),)]
    else:
        recipe = [((s, c), (t, 1)), ((u, 1),)]

    def run(ctx):
        algebra = _epsilon(n, a, b)
        group = algebra.group
        vectors = []
        for terms in recipe:
            v = gm.Matrix.zeros(n)
            for label, coeff in terms:
                v = v + algebra.components[group.element(label)][0].scale(coeff)
            vectors.append(v)
        return gm.is_graded_subspace(algebra, vectors), gm.is_invariant_subspace(algebra, vectors)

    def check(out, ctx):
        o.expect(out == (graded, graded),
                 f"graded/invariant verdicts {out}, expected {graded} for both")

    return Op(name, run, check)


def character_op(name, n, rng) -> Op:
    a, b = _random_basis(rng, n)
    labels = _labels(n, a, b)
    (i, j), label = rng.choice(sorted(labels.items()))
    chi = (rng.randrange(n), rng.randrange(n))
    c = Fraction(rng.randrange(1, 7), rng.randrange(1, 5))
    value = o.root(n, chi[0] * label[0] + chi[1] * label[1]) * float(c)

    def run(ctx):
        algebra = _epsilon(n, a, b)
        m = algebra.components[algebra.group.element(label)][0].scale(c)
        return gm.character_action(gm.Character(algebra.group, chi), algebra, m)

    def check(out, ctx):
        o.expect(o.mat_close(_values(out), o.mat_scale(value, o.clock_shift_values(n, i, j))),
                 "character action is not chi(g) times a homogeneous element")

    return Op(name, run, check)


# Regularization fixture: M_2 with its fine Z_2 x Z_2 grading (Pauli basis) inside
# Z_2^3, embedded into the corner of M_4 = M_2 (x) M_2 with a sign twist s(t).
FIX_FACTORS = (2, 2, 2)
FIX_SUPPORT = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
PAULI = {(i, j, 0): o.mat_mul([[-1.0, 0.0], [0.0, 1.0]] if i else [[1.0, 0.0], [0.0, 1.0]],
                              [[0.0, 1.0], [1.0, 0.0]] if j else [[1.0, 0.0], [0.0, 1.0]])
         for i in range(2) for j in range(2)}


def _kron(a, b):
    n, m = len(a), len(b)
    return [[a[i // m][j // m] * b[i % m][j % m] for j in range(n * m)] for i in range(n * m)]


def regularization_fixture(signs: Dict[Elem, int]):
    """(phi, source pair, target pair) of the fixture for the given signs."""
    group = gm.FiniteAbelianGroup(FIX_FACTORS)
    minus, one, zero = gm.CycNumber.rational(-1), gm.CycNumber.one(), gm.CycNumber.zero()
    x_a = gm.Matrix.diagonal([minus, one])
    x_b = gm.Matrix([[zero, one], [one, zero]])
    units = {group.element(t): (x_a ** t[0]) * (x_b ** t[1]) for t in FIX_SUPPORT}
    small = gm.GradedAlgebra(group, 2, {t: [x] for t, x in units.items()})
    big = gm.induced_tensor_grading(
        gm.elementary_grading(group, (group.identity(), group.element((0, 0, 1)))), small)
    i2, e11 = gm.Matrix.identity(2), gm.Matrix.unit(2, 0, 0)
    source = gm.DecompositionPair(small, (i2,), units, i2)
    target = gm.DecompositionPair(
        big, tuple(gm.Matrix.unit(2, i, j).kron(i2) for i in range(2) for j in range(2)),
        {t: i2.kron(x) for t, x in units.items()}, gm.Matrix.identity(4))
    phi = gm.GradedMap(small, big, tuple((x, e11.kron(x).scale(signs[_exp(t)]))
                                         for t, x in units.items()))
    return phi, source, target


def twist_signs(mask: int) -> Dict[Elem, int]:
    """Sign twist number `mask`: bit k gives the sign of the k-th support element."""
    return {t: -1 if mask >> k & 1 else 1 for k, t in enumerate(FIX_SUPPORT)}


def is_character(signs: Dict[Elem, int]) -> bool:
    return all(signs[t] * signs[u] == signs[o.add(t, u, FIX_FACTORS)]
               for t in FIX_SUPPORT for u in FIX_SUPPORT)


def regularize_op(name, mask: int) -> Op:
    """phi is a homomorphism exactly when the signs form a character; then the
    adjusted unit is psi_t = (I + (s(t) - 1) E_11 (x) I)(I (x) X_t)."""
    signs = twist_signs(mask)
    character = is_character(signs)
    eye2 = [[1.0, 0.0], [0.0, 1.0]]
    e11 = _kron([[1.0, 0.0], [0.0, 0.0]], eye2)

    def run(ctx):
        phi, source, target = regularization_fixture(signs)
        report = gm.graded_homomorphism_check(phi)
        if not report.passed:
            return report, None
        return report, gm.regularize_decomposition(phi, source, target)

    def check(out, ctx):
        report, result = out
        o.expect(report.passed == character,
                 f"homomorphism check says {report.passed}; signs form a character: {character}")
        if not character:
            return
        o.expect(set(map(_exp, result.psi)) == set(FIX_SUPPORT), "adjusted basis support differs")
        for g, x in result.psi.items():
            t = _exp(g)
            corr = [[float(r == c) + (signs[t] - 1) * e11[r][c] for c in range(4)] for r in range(4)]
            want = o.mat_mul(corr, _kron(eye2, PAULI[t]))
            o.expect(o.mat_close(_values(x), want), f"adjusted unit at {t} differs from the closed form")
        o.expect(len(result.pair.c_basis) == 4 and result.c_units.size == 2,
                 "the new centralizer is not M_2 with a 2 x 2 unit system")
        o.expect(result.corner_equal, "image and corner differ")

    return Op(name, run, check)


# --- group-scale ------------------------------------------------------------------

# (group, strata): positives whose true shifts sit near the middle of each of
# `strata` equal slices of the lexicographic order, so a decision's cost (about
# shift rank x |G|) is fixed per group while the shifts range over all of G.
GROUP_POSITIVES = [((20, 20), 6), ((2, 200), 6), ((30, 30), 2)]
GROUP_LARGEST = ((40, 40), 0.25)  # the largest-group decision, shift at a quarter of G
GROUP_NEGATIVES = [((10, 10), 4), ((2, 50), 4), ((15, 15), 2)]  # each tries every shift
CHAIN_GROUPS = [(2,), (4,), (6,), (2, 2), (3, 3), (12,), (2, 6), (5, 5)]


def _normalized_tuple(rng, factors, n: int) -> Tuple[Elem, ...]:
    """A random tuple whose first entry is the identity, the usual normalization
    of a defining tuple.  A wrong candidate shift is then refuted at the first
    group element, so a decision costs about (rank of the first matching
    shift) x |G| whatever the other entries are."""
    return ((0,) * len(factors),) + tuple(_random_elem(rng, factors) for _ in range(n - 1))


def _chain_steps(rng, factors) -> List[Optional[Elem]]:
    return [None if rng.random() < 0.3 else _random_elem(rng, factors)
            for _ in range(rng.randint(1, 3))]


def group_scale_ops(rng: random.Random, quick: bool) -> List[Op]:
    ops: List[Op] = []
    positives = [((6, 6), 2), ((2, 20), 2)] if quick else GROUP_POSITIVES
    for factors, strata in positives:
        size = o.order(factors)
        for s in range(strata):
            tau = _normalized_tuple(rng, factors, 3 + s % 3)
            shift = o.from_rank(_stratified_rank(rng, size, s, strata), factors)
            ops.append(decide_op(f"decide-{'x'.join(map(str, factors))}-s{s}", factors,
                                 tau, _shuffled_translate(rng, tau, shift, factors)))
    factors, frac = ((10, 10), 0.25) if quick else GROUP_LARGEST
    tau = _normalized_tuple(rng, factors, 4)
    rank = int(o.order(factors) * frac) + rng.randrange(-5, 6)
    ops.append(decide_op("decide-largest", factors, tau,
                         _shuffled_translate(rng, tau, o.from_rank(rank, factors), factors),
                         largest=True))
    for factors, count in [((4, 4), 2)] if quick else GROUP_NEGATIVES:
        for k in range(count):
            tau = _normalized_tuple(rng, factors, 3 + k % 3)
            tau_p = _shuffled_translate(rng, tau, _random_elem(rng, factors), factors)
            ops.append(decide_op(f"decide-neg-{'x'.join(map(str, factors))}-{k}", factors,
                                 tau, _perturbed(rng, tau, tau_p, factors)))
    # A chain's cost depends on its shape (base size, steps, orders of the twist
    # elements), so the shapes are drawn once for every seed and the seed only
    # relabels each chain by an automorphism and a translation of the group.
    shapes = random.Random(0)
    for k in range(4 if quick else 16):
        factors = CHAIN_GROUPS[k % len(CHAIN_GROUPS)]
        base = tuple(_random_elem(shapes, factors) for _ in range(shapes.randint(1, 3)))
        ops.append(steinitz_op(f"steinitz{k}", factors,
                               *_relabeled_chain(rng, factors, base, _chain_steps(shapes, factors))))
    for k in range(2 if quick else 6):
        factors = CHAIN_GROUPS[k % len(CHAIN_GROUPS)]
        base = tuple(_random_elem(shapes, factors) for _ in range(2))
        depth = 6 if quick else 12 + k % 3
        ops.append(bratteli_op(f"bratteli{k}", factors,
                               *_relabeled_chain(rng, factors, base, _chain_steps(shapes, factors)),
                               depth))
    return ops


def _relabeled_chain(rng, factors, base, steps):
    """(base, steps) moved by a random automorphism of the group (a unit on each
    factor, then a permutation of equal factors) and the base also by a random
    translation; the Bratteli diagram and the signature keep their shape."""
    units = [rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1]) for n in factors]
    perm = list(range(len(factors)))
    if len(set(factors)) == 1:
        rng.shuffle(perm)

    def auto(g):
        return tuple(units[i] * g[perm[i]] % n for i, n in enumerate(factors))

    shift = _random_elem(rng, factors)
    return (tuple(o.add(shift, auto(g), factors) for g in base),
            [None if a is None else auto(a) for a in steps])


def _chain(factors, base, steps):
    group = gm.FiniteAbelianGroup(factors)
    return gm.ChainSpec(group, _elems(group, base), tuple(
        gm.DoubleStep() if a is None else gm.TwistStep(group.element(a)) for a in steps))


def steinitz_op(name, factors, base, steps) -> Op:
    def run(ctx):
        return gm.steinitz_signature(_chain(factors, base, steps))

    def check(sig, ctx):
        entries = specio.signature_to_json(sig)
        o.expect(all(e["count"] == "omega" for e in entries), "a finite count in a growing chain")
        want = o.steinitz_support(base, [a for a in steps if a is not None], factors)
        o.expect({tuple(e["degree"]) for e in entries} == want,
                 "omega support is not supp(base) * <twist elements>")

    return Op(name, run, check)


def bratteli_op(name, factors, base, steps, depth) -> Op:
    def run(ctx):
        return gm.bratteli_of_chain(_chain(factors, base, steps), depth)

    def check(diagram, ctx):
        o.check_diagram(diagram.to_json_dict(), base, steps, depth, factors)

    return Op(name, run, check)


# --- cli ----------------------------------------------------------------------------

@dataclass
class ChildResult:
    code: int
    out: str
    err: str
    maxrss_kb: int


def child_env(root: Path, extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The environment of a gradedmat child process: the checkout's sources on
    PYTHONPATH and the default dimension cap unless `extra` sets one."""
    env = {k: v for k, v in os.environ.items() if k != "GMK_MAX_DIM"}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


class CliRunner:
    """Runs `python -m gradedmat ...` as a child process of the benchmark.

    Stdout and stderr go to files in a work directory of the run so that
    the child can be reaped with os.wait4, which gives its own peak memory.
    With `tracer` set, the child runs through cli_child.py instead, which
    installs the layer wrappers and hands its totals back through a file.
    """

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.tracer = None
        self.peak_rss_kb = 0

    def run(self, argv: Sequence[str], extra_env: Optional[Dict[str, str]] = None) -> ChildResult:
        trace_file = self.workdir / "child-trace.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "gradedmat", *argv]
        else:
            trace_file.unlink(missing_ok=True)  # a child that dies writes none
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(trace_file), *argv]
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    cwd=self.root, env=child_env(self.root, extra_env))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if self.tracer is not None:
            self.tracer.merge(json.loads(trace_file.read_text()))
        return ChildResult(proc.returncode, out_path.read_text(), err_path.read_text(),
                           usage.ru_maxrss)


FIELD_PATH = re.compile(r"\bspec(\.[A-Za-z_]\w*|\[\d+\])+")


def _js(obj) -> str:
    return json.dumps(obj)


def _group_json(factors) -> dict:
    return {"factors": list(factors)}


def _tuple_json(tau) -> list:
    return [list(g) for g in tau]


class Requests:
    """Builds the operations of the `cli` workload: one child process each,
    checked for its exit code, a traceback-free stderr, stdout that parses in
    its format, and the verdict known by construction."""

    def __init__(self, runner: CliRunner):
        self.runner = runner
        self.ops: List[Op] = []

    def add(self, name, argv, code, check_out=None, fmt="json", env=None, fault=None,
            largest=False, field_path=False):
        runner = self.runner

        def run(ctx):
            return runner.run(argv(ctx) if callable(argv) else argv, env)

        def check(res, ctx):
            o.expect(res.code == code, f"exit {res.code}, expected {code}; stderr: "
                     + (res.err.strip().splitlines() or [""])[-1][:200])
            o.expect("Traceback" not in res.err, "traceback on stderr")
            if code == 2:
                o.expect(res.err.startswith("error: "), "no error line on stderr")
                o.expect(not field_path or FIELD_PATH.search(res.err) is not None,
                         "no field path on stderr")
                return
            if fmt == "json":
                payload = json.loads(res.out)
            elif fmt == "dot":
                o.expect(res.out.startswith("digraph") and res.out.rstrip().endswith("}"),
                         "stdout is not a DOT graph")
                payload = res.out
            else:
                payload = res.out.splitlines()
            if check_out is not None:
                check_out(payload, ctx)

        self.ops.append(Op(name, run, check, fault=fault, largest=largest))


def _text_is(*want):
    def check(lines, ctx):
        o.expect(lines[:len(want)] == list(want), f"text output {lines[:len(want)]}, expected {list(want)}")
    return check


def _verify_passes(payload, ctx):
    o.expect(payload["verdict"] == "pass" and payload["total_dimension"] == payload["n"] ** 2,
             "verify did not pass with n^2 components")


def _verify_requests(req: Requests, rng, quick):
    factors = (4,)
    tau = _balanced_tuple(rng, factors, 4 if quick else 5)
    n = len(tau)
    spec = {"kind": "elementary", "group": _group_json(factors), "tuple": _tuple_json(tau)}
    req.add("verify-elementary-json", ["verify", "--spec", _js(spec)], 0, _verify_passes)
    req.add("verify-elementary-text", ["verify", "--spec", _js(spec), "--format", "text"], 0,
            _text_is("pass"), fmt="text")
    a, b = _random_basis(rng, 3)
    eps = {"kind": "epsilon", "n": 3, "group": _group_json((3, 3)), "a": list(a), "b": list(b)}
    req.add("verify-epsilon-json", ["verify", "--spec", _js(eps)], 0, _verify_passes)
    tensor = {"kind": "tensor",
              "left": {"kind": "elementary", "group": _group_json((2, 2)),
                       "tuple": _tuple_json(_random_elem(rng, (2, 2)) for _ in range(2))},
              "right": {"kind": "epsilon", "n": 2}}
    req.add("verify-tensor-text", ["verify", "--spec", _js(tensor), "--format", "text"], 0,
            _text_is("pass"), fmt="text")
    i, j = rng.sample(range(n), 2)
    wrong = rng.choice([g for g in o.elements(factors) if g != o.ratio(tau[i], tau[j], factors)])
    comps: Dict[str, list] = {}
    for r in range(n):
        for c in range(n):
            d = wrong if (r, c) == (i, j) else o.ratio(tau[r], tau[c], factors)
            unit = [["1" if (x, y) == (r, c) else "0" for y in range(n)] for x in range(n)]
            comps.setdefault(",".join(map(str, d)), []).append({"n": n, "entries": unit})
    mislabeled = {"kind": "explicit", "group": _group_json(factors), "components": comps}
    req.add("verify-mislabeled-json", ["verify", "--spec", _js(mislabeled)], 1,
            lambda p, ctx: o.expect(p["verdict"] == "fail" and p["closure_failures"],
                                    "a mislabeled grading passed"))
    req.add("verify-mislabeled-text", ["verify", "--spec", _js(mislabeled), "--format", "text"], 1,
            _text_is("fail"), fmt="text")
    req.add("unknown-kind", ["verify", "--spec", _js({"kind": "diagonal", "n": 2})], 2,
            field_path=True)


def _equiv_requests(req: Requests, rng):
    factors = (6,)
    tau = tuple(_random_elem(rng, factors) for _ in range(4))
    tau_p = _shuffled_translate(rng, tau, _random_elem(rng, factors), factors)
    neg = _perturbed(rng, tau, tau_p, factors)
    args = ["equiv", "--group", _js(_group_json(factors)), "--tau", _js(_tuple_json(tau))]
    pos = args + ["--tau-prime", _js(_tuple_json(tau_p))]

    def equivalent(payload, ctx):
        o.expect(payload["equivalent"] is True, "equivalent tuples reported inequivalent")
        o.expect(o.witness_ok(tau, tau_p, tuple(payload["shift"]), payload["beta"], factors),
                 "witness breaks tau'[beta(i)] = shift * tau[i]")

    req.add("equiv-pos-json", pos, 0, equivalent)
    req.add("equiv-certificate-verify",
            lambda ctx: ["verify", "--spec", _js(json.loads(ctx["equiv-pos-json"].out)["certificate"])],
            0, lambda p, ctx: o.expect(p["kind"] == "map" and p["verdict"] == "pass",
                                       "certificate from equiv did not verify"))
    req.add("equiv-neg-json", args + ["--tau-prime", _js(_tuple_json(neg))], 1,
            lambda p, ctx: o.expect(p["equivalent"] is False, "inequivalent tuples reported equivalent"))
    req.add("equiv-pos-text", pos + ["--format", "text"], 0,
            lambda lines, ctx: o.expect(lines[0] == "equivalent" and lines[1].startswith("shift="),
                                        f"text output {lines[:2]}"), fmt="text")
    req.add("equiv-neg-text", args + ["--tau-prime", _js(_tuple_json(neg)), "--format", "text"], 1,
            _text_is("not equivalent"), fmt="text")
    req.add("equiv-certificate-verify-text",
            lambda ctx: ["verify", "--spec", _js(json.loads(ctx["equiv-pos-json"].out)["certificate"]),
                         "--format", "text"], 0, _text_is("pass"), fmt="text")
    req.add("over-cap-equiv", pos, 2, env={"GMK_MAX_DIM": "2"})


def _embed_requests(req: Requests, rng):
    factors, k, m, r = (2, 2), 2, 2, 1
    source = tuple(_random_elem(rng, factors) for _ in range(k))
    shifts = [_random_elem(rng, factors) for _ in range(m)]
    target = tuple([o.add(s, g, factors) for s in shifts for g in source]
                   + [_random_elem(rng, factors)])
    bad = list(target)
    while o.block_violation(bad, k, m, factors) is None:
        bad[k + rng.randrange(k)] = _random_elem(rng, factors)
    spec = {"group": _group_json(factors), "source": _tuple_json(source), "m": m, "r": r}
    good = ["embed", "--spec", _js({**spec, "target": _tuple_json(target)})]
    req.add("embed-accept-json", good, 0,
            lambda p, ctx: o.expect(p["accepted"] and p["verified"], "embedding not accepted"))
    req.add("embed-certificate-verify",
            lambda ctx: ["verify", "--spec", _js(json.loads(ctx["embed-accept-json"].out)["certificate"])],
            0, lambda p, ctx: o.expect(p["verdict"] == "pass", "certificate from embed did not verify"))
    violation = o.block_violation(bad, k, m, factors)
    req.add("embed-reject-json", ["embed", "--spec", _js({**spec, "target": _tuple_json(bad)})], 1,
            lambda p, ctx: o.expect(p["accepted"] is False and p["violated_index"] == violation,
                                    f"expected a rejection at index {violation}"))
    req.add("embed-accept-text", good + ["--format", "text"], 0,
            _text_is("accepted", "verified=True"), fmt="text")
    req.add("embed-reject-text", ["embed", "--spec", _js({**spec, "target": _tuple_json(bad)}),
                                  "--format", "text"], 1,
            lambda lines, ctx: o.expect(lines[0].startswith("rejected:"), f"text {lines[:1]}"),
            fmt="text")
    req.add("over-cap-embed", good, 2, env={"GMK_MAX_DIM": str(k * m)})


def _regularize_requests(req: Requests, rng):
    characters = [s for s in map(twist_signs, range(16)) if is_character(s)]
    spec = regularize_spec(rng.choice(characters))

    def passes(p, ctx):
        o.expect(p["verdict"] == "pass" and p["centralizer_dimension"] == 4
                 and p["centralizer_units"] == 2, "regularization did not pass")

    req.add("regularize-json", ["regularize", "--spec", _js(spec)], 0, passes)
    req.add("regularize-text", ["regularize", "--spec", _js(spec), "--format", "text"], 0,
            _text_is("pass"), fmt="text")
    broken = regularize_spec(twist_signs(rng.choice([m for m in range(16)
                                                     if not is_character(twist_signs(m))])))
    req.add("regularize-broken-json", ["regularize", "--spec", _js(broken)], 1,
            lambda p, ctx: o.expect(p["verdict"] == "fail", "a twist that is no character passed"))


def _chain_requests(req: Requests, rng):
    factors, depth = (4,), 5
    base = tuple(_random_elem(rng, factors) for _ in range(2))
    steps = _chain_steps(rng, factors)
    chain = {"group": _group_json(factors), "base": _tuple_json(base),
             "steps": [{"kind": "double"} if s is None else {"kind": "twist", "a": list(s)}
                       for s in steps]}
    args = ["bratteli", "--spec", _js(chain), "--depth", str(depth)]
    edges = sum(map(len, o.bratteli_expected(base, steps, depth, factors)[1]))
    req.add("bratteli-json", args, 0,
            lambda p, ctx: o.check_diagram(p["diagram"], base, steps, depth, factors))
    req.add("bratteli-dot", args + ["--format", "dot"], 0,
            lambda dot, ctx: o.expect(dot.count("->") == edges, "wrong number of DOT edges"),
            fmt="dot")
    req.add("bratteli-text", args + ["--format", "text"], 0, _text_is(f"levels: {depth}"),
            fmt="text")
    demo = ["demo-remark1", "--depth", str(rng.randint(3, 5))]

    def reproduced(p, ctx):
        o.expect(p["diagrams_equal"] is False and p["steinitz_equal"] is True,
                 "remark 1 not reproduced")
        o.expect(all(e["count"] == "omega" for e in p["steinitz"]), "finite limit count")

    req.add("demo-json", demo, 0, reproduced)
    req.add("demo-dot", demo + ["--format", "dot"], 0,
            lambda dot, ctx: o.expect(dot.count("digraph") == 2, "expected two DOT graphs"), fmt="dot")
    req.add("demo-text", demo + ["--format", "text"], 0,
            _text_is("diagrams_equal=False", "steinitz_equal=True"), fmt="text")
    req.add("demo-depth-1", ["demo-remark1", "--depth", "1"], 2)
    twist, twist_base = _random_elem(rng, (2, 2)), (_random_elem(rng, (2, 2)),)
    twist_chain = {"group": _group_json((2, 2)), "base": _tuple_json(twist_base),
                   "steps": [{"kind": "twist", "a": list(twist)}, {"kind": "double"}]}
    req.add("bratteli-twist-double-json", ["bratteli", "--spec", _js(twist_chain), "--depth", "6"], 0,
            lambda p, ctx: o.check_diagram(p["diagram"], twist_base, [twist, None], 6, (2, 2)))


def _cocycle_requests(req: Requests, rng):
    a, b = _random_basis(rng, 3)
    coords = {label: ij for ij, label in _labels(3, a, b).items()}
    spec = {"kind": "epsilon", "n": 3, "group": _group_json((3, 3)), "a": list(a), "b": list(b)}

    def closed_form(p, ctx):
        o.expect(p["verdict"] == "pass" and len(p["values"]) == 81, "cocycle table incomplete")
        for v in p["values"]:
            want = o.clock_shift_cocycle(3, coords[tuple(v["t"])], coords[tuple(v["s"])])
            o.expect(o.close(o.scalar_value(v["value"]), want), f"alpha({v['t']}, {v['s']}) wrong")

    req.add("cocycle-json", ["cocycle", "--spec", _js(spec)], 0, closed_form)
    req.add("cocycle-text", ["cocycle", "--spec", _js(spec), "--format", "text"], 0,
            _text_is("pass", "support size 9"), fmt="text")
    swapped = specio.grading_to_json(
        _swapped(_epsilon(3, a, b), *_non_automorphic_swap(rng, 3, _labels(3, a, b))))
    req.add("cocycle-mislabeled-json", ["cocycle", "--spec", _js(swapped)], 1,
            lambda p, ctx: o.expect(p["verdict"] == "fail", "a cocycle from a relabeled family"))


def _error_requests(req: Requests, quick):
    req.add("malformed-json", ["verify", "--spec", '{"kind": "epsilon", "n": }'], 2)
    req.add("over-cap-verify", ["verify", "--spec", _js({"kind": "epsilon", "n": 6 if quick else 20})],
            2, env={"GMK_MAX_DIM": "4"})
    zero_division = {"kind": "explicit", "group": {"factors": [2]},
                     "components": {"0": [{"n": 1, "entries": [["1/0"]]}]}}
    req.add("fault-zero-denominator", ["verify", "--spec", _js(zero_division)], 2, field_path=True,
            fault="a '1/0' matrix entry raises ZeroDivisionError (exit 1, traceback)")
    wrong_size = regularize_spec(twist_signs(0))
    wrong_size["source"]["c_basis"] = [
        {"n": 3, "entries": [["1" if i == j else "0" for j in range(3)] for i in range(3)]}]
    req.add("fault-c-basis-size", ["regularize", "--spec", _js(wrong_size)], 2, field_path=True,
            fault="a c_basis matrix of the wrong size raises 'ValueError: size mismatch' (exit 1)")
    req.add("help", ["--help"], 0,
            lambda lines, ctx: o.expect(lines[0].startswith("usage:"), "no usage line"), fmt="text")


def cli_ops(rng: random.Random, runner: CliRunner, quick: bool) -> List[Op]:
    req = Requests(runner)
    _verify_requests(req, rng, quick)
    _equiv_requests(req, rng)
    _embed_requests(req, rng)
    _regularize_requests(req, rng)
    _chain_requests(req, rng)
    _cocycle_requests(req, rng)
    _error_requests(req, quick)
    # the largest case: an elementary verify at the dimension cap
    n = 5 if quick else 8
    spec = {"kind": "elementary", "group": _group_json((6,)),
            "tuple": _tuple_json(_balanced_tuple(rng, (6,), n))}
    req.add("verify-at-cap", ["verify", "--spec", _js(spec)], 0, _verify_passes,
            env={"GMK_MAX_DIM": str(n)}, largest=True)
    return req.ops


def regularize_spec(signs: Dict[Elem, int]) -> dict:
    phi, source, target = regularization_fixture(signs)

    def pair_json(pair):
        return {"c_basis": [specio.matrix_to_json(c) for c in pair.c_basis],
                "d_units": {specio.element_key(t): specio.matrix_to_json(x)
                            for t, x in sorted(pair.d_units.items(), key=lambda kv: _exp(kv[0]))},
                "identity": specio.matrix_to_json(pair.identity)}

    return {"map": specio.map_to_json(phi), "source": pair_json(source), "target": pair_json(target)}


WORKLOADS = ("elementary", "fine", "group-scale", "cli")


def build(workload: str, seed: int, quick: bool, runner: Optional[CliRunner]) -> List[Op]:
    """The operation list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "elementary":
        return elementary_ops(rng, quick)
    if workload == "fine":
        return fine_ops(rng, quick)
    if workload == "group-scale":
        return group_scale_ops(rng, quick)
    if workload == "cli":
        return cli_ops(rng, runner, quick)
    raise ValueError(f"unknown workload {workload!r}")
