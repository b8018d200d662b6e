"""Size sweeps outside the benchmark: best-of-5 wall-clock times and fitted slopes.

unit-map  For n = 8, 16, 32 and 64, a Z4 isomorphism E_ij -> E_sigma(i)sigma(j)
          between elementary gradings (seeded tuple and permutation):
            map       graded_homomorphism_check, with the build of both algebras;
            untupled  the same check between copies GradedAlgebra(Z4, n, components)
                      that carry no tuple, so the 2n - 1 unit certificate answers;
                      with the build of both algebras and both copies;
            grading   verify_grading of elementary_grading(Z4, tau), with its build;
          and the ratio of map to grading.
group     The group-only algorithms, which build no matrix:
            decide   decide_equivalence of two finite defining sequences over Z_m x Z_m
                     for m = 10, 20, 30 and 40, with the group and both sequences built
                     inside the timed call.  tau has |G| / 4 seeded entries, the first
                     the identity, and tau' is tau translated by the element at a quarter
                     of G in lexicographic order, then shuffled (positive); the negative
                     case moves one entry of tau' off the translate, so every candidate
                     shift is refuted.
            chain    bratteli_of_chain on a Z12 chain that twists by a generator, at
                     depth 8, 16, 32 and 64, with the chain built inside the timed call.
split     For n = 8, 16, 32 and 64, a block-diagonal embedding of an elementary M_4 over Z4
          into M_n (n/4 blocks, seeded tuples), its unit images conjugated by a seeded
          permutation of F^n that carries the degrees along:
            split    split_module_decomposition of the permuted images, built outside;
            embed    block_diagonal_embedding, with the build of both algebras.
scalar    CycNumber.inverse of 1 + z + 2 z^(N/2) + 3 z^(N-2), z = zeta_N, at
          N = 101, 251, 503 and 997, with the scalar built outside the timed call.
fine      For n = 5, 7, 9, 11 and 13, the clock-and-shift basis epsilon_grading(n) over
          Z_n x Z_n, whose entries and cocycle values are roots of unity:
            verify   verify_grading, with the build of the algebra;
            cocycle  extract_cocycle, with the build of the algebra.
startup   Wall time of fresh `python -m gradedmat` children with PYTHONDONTWRITEBYTECODE=1,
          so that every module a child loads is compiled: the median of 15 per command,
          run in rounds over the commands, for `python -c pass`, `--help`, `verify` of an
          elementary grading (n = 5 over Z4) and of epsilon_grading(3), `equiv` with a
          positive and a negative answer, `bratteli`, `regularize` and `cocycle`.  Each
          figure is printed in ms and less the `pass` baseline, with the gradedmat
          modules the command loaded (read in one more child).

Each size series prints its times in ms to 0.1 ms and the slope of log time against
log n, log |G|, log depth or log N, fitted over the sizes.
Run from the repository root:  python tools/sweep.py [SERIES ...]
where SERIES is unit-map, group, split, scalar, fine or startup; without one it runs the
five size series.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import gradedmat as gm  # noqa: E402
from gradedmat import specio  # noqa: E402
from gradedmat.cyclotomic import CycNumber, root_of_unity  # noqa: E402


UNIT_SIZES = (8, 16, 32, 64)
SPLIT_SIZES = (8, 16, 32, 64)
SPLIT_K = 4
ORDERS = (10, 20, 30, 40)
DEPTHS = (8, 16, 32, 64)
SHIFT_FRACTION = 0.25
LEVELS = (101, 251, 503, 997)
FINE_SIZES = (5, 7, 9, 11, 13)
REPEATS = 5
CHILDREN = 15


def best_of(fn) -> float:
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def slope(points) -> float:
    """Least-squares slope of log t against log x."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def ms(t: float) -> str:
    return f"{1e3 * t:.1f}"


def unit_map_series(rng: random.Random) -> None:
    z4 = gm.FiniteAbelianGroup((4,))
    maps, untupleds, gradings = [], [], []
    print(f"{'n':>6} {'map ms':>10} {'untupled ms':>12} {'grading ms':>11} {'ratio':>6}")
    for n in UNIT_SIZES:
        tau = tuple(z4.element((rng.randrange(4),)) for _ in range(n))
        sigma = list(range(n))
        rng.shuffle(sigma)
        tau_p = tuple(tau[sigma.index(i)] for i in range(n))  # E_ij keeps its degree
        pairs = gm.build_isomorphism(sigma, n)

        def check():
            gmap = gm.GradedMap(gm.elementary_grading(z4, tau), gm.elementary_grading(z4, tau_p), pairs)
            assert gm.graded_homomorphism_check(gmap).passed

        def untupled():
            domain, codomain = (gm.GradedAlgebra(z4, n, gm.elementary_grading(z4, t).components)
                                for t in (tau, tau_p))
            assert gm.graded_homomorphism_check(gm.GradedMap(domain, codomain, pairs)).passed

        def verify():
            assert gm.verify_grading(gm.elementary_grading(z4, tau)).passed

        t_map, t_untupled, t_grading = best_of(check), best_of(untupled), best_of(verify)
        maps.append((n, t_map))
        untupleds.append((n, t_untupled))
        gradings.append((n, t_grading))
        print(f"{n:>6} {ms(t_map):>10} {ms(t_untupled):>12} {ms(t_grading):>11} {t_map / t_grading:>6.2f}")
    print(f"fitted slopes: map {slope(maps):.2f}, untupled {slope(untupleds):.2f}, "
          f"grading {slope(gradings):.2f} (against n)")


def split_series(rng: random.Random) -> None:
    z4 = gm.FiniteAbelianGroup((4,))
    splits, embeds = [], []
    print(f"{'n':>6} {'split ms':>10} {'embed ms':>10}")
    for n in SPLIT_SIZES:
        m = n // SPLIT_K
        source = [z4.element((rng.randrange(4),)) for _ in range(SPLIT_K)]
        shifts = [z4.element((rng.randrange(4),)) for _ in range(m)]
        target = [t * g for t in shifts for g in source]
        perm = list(range(n))  # e_a -> e_perm[a]
        rng.shuffle(perm)
        p = gm.Matrix.combination(n, ((1, gm.Matrix.unit(n, perm[a], a)) for a in range(n)))
        space = gm.GradedVectorSpace.from_tuple(z4, [target[perm.index(c)] for c in range(n)])

        def embed():
            return gm.block_diagonal_embedding(gm.elementary_grading(z4, source), m, 0, target)

        images = [p * image * p.transpose() for _, image in embed().pairs]  # E_ij in row-major order
        table = [images[i * SPLIT_K:(i + 1) * SPLIT_K] for i in range(SPLIT_K)]
        assert gm.split_module_decomposition(space, table).copies == m
        t_split = best_of(lambda: gm.split_module_decomposition(space, table))
        t_embed = best_of(embed)
        splits.append((n, t_split))
        embeds.append((n, t_embed))
        print(f"{n:>6} {ms(t_split):>10} {ms(t_embed):>10}")
    print(f"fitted slopes: split {slope(splits):.2f}, embed {slope(embeds):.2f} (against n)")


def decide_inputs(rng: random.Random, m: int):
    """Exponent tuples (tau, positive tau', negative tau') over Z_m x Z_m."""
    size = m * m
    tau = [(0, 0)] + [(rng.randrange(m), rng.randrange(m)) for _ in range(size // 4 - 1)]
    shift = divmod(int(size * SHIFT_FRACTION), m)
    positive = [((a + shift[0]) % m, (b + shift[1]) % m) for a, b in tau]
    rng.shuffle(positive)
    negative = list(positive)
    negative[0] = ((negative[0][0] + 1) % m, negative[0][1])
    return tau, positive, negative


def decide(m: int, tau, tau_p):
    group = gm.FiniteAbelianGroup((m, m))
    return gm.decide_equivalence(gm.DefiningSequence.finite(group, [group.element(g) for g in tau]),
                                 gm.DefiningSequence.finite(group, [group.element(g) for g in tau_p]))


def chain(depth: int):
    z12 = gm.FiniteAbelianGroup((12,))
    spec = gm.ChainSpec(z12, (z12.element((0,)), z12.element((5,))), (gm.TwistStep(z12.element((1,))),))
    return gm.bratteli_of_chain(spec, depth)


def group_series(rng: random.Random) -> None:
    positives, negatives, chains = [], [], []
    print(f"{'|G|':>6} {'decide ms':>10} {'negative ms':>12}")
    for m in ORDERS:
        tau, positive, negative = decide_inputs(rng, m)
        assert decide(m, tau, positive) is not None and decide(m, tau, negative) is None
        t_pos = best_of(lambda: decide(m, tau, positive))
        t_neg = best_of(lambda: decide(m, tau, negative))
        positives.append((m * m, t_pos))
        negatives.append((m * m, t_neg))
        print(f"{m * m:>6} {ms(t_pos):>10} {ms(t_neg):>12}")
    print(f"{'depth':>6} {'chain ms':>10}")
    for depth in DEPTHS:
        assert chain(depth).depth == depth
        t_chain = best_of(lambda: chain(depth))
        chains.append((depth, t_chain))
        print(f"{depth:>6} {ms(t_chain):>10}")
    print(f"fitted slopes: decide {slope(positives):.2f}, negative {slope(negatives):.2f} "
          f"(against |G|), chain {slope(chains):.2f} (against depth)")


def scalar_series() -> None:
    inverses = []
    print(f"{'N':>6} {'inverse ms':>11}")
    for level in LEVELS:
        x = (CycNumber.one() + root_of_unity(level, 1) + root_of_unity(level, level // 2) * 2
             + root_of_unity(level, level - 2) * 3)
        assert x * x.inverse() == CycNumber.one()
        t_inverse = best_of(x.inverse)
        inverses.append((level, t_inverse))
        print(f"{level:>6} {ms(t_inverse):>11}")
    print(f"fitted slope: inverse {slope(inverses):.2f} (against N)")


def fine_series() -> None:
    verifies, cocycles = [], []
    print(f"{'n':>6} {'verify ms':>10} {'cocycle ms':>11}")
    for n in FINE_SIZES:
        def verify():
            assert gm.verify_grading(gm.epsilon_grading(n)).passed

        def cocycle():
            return gm.extract_cocycle(gm.epsilon_grading(n))

        t_verify, t_cocycle = best_of(verify), best_of(cocycle)
        verifies.append((n, t_verify))
        cocycles.append((n, t_cocycle))
        print(f"{n:>6} {ms(t_verify):>10} {ms(t_cocycle):>11}")
    print(f"fitted slopes: verify {slope(verifies):.2f}, cocycle {slope(cocycles):.2f} (against n)")


def _regularize_spec() -> str:
    """The identity map of epsilon_grading(2), with the same fine pair on both sides."""
    eps = gm.epsilon_grading(2)
    one = gm.Matrix.identity(2)
    units = {g: mats[0] for g, mats in eps.components.items()}
    pair = {"c_basis": [specio.matrix_to_json(one)],
            "d_units": {specio.element_key(g): specio.matrix_to_json(m) for g, m in units.items()},
            "identity": specio.matrix_to_json(one)}
    gmap = gm.GradedMap(eps, eps, tuple((m, m) for m in units.values()))
    return json.dumps({"map": specio.map_to_json(gmap), "source": pair, "target": pair})


def startup_commands():
    z2, z4 = '{"factors": [2]}', '{"factors": [4]}'
    return [
        ("pass", ["-c", "pass"]),
        ("--help", ["--help"]),
        ("verify elementary", ["verify", "--spec", '{"kind": "elementary", "group": ' + z4
                               + ', "tuple": [[0], [1], [2], [3], [1]]}']),
        ("verify epsilon", ["verify", "--spec", '{"kind": "epsilon", "n": 3}']),
        ("equiv positive", ["equiv", "--group", z4, "--tau", "[[0], [1], [1]]",
                            "--tau-prime", "[[2], [3], [3]]"]),
        ("equiv negative", ["equiv", "--group", z4, "--tau", "[[0], [1], [1]]",
                            "--tau-prime", "[[2], [3], [2]]"]),
        ("bratteli", ["bratteli", "--spec", '{"group": ' + z2
                      + ', "base": [[0], [1]], "steps": [{"kind": "twist", "a": [1]}]}']),
        ("regularize", ["regularize", "--spec", _regularize_spec()]),
        ("cocycle", ["cocycle", "--spec", '{"kind": "epsilon", "n": 3}']),
    ]


LOADED = """import runpy, sys
sys.argv[0] = "gradedmat"
try:
    runpy.run_module("gradedmat", run_name="__main__")
except SystemExit:
    pass
sys.stdout.flush()
print(" ".join(sorted(m[10:] for m in sys.modules if m.startswith("gradedmat."))), file=sys.stderr)
"""


def startup_series() -> None:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    commands = startup_commands()
    argvs = {name: [sys.executable, *(argv if name == "pass" else ["-m", "gradedmat", *argv])]
             for name, argv in commands}
    times = {name: [] for name, _ in commands}
    for _ in range(CHILDREN):  # in rounds, so that a drift of the machine reaches every command
        for name, argv in argvs.items():
            start = time.perf_counter()
            result = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
            times[name].append(time.perf_counter() - start)
            assert result.returncode in (0, 1) and not result.stderr, (name, result.stderr)
    base = statistics.median(times["pass"])
    if (SRC / "gradedmat" / "__pycache__").exists():
        print("note: src/gradedmat/__pycache__ exists, so these children read cached bytecode")
    print(f"{'command':<18} {'ms':>6} {'less pass':>10}  gradedmat modules loaded")
    for name, argv in commands:
        loaded = ""
        if name != "pass":
            probe = subprocess.run([sys.executable, "-c", LOADED, *argv], stdout=subprocess.DEVNULL,
                                   stderr=subprocess.PIPE, text=True, env=env)
            loaded = probe.stderr.splitlines()[-1]
        t = statistics.median(times[name])
        print(f"{name:<18} {ms(t):>6} {ms(t - base):>10}  {loaded}")


SERIES = {"unit-map": lambda: unit_map_series(random.Random(0)),
          "group": lambda: group_series(random.Random(0)),
          "split": lambda: split_series(random.Random(0)),
          "scalar": scalar_series,
          "fine": fine_series,
          "startup": startup_series}


def main() -> None:
    # a seed per series: its inputs do not depend on the others
    for name in sys.argv[1:] or ["unit-map", "group", "split", "scalar", "fine"]:
        if name not in SERIES:
            sys.exit(f"unknown series {name!r}; choose from {', '.join(SERIES)}")
        SERIES[name]()


if __name__ == "__main__":
    main()
