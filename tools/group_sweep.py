"""Time the group-only algorithms, which build no matrix, over growing sizes.

decide  decide_equivalence of two finite defining sequences over Z_m x Z_m for
        m = 10, 20, 30 and 40, with the group and both sequences built inside the
        timed call.  tau has |G| / 4 seeded entries, the first the identity, and
        tau' is tau translated by the element at a quarter of G in lexicographic
        order, then shuffled (positive); the negative case moves one entry of tau'
        off the translate, so every candidate shift is refuted.
chain   bratteli_of_chain on a Z12 chain that twists by a generator, at depth
        8, 16, 32 and 64, with the chain built inside the timed call.

It prints, per size, the best of 5 wall-clock times and the slope of log time
against log |G| (decide) or log depth (chain) fitted over the sizes.
Run from the repository root:  python tools/group_sweep.py
"""

from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gradedmat as gm  # noqa: E402


ORDERS = (10, 20, 30, 40)
DEPTHS = (8, 16, 32, 64)
SHIFT_FRACTION = 0.25
REPEATS = 5


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


def main() -> None:
    rng = random.Random(0)
    positives, negatives, chains = [], [], []
    print(f"{'|G|':>6} {'decide ms':>10} {'negative ms':>12}")
    for m in ORDERS:
        tau, positive, negative = decide_inputs(rng, m)
        assert decide(m, tau, positive) is not None and decide(m, tau, negative) is None
        t_pos = best_of(lambda: decide(m, tau, positive))
        t_neg = best_of(lambda: decide(m, tau, negative))
        positives.append((m * m, t_pos))
        negatives.append((m * m, t_neg))
        print(f"{m * m:>6} {1e3 * t_pos:>10.3f} {1e3 * t_neg:>12.3f}")
    print(f"{'depth':>6} {'chain ms':>10}")
    for depth in DEPTHS:
        assert chain(depth).depth == depth
        t_chain = best_of(lambda: chain(depth))
        chains.append((depth, t_chain))
        print(f"{depth:>6} {1e3 * t_chain:>10.3f}")
    print(f"fitted slopes: decide {slope(positives):.2f}, negative {slope(negatives):.2f} "
          f"(against |G|), chain {slope(chains):.2f} (against depth)")


if __name__ == "__main__":
    main()
