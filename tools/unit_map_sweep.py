"""Time the homomorphism check of a unit map against verify_grading of the same size.

For n = 8, 16, 32 and 64 it builds a Z4 isomorphism E_ij -> E_sigma(i)sigma(j)
between elementary gradings (seeded tuple and permutation) and prints, per n,
the best of 5 wall-clock times of

  map      graded_homomorphism_check, with the build of both algebras;
  grading  verify_grading of elementary_grading(Z4, tau), with its build;

their ratio, and the slope of log time against log n fitted over the sizes.
Run from the repository root:  python tools/unit_map_sweep.py
"""

from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gradedmat as gm  # noqa: E402


SIZES = (8, 16, 32, 64)
REPEATS = 5


def best_of(fn) -> float:
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def slope(points) -> float:
    """Least-squares slope of log t against log n."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> None:
    rng = random.Random(0)
    z4 = gm.FiniteAbelianGroup((4,))
    maps, gradings = [], []
    print(f"{'n':>4} {'map ms':>10} {'grading ms':>11} {'ratio':>6}")
    for n in SIZES:
        tau = tuple(z4.element((rng.randrange(4),)) for _ in range(n))
        sigma = list(range(n))
        rng.shuffle(sigma)
        tau_p = tuple(tau[sigma.index(i)] for i in range(n))  # E_ij keeps its degree
        pairs = gm.build_isomorphism(sigma, n)

        def check():
            gmap = gm.GradedMap(gm.elementary_grading(z4, tau), gm.elementary_grading(z4, tau_p), pairs)
            assert gm.graded_homomorphism_check(gmap).passed

        def verify():
            assert gm.verify_grading(gm.elementary_grading(z4, tau)).passed

        t_map, t_grading = best_of(check), best_of(verify)
        maps.append((n, t_map))
        gradings.append((n, t_grading))
        print(f"{n:>4} {1e3 * t_map:>10.2f} {1e3 * t_grading:>11.2f} {t_map / t_grading:>6.2f}")
    print(f"fitted slopes: map {slope(maps):.2f}, grading {slope(gradings):.2f}")


if __name__ == "__main__":
    main()
