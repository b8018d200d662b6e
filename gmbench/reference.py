"""Reference figures for gmbench/README.md, comparable with the ROADMAP baseline.

    python3 gmbench/reference.py

Prints the median wall time of single library calls at fixed sizes, the CLI
start-up time and the fitted log-log exponents.  It checks nothing; the
benchmark proper is run.py.
"""

import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "gmbench"))

import gradedmat as gm  # noqa: E402
import oracles as o  # noqa: E402
from run import fitted_exponent  # noqa: E402
from workloads import child_env  # noqa: E402


REPEATS = 3  # each figure is the median of this many calls


def timed(fn, repeats=REPEATS):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main() -> None:
    rng = random.Random(0)
    z4 = gm.FiniteAbelianGroup((4,))
    rows, verify_points, decide_points = [], [], []

    for n in (6, 8, 10):
        tau = tuple(z4.element((rng.randrange(4),)) for _ in range(n))
        t = timed(lambda: gm.verify_grading(gm.elementary_grading(z4, tau)))
        rows.append((f"verify_grading elementary Z4 n={n}", t))
        verify_points.append((n, t))
    for n in (5, 6):
        rows.append((f"verify_grading epsilon n={n}",
                     timed(lambda: gm.verify_grading(gm.epsilon_grading(n)))))
    z3 = gm.FiniteAbelianGroup((3, 3))
    left = gm.elementary_grading(z3, (z3.element((0, 0)), z3.element((0, 1)), z3.element((1, 0))))
    rows.append(("verify_grading tensor elementary(3) x epsilon(3), n=9", timed(
        lambda: gm.verify_grading(gm.induced_tensor_grading(left, gm.epsilon_grading(3))))))
    for n in (5, 6):
        tau = tuple(z4.element((rng.randrange(4),)) for _ in range(n))
        tau_p = tuple(reversed(tau))
        beta = gm.decide_equivalence(gm.DefiningSequence.finite(z4, tau),
                                     gm.DefiningSequence.finite(z4, tau_p)).beta
        gmap = gm.GradedMap(gm.elementary_grading(z4, tau), gm.elementary_grading(z4, tau_p),
                            gm.build_isomorphism(beta, n))
        rows.append((f"graded_homomorphism_check isomorphism n={n}",
                     timed(lambda: gm.graded_homomorphism_check(gmap))))
    for m in (10, 20, 30, 40):
        factors = (m, m)
        group = gm.FiniteAbelianGroup(factors)
        tau = [(0, 0)] + [o.from_rank(rng.randrange(m * m), factors) for _ in range(3)]
        shift = o.from_rank(m * m // 2, factors)
        left_seq = gm.DefiningSequence.finite(group, [group.element(g) for g in tau])
        right_seq = gm.DefiningSequence.finite(group, [group.element(o.add(shift, g, factors))
                                                       for g in tau])
        t = timed(lambda: gm.decide_equivalence(left_seq, right_seq))
        rows.append((f"decide_equivalence |G|={m * m}, n=4, shift at rank |G|/2", t))
        decide_points.append((m * m, t))
    env = child_env(ROOT)
    rows.append(("CLI --help start-up", timed(
        lambda: subprocess.run([sys.executable, "-m", "gradedmat", "--help"], check=True,
                               stdout=subprocess.DEVNULL, cwd=ROOT, env=env), 5)))

    width = max(len(label) for label, _ in rows)
    for label, t in rows:
        print(f"{label:<{width}}  {t:8.3f} s")
    print(f"verify_grading exponent in n (6, 8, 10): {fitted_exponent(verify_points):.2f}")
    print(f"decide_equivalence exponent in |G|: {fitted_exponent(decide_points):.2f}")
    print(f"python {sys.version.split()[0]}; each figure is the median of {REPEATS} calls "
          "in one process; exponents are least-squares log-log slopes")


if __name__ == "__main__":
    main()
