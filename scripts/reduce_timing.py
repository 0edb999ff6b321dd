"""In-process timing of `exactalg.invariant_factors` on two kinds of matrix.

- torus: the boundaries d_1 and d_2 of the total complex of seeded
  `torus-grid` benchmark documents (perfbench/workloads.py) at n = 5, 20
  and 60, which unit pivots reduce completely;
- dense: seeded square matrices with entries +-1 and +-2 at 2%, 3% and 5%
  density, kept only when an invariant factor exceeds 1, so that every
  one leaves a core for the dense Smith form whatever the pivot order.

Each matrix is timed as the best of `--repeat` calls; one line per family
gives the median of those times over its matrices.  The families do not
depend on the program's own choices, so two checkouts time the same
matrices: run it in both, alternately, and compare the medians.

    python3 scripts/reduce_timing.py [--repeat 3]
"""

import argparse
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from mbhomology.exactalg import IntMatrix, invariant_factors  # noqa: E402
from mbhomology.flowdata import build_multicomplex  # noqa: E402
from mbhomology.schema import presentation_from_doc  # noqa: E402

# (n, seeds) of the torus families
TORI = ((5, 20), (20, 5), (60, 2))
# (size, density, matrices) of the dense families
DENSE = ((120, 0.02, 40), (100, 0.03, 40), (80, 0.05, 40))


def torus_boundaries(n, seeds):
    mats = []
    for seed in range(1, seeds + 1):
        doc, _, _ = workloads.torus_grid(
            workloads.call_rng("torus-grid", seed, 0), n)
        cx = build_multicomplex(presentation_from_doc(doc)).complex
        mats += [cx.boundary(1), cx.boundary(2)]
    return mats


def dense_cores(size, density, count):
    mats = []
    rng = random.Random(f"reduce-timing:{size}:{density}")
    while len(mats) < count:
        a = IntMatrix.from_columns(size, size, (
            {i: rng.choice((1, -1, 2, -2)) for i in range(size)
             if rng.random() < density} for _ in range(size)))
        if max(invariant_factors(a), default=1) > 1:
            mats.append(a)
    return mats


def median_ms(mats, repeat):
    times = []
    for a in mats:
        best = float("inf")
        for _ in range(repeat):
            start = perf_counter()
            invariant_factors(a)
            best = min(best, perf_counter() - start)
        times.append(best)
    return 1e3 * statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    families = [(f"torus n={n}", torus_boundaries(n, seeds))
                for n, seeds in TORI]
    families += [(f"dense {size}x{size} at {density:.0%}",
                  dense_cores(size, density, count))
                 for size, density, count in DENSE]
    for name, mats in families:
        print(f"{name:<22} {len(mats):3d} matrices  median "
              f"{median_ms(mats, args.repeat):9.3f} ms")


if __name__ == "__main__":
    main()
