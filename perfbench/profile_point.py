"""cProfile breakdown of one Example I point solve (tol 1e-8, cold start).

Run from the root of a checkout; the committed output is profile_ex1_point.txt:

    python3 perfbench/profile_point.py > perfbench/profile_ex1_point.txt

cProfile adds a cost to every Python call, so the proportions lean towards
call-heavy code; the benchmark's traced run gives the unprofiled split.
"""

import os

os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"})

import cProfile  # noqa: E402
import io  # noqa: E402
import pstats  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from hjbsparse.characteristics import solve_point  # noqa: E402
from hjbsparse.problems import make_example1  # noqa: E402

# An interior point of Example I's d1 box (angles within pi/6, rates within pi/8).
X0 = np.array([0.2, -0.15, 0.1, 0.1, -0.05, 0.08])


def main() -> None:
    problem = make_example1()
    start = time.perf_counter()
    rec = solve_point(problem, 0.0, X0, tol=1e-8)
    plain = time.perf_counter() - start
    profiler = cProfile.Profile()
    profiler.enable()
    solve_point(problem, 0.0, X0, tol=1e-8)
    profiler.disable()
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out).strip_dirs()
    stats.sort_stats("tottime").print_stats(20)
    stats.sort_stats("cumulative").print_stats(20)
    print(f"Example I point x0 = {X0.tolist()}, status {rec.status}, V = {rec.V:.12g}, "
          f"mesh {rec.mesh} nodes")
    print(f"unprofiled solve: {plain:.3f} s")
    print(out.getvalue())


if __name__ == "__main__":
    main()
