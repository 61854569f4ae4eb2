"""Newton sweep: the early start against the max-slack start, and the
dense against the sparse factorization of the range-space step.

Per seed 1..24, the 73 instances of ``tests.lp_sweep.instances`` (1752 in
all) are probed and get two starts: the max-slack point of
``find_max_slack`` and the early start of the solve path, the LP's first
strictly coherent iterate after its first step (``find_coherent``).  Newton
maximizes each instance three times:

* from the max-slack start with the shipped ``DENSE_KKT_MAX``, under which
  every instance factorizes its range-space matrix S with numpy, and with
  ``DENSE_KKT_MAX = 0``, under which it takes ``splu`` of the same S: both
  runs must end with the same status after the same number of iterations,
  at angles within 1e-12;
* from the early start with the shipped ``DENSE_KKT_MAX``: the same status
  as from the max-slack start, at angles within 1e-11 (the iteration count
  may differ).

Any exception fails the instance too.

Run from the repository root (pytest does not collect this module):

    PYTHONPATH=src python -m tests.newton_sweep
"""

import sys
import time
import traceback

from .lp_sweep import SEEDS, instances  # first: it pins one BLAS thread before numpy loads

import numpy as np

import hyperideal.coherent as coherent
from hyperideal.coherent import AngleSystem, build_constraints, find_coherent, find_max_slack
from hyperideal.pattern import probe
from hyperideal.solve import maximize

BRANCH_TOL = 1e-12
START_TOL = 1e-11


def _maximize(tri, data, start, dense_kkt_max):
    shipped, coherent.DENSE_KKT_MAX = coherent.DENSE_KKT_MAX, dense_kkt_max
    try:
        cs = build_constraints(tri, data)
        x, report = maximize(tri, data, start, cs=cs)
        return x, report, cs.kkt.dense
    finally:
        coherent.DENSE_KKT_MAX = shipped


def compare(tri, dm):
    """Maximizes one probed instance from both starts and on both
    factorizations, and checks that they agree."""
    data = probe(tri, dm)[0]
    cs = build_constraints(tri, data)
    start, early = find_max_slack(cs), find_coherent(cs)
    assert isinstance(start, AngleSystem), f"infeasible ({start.reason})"
    assert isinstance(early, AngleSystem), f"no early start ({early.reason})"
    x_dense, dense, on_dense = _maximize(tri, data, start, coherent.DENSE_KKT_MAX)
    x_sparse, sparse, on_sparse = _maximize(tri, data, start, 0)
    assert on_dense and not on_sparse, "the two runs took the same branch"
    assert (dense.status, dense.iterations) == (sparse.status, sparse.iterations), (
        f"dense {dense.status} after {dense.iterations}, "
        f"sparse {sparse.status} after {sparse.iterations}")
    gap = float(np.max(np.abs(x_dense.values - x_sparse.values)))
    assert gap <= BRANCH_TOL, f"dense and sparse angles differ by {gap:.3e}"
    x_early, from_early, _ = _maximize(tri, data, early, coherent.DENSE_KKT_MAX)
    assert from_early.status == dense.status, (
        f"{from_early.status} from the early start, {dense.status} from the max-slack start")
    gap = float(np.max(np.abs(x_early.values - x_dense.values)))
    assert gap <= START_TOL, f"angles from the two starts differ by {gap:.3e}"


def main():
    start = time.perf_counter()
    count, failures = 0, []
    for seed in SEEDS:
        for i, (tri, dm) in enumerate(instances(seed)):
            count += 1
            try:
                compare(tri, dm)
            except Exception:  # noqa: BLE001 - every failure is reported
                failures.append(f"seed {seed} instance {i} (T = {tri.triangle_count}):\n"
                                f"{traceback.format_exc()}")
    for line in failures:
        print("FAIL", line)
    print(f"Newton sweep: {count} instances, {len(failures)} failures, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
