"""Newton sweep: the range-space step against the dense null-space step.

Per seed 1..24, the 73 instances of ``tests.lp_sweep.instances`` (1752 in
all) are probed and get one max-slack start from ``find_coherent``.  Each
is then maximized from that start twice: with the shipped
``DENSE_KKT_MAX``, under which every one of them takes the dense branch,
and with ``DENSE_KKT_MAX = 0``, under which every Newton step and the
projector take the range-space step of the sparse branch.  Both runs must
end with the same status after the same number of iterations, at angles
within 1e-12; any exception fails the instance too.

Run from the repository root (pytest does not collect this module):

    PYTHONPATH=src python -m tests.newton_sweep
"""

import sys
import time
import traceback

import numpy as np

import hyperideal.coherent as coherent
from hyperideal.coherent import AngleSystem, build_constraints, find_coherent
from hyperideal.pattern import probe
from hyperideal.solve import maximize

from .lp_sweep import SEEDS, instances

ANGLE_TOL = 1e-12


def _maximize(tri, data, start, dense_kkt_max):
    shipped, coherent.DENSE_KKT_MAX = coherent.DENSE_KKT_MAX, dense_kkt_max
    try:
        cs = build_constraints(tri, data)
        x, report = maximize(tri, data, start, cs=cs)
        return x, report, cs.kkt.dense
    finally:
        coherent.DENSE_KKT_MAX = shipped


def compare(tri, dm):
    """Maximizes one probed instance on both branches from one start and
    checks that they agree."""
    data = probe(tri, dm)[0]
    start = find_coherent(build_constraints(tri, data))
    assert isinstance(start, AngleSystem), f"infeasible ({start.reason})"
    x_dense, dense, on_dense = _maximize(tri, data, start, coherent.DENSE_KKT_MAX)
    x_sparse, sparse, on_sparse = _maximize(tri, data, start, 0)
    assert on_dense and not on_sparse, "the two runs took the same branch"
    assert (dense.status, dense.iterations) == (sparse.status, sparse.iterations), (
        f"dense {dense.status} after {dense.iterations}, "
        f"range-space {sparse.status} after {sparse.iterations}")
    gap = float(np.max(np.abs(x_dense.values - x_sparse.values)))
    assert gap <= ANGLE_TOL, f"angles differ by {gap:.3e}"


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
