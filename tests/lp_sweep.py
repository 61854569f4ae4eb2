"""Max-slack LP sweep against HiGHS on seeded benchmark instances.

Per seed 1..24: ``perfbench.generators.tiny_set(rng, 13)`` (65 instances)
and 8 lattice tori of 50 triangles, alternately flat and cone, all drawn
from one ``numpy.random.default_rng(seed)``.  Every instance goes through
``probe`` and then ``find_max_slack`` and gets the checks of
``test_max_slack``: a coherent point whose slack is within 1e-9 of
``max_slack_highs``.  Since every instance is a probed metric, an
infeasible verdict fails too, as does any exception.  The sweep runs
twice: with the shipped ``LP_RESCUE_GAP``, and with ``LP_RESCUE_GAP = 0``,
so that an LP which reaches its optimum only by keeping its point after a
failed factorization fails as well.

Run from the repository root (pytest does not collect this module):

    PYTHONPATH=src python -m tests.lp_sweep

Both this sweep and ``tests.newton_sweep`` run with one BLAS thread unless
the environment says otherwise: two sweeps side by side on two cores with
a thread pool each took five times as long.
"""

import os
import sys
import time
import traceback

# before numpy is first imported, which fixes the BLAS thread count
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np

import hyperideal.coherent as coherent
from hyperideal.coherent import Infeasible
from perfbench.generators import lattice_torus, tiny_set

from .test_max_slack import _assert_agrees_with_highs, _probed_constraints

SEEDS = range(1, 25)


def instances(seed):
    rng = np.random.default_rng(seed)
    return tiny_set(rng, 13) + [lattice_torus(rng, 5, cone=k % 2) for k in range(8)]


def sweep(rescue_gap):
    """(instance count, failure messages) with ``LP_RESCUE_GAP`` set to
    ``rescue_gap`` for the duration of the sweep."""
    count, failures = 0, []
    shipped, coherent.LP_RESCUE_GAP = coherent.LP_RESCUE_GAP, rescue_gap
    try:
        for seed in SEEDS:
            for i, (tri, dm) in enumerate(instances(seed)):
                count += 1
                try:
                    found = _assert_agrees_with_highs(_probed_constraints(tri, dm))
                    assert not isinstance(found, Infeasible), f"infeasible ({found.reason})"
                except Exception:  # noqa: BLE001 - every failure is reported
                    failures.append(f"LP_RESCUE_GAP = {rescue_gap:g}, seed {seed} instance {i} "
                                    f"(T = {tri.triangle_count}):\n{traceback.format_exc()}")
    finally:
        coherent.LP_RESCUE_GAP = shipped
    return count, failures


def main():
    failed = False
    for rescue_gap in (coherent.LP_RESCUE_GAP, 0.0):
        start = time.perf_counter()
        count, failures = sweep(rescue_gap)
        for line in failures:
            print("FAIL", line)
        print(f"LP_RESCUE_GAP = {rescue_gap:g}: {count} instances, {len(failures)} failures, "
              f"{time.perf_counter() - start:.1f} s")
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
