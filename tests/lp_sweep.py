"""Max-slack LP sweep against HiGHS on seeded benchmark instances.

Per seed 1..24: ``perfbench.generators.tiny_set(rng, 13)`` (65 instances)
and 8 lattice tori of 50 triangles, alternately flat and cone, all drawn
from one ``numpy.random.default_rng(seed)``.  Every instance goes through
``probe`` and then ``find_coherent`` and gets the checks of
``test_max_slack``: a coherent point whose slack is within 1e-9 of
``max_slack_highs``.  Since every instance is a probed metric, an
infeasible verdict fails too, as does any exception.

Run from the repository root (pytest does not collect this module):

    PYTHONPATH=src python -m tests.lp_sweep
"""

import sys
import time
import traceback

import numpy as np

from hyperideal.coherent import Infeasible
from perfbench.generators import lattice_torus, tiny_set

from .test_max_slack import _assert_agrees_with_highs, _probed_constraints

SEEDS = range(1, 25)


def instances(seed):
    rng = np.random.default_rng(seed)
    return tiny_set(rng, 13) + [lattice_torus(rng, 5, cone=k % 2) for k in range(8)]


def sweep():
    """(instance count, failure messages)."""
    count, failures = 0, []
    for seed in SEEDS:
        for i, (tri, dm) in enumerate(instances(seed)):
            count += 1
            try:
                found = _assert_agrees_with_highs(_probed_constraints(tri, dm))
                assert not isinstance(found, Infeasible), f"infeasible ({found.reason})"
            except Exception:  # noqa: BLE001 - every failure is reported
                failures.append(f"seed {seed} instance {i} (T = {tri.triangle_count}):\n"
                                f"{traceback.format_exc()}")
    return count, failures


def main():
    start = time.perf_counter()
    count, failures = sweep()
    for line in failures:
        print("FAIL", line)
    print(f"{count} instances, {len(failures)} failures, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
