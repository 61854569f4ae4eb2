"""``SparseRows`` products against scipy's CSR products, bit for bit."""

import numpy as np
import pytest

from hyperideal.coherent import SparseRows, build_constraints
from hyperideal.pattern import probe

from .conftest import bundled_instance
from .oracles import lattice_disk, permuted, scipy_csr

BUNDLED = ("torus.json", "disk2.json", "fan3.json", "triangle.json", "triangle_infeasible.json")


def _spread(rng, shape):
    """Values over 16 orders of magnitude, so that a sum taken in another
    order than the stored one rounds differently."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)


def _assert_products_match(rows, rng):
    reference = scipy_csr(rows)
    m, n = rows.shape
    for x, y in ((_spread(rng, n), _spread(rng, m)), (_spread(rng, (n, 2)), _spread(rng, (m, 2)))):
        for found, expected in ((rows @ x, reference @ x), (rows.T @ y, reference.T @ y)):
            assert found.shape == expected.shape
            assert np.array_equal(found, expected)
    assert np.array_equal(rows.toarray(), reference.toarray())


def _system(name):
    if name.endswith(".json"):
        return build_constraints(*bundled_instance(name))
    tri, dm = lattice_disk(np.random.default_rng(1), int(name.split()[-1]))
    return build_constraints(tri, probe(tri, dm)[0])


@pytest.mark.parametrize("name", BUNDLED + ("lattice disk 5", "lattice disk 16"))  # T = 50, 512
def test_products_match_scipy(name):
    cs = _system(name)
    rng = np.random.default_rng(len(cs.b_eq))
    perm = permuted(cs, rng.permutation(len(cs.b_eq)), rng.permutation(len(cs.h_ineq)))
    for rows in (cs.a_eq, cs.g_ineq, perm.a_eq, perm.g_ineq):
        _assert_products_match(rows, rng)
        m = rows.shape[0]
        picks = (int(rng.integers(m)), rng.choice(m, m // 2, replace=False), rng.random(m) < 0.5)
        for pick in picks:
            found = rows[pick]
            assert np.array_equal(found.toarray(), scipy_csr(rows)[pick].toarray())
            _assert_products_match(found, rng)


def test_long_rows_and_columns_match_scipy():
    # 20 entries in row 0 and in column 0, unsorted: np.add.reduceat would
    # sum them pairwise, scipy and SparseRows one after another
    rng = np.random.default_rng(3)
    cols = np.concatenate([rng.permutation(20), np.zeros(19, dtype=int)])
    indptr = np.concatenate([[0], np.arange(20, 40)])
    rows = SparseRows(_spread(rng, 39), cols, indptr, (20, 20))
    _assert_products_match(rows, rng)
    _assert_products_match(rows[::-1], rng)
