from importlib import resources

import numpy as np
import pytest

from hyperideal.surface import parse_problem


def bundled_text(name):
    return resources.files("hyperideal").joinpath(f"instances/{name}").read_text()


def bundled_instance(name):
    return parse_problem(bundled_text(name))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

