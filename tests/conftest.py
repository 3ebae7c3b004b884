"""Shared fixtures: small geometries reused across test modules."""

# first, before numpy loads, so the suite runs under the package's one-BLAS-thread default
import squintsbl  # noqa: F401

import numpy as np
import pytest

from squintsbl.config import default_config, desk_config
from squintsbl.evaluation import standard_operator


@pytest.fixture(scope="session")
def desk_cfg():
    return desk_config()


@pytest.fixture(scope="session")
def desk_op(desk_cfg):
    return standard_operator(desk_cfg)


@pytest.fixture(scope="session")
def tiny_cfg():
    # small enough that unrolled finite differences stay cheap
    return default_config(
        n_antennas=8, n_rf=2, n_uses=2, n_subcarriers=4,
        grid_angular=8, grid_delay=8, n_iterations=4,
    )


@pytest.fixture(scope="session")
def tiny_op(tiny_cfg):
    return standard_operator(tiny_cfg)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture
def rng():
    return np.random.default_rng(71)
