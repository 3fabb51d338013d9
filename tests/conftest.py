import numpy as np
import pytest

from diracfem.discretization import Mesh


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def random_mesh(rng, n=6, lo=0.2, hi=1.5, start=0.5):
    """Non-uniform mesh with n interior nodes and element sizes in [lo, hi]."""
    h = rng.uniform(lo, hi, n + 1)
    nodes = start + np.concatenate([[0.0], np.cumsum(h)])
    return Mesh(nodes)


def uniform_mesh(a, b, n):
    nodes = np.linspace(a, b, n + 2)
    return Mesh(nodes)
