import numpy as np
import pytest

from wulff_lab import (
    EllipsoidNorm,
    EuclideanNorm,
    PerturbedNorm,
    make_grid,
)


@pytest.fixture(scope="session")
def grid256():
    return make_grid(1, 256)


@pytest.fixture(scope="session")
def grid512():
    return make_grid(1, 512)


@pytest.fixture(scope="session")
def grid2_32():
    return make_grid(2, 32)


@pytest.fixture(scope="session")
def euclid2():
    return EuclideanNorm(2)


@pytest.fixture(scope="session")
def euclid3():
    return EuclideanNorm(3)


@pytest.fixture(scope="session")
def ellipse2():
    # dual unit ball is the ellipse with semi-axes (2, 1)
    return EllipsoidNorm(np.diag([4.0, 1.0]))


@pytest.fixture(scope="session")
def ellipse3():
    return EllipsoidNorm(np.diag([4.0, 2.25, 1.0]))


@pytest.fixture(scope="session")
def tilted2():
    # ellipsoid norm whose axes are not the coordinate axes
    return EllipsoidNorm(np.array([[3.0, 0.8], [0.8, 1.5]]))


@pytest.fixture(scope="session")
def tilted3():
    return EllipsoidNorm(np.array([[4.0, 0.5, 0.3],
                                   [0.5, 2.25, -0.4],
                                   [0.3, -0.4, 1.0]]))


@pytest.fixture(scope="session")
def perturbed2():
    return PerturbedNorm(2, 0.1)


@pytest.fixture(scope="session")
def perturbed3():
    return PerturbedNorm(3, 0.1)
