import numpy as np
import pytest

from udwrm import (
    DetectorParams,
    ResponseModel,
    WightmanKernel,
    accelerated,
    default_schedule,
    inertial,
)

DETECTOR = DetectorParams(omega=0.2, lam=1e-2)


@pytest.fixture(scope="session")
def detector():
    return DETECTOR


@pytest.fixture(scope="session")
def schedule():
    return default_schedule(sigma=1.0, repetitions=8)


@pytest.fixture(scope="session")
def inertial_kernel():
    return WightmanKernel(inertial())


@pytest.fixture(scope="session")
def accelerated_kernel():
    return WightmanKernel(accelerated(0.1))


@pytest.fixture(scope="session")
def full_model(inertial_kernel, schedule):
    """Inertial model shared across tests, so correction fractions are
    computed once."""
    return ResponseModel(inertial_kernel, schedule, DETECTOR)


@pytest.fixture(scope="session")
def full_accelerated_model(accelerated_kernel, schedule):
    return ResponseModel(accelerated_kernel, schedule, DETECTOR)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
