import math

import numpy as np
import pytest

from subwave import processes
from subwave.processes import make_gauss_bump, make_ou
from subwave.wavelets import make_basis


@pytest.fixture(scope="session")
def haar():
    return make_basis("haar")


@pytest.fixture(scope="session")
def db2():
    return make_basis("daubechies:2")


@pytest.fixture(scope="session")
def db3():
    return make_basis("daubechies:3")


@pytest.fixture(scope="session")
def meyer():
    return make_basis("meyer")


@pytest.fixture(scope="session")
def ou1():
    return make_ou(1.0)


@pytest.fixture(scope="session")
def gauss_bump():
    return make_gauss_bump()


@pytest.fixture
def unchecked_memory(monkeypatch):
    """No physical-memory check, and a MemoryError from every ``np.empty``
    of more than 2^30 elements: the path of an allocation the machine
    refuses, with nothing allocated."""
    real = np.empty

    def empty(shape, *args, **kwargs):
        if math.prod(shape if isinstance(shape, tuple) else (shape,)) > 2**30:
            raise MemoryError("refused by the test")
        return real(shape, *args, **kwargs)

    monkeypatch.setattr(processes, "_physical_memory", lambda: math.inf)
    monkeypatch.setattr(np, "empty", empty)
