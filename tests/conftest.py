import numpy as np
import pytest

from semcert.tensor import ImageTensor


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def image_9x9(rng):
    return ImageTensor(rng.random((1, 9, 9)))

