"""Shared test-side references."""

import numpy as np
import pytest


@pytest.fixture
def numpy_law():
    """Per-pixel pre-sigmoid (mean, std) of a vanilla or independent sampler,
    written in plain numpy apart from the library's tape code."""

    def law(p):
        a = p.arrays
        if p.kind == "vanilla":
            return a["b"], np.sqrt((a["w"] ** 2).sum(axis=1))
        return a["mu"], np.logaddexp(0.0, a["sigma_raw"])

    return law
