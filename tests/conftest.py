import numpy as np
import pytest

from qcc import sdp
from qcc.sdp.projection import ProjectionResult


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def no_round_trip(monkeypatch):
    """Leave every alternating-projection round trip unsettled, so that a
    solve without ``optimum``, as decide() and ``qcc check`` run it,
    reaches the interior point, where a failure path can be forced."""
    monkeypatch.setattr(sdp, "solve_dykstra", lambda problem: ProjectionResult(False, None, 1.0, 1))
