"""Fixtures shared by the test modules."""

import numpy as np
import pytest


def _counting(name, real, calls):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    return wrapper


@pytest.fixture
def fft_calls(monkeypatch):
    """A list that gets one entry per ``np.fft.rfft`` or ``irfft`` call.

    The package looks both transforms up on ``np.fft`` at call time, so
    wrapping them there counts every real transform it makes, however
    many rows one call carries.
    """
    calls = []
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name,
                            _counting(name, getattr(np.fft, name), calls))
    return calls
