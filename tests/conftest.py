"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from debye_limit import flows


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


@pytest.fixture
def pb_counts(monkeypatch):
    """A list that gets one ``(newton_steps, cg_iterations)`` per PB solve.

    The flows look ``_solve_phi_values`` up on their module at call
    time, so wrapping it there counts every potential solve a run makes,
    with the counts the solver already returns.
    """
    counts = []
    real = flows._solve_phi_values

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        counts.append((out[2], out[3]))
        return out

    monkeypatch.setattr(flows, "_solve_phi_values", wrapper)
    return counts
