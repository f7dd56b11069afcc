"""Fixtures shared by the test modules."""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from debye_limit import experiments, flows


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


def _keeping(real, kept):
    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        kept.append(out)
        return out
    return wrapper


def _keeping_records(real, returned, trajectories):
    """``evolve`` that appends each result to ``returned`` and each run, with
    every record kept, to ``trajectories``: a streamed run's records are
    copied as they pass its ``on_record`` consumer."""
    def wrapper(state, opts, on_record=None):
        if on_record is None:
            traj = real(state, opts)
            returned.append(traj)
            trajectories.append(traj)
            return traj
        records = []

        def keep(t, n, u, phi, norms):
            records.append((t, n.copy(), u.copy(), None if phi is None else phi.copy()))
            on_record(t, n, u, phi, norms)

        traj = real(state, opts, on_record=keep)
        t, n, u, phi = zip(*records)
        phi = [p for p in phi if p is not None]
        returned.append(traj)
        trajectories.append(replace(
            traj, t=np.array(t), n=np.array(n), u=np.array(u),
            phi=np.reshape(phi, (len(phi), traj.grid.n_points)) if opts.eps > 0.0 else None))
        return traj
    return wrapper


def _record_sweep(patch):
    """Wrap ``experiments.evolve`` and ``remainder_series`` through ``patch``.

    Returns the lists the wrappers fill, one entry per run a sweep
    integrates (the limit flow first, then each member's full flow):
    ``returned`` gets what ``evolve`` returned (a member streams its
    records and keeps the last) and ``trajectories`` the run with every
    record kept; ``remainders`` gets every member's remainder stack.
    """
    records = SimpleNamespace(returned=[], trajectories=[], remainders=[])
    patch.setattr(experiments, "evolve", _keeping_records(
        experiments.evolve, records.returned, records.trajectories))
    patch.setattr(experiments, "remainder_series",
                  _keeping(experiments.remainder_series, records.remainders))
    return records


@pytest.fixture
def sweep_records(monkeypatch):
    """The runs and remainder stacks an in-process sweep builds.

    A sweep member reduces them to series and keeps none of them, but
    ``experiments`` looks ``evolve`` and ``remainder_series`` up on its
    module at call time, so wrapping them there keeps every one for the
    test (see ``_record_sweep``). Pool workers (``jobs > 1``) record
    into their own copies, so sweeps read through this run with
    ``jobs=1``.
    """
    return _record_sweep(monkeypatch)


@pytest.fixture(scope="session")
def record_sweep():
    """``_record_sweep`` for module-scoped fixtures, which patch through
    their own ``pytest.MonkeyPatch.context()``."""
    return _record_sweep


@pytest.fixture
def peak_alloc():
    """A function that calls ``fn(*args, **kwargs)`` and returns the peak of
    traced memory during the call, in bytes above what was traced before it.

    numpy reports its array buffers to ``tracemalloc``, so the peak counts
    them with the Python objects.
    """
    def measure(fn, *args, **kwargs):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
    return measure
