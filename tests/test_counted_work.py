"""Counted work of the default ``check`` and of a small sweep, bounded from
above at the values the solvers reach today.

Call and iteration counts are the same in every run, where wall times
drift. A change that cuts work lowers these bounds and quotes the change
in CHANGES.md; a change that must raise one says why there.
"""

from debye_limit import cli
from debye_limit.experiments import SweepSpec, run_sweep
from debye_limit.flows import RunOptions
from debye_limit.initial import InitParams

WORK = ("transform calls", "PB solves", "Newton steps", "CG iterations")
# the default check: 121 state solves and 360 stage solves
CHECK_WORK = (3849, 481, 134, 298)
# three members of 40 steps at N = 64: 161 solves each
SWEEP_WORK = (4443, 483, 318, 874)


def _work(fft_calls, pb_counts):
    return (len(fft_calls), len(pb_counts), sum(newton for newton, _ in pb_counts),
            sum(cg for _, cg in pb_counts))


def _assert_within(got, bounds):
    over = {name: (value, bound) for name, value, bound in zip(WORK, got, bounds)
            if value > bound}
    assert not over, f"counted work above its bound (got, bound): {over}"


def test_default_check_work(tmp_path, capsys, fft_calls, pb_counts):
    assert cli.main(["check", "--out", str(tmp_path)]) == 0
    _assert_within(_work(fft_calls, pb_counts), CHECK_WORK)


def test_small_sweep_work(fft_calls, pb_counts):
    spec = SweepSpec(eps_list=(1e-1, 1e-2, 1e-4), n_points=64,
                     run=RunOptions(dt=1e-3, t_end=0.04, record_every=5),
                     init=InitParams(), s_list=(0, 1, 2), seed=0)
    report = run_sweep(spec)
    assert [row["status"] for row in report.rows] == ["OK"] * 3
    _assert_within(_work(fft_calls, pb_counts), SWEEP_WORK)

