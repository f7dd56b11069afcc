"""The pairing arithmetic of tools/bench_record.py, on hand-made result objects."""

import importlib.util
import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools")
BETTER = {"wall_s": "lower", "steps_per_s": "higher", "setup_s": "lower",
          "peak_rss_mb": "lower"}


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", os.path.join(TOOLS, "bench_record.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(wall_s, steps_per_s, correct=True, counts=None):
    metrics = {"w/wall_s": (wall_s, "s"), "w/steps_per_s": (steps_per_s, "1/s"),
               "w/setup_s": (0.25, "s"), "w/peak_rss_mb": (30.0, "MB"),
               **{key: (value, "count") for key, value in (counts or {}).items()}}
    return {"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()}}


def _runner(results):
    """A ``run(side, trace)`` that hands out ``results[side]`` in turn, or
    ``results[side + "_traced"]`` for a traced run, and logs each call."""
    calls, queues = [], {side: iter(values) for side, values in results.items()}

    def run(side, trace):
        calls.append((side, trace))
        return {"call": len(calls)}, next(queues[side if trace == 0 else f"{side}_traced"])
    return run, calls


def _traced(counts=None, correct=True, again=None):
    """A side's two traced runs; the second reads ``again`` if given."""
    return [_result(9.0, 1.0, correct, counts),
            _result(9.0, 1.0, correct, counts if again is None else again)]


def test_pairs_alternate_and_are_summarized(bench_record):
    run, calls = _runner({
        "parent": [_result(1.0, 10.0)] * 4,
        "change": [_result(w, s) for w, s in ((0.5, 20.0), (1.0, 10.0),
                                              (2.0, 5.0), (0.5, 10.0))],
        "parent_traced": _traced({"w/grid.fft_calls": 7}),
        "change_traced": _traced({"w/grid.fft_calls": 5}),
    })
    body = bench_record.record_pairs(run, BETTER, 4)
    # the parent first in even pairs, then two traced runs a side, alternated
    # with the parent's first
    assert calls == [("parent", 0), ("change", 0), ("change", 0), ("parent", 0),
                     ("parent", 0), ("change", 0), ("change", 0), ("parent", 0),
                     ("parent", 1), ("change", 1), ("parent", 1), ("change", 1)]
    assert [pair["first"] for pair in body["pairs"]] == ["parent", "change"] * 2
    assert body["machine"] == {"call": 1}
    assert body["trace1"]["change"]["metrics"]["w/wall_s"]["value"] == 9.0
    assert body["counts"] == {"w/grid.fft_calls": {"parent": 7, "change": 5,
                                                   "difference": -2}}
    assert body["count_mismatches"] == {}
    assert body["correct"] is True

    summary = body["summary"]
    # a metric without a direction, here a per-layer count, is not summarized
    assert set(summary) == {"w/wall_s", "w/steps_per_s", "w/setup_s",
                            "w/peak_rss_mb", "w/compute_s"}
    wall = summary["w/wall_s"]
    assert wall["ratios"] == [0.5, 1.0, 2.0, 0.5]
    assert (wall["wins"], wall["losses"]) == (2, 1)  # the tie counts for neither
    assert (wall["parent_median"], wall["change_median"], wall["parent_iqr"]) == (
        1.0, 0.75, 0.0)
    steps = summary["w/steps_per_s"]  # higher is better
    assert (steps["better"], steps["wins"], steps["losses"]) == ("higher", 1, 1)
    rss = summary["w/peak_rss_mb"]
    assert (rss["wins"], rss["losses"]) == (0, 0)
    # compute_s = wall_s - setup_s on each side: 0.75 at the parent
    compute = summary["w/compute_s"]
    assert compute["better"] == "lower"
    assert compute["ratios"] == pytest.approx([1 / 3, 1.0, 7 / 3, 1 / 3])
    assert (compute["wins"], compute["losses"]) == (2, 1)


@pytest.mark.parametrize("bad", ["parent", "change", pytest.param("change_traced", id="traced"),
                                 "parent_traced"])
def test_a_run_that_is_not_correct_marks_the_record(bench_record, bad):
    results = {side: [_result(1.0, 10.0)] * 2 for side in ("parent", "change")}
    results.update(parent_traced=_traced(), change_traced=_traced())
    results[bad] = [_result(1.0, 10.0, correct=False)] + results[bad][1:]
    run, _ = _runner(results)
    body = bench_record.record_pairs(run, BETTER, 2)
    assert body["correct"] is False
    assert body["summary"]["w/wall_s"]["ratios"] == [1.0, 1.0]


def test_counts_pair_every_count_metric_of_the_traced_runs(bench_record):
    # only unit "count" metrics are paired; one missing on a side (a span a
    # refactor removed) is written with no difference
    run, _ = _runner({
        "parent": [_result(1.0, 10.0)] * 2, "change": [_result(1.0, 10.0)] * 2,
        "parent_traced": _traced({"a/grid.fft_calls": 4081, "b/flows.steps": 240,
                                  "a/poisson.solve_calls": 481}),
        "change_traced": _traced({"a/grid.fft_calls": 3849, "b/flows.steps": 240}),
    })
    counts = bench_record.record_pairs(run, BETTER, 2)["counts"]
    assert counts == {
        "a/grid.fft_calls": {"parent": 4081, "change": 3849, "difference": -232},
        "a/poisson.solve_calls": {"parent": 481, "change": None, "difference": None},
        "b/flows.steps": {"parent": 240, "change": 240, "difference": 0},
    }


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_count_that_does_not_repeat_marks_the_record(bench_record, side):
    # a count is a function of the tree, so a second traced run of one tree
    # that reads another value (here one more transform call) is a fault
    counts = {"a/grid.fft_calls": 3849, "a/flows.steps": 240}
    run, _ = _runner({
        "parent": [_result(1.0, 10.0)] * 2, "change": [_result(1.0, 10.0)] * 2,
        "parent_traced": _traced(counts), "change_traced": _traced(counts),
        f"{side}_traced": _traced(counts, again={**counts, "a/grid.fft_calls": 3850}),
    })
    body = bench_record.record_pairs(run, BETTER, 2)
    assert body["count_mismatches"] == {side: {"a/grid.fft_calls": [3849, 3850]}}
    assert body["correct"] is False
    # the counts paired across sides are the first traced run's
    assert body["counts"]["a/grid.fft_calls"]["difference"] == 0
