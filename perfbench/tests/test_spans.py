"""Unit tests for the benchmark's span arithmetic and metric names.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
from spans import PROBES, Probe, Tracer, self_time  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_self_time_without_children_is_duration():
    assert self_time(1.0, 4.0, []) == pytest.approx(3.0)


def test_self_time_subtracts_disjoint_children():
    assert self_time(0.0, 10.0, [(1.0, 2.0), (5.0, 8.0)]) == pytest.approx(6.0)


def test_self_time_counts_nested_children_once():
    # (2, 3) lies inside (1, 5): covered time is 4, not 5
    assert self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 3.0)]) == pytest.approx(6.0)


def test_self_time_merges_overlapping_children():
    assert self_time(0.0, 10.0, [(3.0, 6.0), (1.0, 4.0)]) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)
    assert self_time(2.0, 6.0, [(7.0, 9.0), (4.0, 4.0)]) == pytest.approx(4.0)


def test_self_time_is_zero_when_children_cover_everything():
    assert self_time(0.0, 2.0, [(0.0, 1.5), (1.0, 2.0)]) == pytest.approx(0.0)


def test_tracer_records_parents_and_self_time():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner(), inner()])
    outer()
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    agg = tracer.summary()
    assert agg["inner"]["calls"] == 2
    assert agg["inner"]["self_s"] == pytest.approx(agg["inner"]["s"])
    assert agg["outer"]["self_s"] == pytest.approx(
        agg["outer"]["s"] - agg["inner"]["s"])


def test_tracer_marks_raising_spans_failed():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    agg = tracer.summary()["boom"]
    assert (agg["calls"], agg["failed"]) == (1, 1)


def test_install_rebinds_every_import_site_and_uninstall_restores():
    import todakit.cli
    import todakit.grid

    orig = todakit.grid.build_grid
    tracer = Tracer()
    tracer.install((Probe("grid.build_grid", "todakit.grid", ("build_grid",)),))
    try:
        assert todakit.grid.build_grid is not orig
        assert todakit.cli.build_grid is todakit.grid.build_grid
        todakit.cli.build_grid("cartesian", 9, 0.5)
    finally:
        tracer.uninstall()
    assert todakit.grid.build_grid is orig and todakit.cli.build_grid is orig
    assert tracer.summary()["grid.build_grid"]["calls"] == 1


def test_missing_probe_target_is_an_absent_layer_not_an_error():
    tracer = Tracer()
    tracer.install((Probe("toda.gone", "todakit.toda", ("no_such_function",)),))
    tracer.uninstall()
    assert tracer.absent == ["toda.gone"]


def test_metric_and_span_names_are_valid():
    names = list(run.END_TO_END) + list(run.LAYER_METRICS)
    names += [p.span for p in PROBES]
    for name in names:
        assert NAME.match(name), name
    for unit in list(run.END_TO_END.values()) + [u for *_, u in run.LAYER_METRICS.values()]:
        assert UNIT.match(unit), unit
    assert len(set(run.END_TO_END) | set(run.LAYER_METRICS)) == \
        len(run.END_TO_END) + len(run.LAYER_METRICS)


def test_layer_metrics_read_probed_spans():
    spans = {p.span for p in PROBES}
    for span, _, _ in run.LAYER_METRICS.values():
        assert span is None or span in spans, span


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v[2] for k, v in run.LAYER_METRICS.items()}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
