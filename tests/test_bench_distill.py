import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "ci" / "bench_distill.py"
spec = importlib.util.spec_from_file_location("bench_distill", SCRIPT)
bench_distill = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_distill)

UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "ok_frac": "ratio",
         "peak_rss_mb": "MB"}


def _write_run(directory, workload, seed, wall, ok=1.0):
    directory.mkdir(exist_ok=True)
    values = {"setup_s": 1.0, "wall_s": wall, "cpu_s": wall, "ok_frac": ok,
              "peak_rss_mb": 100.0}
    rec = {"workload": workload, "seed": seed, "seconds": 15, "trace": 0,
           "machine": {"nproc": 2, "cpu_model": "cpu",
                       "thread_env": {"OMP_NUM_THREADS": "1"}},
           "versions": {"python": "3", "numpy": "2", "scipy": "1"},
           "metrics": {k: {"value": v, "unit": UNITS[k]}
                       for k, v in values.items()}}
    name = f"{workload}-seed{seed}-trace0.json"
    (directory / name).write_text(json.dumps(rec))


def test_distill_reports_medians_quartiles_and_pairs(tmp_path):
    walls = {"parent": [4.0, 3.0, 5.0, 4.0],
             "change": [2.0, 3.5, 2.5, 4.0],
             "copy": [4.5, 3.5, 4.0, 4.2]}
    for tree, ws in walls.items():
        for seed, wall in zip((11, 12, 13, 14), ws):
            _write_run(tmp_path / tree, "artifacts", seed, wall)
    # a seed the change never ran is left out of every tree's numbers
    _write_run(tmp_path / "parent", "artifacts", 15, 9.0)
    out = tmp_path / "BENCH.json"
    assert bench_distill.main(
        ["--parent", str(tmp_path / "parent"),
         "--change", str(tmp_path / "change"),
         "--parent-copy", str(tmp_path / "copy"), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["trees"] == ["parent", "change", "parent_copy"]
    assert doc["nproc"] == 2 and doc["versions"]["numpy"] == "2"
    art = doc["workloads"]["artifacts"]
    assert art["seeds"] == [11, 12, 13, 14]
    wall = art["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 4.0, "q1": 3.75, "q3": 4.25, "runs": 4}
    assert wall["change"]["median"] == 3.0
    assert wall["change_vs_parent"] == pytest.approx(-0.25)
    # lower is better: seeds 11 and 13 won, 12 lost, 14 tied
    assert (wall["pairs_won"], wall["pairs_lost"]) == (2, 1)
    ok = art["metrics"]["ok_frac"]
    assert (ok["pairs_won"], ok["pairs_lost"]) == (0, 0)


def test_distill_needs_records(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(SystemExit):
        bench_distill.load_records(str(tmp_path / "empty"))
