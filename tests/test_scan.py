import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "ci" / "scan.py"
spec = importlib.util.spec_from_file_location("scan", SCRIPT)
scan = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scan)


def test_scan_covers_the_cartesian_grid_and_the_radial_ladder():
    cases = scan.inputs()
    keys = [scan.key(*case) for case in cases]
    assert len(keys) == len(set(keys)) == 546
    assert sum(case[0] == "cartesian" for case in cases) == 540
    assert [case[1] for case in cases if case[0] == "radial"] == \
        [129, 257, 513, 1025, 2049, 4097]


def test_scan_records_converged_and_stalled_inputs():
    # r = 2, t = 1e5 sits on the roundoff floor and stalls: it stays in the
    # scan as a known stall
    doc = scan.scan([("cartesian", 17, 2, "model_poincare", "z", 1.0),
                     ("cartesian", 17, 2, "model_poincare", "z", 1e5)])
    ok, stall = doc["inputs"]
    assert ok["key"] == "cartesian n=17 r=2 model_poincare q=z t=1"
    assert ok["status"] == "converged" and ok["newton"] == 3
    assert ok["residual"] <= 1e-10
    assert stall["status"] == "stalled" and stall["newton"] is None
    assert stall["residual"] > 1e-10
    assert (doc["converged"], doc["stalled"]) == (1, 1)


def _doc(*rows):
    return {"inputs": [{"key": k, "status": s, "newton": n, "seconds": 1.0}
                       for k, s, n in rows]}


def test_compare_lists_moved_inputs_and_lost_convergence():
    old = _doc(("a", "converged", 3), ("b", "converged", 4),
               ("c", "stalled", None), ("d", "converged", 5),
               ("e", "converged", 2))
    new = _doc(("a", "converged", 3), ("b", "converged", 5),
               ("c", "converged", 9), ("d", "stalled", None),
               ("f", "converged", 1))
    lines, lost = scan.compare(old, new)
    assert lines == ["b: converged in 4 steps -> converged in 5 steps",
                     "c: stalled -> converged in 9 steps",
                     "d: converged in 5 steps -> stalled",
                     "e: only in old", "f: only in new"]
    assert lost == ["d", "e"]


def test_compare_ignores_solve_times():
    old = _doc(("a", "converged", 3))
    new = _doc(("a", "converged", 3))
    new["inputs"][0]["seconds"] = 9.0
    assert scan.compare(old, new) == ([], [])
