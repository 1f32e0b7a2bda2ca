import json
import subprocess
import sys

import pytest

from todakit.cli import main

WEIGHT = '{"kind": "poly", "r": 2, "coeffs": [[0, 0], [1, 0]]}'
GRID = '{"mode": "cartesian", "n": 17, "rho_max": 0.9}'


def run_cli(*argv):
    return main(list(argv))


def test_solve_writes_solution(tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = run_cli("solve", "--weight", WEIGHT, "--grid", GRID,
                   "--out", str(out))
    assert code == 0
    assert out.exists()
    doc = json.loads(out.read_text())
    assert doc["schema"] == "toda-solution/1"
    assert doc["r"] == 2
    msg = capsys.readouterr().out
    assert "solved r=2" in msg and "residual" in msg


def test_solve_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("solve", "--weight", WEIGHT, "--grid", GRID,
                   "--out", str(a)) == 0
    assert run_cli("solve", "--weight", WEIGHT, "--grid", GRID,
                   "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_defaults_to_solution_json(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("solve", "--weight", WEIGHT, "--grid", GRID) == 0
    assert (tmp_path / "solution.json").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "weight": json.loads(WEIGHT),
        "grid": {"mode": "cartesian", "n": 17, "rho_max": 0.9},
        "out": str(tmp_path / "from_config.json"),
    }))
    assert run_cli("solve", "--config", str(cfg)) == 0
    assert (tmp_path / "from_config.json").exists()

    # flags win over the config file
    flag_out = tmp_path / "flag.json"
    assert run_cli("solve", "--config", str(cfg), "--out", str(flag_out)) == 0
    assert flag_out.exists()


def test_weight_argument_accepts_file(tmp_path):
    wfile = tmp_path / "w.json"
    wfile.write_text(WEIGHT)
    out = tmp_path / "sol.json"
    assert run_cli("solve", "--weight", str(wfile), "--grid", GRID,
                   "--out", str(out)) == 0


def test_boundary_flag_reaches_solver(tmp_path):
    out = tmp_path / "ex.json"
    code = run_cli("solve", "--weight", WEIGHT, "--grid",
                   '{"mode": "cartesian", "n": 33, "rho_max": 0.9}',
                   "--boundary", "exhaustion", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["boundary_strategy"] == "exhaustion"
    assert len(doc["exhaustion_drifts"]) == 2


def test_schema_violation_exits_two(tmp_path, capsys):
    code = run_cli("solve", "--weight",
                   '{"kind": "poly", "r": 0, "coeffs": [[0, 0], [1, 0]]}',
                   "--grid", GRID, "--out", str(tmp_path / "x.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert "config error at /weight/r" in err


def test_missing_required_key_exits_two(capsys):
    code = run_cli("solve", "--grid", GRID)
    assert code == 2
    assert "config error at /weight" in capsys.readouterr().err


def test_malformed_inline_json_exits_two(capsys):
    code = run_cli("solve", "--weight", "{oops", "--grid", GRID)
    assert code == 2
    assert "config error at /weight" in capsys.readouterr().err


def test_unknown_config_key_exits_two(tmp_path, capsys):
    code = run_cli("solve", "--weight",
                   '{"kind": "poly", "r": 2, "coeffs": [[0, 0]], "zap": 1}',
                   "--grid", GRID, "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("initial", "model"),
                                        ("armijo_factor", 0.5),
                                        ("max_halvings", 20),
                                        ("continuation_steps", 3)])
def test_retired_solver_key_exits_two(tmp_path, capsys, key, value):
    cfg = tmp_path / "retired.json"
    cfg.write_text(json.dumps({"solver": {key: value}}))
    out = tmp_path / "x.json"
    code = run_cli("solve", "--config", str(cfg), "--weight", WEIGHT,
                   "--grid", GRID, "--out", str(out))
    assert code == 2
    assert not out.exists()
    assert "config error at /solver" in capsys.readouterr().err


@pytest.mark.parametrize("text", [None, "{oops", "[1, 2]"])
def test_unreadable_config_file_exits_two(tmp_path, capsys, text):
    # a missing file, invalid JSON and a non-object all point at --config
    cfg = tmp_path / "bad.json"
    if text is not None:
        cfg.write_text(text)
    code = run_cli("solve", "--config", str(cfg), "--weight", WEIGHT,
                   "--grid", GRID, "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "config error at /config" in capsys.readouterr().err


def test_stalled_solve_exits_three_with_history(tmp_path, capsys):
    out = tmp_path / "stuck.json"
    cfg = tmp_path / "hard.json"
    cfg.write_text(json.dumps({
        "solver": {"max_iterations": 3},
    }))
    code = run_cli("solve", "--config", str(cfg), "--weight",
                   '{"kind": "poly", "r": 2, "t": 1e8, "coeffs": [[0, 0], [1, 0]]}',
                   "--grid", GRID, "--out", str(out))
    assert code == 3
    assert not out.exists()
    hist = tmp_path / "stuck.residual_history.json"
    assert hist.exists()
    doc = json.loads(hist.read_text())
    assert doc["schema"] == "residual-history/1"
    assert len(doc["residual_history"]) >= 1
    err = capsys.readouterr().err
    assert "solver did not converge" in err
    assert "residual history" in err


STALL_WEIGHT = {"kind": "poly", "r": 2, "t": 1e8, "coeffs": [[0, 0], [1, 0]]}
STALL_SOLVER = {"max_iterations": 3}


def test_stalled_solve_history_goes_next_to_config_out(tmp_path, capsys,
                                                       monkeypatch):
    # the output path comes from the config file, not the --out flag
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"weight": STALL_WEIGHT,
                               "grid": json.loads(GRID),
                               "solver": STALL_SOLVER, "out": "out/x.json"}))
    assert run_cli("solve", "--config", str(cfg)) == 3
    assert (tmp_path / "out" / "x.residual_history.json").exists()
    assert not (tmp_path / "solve.residual_history.json").exists()
    assert "out/x.residual_history.json" in capsys.readouterr().err


def test_stalled_thermo_history_goes_next_to_default_out(tmp_path,
                                                         monkeypatch):
    # with no output path given, next to the command's default, thermo.csv
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"solver": STALL_SOLVER}))
    code = run_cli("thermo", "--config", str(cfg), "--weight",
                   json.dumps(STALL_WEIGHT), "--grid", GRID)
    assert code == 3
    assert (tmp_path / "thermo.residual_history.json").exists()
    assert not (tmp_path / "thermo.csv").exists()


def test_solve_past_n257_exits_zero(tmp_path):
    out = tmp_path / "fine.json"
    code = run_cli("solve", "--weight", WEIGHT, "--grid",
                   '{"mode": "cartesian", "n": 289, "rho_max": 0.9}',
                   "--out", str(out))
    assert code == 0
    assert out.exists()
    assert not (tmp_path / "fine.residual_history.json").exists()


def test_thermo_inline_and_from_solution(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    assert run_cli("solve", "--weight", WEIGHT, "--grid", GRID,
                   "--out", str(sol)) == 0
    c1 = tmp_path / "direct.csv"
    c2 = tmp_path / "reused.csv"
    assert run_cli("thermo", "--weight", WEIGHT, "--grid", GRID,
                   "--beta", "1", "--out", str(c1)) == 0
    assert run_cli("thermo", "--solution", str(sol), "--beta", "1",
                   "--out", str(c2)) == 0
    assert c1.read_bytes() == c2.read_bytes()
    lines = c1.read_text().splitlines()
    assert lines[0] == "# r=2"
    assert lines[5] == "x,y,p_0,p_1,S,F,R"
    assert "lower redundancy" in capsys.readouterr().out


def test_thermo_rejects_multiple_betas(tmp_path, capsys):
    code = run_cli("thermo", "--weight", WEIGHT, "--grid", GRID,
                   "--beta", "1,-1", "--out", str(tmp_path / "t.csv"))
    assert code == 2
    assert "config error at /beta" in capsys.readouterr().err


def test_model_command_output(capsys):
    assert run_cli("model", "--r", "4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda"] == [3, 4, 3]
    assert doc["beta"] == 1
    assert doc["S_model"] == pytest.approx(1.0888999753452238, abs=1e-15)
    assert doc["entropy_limit"] == pytest.approx(-0.1250928025613878, abs=1e-12)


def test_model_negative_beta_markers(capsys, tmp_path):
    out = tmp_path / "mc.json"
    assert run_cli("model", "--r", "3", "--beta", "-2", "--out", str(out)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entropy_limit"] == "-inf"
    assert json.loads(out.read_text()) == doc


def test_sweep_csv_contract(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--weight", WEIGHT, "--grid", GRID,
                   "--t-values", "1,0.5", "--beta", "1,-1",
                   "--jobs", "1", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# weight=")
    assert lines[1].startswith("# grid=")
    assert lines[2] == "# reference=flat"
    assert lines[3] == "t,beta,inf_S,sup_S,inf_F,sup_F,lower_redundancy"
    rows = [ln.split(",") for ln in lines[4:]]
    assert len(rows) == 4  # two amplitudes x two betas
    keys = [(float(r[0]), float(r[1])) for r in rows]
    assert keys == sorted(keys)
    # rank-2 negative beta collapses onto the single live slot
    for r in rows:
        if float(r[1]) == -1.0:
            assert float(r[2]) == 0.0 and float(r[6]) == 1.0


@pytest.mark.parametrize("flags", [
    pytest.param(("--grid", GRID), id="cartesian"),
    pytest.param(("--grid", GRID, "--boundary", "exhaustion"), id="exhaustion"),
    pytest.param(("--grid", json.dumps({"mode": "radial", "n": 65,
                                        "rho_max": 0.9})), id="radial")])
def test_sweep_parallel_matches_serial(tmp_path, flags):
    # each worker solves on the plan it builds when it starts: a one-stage,
    # a three-stage and a radial plan give the serial sweep's bytes
    serial = tmp_path / "serial.csv"
    par = tmp_path / "par.csv"
    args = ("sweep", "--weight", WEIGHT, *flags, "--t-values", "0.5,1,2",
            "--beta", "1")
    assert run_cli(*args, "--jobs", "1", "--out", str(serial)) == 0
    assert run_cli(*args, "--jobs", "2", "--out", str(par)) == 0
    assert serial.read_bytes() == par.read_bytes()


def test_sweep_builds_its_inputs_once(tmp_path, monkeypatch):
    # the parent builds the grid once and hands the workers built inputs;
    # a serial sweep builds one system and one red-black split per stage
    # (three, on the exhaustion ladder) for all its amplitudes
    import todakit.cli
    import todakit.toda

    calls = {"build_grid": [], "_System": [], "_RedBlack": []}
    for module, name in ((todakit.cli, "build_grid"),
                         (todakit.toda, "_System"),
                         (todakit.toda, "_RedBlack")):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name].append(args or kwargs)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert run_cli("sweep", "--weight", WEIGHT, "--grid", GRID,
                   "--boundary", "exhaustion", "--t-values", "0.5,1,2",
                   "--jobs", "1", "--out", str(tmp_path / "s.csv")) == 0
    assert {name: len(c) for name, c in calls.items()} == {
        "build_grid": 1, "_System": 3, "_RedBlack": 3}


SOLVE = ("solve", "--weight", WEIGHT, "--grid", GRID)
SWEEP = ("sweep", "--weight", WEIGHT, "--grid", GRID, "--jobs", "1")


def _weight(**fields):
    return json.dumps({**json.loads(WEIGHT), **fields})


def _grid(**fields):
    return json.dumps({**json.loads(GRID), **fields})


SAMPLES3 = '{"kind": "grid", "r": 2, "samples": [1, 1, 1]}'
ZERO_FLAT = ("--boundary", "weight_flat", "--weight", '{"kind": "zero", "r": 2}',
             "--grid", GRID)
RADIAL_BINOMIAL = ("--weight",
                   '{"kind": "poly", "r": 2, "coeffs": [[1, 0], [1, 0]]}',
                   "--grid", _grid(mode="radial"))
FLAT_PAST_DISC = ("--boundary", "weight_flat",
                  "--weight", '{"kind": "constant", "r": 2, "value": 1}',
                  "--grid", _grid(rho_max=2))


# A dict in argv is written to a config file and passed as --config: it
# holds what no flag can express.
@pytest.mark.parametrize("argv, pointer", [
    (SWEEP + ("--t-values", "1,inf"), "/t_values"),
    (("thermo", "--weight", WEIGHT, "--grid", GRID, "--beta", "nan"),
     "/beta"),
    (("model", "--r", "3", "--beta", "inf"), "/beta"),
    (("solve", "--weight", _weight(r=0), "--grid", GRID), "/weight/r"),
    (("solve", "--weight", _weight(t=0), "--grid", GRID), "/weight/t"),
    (("solve", "--weight", _weight(kind="bogus"), "--grid", GRID),
     "/weight/kind"),
    (("solve", "--weight", _weight(coeffs=[0, 1]), "--grid", GRID),
     "/weight/coeffs"),
    (("solve", "--weight", _weight(coeffs=5), "--grid", GRID),
     "/weight/coeffs"),
    (("solve", "--weight", _weight(zap=1), "--grid", GRID), "/weight"),
    (("solve", "--grid", GRID, {"weight": "x"}), "/weight"),
    (("solve", "--weight", WEIGHT, "--grid", _grid(n=4)), "/grid/n"),
    (("solve", "--weight", WEIGHT, "--grid", _grid(zap=1)), "/grid"),
    (("solve", "--weight", WEIGHT, "--grid",
      '{"mode": "cartesian", "n": 17}'), "/grid"),
    (SOLVE + ({"solver": {"provided_w": [[0.0]]}},), "/solver"),
    (SOLVE + ({"solver": {"continuation_steps": 3}},), "/solver"),
    (SOLVE + ("--boundary", "exhaustion", {"solver": "x"}), "/solver"),
    (SOLVE + ({"solver": {"max_iterations": 0}},), "/solver/max_iterations"),
    (SOLVE + ({"solver": {"tolerance": 2}},), "/solver/tolerance"),
    (SOLVE + ({"out": 5},), "/out"),
    (("thermo", {"solution": 3}), "/solution"),
    (("plot", "absent.csv", {"column": 3}), "/column"),
    (("thermo", "--weight", WEIGHT, "--grid", GRID,
      {"reference": "bogus"}), "/reference"),
    (("verify", {"suite": "bogus"}), "/suite"),
    (("verify", "--seed", "-1"), "/seed"),
    (SWEEP[:-2] + ("--t-values", "1", "--jobs", "0"), "/jobs"),
    (SWEEP[:-2] + ("--t-values", "1", {"jobs": "2"}), "/jobs"),
    (("model", "--r", "1"), "/r"),
    (("model", {"r": "3"}), "/r"),
    (SWEEP + ("--t-values", "1", {"beta": ["x"]}), "/beta"),
    (SWEEP + ("--t-values", "1", {"beta": [True]}), "/beta"),
    (SWEEP + ("--t-values", "1", {"beta": []}), "/beta"),
    (SWEEP + ({"t_values": []},), "/t_values"),
    (SWEEP + ({"t_values": ["1"]},), "/t_values"),
    (SWEEP + ({"t_values": [[1]]},), "/t_values"),
    (("thermo", "--solution", "missing.json"), "/solution"),
    # integers too large for a float
    (("solve", "--weight", '{"kind": "constant", "r": 2, "value": 1%s}'
      % ("0" * 400), "--grid", GRID), "/weight/value"),
    (("solve", "--weight", WEIGHT, "--grid", _grid(rho_max=10 ** 400)),
     "/grid/rho_max"),
    (("thermo", "--weight", WEIGHT, "--grid", GRID, {"beta": [10 ** 400]}),
     "/beta"),
    # grids with more nodes than build_grid accepts
    (("solve", "--weight", WEIGHT, "--grid", _grid(mode="radial", n=10 ** 20)),
     "/grid/n"),
    (("solve", "--weight", WEIGHT, "--grid", _grid(n=1026)), "/grid/n"),
    # a weight, grid and boundary that no solve can take together
    (SOLVE[:3] + ("--grid", _grid(rho_max=1.0)), "/grid/rho_max"),
    (SWEEP[:3] + ("--grid", _grid(rho_max=1.0), "--boundary", "exhaustion",
                  "--t-values", "1,2", "--jobs", "2"), "/grid/rho_max"),
    (("sweep", "--weight", SAMPLES3, "--grid", GRID,
      "--t-values", "1,2", "--jobs", "2"), "/weight/samples"),
    (("thermo",) + RADIAL_BINOMIAL, "/weight/coeffs"),
    (("sweep",) + ZERO_FLAT + ("--t-values", "1,2", "--jobs", "2"),
     "/weight"),
    # a reference density the grid cannot carry
    (("sweep",) + FLAT_PAST_DISC + ("--reference", "poincare",
                                    "--t-values", "1,2", "--jobs", "2"),
     "/reference"),
    (("thermo",) + FLAT_PAST_DISC + ("--reference", "poincare"),
     "/reference"),
    # amplitudes whose t^2 leaves the double range: at t = 1e-200 Q
    # underflows to 0 on the weight_flat boundary ring, at t = 1e200 it
    # overflows; the sweep checks its extreme amplitudes before the pool
    (("sweep", "--boundary", "weight_flat", "--weight",
      '{"kind": "constant", "r": 2, "value": 1}', "--grid", GRID,
      "--t-values", "1,1e-200", "--jobs", "2"), "/t_values"),
    (SWEEP[:-2] + ("--t-values", "1,1e200", "--jobs", "2"), "/t_values"),
    (SOLVE[:2] + (_weight(t=1e200),) + SOLVE[3:], "/weight"),
])
def test_rejected_input_exits_two_before_any_solve(tmp_path, capsys,
                                                   monkeypatch, argv,
                                                   pointer):
    # every input is checked and built before the first solve
    import todakit.cli

    calls = []
    monkeypatch.setattr(todakit.cli, "solve_toda",
                        lambda *args, **kwargs: calls.append(args))
    monkeypatch.chdir(tmp_path)
    flags = []
    for arg in argv:
        if isinstance(arg, dict):
            (tmp_path / "run.json").write_text(json.dumps(arg))
            flags += ["--config", "run.json"]
        else:
            flags.append(arg)
    before = sorted(tmp_path.iterdir())
    assert run_cli(*flags) == 2
    assert f"config error at {pointer}: " in capsys.readouterr().err
    assert calls == [] and sorted(tmp_path.iterdir()) == before


def test_corrupt_solution_file_exits_two_at_solution(tmp_path, capsys):
    # a solution file's errors point at /solution, then into the file
    good = tmp_path / "sol.json"
    assert run_cli("solve", "--weight", WEIGHT, "--grid", GRID,
                   "--out", str(good)) == 0
    base = json.loads(good.read_text())
    for edit, pointer in (({"grid": {**base["grid"], "n": 4}}, "/grid/n"),
                          ({"grid": {**base["grid"], "n": 10 ** 20}},
                           "/grid/n"),
                          ({"weight": {**base["weight"], "r": True}},
                           "/weight/r"),
                          ({"fields": {"w": base["fields"]["w"]}},
                           "/fields")):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**base, **edit}))
        out = tmp_path / "thermo.csv"
        capsys.readouterr()
        assert run_cli("thermo", "--solution", str(bad),
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error at /solution: solution file "
                              f"{str(bad)!r} at {pointer}: "), err
        assert not out.exists()


# Inputs that no single document value rules out: a weight, grid and
# boundary that no solve can take together, found before any solve at the
# value to blame, a reference the stored grid cannot carry, found once the
# solution loads, and a plot column the CSV lacks, found mid-run at /.
# Each is a ConfigurationError like a rejected document value, so it exits
# 2 and writes nothing.  `setup` writes the file the command reads.
MID_RUN = [
    ((), ("solve", "--weight", WEIGHT, "--grid", _grid(rho_max=1.5)),
     "/grid/rho_max"),
    ((), ("solve", "--weight", SAMPLES3, "--grid", GRID), "/weight/samples"),
    ((), ("sweep", "--weight", SAMPLES3, "--grid", GRID,
          "--t-values", "1,2", "--jobs", "2"), "/weight/samples"),
    ((), ("solve",) + RADIAL_BINOMIAL, "/weight/coeffs"),
    ((), ("solve",) + ZERO_FLAT, "/weight"),
    (("thermo", "--weight", WEIGHT, "--grid", GRID, "--out", "t.csv"),
     ("plot", "t.csv", "--column", "nope"), "/"),
    (("solve",) + FLAT_PAST_DISC + ("--out", "sol.json"),
     ("thermo", "--solution", "sol.json", "--reference", "poincare"),
     "/reference"),
]


@pytest.mark.parametrize("setup, argv", [case[:2] for case in MID_RUN])
def test_input_error_found_mid_run_exits_two(tmp_path, capsys, monkeypatch,
                                             setup, argv):
    pointer = {case[1]: case[2] for case in MID_RUN}[argv]
    monkeypatch.chdir(tmp_path)
    if setup:
        assert run_cli(*setup) == 0
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {pointer}: "), err
    assert sorted(tmp_path.iterdir()) == before


def test_verify_smoke_suite(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = run_cli("verify", "--suite", "smoke", "--out", str(report))
    assert code == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    doc = json.loads(report.read_text())
    assert doc["schema"] == "verify-report/1"
    assert doc["suite"] == "smoke"
    assert doc["passed"] is True


def test_plot_heatmap_from_thermo(tmp_path, capsys):
    csv = tmp_path / "thermo.csv"
    assert run_cli("thermo", "--weight", WEIGHT, "--grid", GRID,
                   "--out", str(csv)) == 0
    capsys.readouterr()
    assert run_cli("plot", str(csv)) == 0
    svg = tmp_path / "thermo.svg"
    assert svg.exists()
    text = svg.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert "heatmap" in capsys.readouterr().out


def test_plot_sweep_lines(tmp_path):
    csv = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--weight", WEIGHT, "--grid", GRID,
                   "--t-values", "0.5,1", "--beta", "1,-1", "--jobs", "1",
                   "--out", str(csv)) == 0
    out = tmp_path / "sweep.svg"
    assert run_cli("plot", str(csv), "--column", "lower_redundancy",
                   "--out", str(out)) == 0
    assert out.read_text().count("<polyline") >= 2  # one series per beta


def test_plot_is_deterministic(tmp_path):
    csv = tmp_path / "t.csv"
    assert run_cli("thermo", "--weight", WEIGHT, "--grid", GRID,
                   "--out", str(csv)) == 0
    s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run_cli("plot", str(csv), "--out", str(s1)) == 0
    assert run_cli("plot", str(csv), "--out", str(s2)) == 0
    assert s1.read_bytes() == s2.read_bytes()


def test_plot_missing_file_exits_two(capsys):
    code = run_cli("plot", "definitely_absent.csv")
    assert code == 2
    assert "config error at /input" in capsys.readouterr().err


def test_invalid_log_level_warns(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TODA_LOG", "chatty")
    assert run_cli("model", "--r", "2") == 0
    assert "TODA_LOG" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "todakit", "model", "--r", "3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["lambda"] == [2, 2]


def test_import_defers_schema_and_quadrature():
    # scipy.integrate is slow to import and only the model constants need
    # it; the CLI checks its inputs itself and runs where no JSON Schema
    # library can be imported
    code = ("import sys, todakit, todakit.cli; "
            "print('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    code = ("import sys; sys.modules['jsonschema'] = None; "
            "from todakit.cli import main; "
            "sys.exit(main(['model', '--r', '3']))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
