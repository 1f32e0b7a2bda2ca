import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from todakit.errors import ConfigurationError, ValidationError
from todakit.grid import build_grid
from todakit.io import (FLOAT_BLOCK_ROWS, _SOLUTION_KEYS, dumps_json,
                        format_float, format_floats, load_solution,
                        save_solution, solution_from_dict, solution_to_dict,
                        write_float_rows, write_json)
from todakit.toda import SolverConfig, solve_toda
from todakit.weight import make_weight


def test_format_float_special_cases():
    assert format_float(0.0) == "0"
    assert format_float(-0.0) == "0"
    assert format_float(float("nan")) == "nan"
    assert format_float(float("inf")) == "inf"
    assert format_float(float("-inf")) == "-inf"
    assert format_float(1.0) == "1"
    assert format_float(0.1) == "0.10000000000000001"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_is_faithful(x):
    assert float(format_float(x)) == x


def _nan_with_bits(bits):
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


FINFO = np.finfo(np.float64)
# values the block codec must write exactly as format_float does: signed
# zeros, NaNs with either sign and a payload, infinities, subnormals and
# the extremes of the finite range
SPECIAL = [0.0, -0.0, math.nan, -math.nan,
           _nan_with_bits(0x7FF8000000000001),
           _nan_with_bits(0xFFF4000000000000),
           math.inf, -math.inf, 5e-324, -5e-324,
           float(FINFO.smallest_normal) * (1 - FINFO.eps), float(FINFO.max),
           -float(FINFO.max), 0.1, 1.0, -1e16, 123456789.0]


def _reference_rows(arr) -> str:
    return "".join(",".join(format_float(v) for v in row) + "\n"
                   for row in arr)


def _assert_same_lines(got: str, want: str) -> None:
    # name the first differing line; a diff of two large tables is slow
    got, want = got.split("\n"), want.split("\n")
    bad = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert bad is None, f"line {bad}: {got[bad]!r} != {want[bad]!r}"
    assert len(got) == len(want)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.lists(st.floats(), max_size=12).map(lambda d: d + SPECIAL),
                 st.lists(st.sampled_from(SPECIAL), min_size=1, max_size=6)),
       st.sampled_from([1, 8, FLOAT_BLOCK_ROWS, FLOAT_BLOCK_ROWS + 1]),
       st.integers(1, 5))
def test_block_rows_match_format_float(pool, nrows, ncol):
    # the pool is tiled over the table, so every block repeats its values
    # the way thermo tables do, and 4097 rows cross the block boundary; a
    # pool of a few special values makes -0.0 and 0.0, and NaNs of either
    # sign and any payload, share a block and must still format as
    # format_float does
    arr = np.resize(np.array(pool), (nrows, ncol))
    buf = io.StringIO()
    write_float_rows(buf, arr)
    _assert_same_lines(buf.getvalue(), _reference_rows(arr))


def test_block_codec_covers_every_special_value():
    arr = np.array(SPECIAL)
    assert format_floats(arr) == ", ".join(format_float(v) for v in SPECIAL)
    assert format_floats(arr[None, :], ",", "\n") == _reference_rows([arr])
    finite = [v for v in SPECIAL if math.isfinite(v)]
    expected = "[" + ", ".join(map(format_float, finite)) + "]\n"
    assert dumps_json(finite) == expected
    buf = io.StringIO()
    write_float_rows(buf, np.empty((0, 3)))
    assert buf.getvalue() == ""


@given(st.lists(st.floats(), max_size=40))
def test_json_float_lists_match_per_element_emission(xs):
    # finite lists take the block codec, the rest the quoted-string path
    items = [format_float(v) if math.isfinite(v)
             else json.dumps(format_float(v)) for v in xs]
    expected = '{\n  "v": [' + ", ".join(items) + "]\n}\n"
    assert dumps_json({"v": xs}) == expected


def test_dumps_json_layout():
    doc = {"a": 1, "b": [1.5, 2.5], "c": {"nested": True}, "d": None,
           "e": float("-inf"), "f": "text"}
    text = dumps_json(doc)
    assert text.endswith("\n")
    assert '"b": [1.5, 2.5]' in text       # scalar lists stay inline
    assert '"e": "-inf"' in text           # no bare Infinity tokens
    assert json.loads(text)["c"] == {"nested": True}
    # key order is insertion order, not alphabetical
    assert text.index('"b"') < text.index('"a"') or list(json.loads(text)) == list(doc)


def test_dumps_json_handles_arrays_and_rejects_junk():
    assert json.loads(dumps_json({"v": np.arange(3)}))["v"] == [0, 1, 2]
    with pytest.raises(ValidationError):
        dumps_json({"v": object()})
    with pytest.raises(ValidationError):
        dumps_json({1: "non-string key"})


@pytest.fixture(scope="module")
def solved():
    g = build_grid("cartesian", 17, 0.9)
    return solve_toda(make_weight("poly", 3, coeffs=[0, 1]), g)


def test_solution_round_trip_is_bit_identical(solved, tmp_path):
    p1 = tmp_path / "sol.json"
    p2 = tmp_path / "sol2.json"
    save_solution(str(p1), solved)
    back = load_solution(str(p1))
    save_solution(str(p2), back)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.w_array(), solved.w_array())
    assert np.array_equal(back.v0.values, solved.v0.values)
    assert back.residual_sup == solved.residual_sup
    assert back.iterations == solved.iterations
    assert back.weight.to_dict() == solved.weight.to_dict()


def test_saving_twice_is_deterministic(solved, tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_solution(str(p1), solved)
    save_solution(str(p2), solved)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_evaluates_density_once(solved, tmp_path, monkeypatch):
    # the v0 check and the residual recheck share one density evaluation
    import todakit.io as io
    import todakit.toda as toda

    path = tmp_path / "sol.json"
    save_solution(str(path), solved)
    calls = []
    real = io.evaluate_density

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(io, "evaluate_density", counted)
    monkeypatch.setattr(toda, "evaluate_density", counted)
    load_solution(str(path))
    assert len(calls) == 1


def test_load_rejects_tampered_field(solved, tmp_path):
    path = tmp_path / "sol.json"
    save_solution(str(path), solved)
    doc = json.loads(path.read_text())
    doc["fields"]["w"][0][40] += 1e-6
    with pytest.raises(ConfigurationError) as err:
        solution_from_dict(doc)
    # the edited w breaks either the stored v0 or the stored residual
    assert err.value.pointer in ("/fields/v0", "/residual_sup")


def test_load_rejects_tampered_residual(solved, tmp_path):
    doc = solution_to_dict(solved)
    doc["residual_sup"] = 0.5
    with pytest.raises(ConfigurationError) as err:
        solution_from_dict(doc)
    assert err.value.pointer == "/residual_sup"


def test_load_rejects_schema_mismatches(solved):
    base = solution_to_dict(solved)
    grid, weight, fields = base["grid"], base["weight"], base["fields"]
    # (key, rejected value, pointer), at least one per key of the table; a
    # number stored as a str, a bool, a non-integer n or an integer too
    # large for a float is not coerced, and an unknown grid or weight key
    # is not ignored
    cases = [
        ("schema", "toda-solution/99", "/schema"),
        ("r", True, "/r"),
        ("r", 1, "/r"),
        ("grid", {"mode": "cartesian", "n": 4, "rho_max": 0.9}, "/grid/n"),
        ("grid", {**grid, "n": "17"}, "/grid/n"),
        ("grid", {**grid, "n": 17.9}, "/grid/n"),
        ("grid", {**grid, "n": 10 ** 20}, "/grid/n"),
        ("grid", {**grid, "zap": 1}, "/grid"),
        ("grid", {**grid, "rho_max": "0.9"}, "/grid/rho_max"),
        ("grid", {**grid, "rho_max": True}, "/grid/rho_max"),
        ("grid", {**grid, "rho_max": 10 ** 400}, "/grid/rho_max"),
        ("weight", {**weight, "r": 5}, "/weight/r"),
        ("weight", {**weight, "r": True}, "/weight/r"),
        ("weight", {**weight, "t": True}, "/weight/t"),
        ("weight", {**weight, "t": "1"}, "/weight/t"),
        ("weight", {**weight, "coeffs": [[False, False], [True, False]]},
         "/weight/coeffs"),
        ("weight", {**weight, "coeffs": [[0, 0], ["1", 0]]},
         "/weight/coeffs"),
        ("weight", {**weight, "zap": 1}, "/weight"),
        ("weight", [], "/weight"),
        # a weight that builds but does not evaluate on the stored grid
        ("weight", {"kind": "grid", "r": 3, "samples": [1, 1, 1]},
         "/weight/samples"),
        ("boundary_strategy", "bogus", "/boundary_strategy"),
        ("residual_sup", True, "/residual_sup"),
        ("residual_sup", 10 ** 400, "/residual_sup"),
        ("iterations", -5, "/iterations"),
        ("iterations", True, "/iterations"),
        ("fields", {**fields, "w": fields["w"][:1]}, "/fields/w"),
        ("fields", {"w": fields["w"]}, "/fields"),
        ("fields", {**fields, "w": 3}, "/fields"),
        ("exhaustion_drifts", "abc", "/exhaustion_drifts"),
        ("exhaustion_drifts", [0.1, "inf"], "/exhaustion_drifts"),
        ("exhaustion_drifts", [True], "/exhaustion_drifts"),
    ]
    assert {key for key, _, _ in cases} == set(_SOLUTION_KEYS)
    for key, bad, pointer in cases:
        with pytest.raises(ConfigurationError) as err:
            solution_from_dict({**base, key: bad})
        assert err.value.pointer == pointer, (key, bad)

    # every key but exhaustion_drifts is required
    for key in _SOLUTION_KEYS:
        doc = {k: v for k, v in base.items() if k != key}
        if key == "exhaustion_drifts":
            assert solution_from_dict(doc).exhaustion_drifts == ()
            continue
        with pytest.raises(ConfigurationError) as err:
            solution_from_dict(doc)
        assert err.value.pointer == "/" + key

    # nor is a field entry stored as a str or a bool, even one numpy reads
    # as the stored value: the 17-digit string of w_1 at the centre, and
    # false for the zero at the corner node, which lies outside the disc;
    # an integer too large for a float fails at /fields too
    w1 = fields["w"][0]
    centre = len(w1) // 2
    assert w1[0] == 0.0
    for node, bad in ((centre, format(w1[centre], ".17g")), (0, False),
                      (centre, 10 ** 400)):
        w = [list(vals) for vals in fields["w"]]
        w[0][node] = bad
        doc = {**base, "fields": {**fields, "w": w}}
        with pytest.raises(ConfigurationError) as err:
            solution_from_dict(doc)
        assert err.value.pointer == "/fields"


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_solution(str(path))
    with pytest.raises(ConfigurationError):
        load_solution(str(tmp_path / "absent.json"))


def test_write_json_uses_unix_newlines(tmp_path):
    path = tmp_path / "doc.json"
    write_json(str(path), {"a": [1, 2]})
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_exhaustion_drifts_survive_round_trip(tmp_path):
    g = build_grid("cartesian", 33, 0.9)
    sol = solve_toda(make_weight("zero", 2), g,
                     SolverConfig(boundary="exhaustion"))
    assert sol.exhaustion_drifts
    path = tmp_path / "ex.json"
    save_solution(str(path), sol)
    back = load_solution(str(path))
    assert back.exhaustion_drifts == sol.exhaustion_drifts
    assert back.boundary_strategy == "exhaustion"


def test_stored_floats_have_full_precision(solved, tmp_path):
    path = tmp_path / "sol.json"
    save_solution(str(path), solved)
    doc = json.loads(path.read_text())
    stored = np.asarray(doc["fields"]["w"][0])
    assert np.array_equal(stored, solved.w[0].values)
    assert doc["residual_sup"] == solved.residual_sup


def test_infinite_entropy_limit_is_stringified():
    # downstream consumers read "-inf" markers, never bare Infinity
    from todakit.weight import model_constants
    text = dumps_json(model_constants(3, -2.0).to_dict())
    json.loads(text)
    assert '"-inf"' in text and "Infinity" not in text
