import math

import numpy as np
import pytest

from todakit.errors import ConfigurationError, ValidationError
from todakit.plot import (HEATMAP_MAX_CELLS, HEIGHT, MARGIN_B, MARGIN_L,
                          MARGIN_R, MARGIN_T, WIDTH, _num, plot_csv, read_csv,
                          render_heatmap, render_line_chart)


def test_line_chart_structure():
    xs = [0.0, 1.0, 2.0, 3.0]
    svg = render_line_chart(xs, [("S", [0.1, 0.4, 0.2, 0.9]),
                                 ("F", [1.0, 0.5, 0.3, 0.2])],
                            title="demo", xlabel="t", ylabel="value")
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "demo" in svg and ">t<" in svg
    assert "S" in svg and "F" in svg  # legend entries


def test_line_chart_validates():
    with pytest.raises(ConfigurationError):
        render_line_chart([1.0], [("S", [0.5])])
    with pytest.raises(ConfigurationError):
        render_line_chart([1.0, 2.0], [])
    with pytest.raises(ConfigurationError):
        render_line_chart([1.0, 2.0], [("S", [0.5])])  # length mismatch
    with pytest.raises(ValidationError):
        render_line_chart([1.0, 2.0], [("S", [0.5, float("nan")])])


def test_line_chart_constant_series_gets_padded_range():
    svg = render_line_chart([0.0, 1.0, 2.0], [("c", [2.0, 2.0, 2.0])])
    assert "<polyline" in svg  # flat data must not divide by zero


def test_heatmap_escapes_markup_in_title():
    vals = np.linspace(0.0, 1.0, 25).reshape(5, 5)
    svg = render_heatmap(vals, (-1.0, 1.0, -1.0, 1.0), title="a<b & c")
    assert "a&lt;b &amp; c" in svg
    assert svg.count("<rect") >= 25


def test_heatmap_downsamples_large_grids():
    n = 2 * HEATMAP_MAX_CELLS + 1
    vals = np.random.default_rng(0).random((n, n))
    svg = render_heatmap(vals, (-1.0, 1.0, -1.0, 1.0))
    # stride 3 keeps the cell count at or below the cap
    cells = svg.count('class="cell"') or svg.count("<rect")
    assert cells <= (HEATMAP_MAX_CELLS + 1) ** 2 + 10


def _reference_cells(values) -> list:
    """The heatmap's cell lines, one format call per coordinate."""
    finite = np.isfinite(values)
    lo, hi = values[finite].min(), values[finite].max()
    span = hi - lo if hi > lo else 1.0
    stride = max(1, math.ceil(max(values.shape) / HEATMAP_MAX_CELLS))
    sub = values[::stride, ::stride]
    ny, nx = sub.shape
    cw = (WIDTH - MARGIN_L - MARGIN_R) / nx
    ch = (HEIGHT - MARGIN_T - MARGIN_B) / ny
    out = []
    for iy in range(ny):
        for ix in range(nx):
            if np.isfinite(sub[iy, ix]):
                shade = int(round(255 - 215 * ((sub[iy, ix] - lo) / span)))
                out.append(f'<rect x="{_num(MARGIN_L + ix * cw)}" '
                           f'y="{_num(MARGIN_T + (ny - 1 - iy) * ch)}" '
                           f'width="{_num(cw + 0.5)}" '
                           f'height="{_num(ch + 0.5)}" '
                           f'fill="rgb({shade},{shade},{shade})"/>')
    return out


@pytest.mark.parametrize("shape", [(5, 7), (2 * HEATMAP_MAX_CELLS + 1,) * 2])
def test_heatmap_cells_match_per_cell_reference(shape):
    rng = np.random.default_rng(3)
    vals = rng.normal(size=shape)
    vals[rng.random(shape) < 0.2] = np.nan
    vals[0, 0] = np.inf
    lines = render_heatmap(vals, (-1.0, 1.0, -1.0, 1.0)).splitlines()
    cells = [ln for ln in lines if ln.startswith("<rect x=")][:-1]  # frame
    assert cells == _reference_cells(vals)


def test_read_csv_parses_meta_and_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# r=2\n# beta=1\nx,y\n0,1\n2,3\n")
    meta, cols = read_csv(str(path))
    assert meta == {"r": "2", "beta": "1"}
    assert cols["x"].tolist() == [0.0, 2.0]
    assert cols["y"].tolist() == [1.0, 3.0]


def test_read_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n0,1\n2\n")
    with pytest.raises(ValidationError):
        read_csv(str(path))
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(ValidationError):
        read_csv(str(empty))


@pytest.mark.parametrize("token", ["abc", "1_0"])
def test_read_csv_rejects_non_numeric_tokens(tmp_path, token):
    # Python's float() would read "1_0" as 10; numpy's parser rejects it
    path = tmp_path / "tokens.csv"
    path.write_text(f"x,y\n0,1\n2,{token}\n")
    with pytest.raises(ValidationError) as err:
        read_csv(str(path))
    assert str(path) in str(err.value) and token in str(err.value)


def test_read_csv_keeps_comments_between_rows(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("\n# a=1\n x , y \n\n0, 1\n# b = 2\n  2,3  \n")
    meta, cols = read_csv(str(path))
    assert meta == {"a": "1", "b": "2"}
    assert list(cols) == ["x", "y"]
    assert cols["y"].tolist() == [1.0, 3.0]


def test_plot_csv_rejects_unknown_layout(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    with pytest.raises(ValidationError):
        plot_csv(str(path), str(tmp_path / "odd.svg"), None)


def test_plot_csv_heatmap_needs_square_grid(tmp_path):
    # seven cartesian rows cannot form an n-by-n lattice
    rows = "\n".join(f"{i},{i},0.1,0.9,0.5,0.2,0.3" for i in range(7))
    path = tmp_path / "t.csv"
    path.write_text("x,y,p_0,p_1,S,F,R\n" + rows + "\n")
    with pytest.raises(ValidationError):
        plot_csv(str(path), str(tmp_path / "t.svg"), None)


def test_plot_csv_unknown_column(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,beta,inf_S,sup_S,inf_F,sup_F,lower_redundancy\n"
                    "0.5,1,0,0.1,0,0.1,0.2\n1,1,0,0.1,0,0.1,0.3\n")
    with pytest.raises(ConfigurationError):
        plot_csv(str(path), str(tmp_path / "s.svg"), "entropy_rate")
    # the default column works
    kind = plot_csv(str(path), str(tmp_path / "s.svg"), None)
    assert kind == "sweep"


def test_plot_csv_rejects_betas_with_different_t_values(tmp_path):
    # one x axis is drawn for every beta, so each beta needs the same t set
    path = tmp_path / "s.csv"
    path.write_text("t,beta,lower_redundancy\n"
                    "1,1,0.2\n2,1,0.3\n5,-1,0.4\n9,-1,0.5\n")
    with pytest.raises(ValidationError) as err:
        plot_csv(str(path), str(tmp_path / "s.svg"), None)
    assert str(path) in str(err.value)
    assert not (tmp_path / "s.svg").exists()


def test_repeated_header_name_is_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("x,y,S,S\n0,0,0.1,0.2\n")
    for call in (lambda: read_csv(str(path)),
                 lambda: plot_csv(str(path), str(tmp_path / "d.svg"), None)):
        with pytest.raises(ValidationError) as err:
            call()
        assert str(path) in str(err.value) and "'S'" in str(err.value)


def _thermo_table(n: int) -> str:
    # an n x n node table with x varying fastest, NaN cells in S
    rows = []
    axis = np.linspace(-0.9, 0.9, n).tolist()
    for iy, y in enumerate(axis):
        for ix, x in enumerate(axis):
            s = "nan" if (ix + iy) % 5 == 0 else repr(math.sin(3 * x) * y)
            rows.append(f"{x!r},{y!r},0.25,0.75,{s},{x * y!r},0.5")
    return "# weight=demo\nx,y,p_0,p_1,S,F,R\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("n", [9, 2 * HEATMAP_MAX_CELLS + 1])
def test_plot_csv_heatmap_matches_full_parse(tmp_path, n):
    path = tmp_path / "t.csv"
    path.write_text(_thermo_table(n))
    assert plot_csv(str(path), str(tmp_path / "t.svg"), None) == \
        "field heatmap"
    meta, cols = read_csv(str(path))
    x, y = cols["x"], cols["y"]
    want = render_heatmap(cols["S"].reshape(n, n),
                          (x.min(), x.max(), y.min(), y.max()),
                          title=f"S  {meta['weight']}")
    assert np.isnan(cols["S"]).any()
    assert (tmp_path / "t.svg").read_text() == want


def test_plot_csv_parses_only_the_drawn_columns(tmp_path):
    # a bad token outside the drawn column fails read_csv but not the plot
    text = _thermo_table(5)
    lines = text.splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0] + ",oops"   # column R
    bad_token = tmp_path / "token.csv"
    bad_token.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError):
        read_csv(str(bad_token))
    assert plot_csv(str(bad_token), str(tmp_path / "a.svg"), "S") == \
        "field heatmap"
    with pytest.raises(ValidationError):
        plot_csv(str(bad_token), str(tmp_path / "b.svg"), "R")
    # a row with a missing field fails both, whichever column is drawn
    lines = text.splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0]
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("\n".join(lines) + "\n")
    for call in (lambda: read_csv(str(ragged)),
                 lambda: plot_csv(str(ragged), str(tmp_path / "c.svg"), "S")):
        with pytest.raises(ValidationError) as err:
            call()
        assert "fields" in str(err.value)
