import numpy as np
import pytest

from todakit.errors import ConfigurationError, ValidationError
from todakit.plot import (HEATMAP_MAX_CELLS, plot_csv, read_csv,
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
