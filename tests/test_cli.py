import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adaweight import (
    DataError,
    Dataset,
    LossFunction,
    cv_bandwidth,
    epsilon_perturbation,
    first_step,
    fit_wls,
    generate_sample,
    inverse_variance_map,
    np_weights,
    oracle_weights,
    parametric_weights,
    replication_rng,
    sandwich_covariance,
    sp_index_weights,
    sp_projected_weights,
)
from adaweight import cli, dataio
from adaweight.cli import main
from adaweight.dataio import _read_cells, read_csv, to_json_text, write_csv


#: Five rows whose only covariate is constant: every first step fails.
CONSTANT_CSV = "y,x1\n1,2\n2,2\n3,2\n4,2\n5,2\n"
#: Seven rows on which a power fit reaches an exact zero residual at x1 = 0.
ZERO_RESIDUAL_CSV = "y,x1\n0,-3\n2,-1\n1,0\n0,1\n2,3\n3,2\n-1,-2\n"
#: Six rows whose residuals are about 1e160, so their squares overflow.
OVERFLOW_CSV = "y,x1\n1e160,0\n-1e160,1\n2e160,2\n0,3\n1e159,4\n-3e160,5\n"
#: Five rows with y = 0: the first step fits them exactly.
EXACT_FIT_CSV = "y,x1\n0,0\n0,1\n0,2\n0,3\n0,5\n"


@pytest.fixture
def derived_csv(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("y,x1\n0,0\n1,1\n0,2\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReadCsv:
    def test_basic(self, derived_csv):
        d = read_csv(derived_csv)
        assert d.n == 3 and d.q == 1
        assert np.array_equal(d.y, [0.0, 1.0, 0.0])

    def test_y_anywhere_in_header(self, tmp_path):
        p = tmp_path / "mid.csv"
        p.write_text("x1,y,x2\n1,10,2\n3,11,4\n5,12,6\n7,13,8\n")
        d = read_csv(str(p))
        assert d.q == 2
        assert np.array_equal(d.y, [10.0, 11.0, 12.0, 13.0])
        assert np.array_equal(d.x[:, 0], [1.0, 3.0, 5.0, 7.0])

    @pytest.mark.parametrize("body", [
        "1,2,5\n4,1,3\n2,7,1\n8,3,6\n5,5,2\n",  # the C reader's body
        '"1",2,5\n4,1,3\n2,7,1\n8,3,6\n5,5,2\n',  # a quoted cell: the per-cell path
    ])
    def test_repeated_y_is_input_error(self, capsys, tmp_path, body):
        p = tmp_path / "twice.csv"
        p.write_text("y,x1,y\n" + body)
        message = f"{p}: column 'y' appears 2 times in the header"
        code, out, err = run_cli(capsys, "fit", "--data", str(p))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "input", "message": message}
        with pytest.raises(DataError, match="appears 2 times"):
            _read_cells(str(p))

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(91)
        d = Dataset(y=rng.normal(size=20), x=rng.normal(size=(20, 3)))
        path = str(tmp_path / "rt.csv")
        write_csv(path, d)
        back = read_csv(path)
        assert np.array_equal(back.y, d.y)
        assert np.array_equal(back.x, d.x)

    def test_write_csv_bytes(self, tmp_path):
        # CRLF rows, 17 significant digits, -0, a subnormal and the largest float
        d = Dataset(y=[1.0 / 3.0, -0.0, 5e-324],
                    x=[[1.7976931348623157e308, 0.1], [2.0, -1e-300], [1e22, 0.0]])
        path = tmp_path / "pinned.csv"
        write_csv(str(path), d)
        assert path.read_bytes() == (
            b"y,x1,x2\r\n"
            b"0.33333333333333331,1.7976931348623157e+308,0.10000000000000001\r\n"
            b"-0,2,-1e-300\r\n"
            b"4.9406564584124654e-324,1e+22,0\r\n"
        )

    @pytest.mark.parametrize("body, cell, row, column", [
        ("1,2\n2,inf\n3,4\n5,1\n", "inf", 3, "x1"),  # the C reader's body
        ("1,2\n2,1e999\n3,4\n5,1\n", "1e999", 3, "x1"),  # overflows to inf
        ('1,2\n\n"nan",4\n3,4\n5,1\n', "nan", 4, "y"),  # a quoted cell: the per-cell path
    ])
    def test_non_finite_cell_reports_position(self, capsys, tmp_path, body, cell, row, column):
        p = tmp_path / "inf.csv"
        p.write_text("y,x1\n" + body)
        message = f"{p}: non-finite value {cell!r} at row {row}, column {column!r}"
        for reader in (read_csv, _read_cells):
            with pytest.raises(DataError) as exc:
                reader(str(p))
            assert str(exc.value) == message
        code, out, err = run_cli(capsys, "fit", "--data", str(p))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "input", "message": message}

    def test_missing_y_column(self, tmp_path):
        p = tmp_path / "noy.csv"
        p.write_text("a,b\n1,2\n3,4\n5,6\n")
        with pytest.raises(DataError, match="'y'"):
            read_csv(str(p))

    def test_non_numeric_cell_reports_position(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("y,x1\n1,2\n3,oops\n5,6\n")
        with pytest.raises(DataError, match="row 3.*'x1'"):
            read_csv(str(p))

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("y,x1\n1,2\n3,4\n")
        with pytest.raises(DataError, match="fewer"):
            read_csv(str(p))

    def test_missing_file(self):
        with pytest.raises(DataError, match="no such file"):
            read_csv("/nonexistent/nope.csv")

    def test_blank_lines_are_skipped(self, tmp_path):
        clean = tmp_path / "clean.csv"
        clean.write_text("y,x1\n1,2\n3,4\n5,7\n")
        blank = tmp_path / "blank.csv"
        blank.write_text("y,x1\n1,2\n\n3,4\n5,7\n\n")
        a, b = read_csv(str(clean)), read_csv(str(blank))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x, b.x)

    def test_wrong_cell_count_reports_file_line(self, tmp_path):
        # the blank line still counts, so the short row is line 4
        p = tmp_path / "ragged.csv"
        p.write_text("y,x1\n1,2\n\n3\n5,6\n7,8\n")
        with pytest.raises(DataError, match="row 4 has 1 cells, expected 2"):
            read_csv(str(p))

    def test_every_row_too_wide_reports_the_first(self, tmp_path):
        # a consistent column count parses in C, but not the header's
        p = tmp_path / "wide.csv"
        p.write_text("y,x1\n\n1,2,3\n4,5,6\n7,8,9\n")
        with pytest.raises(DataError, match="row 3 has 3 cells, expected 2"):
            read_csv(str(p))

    def test_byte_order_mark_is_ignored(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_text("\ufeffy,x1\n1,2\n3,4\n5,7\n", encoding="utf-8")
        d = read_csv(str(p))
        assert np.array_equal(d.y, [1.0, 3.0, 5.0])

    def test_columns_are_c_contiguous(self, tmp_path):
        p = tmp_path / "mid.csv"
        p.write_text("x1,y,x2\n1,10,2\n3,11,4\n5,12,6\n7,13,8\n")
        d = read_csv(str(p))
        assert d.y.flags.c_contiguous and d.x.flags.c_contiguous
        assert np.array_equal(d.x, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])

    def test_directory_is_input_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read file"):
            read_csv(str(tmp_path))

    def test_unreadable_file_is_input_error(self, derived_csv, monkeypatch):
        # permission bits do not stop a superuser, so the open itself fails here
        def deny(path):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(dataio, "_open_text", deny)
        with pytest.raises(DataError, match="cannot read file: Permission denied"):
            read_csv(derived_csv)

    def test_non_utf8_byte_is_input_error(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"y,x1\n1,2\n3,\xe9\n5,7\n")
        with pytest.raises(DataError, match="not valid UTF-8"):
            read_csv(str(p))

    def test_non_utf8_byte_inside_the_body(self, tmp_path):
        # past the first read buffer, so the C reader's read hits it
        p = tmp_path / "late.csv"
        body = b"".join(b"%d,%d\n" % (i, i) for i in range(30000))
        p.write_bytes(b"y,x1\n" + body + b"1,\xff\n")
        with pytest.raises(DataError, match="not valid UTF-8"):
            read_csv(str(p))

    def test_overlong_header_name_is_input_error(self, tmp_path):
        # csv's default field limit is 131072 characters; it stays unchanged
        p = tmp_path / "long_name.csv"
        p.write_text("y," + "a" * 140000 + "\n1,2\n3,4\n5,6\n")
        limit = csv.field_size_limit()
        with pytest.raises(DataError, match=r"long_name\.csv: row 1 cannot be read as CSV"):
            read_csv(str(p))
        assert csv.field_size_limit() == limit

    def test_overlong_quoted_cell_is_input_error(self, tmp_path):
        # the quote sends the body to the per-cell path, which meets the limit
        p = tmp_path / "long_cell.csv"
        p.write_text('y,x1\n1,2\n\n3,"' + "1" * 140000 + '"\n5,6\n7,8\n')
        with pytest.raises(DataError, match=r"long_cell\.csv: row 4 cannot be read as CSV"):
            read_csv(str(p))

    def test_header_only_file_warns_nothing(self, tmp_path):
        p = tmp_path / "header.csv"
        p.write_text("y,x1,x2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"0 data rows is fewer than q\+2=4$"):
                read_csv(str(p))

    def test_memory_holds_no_object_per_cell(self, tmp_path):
        # the per-cell parse of this file peaks near 37 MB of Python
        # objects; the C reader holds the table, its split and the design
        rng = np.random.default_rng(93)
        path = str(tmp_path / "big.csv")
        np.savetxt(path, rng.normal(size=(50000, 5)), fmt="%.17g", delimiter=",",
                   header="y,x1,x2,x3,x4", comments="")
        tracemalloc.start()
        try:
            d = read_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.n == 50000 and d.q == 4
        assert peak <= 8 * 2**20


VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6).map(float),
)


def format_cell(value: float, style: str) -> str:
    text = format(value, ".17g")
    if style == "padded":
        return f"  {text}\t"
    if style == "quoted":
        return f'"{text}"'
    sign, digits = ("-", text[1:]) if text.startswith("-") else ("", text)
    if style == "underscored" and digits.isdigit() and len(digits) >= 2:
        return f"{sign}{digits[0]}_{digits[1:]}"
    return text


@st.composite
def csv_tables(draw):
    """A table, its y column and its CSV lines: styled cells, blank lines."""
    q = draw(st.integers(1, 4))
    n = draw(st.integers(q + 2, 12))
    y_col = draw(st.integers(0, q))
    names = [f"x{j + 1}" for j in range(q)]
    names.insert(y_col, "y")
    table = np.array(draw(st.lists(
        st.lists(VALUES, min_size=q + 1, max_size=q + 1), min_size=n, max_size=n
    )))
    # only quoted and underscored cells send a whole table down the per-cell path
    styles = st.sampled_from(draw(st.sampled_from([
        ["plain"], ["plain", "padded"], ["plain", "padded", "quoted", "underscored"],
    ])))
    lines = [",".join(names)]
    for row in table:
        lines.extend([""] * draw(st.integers(0, 1)))
        lines.append(",".join(format_cell(v, draw(styles)) for v in row))
    return table, y_col, lines


def write_lines(path, lines, ending):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(ending.join(lines) + ending)


class TestReadCsvPaths:
    """``read_csv`` (C reader) against ``_read_cells``, its per-cell path."""

    @settings(max_examples=60, deadline=None)
    @given(case=csv_tables(), ending=st.sampled_from(["\n", "\r\n"]))
    def test_matches_per_cell_path(self, case, ending):
        table, y_col, lines = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            write_lines(path, lines, ending)
            fast, slow = read_csv(path), _read_cells(path)
        for d in (fast, slow):
            assert d.y.tobytes() == np.ascontiguousarray(table[:, y_col]).tobytes()
            assert d.x.tobytes() == np.delete(table, y_col, axis=1).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        case=csv_tables(),
        ending=st.sampled_from(["\n", "\r\n"]),
        kind=st.sampled_from(["short", "long", "word", "whitespace", "comment"]),
        at=st.integers(1, 10**6),
    )
    def test_malformed_row_gives_per_cell_message(self, case, ending, kind, at):
        table, y_col, lines = case
        k = table.shape[1]
        r = 1 + at % (len(lines) - 1)  # a 0-based line after the header
        if kind == "short":
            lines[r] = ",".join(["1"] * (k - 1))
            expected = f"row {r + 1} has {k - 1} cells, expected {k}"
        elif kind == "long":
            lines[r] = ",".join(["1"] * (k + 1))
            expected = f"row {r + 1} has {k + 1} cells, expected {k}"
        elif kind == "word":
            c = at % k
            lines[r] = ",".join(["oops" if j == c else "1" for j in range(k)])
            name = "y" if c == y_col else f"x{c + (c < y_col)}"
            expected = f"non-numeric value 'oops' at row {r + 1}, column {name!r}"
        else:
            lines.insert(r, "  " if kind == "whitespace" else "# note")
            expected = f"row {r + 1} has 1 cells, expected {k}"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            write_lines(path, lines, ending)
            with pytest.raises(DataError) as fast:
                read_csv(path)
            with pytest.raises(DataError) as slow:
                _read_cells(path)
        assert str(fast.value) == str(slow.value) == f"{path}: {expected}"


class TestJsonText:
    def test_fixed_precision(self):
        text = to_json_text({"a": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_roundtrip_value(self):
        value = 0.1234567890123456789
        text = to_json_text([value])
        assert json.loads(text)[0] == value

    def test_types(self):
        text = to_json_text({"i": 3, "b": True, "n": None, "s": "x", "l": [1.5]})
        parsed = json.loads(text)
        assert parsed == {"i": 3, "b": True, "n": None, "s": "x", "l": [1.5]}


class TestCmdFit:
    def test_constant_weights_hand_oracle(self, capsys, derived_csv):
        code, out, err = run_cli(capsys, "fit", "--data", derived_csv, "--weights", "constant")
        assert code == 0, err
        report = json.loads(out)
        assert report["beta"][0] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert report["beta"][1] == pytest.approx(0.0, abs=1e-10)
        assert report["solver"]["converged"] is True
        assert report["bandwidth"] == {"value": None, "selection": "none", "cv": None}

    def test_np_cv_deterministic(self, capsys, tmp_path):
        rng = np.random.default_rng(92)
        d = Dataset(y=rng.normal(size=60), x=rng.normal(size=(60, 2)))
        path = str(tmp_path / "d.csv")
        write_csv(path, d)
        args = ["fit", "--data", path, "--weights", "np", "--bandwidth", "cv"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert report["bandwidth"]["selection"] == "cv"
        diag = report["bandwidth"]["cv"]
        assert len(diag["grid"]) == len(diag["scores"]) == len(diag["valid_fraction"]) == 20
        assert report["bandwidth"]["value"] in diag["grid"]

    def test_huber_huge_cutoff_matches_square(self, capsys, tmp_path):
        rng = np.random.default_rng(93)
        d = Dataset(y=rng.normal(size=40), x=rng.normal(size=(40, 2)))
        path = str(tmp_path / "d.csv")
        write_csv(path, d)
        _, out_sq, _ = run_cli(capsys, "fit", "--data", path, "--loss", "square")
        _, out_hu, _ = run_cli(capsys, "fit", "--data", path, "--loss", "huber:1e6")
        beta_sq = json.loads(out_sq)["beta"]
        beta_hu = json.loads(out_hu)["beta"]
        assert np.max(np.abs(np.array(beta_sq) - beta_hu)) <= 1e-6

    def test_sp_routes(self, capsys, tmp_path):
        rng = np.random.default_rng(94)
        x = rng.normal(size=(80, 2))
        y = 1 + x @ [1.0, 1.0] + (0.5 + (x[:, 0] > 0)) * rng.normal(size=80)
        path = str(tmp_path / "d.csv")
        write_csv(path, Dataset(y=y, x=x))
        code, out, err = run_cli(capsys, "fit", "--data", path, "--weights", "sp-proj")
        assert code == 0, err
        assert json.loads(out)["epsilon"] > 0
        code, out, err = run_cli(capsys, "fit", "--data", path, "--weights", "sp-index")
        assert code == 0, err

    def test_parametric_and_oracle_routes(self, capsys, tmp_path):
        rng = np.random.default_rng(95)
        x = rng.normal(size=(60, 2))
        y = 1 + x @ [1.0, 1.0] + (0.5 + 2.0 * (x @ [1.0, 1.0] > 0)) * rng.normal(size=60)
        path = str(tmp_path / "d.csv")
        write_csv(path, Dataset(y=y, x=x))
        code, out, err = run_cli(
            capsys, "fit", "--data", path, "--weights", "parametric",
            "--sigma-model", "disc",
        )
        assert code == 0, err
        code, out, err = run_cli(
            capsys, "fit", "--data", path, "--weights", "oracle",
            "--sigma-model", "disc", "--oracle-beta", "1.0,0.7071,0.7071",
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["weights_summary"]["max"] <= 4.0 + 1e-12

    @pytest.mark.parametrize("route", ["np", "sp-index", "sp-proj", "parametric", "oracle"])
    def test_matches_library_chain(self, capsys, tmp_path, route):
        rng = np.random.default_rng(96)
        x = rng.normal(size=(120, 2))
        y = 1 + x @ [1.0, 1.0] + (0.5 + 2.0 * (x @ [1.0, 1.0] > 0)) * rng.normal(size=120)
        path = str(tmp_path / "d.csv")
        write_csv(path, Dataset(y=y, x=x))
        code, out, err = run_cli(
            capsys, "fit", "--data", path, "--weights", route, "--sigma-model", "disc",
            "--oracle-beta", "1.0,0.7071,0.7071",
        )
        assert code == 0, err
        report = json.loads(out)

        square = LossFunction.square()
        data = read_csv(path)
        fs = first_step(data, square)
        family = inverse_variance_map("disc")
        h = eps = None
        if route == "parametric":
            w = parametric_weights(family, fs, data)
        elif route == "oracle":
            w = oracle_weights(lambda xx: family(xx, np.array([1.0, 0.7071, 0.7071])), data)
        elif route == "sp-proj":
            eps = epsilon_perturbation(data, fs)
            h = cv_bandwidth(data, fs, route, eps=eps).h_cv
            w = sp_projected_weights(data, square, fs, h, eps)
        else:
            h = cv_bandwidth(data, fs, route).h_cv
            smoother = np_weights if route == "np" else sp_index_weights
            w = smoother(data, square, fs, h)
        beta = fit_wls(data, w).beta
        se = np.sqrt(np.diag(sandwich_covariance(data, square, w, beta)))
        assert report["beta"] == beta.tolist()
        assert report["standard_errors"] == se.tolist()
        assert report["bandwidth"]["value"] == h
        assert report["epsilon"] == eps

    def test_unknown_flag_is_usage_error(self, capsys, derived_csv):
        code, out, err = run_cli(capsys, "fit", "--data", derived_csv, "--frobnicate", "1")
        assert code == 1
        assert "usage" in err

    def test_missing_file_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "fit", "--data", "/no/such.csv")
        assert code == 2
        assert json.loads(err)["error"] == "input"

    def test_collinear_design_is_numerical_error(self, capsys, tmp_path):
        p = tmp_path / "collinear.csv"
        p.write_text("y,x1,x2\n1,1,2\n2,2,4\n3,3,6\n4,4,8\n5,5,10\n")
        code, out, err = run_cli(capsys, "fit", "--data", str(p))
        assert code == 3
        assert json.loads(err)["error"] == "degenerate-design"

    @pytest.mark.parametrize("loss", ("power:1.2", "power:1.5"))
    def test_zero_residual_at_zero_covariate(self, capsys, tmp_path, loss):
        # the power fit reaches an exact zero residual in the row with x1 = 0.
        # power:1.5 converges onto the interpolating root, whose residual in
        # that row is exactly 0 (its start's is too, and the floored
        # curvature of the fallback step lands there in 4 iterations), so the
        # sandwich's curvature row is inf * 0 = NaN for both exponents
        p = tmp_path / "zero.csv"
        p.write_text(ZERO_RESIDUAL_CSV)
        # inf * 0 = NaN in the curvature matrix is handled, not reported
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run_cli(capsys, "fit", "--data", str(p), "--loss", loss)
        assert got == 3
        assert out == "" and json.loads(err)["error"] == "degenerate-curvature"

    def test_bad_loss_spec_is_input_error(self, capsys, derived_csv):
        code, _, err = run_cli(capsys, "fit", "--data", derived_csv, "--loss", "huber")
        assert code == 2
        code, _, err = run_cli(capsys, "fit", "--data", derived_csv, "--loss", "power:0.5")
        assert code == 2

    @pytest.mark.parametrize("h", ["0.5", "3", "100"])
    def test_infinite_curvature_in_kernel_sum(self, capsys, tmp_path, h):
        # g2 = inf at the zero first-step residual enters every numerator
        # within h of x1 = 0, as inf or as inf * 0 = NaN
        p = tmp_path / "zero.csv"
        p.write_text(ZERO_RESIDUAL_CSV)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "fit", "--data", str(p), "--loss", "power:1.2",
                                     "--weights", "np", "--bandwidth", h)
        assert (code, out) == (3, "")
        report = json.loads(err)
        assert report["error"] == "degenerate-curvature"
        assert "infinite curvature at an exact zero first-step residual" in report["message"]


@pytest.mark.parametrize("route, calls", [
    (["--weights", "constant"], 0),
    (["--weights", "oracle", "--oracle-beta", "1,1,1"], 0),
    (["--weights", "parametric"], 1),
    (["--weights", "np", "--bandwidth", "1"], 1),
    (["--weights", "sp-index", "--bandwidth", "1"], 1),
    (["--weights", "sp-proj", "--bandwidth", "1"], 1),
])
@pytest.mark.parametrize("loss", ["square", "power:1.5"])
def test_first_step_runs_only_where_the_route_reads_it(
    capsys, monkeypatch, tmp_path, route, calls, loss
):
    rng = np.random.default_rng(95)
    x = rng.normal(size=(60, 2))
    y = 1.0 + x.sum(axis=1) + (0.5 + np.abs(x[:, 0])) * rng.normal(size=60)
    path = str(tmp_path / "d.csv")
    write_csv(path, Dataset(y=y, x=x))
    argv = ["fit", "--data", path, "--loss", loss, *route]
    code, expected, err = run_cli(capsys, *argv)
    assert code == 0, err
    seen = []
    monkeypatch.setattr(cli, "first_step", lambda *a: seen.append(a) or first_step(*a))
    assert run_cli(capsys, *argv) == (0, expected, "")
    assert len(seen) == calls


class TestFitParsesFlagsFirst:
    @pytest.mark.parametrize("flags, message", [
        (["--weights", "np", "--bandwidth", "abc"], "bandwidth must be a number, got 'abc'"),
        (["--weights", "oracle"], "--weights oracle requires --oracle-beta"),
        (["--weights", "sp-proj", "--epsilon", "-1"], "epsilon must be nonnegative"),
        (["--weights", "parametric", "--sigma-model", "bogus"],
         "--sigma-model must be smooth or disc, got 'bogus'"),
        (["--weights", "np", "--cv-grid", "3:1:5"], "invalid --cv-grid '3:1:5'"),
        (["--weights", "np", "--bandwidth", "-1"], "bandwidth must be positive, got -1.0"),
        (["--weights", "np", "--bandwidth", "0"], "bandwidth must be positive, got 0.0"),
        (["--weights", "np", "--bandwidth", "1e-200"],
         "bandwidth 1e-200 is too small: its square underflows"),
        (["--weights", "np", "--cv-grid", "1e-200:1:5"],
         "bandwidth 1e-200 is too small: its square underflows"),
        (["--weights", "np", "--cv-grid", "0.05:3:1001"],
         "--cv-grid count must be at most 1000, got 1001"),
    ])
    def test_flag_error_precedes_failing_first_step(self, capsys, tmp_path, flags, message):
        path = tmp_path / "constant.csv"
        path.write_text(CONSTANT_CSV)
        assert run_cli(capsys, "fit", "--data", str(path))[0] == 3
        code, out, err = run_cli(capsys, "fit", "--data", str(path), *flags)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "input", "message": message}

    @pytest.mark.parametrize("flags", [
        ["--weights", "np", "--epsilon", "abc"],
        ["--weights", "constant", "--sigma-model", "bogus"],
        ["--weights", "np", "--oracle-beta", "1,x"],
        ["--weights", "np", "--oracle-beta", "1,0.5,0.5"],
    ])
    def test_flag_the_route_ignores_is_still_checked(self, capsys, derived_csv, flags):
        code, out, err = run_cli(capsys, "fit", "--data", derived_csv, *flags)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "input"

    @pytest.mark.parametrize("flags", [
        ["--loss", "huber"],
        ["--weights", "magic"],
        ["--weights", "np", "--bandwidth", "-1"],
        ["--cv-grid", "1:2"],
        ["--epsilon", "-1"],
        ["--sigma-model", "bogus"],
        ["--weights", "oracle"],
        ["--oracle-beta", "1,x"],
    ])
    def test_malformed_flag_reads_no_data(self, capsys, monkeypatch, flags):
        def read_csv(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli, "read_csv", read_csv)
        code, out, err = run_cli(capsys, "fit", "--data", "data.csv", *flags)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "input"

    def test_flag_error_precedes_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fit", "--data", str(tmp_path / "absent.csv"),
                               "--epsilon", "-1")
        assert code == 2
        assert json.loads(err)["message"] == "epsilon must be nonnegative"

    def test_grid_at_the_count_bound_is_accepted(self):
        assert cli.parse_cv_grid("0.05:3:1000").shape == (1000,)


class TestCmdSimulate:
    def test_single_replication_summary(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "simulate", "--n", "60", "--q", "2", "--sigma", "disc",
            "--methods", "first-step,oracle", "--reps", "1", "--seed", "4",
            "--out", str(tmp_path),
        )
        assert code == 0, err
        summary = json.loads(out)
        stats = summary["methods"]["oracle"]
        assert stats["min"] == stats["max"] == stats["median"]
        assert os.path.exists(tmp_path / "errors.csv")
        assert os.path.exists(tmp_path / "summary.json")

    def test_repeated_runs_byte_identical(self, capsys, tmp_path):
        args = [
            "simulate", "--n", "80", "--q", "2", "--sigma", "smooth",
            "--methods", "first-step,np,oracle", "--reps", "4", "--seed", "9",
        ]
        sums = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            code, _, err = run_cli(capsys, *args, "--out", str(out_dir))
            assert code == 0, err
            sums.append(hashlib.sha256((out_dir / "errors.csv").read_bytes()).hexdigest())
        assert sums[0] == sums[1]

    def test_invalid_config_is_input_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--n", "60", "--q", "2", "--sigma", "disc",
            "--reps", "0", "--seed", "1", "--out", str(tmp_path),
        )
        assert code == 2

    def test_out_naming_a_file_is_input_error_before_the_study(
        self, capsys, tmp_path, monkeypatch
    ):
        target = tmp_path / "taken"
        target.write_text("")
        monkeypatch.setattr(cli, "run_study", lambda *a, **k: pytest.fail("the study ran"))
        code, out, err = run_cli(
            capsys, "simulate", "--n", "60", "--q", "2", "--sigma", "disc",
            "--methods", "first-step", "--reps", "1", "--seed", "4", "--out", str(target),
        )
        assert (code, out) == (2, "")
        report = json.loads(err)
        assert report["error"] == "input" and report["message"].startswith(f"{target}: ")

    def test_unwritable_result_is_input_error(self, capsys, tmp_path):
        out_dir = tmp_path / "o2"
        (out_dir / "errors.csv").mkdir(parents=True)
        code, out, err = run_cli(
            capsys, "simulate", "--n", "60", "--q", "2", "--sigma", "disc",
            "--methods", "first-step", "--reps", "1", "--seed", "1", "--out", str(out_dir),
        )
        assert (code, out) == (2, "")
        report = json.loads(err)
        assert report["error"] == "input"
        assert report["message"].startswith(f"{out_dir}: cannot write results: ")

    def test_negative_seed_is_input_error_before_the_study(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "simulate", "--n", "60", "--q", "2", "--sigma", "disc",
            "--methods", "first-step", "--reps", "1", "--seed", "-1",
            "--out", str(out_dir),
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "input", "message": "seed must be >= 0, got -1"}
        assert not out_dir.exists()

    def test_repeated_method_is_input_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "simulate", "--n", "60", "--q", "2", "--sigma", "disc",
            "--methods", "np,np,first-step", "--reps", "1", "--seed", "4",
            "--out", str(tmp_path / "out"),
        )
        assert (code, out) == (2, "")
        assert "['np'] are repeated" in json.loads(err)["message"]
        assert not (tmp_path / "out").exists()

    def test_failed_first_step_fails_only_its_methods(self, capsys, tmp_path):
        # replication 81's first step fails at its start, where the curvature
        # and IRLS matrices of power:8 are singular (reciprocal condition
        # 4.3e-13); that is 1 failure in 82, below MAX_FAILURE_FRACTION, so
        # the study completes (oracle fails once in its own final fit).  A
        # power loss with 1 < p < 2 fails only at a singular start, which
        # unit weights on a continuous design practically never give
        code, out, err = run_cli(
            capsys, "simulate", "--n", "5", "--q", "3", "--sigma", "smooth",
            "--loss", "power:8", "--seed", "2", "--reps", "82",
            "--methods", "first-step,oracle", "--out", str(tmp_path),
        )
        assert code == 0, err
        methods = json.loads(out)["methods"]
        assert (methods["first-step"]["failed"], methods["oracle"]["failed"]) == (1, 1)
        rows = list(csv.reader((tmp_path / "errors.csv").open()))
        assert rows[-2] == ["81", "first-step", "", "degenerate-design"]
        assert rows[-1][:2] == ["81", "oracle"] and rows[-1][3] == "ok"

    def test_errors_csv_schema(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "60", "--q", "2", "--sigma", "disc",
            "--methods", "first-step", "--reps", "2", "--seed", "4",
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "errors.csv").read_text().strip().splitlines()
        assert lines[0] == "replication,method,sq_error,status"
        assert len(lines) == 3
        assert lines[1].startswith("0,first-step,")
        assert lines[1].endswith(",ok")


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--weights", "np", "--cv-grid", "1:inf:5"],
        ["fit", "--weights", "np", "--cv-grid", "nan:2:5"],
        ["fit", "--loss", "power:inf"],
        ["fit", "--loss", "huber:inf"],
        ["fit", "--weights", "np", "--bandwidth", "inf"],
        ["fit", "--weights", "sp-proj", "--epsilon", "nan"],
        ["fit", "--weights", "sp-proj", "--epsilon", "inf"],
        ["fit", "--weights", "oracle", "--oracle-beta", "1,nan"],
        ["simulate", "--n", "60", "--q", "2", "--sigma", "disc", "--reps", "1",
         "--seed", "1", "--bandwidth", "inf"],
    ],
)
def test_non_finite_number_is_input_error(capsys, derived_csv, tmp_path, argv):
    extra = ["--data", derived_csv] if argv[0] == "fit" else ["--out", str(tmp_path)]
    code, out, err = run_cli(capsys, *argv, *extra)
    assert code == 2
    report = json.loads(err)
    assert report["error"] == "input"
    assert "must be finite" in report["message"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["fit", "--weights", "np", "--bandwidth", "1e200"], "1e+200"),
        (["fit", "--weights", "sp-index", "--bandwidth", "1e200"], "1e+200"),
        (["fit", "--weights", "np", "--cv-grid", "1e200:1e201:2"], "1e+201"),
        (["fit", "--weights", "np", "--cv-grid", "1:1e160:3"], "1e+160"),
        (["simulate", "--n", "60", "--q", "2", "--sigma", "disc", "--reps", "1",
          "--seed", "1", "--methods", "np", "--bandwidth", "1e200"], "1e+200"),
    ],
)
def test_bandwidth_with_overflowing_square_is_input_error(
    capsys, derived_csv, tmp_path, argv, named
):
    extra = ["--data", derived_csv] if argv[0] == "fit" else ["--out", str(tmp_path)]
    code, out, err = run_cli(capsys, *argv, *extra)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "input"
    assert f"bandwidth {named} is too large" in report["message"]


@pytest.mark.parametrize("flags, code", [
    (["--weights", "np", "--bandwidth", "3"], 3),
    (["--weights", "np"], 3),
    (["--weights", "sp-index", "--bandwidth", "3"], 3),
    (["--weights", "sp-index"], 3),
    (["--weights", "sp-proj", "--bandwidth", "3"], 3),
    (["--weights", "sp-proj"], 3),
    (["--weights", "constant"], 3),
    (["--weights", "constant", "--loss", "power:1.5"], 3),
    (["--weights", "constant", "--loss", "huber:1.345"], 0),
])
def test_overflowing_square_is_numerical_error(capsys, tmp_path, flags, code):
    # squared scores (and, in the index geometries, squared distances) of
    # residuals near 1e160 overflow; the huber score is bounded
    path = tmp_path / "overflow.csv"
    path.write_text(OVERFLOW_CSV)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would precede the JSON error
        got, out, err = run_cli(capsys, "fit", "--data", str(path), *flags)
    assert got == code
    if code == 3:
        assert out == ""
        assert json.loads(err)["error"] == "numerical"


@pytest.mark.parametrize("sample, flags", [
    ("overflow", ["--weights", "sp-index"]),  # the index's variance overflows
    ("overflow", ["--weights", "sp-proj"]),  # |b|^2 overflows: NaN coordinates
    ("q1", ["--weights", "sp-proj", "--epsilon", "1e300"]),
    ("q2", ["--weights", "sp-proj", "--epsilon", "1e300"]),
    ("y1e-170", ["--weights", "sp-index"]),  # the index's variance underflows to 0
])
def test_failing_smoothing_input_is_numerical_error(capsys, tmp_path, sample, flags):
    # valid input and no bandwidth given: the smoothing coordinates, or the
    # default grid around their spread, fail in floating point
    path = tmp_path / "data.csv"
    if sample == "overflow":
        path.write_text(OVERFLOW_CSV)
    else:
        d = generate_sample(150, 1 if sample == "q1" else 2, "disc", replication_rng(9, 0))[0]
        write_csv(str(path), Dataset(y=d.y * (1e-170 if sample == "y1e-170" else 1.0), x=d.x))
    code, out, err = run_cli(capsys, "fit", "--data", str(path), *flags)
    assert (code, out) == (3, "")
    report = json.loads(err)
    assert report["error"] == "numerical"
    assert "smoothing coordinates" in report["message"]
    assert "bandwidth" not in report["message"]


def test_simulate_bandwidth_with_underflowing_square_is_input_error(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "simulate", "--n", "60", "--q", "2", "--sigma", "disc", "--reps", "1",
        "--seed", "1", "--methods", "np", "--bandwidth", "1e-200", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "input", "message": "bandwidth 1e-200 is too small: its square underflows"}


def test_simulate_at_subnormal_squared_bandwidth_writes_no_warning(tmp_path):
    # d2 / h^2 overflows to inf for every pair but a point's own
    proc = run_module("simulate", "--n", "60", "--q", "2", "--sigma", "disc", "--reps", "2",
                      "--seed", "1", "--methods", "np,sp", "--bandwidth", "2e-162",
                      "--out", str(tmp_path))
    assert proc.returncode == 0 and proc.stderr == ""


@pytest.mark.parametrize("flags, category", [
    (["--weights", "np", "--bandwidth", "1"], "numerical"),
    (["--weights", "np", "--bandwidth", "100"], "numerical"),
    (["--weights", "np"], "numerical"),
    (["--weights", "np", "--loss", "huber:1.345", "--bandwidth", "1"], "numerical"),
    (["--weights", "np", "--loss", "power:1.5", "--bandwidth", "1"], "degenerate-curvature"),
])
def test_exact_first_step_fit_is_numerical_error(capsys, tmp_path, flags, category):
    # every first-step score is 0, so no bandwidth gives a nonzero denominator
    path = tmp_path / "exact.csv"
    path.write_text(EXACT_FIT_CSV)
    code, out, err = run_cli(capsys, "fit", "--data", str(path), *flags)
    assert (code, out) == (3, "")
    report = json.loads(err)
    assert report["error"] == category
    if category == "numerical":
        assert "the first step fits the data exactly" in report["message"]


@pytest.mark.parametrize("name, content", [
    ("folder", None),
    ("latin1.csv", b"y,x1\n1,2\n3,\xe9\n5,7\n"),
    ("long_name.csv", b"y," + b"a" * 140000 + b"\n1,2\n3,4\n5,6\n"),
    ("long_cell.csv", b'y,x1\n1,2\n3,"' + b"1" * 140000 + b'"\n5,6\n7,8\n'),
])
def test_unreadable_data_is_input_error(capsys, tmp_path, name, content):
    path = tmp_path / name
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, out, err = run_cli(capsys, "fit", "--data", str(path))
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "input" and report["message"].startswith(f"{path}: ")


def test_huge_bandwidth_gives_constant_weights(capsys, tmp_path):
    # at h = 1e120 every kernel value is K(0), so the np weights are
    # constant; h**-3 underflows to 0 there and must not enter the smoother
    path = str(tmp_path / "disc.csv")
    write_csv(path, generate_sample(200, 3, "disc", replication_rng(5, 0))[0])
    code, out, err = run_cli(capsys, "fit", "--data", path, "--weights", "np",
                             "--bandwidth", "1e120")
    assert code == 0, err
    code_c, out_c, _ = run_cli(capsys, "fit", "--data", path, "--weights", "constant")
    assert code_c == 0
    np.testing.assert_allclose(json.loads(out)["beta"], json.loads(out_c)["beta"],
                               rtol=1e-10, atol=0.0)


def run_python(*argv):
    """``python <argv>`` in a child process that imports this checkout."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH", "")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def run_module(*argv):
    """``python -m adaweight`` in a child process that imports this checkout."""
    return run_python("-m", "adaweight", *argv)


#: Runs the CLI once per argument list in argv[1] (JSON), then fails if any
#: module named in argv[2] (JSON), or a submodule of one, was loaded.
UNUSED_MODULES_SCRIPT = """
import contextlib, io, json, sys
from adaweight.cli import main
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    assert code == 0, (args, code)
unused = json.loads(sys.argv[2])
loaded = sorted(m for m in sys.modules if any(m == u or m.startswith(u + ".") for u in unused))
assert not loaded, loaded
"""

#: What no command uses: scipy is a test dependency, and numpy.ma would come
#: from np.median's NaN check or a bare np.unique (np.quantile calls one).
UNUSED = ["scipy", "numpy.ma"]


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n0,0\n1,1\n0,2\n")
        proc = run_module("fit", "--data", str(path))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["beta"][0] == pytest.approx(1 / 3, abs=1e-9)

    def test_header_only_file_prints_only_the_error(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("y,x1\n")
        proc = run_module("fit", "--data", str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == to_json_text(
            {"error": "input", "message": f"{path}: 0 data rows is fewer than q+2=3"}
        )

    def test_no_command_prints_usage(self):
        proc = run_module()
        assert proc.returncode == 1
        assert "usage" in proc.stderr

    def test_infinite_curvature_prints_nothing_on_stdout(self, tmp_path):
        # A fresh process: LAPACK writes its argument errors to the C stdout.
        # The power fit reaches an exact zero residual on these five rows,
        # so its curvature matrix holds inf.
        path = tmp_path / "five.csv"
        write_csv(str(path), generate_sample(5, 3, "smooth", replication_rng(1, 5))[0])
        proc = run_module("fit", "--data", str(path), "--loss", "power:1.2")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert np.all(np.isfinite(json.loads(proc.stdout)["beta"]))

    def test_fit_loads_no_scipy(self, tmp_path):
        # A fresh process: other test modules import scipy into this one.
        rng = np.random.default_rng(3)
        x = rng.standard_normal((80, 2))
        y = 1.0 + x.sum(axis=1) + (0.5 + 2.0 * (x[:, 0] > 0)) * rng.standard_normal(80)
        path = tmp_path / "d.csv"
        write_csv(str(path), Dataset(y=y, x=x))
        runs = [["--weights", route, "--bandwidth", "cv"]
                for route in ("constant", "parametric", "np", "sp-index", "sp-proj")]
        runs += [
            ["--weights", "oracle", "--oracle-beta", "1,1,1", "--bandwidth", "cv"],
            ["--loss", "huber:1.345"],
            ["--loss", "power:1.5"],
        ]
        runs = [["fit", "--data", str(path), *flags] for flags in runs]
        proc = run_python("-c", UNUSED_MODULES_SCRIPT, json.dumps(runs),
                          json.dumps(UNUSED + ["concurrent.futures"]))
        assert proc.returncode == 0, proc.stderr

    def test_simulate_loads_no_scipy(self, tmp_path):
        # Fresh processes, as above: the draws' normal quantile is numpy's,
        # and only a pooled study imports concurrent.futures.
        study = ["simulate", "--n", "60", "--q", "2", "--sigma", "disc", "--reps", "2",
                 "--seed", "4", "--out", str(tmp_path)]
        pooled = study + ["--methods", "first-step,parametric,np,sp,oracle",
                          "--bandwidth", "cv", "--workers", "2"]
        for runs, unused in (([study + ["--loss", "huber:1.345"]], UNUSED + ["concurrent.futures"]),
                             ([pooled], UNUSED)):
            proc = run_python("-c", UNUSED_MODULES_SCRIPT, json.dumps(runs), json.dumps(unused))
            assert proc.returncode == 0, proc.stderr
