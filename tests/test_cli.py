import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from adaweight import (
    DataError,
    Dataset,
    LossFunction,
    cv_bandwidth,
    epsilon_perturbation,
    first_step,
    fit_wls,
    inverse_variance_map,
    np_weights,
    oracle_weights,
    parametric_weights,
    sandwich_covariance,
    sp_index_weights,
    sp_projected_weights,
)
from adaweight.cli import main
from adaweight.dataio import read_csv, to_json_text, write_csv


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

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(91)
        d = Dataset(y=rng.normal(size=20), x=rng.normal(size=(20, 3)))
        path = str(tmp_path / "rt.csv")
        write_csv(path, d)
        back = read_csv(path)
        assert np.array_equal(back.y, d.y)
        assert np.array_equal(back.x, d.x)

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

    def test_bad_loss_spec_is_input_error(self, capsys, derived_csv):
        code, _, err = run_cli(capsys, "fit", "--data", derived_csv, "--loss", "huber")
        assert code == 2
        code, _, err = run_cli(capsys, "fit", "--data", derived_csv, "--loss", "power:0.5")
        assert code == 2


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


def run_module(*argv):
    """``python -m adaweight`` in a child process that imports this checkout."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH", "")) if p)
    return subprocess.run(
        [sys.executable, "-m", "adaweight", *argv], capture_output=True, text=True, env=env
    )


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n0,0\n1,1\n0,2\n")
        proc = run_module("fit", "--data", str(path))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["beta"][0] == pytest.approx(1 / 3, abs=1e-9)

    def test_no_command_prints_usage(self):
        proc = run_module()
        assert proc.returncode == 1
        assert "usage" in proc.stderr
