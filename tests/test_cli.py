"""CLI subcommands: schemas, reports, determinism, and exit codes."""

import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nuqmc import chelson_conditional, cli, forward_cdf_map, halton, qmc_estimate, transforms
from nuqmc.cli import main
from nuqmc.errors import ValidationError
from nuqmc.jsonio import load_grid_function, load_points


#: a step function whose breakpoints hold NaN
_NAN_FUNCTION = {"breakpoints": [[0.0, float("nan"), 1.0], [0.0, 1.0]],
                 "values": [0, 0, 1, 1, 1, 1], "interp": "step"}
#: finite values whose variations and sample means overflow to infinity
_HUGE_FUNCTION = {"breakpoints": [[0, 1]], "values": [1e308, -1e308]}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def points_file(tmp_path):
    return write_json(
        tmp_path / "points.json",
        {"d": 2, "points": [[0.25, 0.5], [0.75, 0.25]]},
    )


@pytest.fixture()
def uniform_file(tmp_path):
    return write_json(tmp_path / "uniform.json", {"type": "uniform", "d": 2})


class TestDiscrepancyCommand:
    def test_exact_uniform(self, capsys, tmp_path, points_file, uniform_file):
        code, out, _ = run_cli(
            capsys, "discrepancy", "--points", points_file, "--measure", uniform_file
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["method"] == "exact"
        assert 0.0 <= report["result"]["value"] <= 1.0
        assert report["config"]["subcommand"] == "discrepancy"

    def test_self_empirical_discrete_measure(self, capsys, tmp_path):
        pts = [[0.2, 0.4], [0.6, 0.8]]
        pfile = write_json(tmp_path / "p.json", {"d": 2, "points": pts})
        mfile = write_json(
            tmp_path / "m.json",
            {"type": "discrete", "atoms": [{"x": p, "w": 0.5} for p in pts]},
        )
        code, out, _ = run_cli(capsys, "discrepancy", "--points", pfile, "--measure", mfile)
        assert code == 0
        assert json.loads(out)["result"]["value"] <= 1e-12

    def test_builtin_chelson_measure_schema(self, capsys, tmp_path):
        pfile = write_json(tmp_path / "p.json", {"d": 2, "points": [[7 / 9, 20 / 27]]})
        mfile = write_json(tmp_path / "m.json", {"type": "chelson"})
        code, out, _ = run_cli(capsys, "discrepancy", "--points", pfile, "--measure", mfile)
        assert code == 0
        assert json.loads(out)["result"]["value"] == pytest.approx(610 / 729, abs=1e-12)

    def test_search_mode(self, capsys, points_file, uniform_file):
        code, out, _ = run_cli(
            capsys, "discrepancy", "--points", points_file, "--measure", uniform_file,
            "--search", "200", "--seed", "5",
        )
        assert code == 0
        assert json.loads(out)["result"]["method"] == "search"

    def test_negative_seed_exit_code(self, capsys, points_file, uniform_file):
        code, out, err = run_cli(
            capsys, "discrepancy", "--points", points_file, "--measure", uniform_file,
            "--search", "5", "--seed", "-1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "seed" in err
        assert "Traceback" not in err

    def test_budget_exceeded_exit_code(self, capsys, points_file, uniform_file):
        code, _, err = run_cli(
            capsys, "discrepancy", "--points", points_file, "--measure", uniform_file,
            "--budget", "1",
        )
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("content, says", [
        (b'{"d": 2, "points": [[0.1, ', "line 1 column"),
        (b"\xff\xfe", "can't decode byte 0xff"),  # once a UnicodeDecodeError traceback
        (b"[" * 200000, "recursion depth"),  # once a RecursionError traceback
        # once a ValueError traceback: Python refuses to convert the integer
        (b'{"d": ' + b"1" * 5000 + b', "points": [[0.1, 0.2]]}', "5000 digits"),
    ], ids=["truncated", "not-utf8", "deep", "long-integer"])
    def test_malformed_json_exit_code(self, capsys, tmp_path, uniform_file, content, says):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out, err = run_cli(
            capsys, "discrepancy", "--points", str(bad), "--measure", uniform_file
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad}: ") and says in err
        assert "Traceback" not in err

    def test_exact_in_five_dimensions(self, capsys, tmp_path):
        # 3^5 cells: the cell budget, not the dimension, decides
        pfile = write_json(tmp_path / "p.json", {"d": 5, "points": [[0.5] * 5]})
        mfile = write_json(tmp_path / "m.json", {"type": "uniform", "d": 5})
        code, out, err = run_cli(capsys, "discrepancy", "--points", pfile, "--measure", mfile)
        assert code == 0 and err == ""
        result = json.loads(out)["result"]
        assert result["method"] == "exact"
        assert result["value"] == 31 / 32
        assert result["witness"] == [0.5] * 5 and result["attained"] is True
        code, _, err = run_cli(capsys, "discrepancy", "--points", pfile, "--measure", mfile,
                               "--budget", str(3**5 - 1))
        assert code == 3
        assert "budget" in err

    def test_budget_past_what_memory_holds_exit_code(self, capsys, tmp_path):
        # 3^40 cells pass a budget of 10^20, but a row of 3^39 cells is more
        # than one array can address: refused before anything is allocated
        pfile = write_json(tmp_path / "p.json", {"d": 40, "points": [[0.5] * 40]})
        mfile = write_json(tmp_path / "m.json", {"type": "uniform", "d": 40})
        code, out, err = run_cli(capsys, "discrepancy", "--points", pfile, "--measure", mfile,
                                 "--budget", str(10**20))
        assert code == 3 and out == ""
        assert str(3**39) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("measure, points, field", [
        ({"type": "uniform", "d": "x"}, None, ".d:"),
        ({"type": "uniform", "d": 2.7}, None, ".d:"),
        ({"type": "discrete", "atoms": [5]}, None, ".atoms[0]:"),
        ({"type": "product", "axes": [3]}, None, ".axes[0]:"),
        (None, {"d": 2, "points": [[0.1, "a"]]}, ".points:"),
        ({"type": "product", "axes": [{"breakpoints": [0, 0.5, 1], "values": [0, float("nan"), 1]}]},
         {"d": 1, "points": [[0.25]]}, "CDF values"),
        ({"type": "discrete", "atoms": [{"x": [0.5, 0.5], "w": 0.5}, {"x": [0.5], "w": 0.5}]}, None,
         ".atoms[1].x"),
        ({"type": "discrete", "atoms": []}, None, ".atoms: expected a nonempty list"),
        ({"type": "product", "axes": []}, None, ".axes: expected a nonempty list"),
        ({"type": "gaussian", "d": 2}, None, ".type: unknown measure type 'gaussian'"),
        # integers past the float range, once an OverflowError traceback
        (None, {"d": 2, "points": [[10**400, 0.5]]}, ".points:"),
        ({"type": "discrete", "atoms": [{"x": [0.5, 0.5], "w": 10**400}]}, None, ".atoms[0].w:"),
        # one number where a list of numbers belongs
        (None, {"d": 2, "points": 5}, ".points: expected a list of numbers"),
        ({"type": "product", "axes": [{"breakpoints": 5, "values": [0, 1]}]},
         {"d": 1, "points": [[0.25]]}, ".axes[0].breakpoints: expected a list of numbers"),
        ({"type": "product", "axes": [{"breakpoints": [0, 1], "values": [0, 1], "values_left": 5}]},
         {"d": 1, "points": [[0.25]]}, ".axes[0].values_left: expected a list of numbers"),
        # text and booleans are not numbers, even among numbers (once exit 0)
        (None, {"d": 2, "points": [["0.1", 0.2]]}, ".points: expected a list of numbers"),
        (None, {"d": 2, "points": [["0.1", "0.2"]]}, ".points: expected a list of numbers"),
        (None, {"d": 2, "points": [[True, 0.2]]}, ".points: expected a list of numbers"),
        (None, {"d": 2, "points": [[0.5, 0.2], [1, False]]}, ".points: expected a list of numbers"),
        ({"type": "product", "axes": [{"breakpoints": [0, 1], "values": [False, 1]}]},
         {"d": 1, "points": [[0.25]]}, ".axes[0].values: expected a list of numbers"),
        (None, {"d": 2, "points": [[None, 0.2]]}, ".points: expected one number, got None"),
    ], ids=["string-d", "fractional-d", "atom-not-object", "axis-not-object", "text-coordinate",
            "nan-axis-value", "ragged-atoms", "no-atoms", "no-axes", "unknown-type",
            "huge-coordinate", "huge-weight", "points-not-a-list", "breakpoints-not-a-list",
            "values-left-not-a-list", "text-among-numbers", "text-coordinates",
            "true-among-numbers", "false-among-numbers", "false-among-cdf-values",
            "null-coordinate"])
    def test_malformed_schema_exit_code(self, capsys, tmp_path, points_file, uniform_file,
                                        measure, points, field):
        mfile = uniform_file if measure is None else write_json(tmp_path / "m.json", measure)
        pfile = points_file if points is None else write_json(tmp_path / "p.json", points)
        code, _, err = run_cli(capsys, "discrepancy", "--points", pfile, "--measure", mfile)
        assert code == 2
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["discrepancy"], ["discrepancy", "--search", "10"], ["transform"],
        ["integrate", "--certify", "--f", "{function}"],
    ], ids=["exact", "search", "transform", "certify"])
    @pytest.mark.parametrize("d", [1e300, 1e8], ids=["1e300", "1e8"])
    def test_huge_uniform_dimension_exit_code(self, capsys, tmp_path, points_file, argv, d):
        # the uniform measure stores no axis per dimension: the dimension
        # check refuses it, with no OverflowError and nothing large allocated
        ffile = write_json(tmp_path / "f.json", {"breakpoints": [[0, 1]] * 2, "values": [0] * 4})
        mfile = write_json(tmp_path / "m.json", {"type": "uniform", "d": d})
        argv = [a.format(function=ffile) for a in argv]
        code, out, err = run_cli(capsys, *argv, "--points", points_file, "--measure", mfile)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "dimensions differ" in err

    def test_missing_field_exit_code(self, capsys, tmp_path, points_file):
        mfile = write_json(tmp_path / "m.json", {"type": "discrete"})
        code, _, err = run_cli(
            capsys, "discrepancy", "--points", points_file, "--measure", mfile
        )
        assert code == 2
        assert "atoms" in err

    def test_module_guard_runs_main(self, capsys, monkeypatch, points_file, uniform_file):
        # the guard `python -m nuqmc.cli` runs, here in this process: runpy
        # warns that it executes the imported module a second time
        argv = ["discrepancy", "--points", points_file, "--measure", uniform_file]
        monkeypatch.setattr(sys, "argv", ["nuqmc", *argv])
        with pytest.warns(RuntimeWarning, match="found in sys.modules"):
            with pytest.raises(SystemExit) as done:
                runpy.run_module("nuqmc.cli", run_name="__main__")
        out = capsys.readouterr().out
        assert done.value.code == 0 and out == run_cli(capsys, *argv)[1]

    def test_module_entry_point(self, capsys, tmp_path, uniform_file):
        # `python -m nuqmc.cli` in a fresh interpreter: its report is the
        # in-process one byte for byte, and its exit codes are main's
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

        def run(*argv):
            done = subprocess.run([sys.executable, "-m", "nuqmc.cli", *argv], env=env,
                                  capture_output=True, timeout=300)
            return done.returncode, done.stdout, done.stderr

        # 1024 points: rows long enough for the orthant counts, N = 2^10
        pfile = write_json(tmp_path / "p.json", {"d": 2, "points": halton(1024, 2).points.tolist()})
        argv = ["discrepancy", "--points", pfile, "--measure", uniform_file]
        code, out, err = run(*argv)
        assert (code, err) == (0, b"")
        assert out == run_cli(capsys, *argv)[1].encode()

        bad = tmp_path / "bad.json"
        bad.write_text('{"d": 2, "points": [[0.1, ')
        code, out, err = run("discrepancy", "--points", str(bad), "--measure", uniform_file)
        assert (code, out) == (2, b"") and err.startswith(b"error:")

        code, out, err = run(*argv, "--budget", "1")
        assert (code, out) == (3, b"") and err.startswith(b"error:") and b"budget" in err


class TestVariationAndDecompose:
    @pytest.fixture()
    def indicator_file(self, tmp_path):
        # indicator of the closed box [(1/2,1/2), (1,1)] as a step function
        return write_json(
            tmp_path / "f.json",
            {
                "breakpoints": [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]],
                "values": [0, 0, 0, 0, 1, 1, 0, 1, 1],
                "interp": "step",
            },
        )

    def test_variation_fixture(self, capsys, indicator_file):
        code, out, _ = run_cli(capsys, "variation", "--function", indicator_file)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["hk_one"] == 3.0
        assert result["hk_zero"] == 1.0
        assert result["vitali"] == 1.0

    def test_decompose_round_trip(self, capsys, indicator_file):
        code, out, _ = run_cli(capsys, "decompose", "--function", indicator_file)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["measure"]["atoms"] == [{"x": [0.5, 0.5], "w": 1.0}]
        assert result["measure"]["total_variation"] == 1.0
        assert result["measure"]["roundtrip_max_weight_error"] <= 1e-12
        assert result["hk_zero_plus"] + result["hk_zero_minus"] == pytest.approx(
            result["hk_zero"], abs=1e-12
        )

    def test_multilinear_function_has_no_measure_section(self, capsys, tmp_path):
        ffile = write_json(
            tmp_path / "xy.json",
            {
                "breakpoints": [[0.0, 1.0], [0.0, 1.0]],
                "values": [0, 0, 0, 1],
                "interp": "multilinear",
            },
        )
        code, out, _ = run_cli(capsys, "variation", "--function", ffile)
        assert code == 0
        assert json.loads(out)["result"]["hk_one"] == 3.0
        code, out, _ = run_cli(capsys, "decompose", "--function", ffile)
        assert code == 0
        assert "measure" not in json.loads(out)["result"]

    @pytest.mark.parametrize("argv", [["variation"], ["decompose"], ["integrate", "--certify"]],
                             ids=["variation", "decompose", "integrate-certify"])
    def test_nan_breakpoint_exit_code(self, capsys, tmp_path, points_file, uniform_file, argv):
        ffile = write_json(tmp_path / "nan.json", _NAN_FUNCTION)
        if argv[0] == "integrate":
            argv = argv + ["--measure", uniform_file, "--points", points_file]
        code, out, err = run_cli(capsys, *argv, "--function", ffile)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "breakpoints" in err


    @pytest.mark.parametrize("argv, key", [
        (["variation"], "result.hk_one = inf"),
        (["decompose"], None),  # refused before the report, as a grid of infinite values
        # refused by the library: a certificate on an infinite estimate proves nothing
        (["integrate", "--certify"], "certificate is not finite: estimate = inf"),
    ], ids=["variation", "decompose", "integrate-certify"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_report_that_is_not_finite_exit_code(self, capsys, tmp_path, argv, key, fmt):
        # once "hk_one": Infinity, and "bound": Infinity, "satisfied": true,
        # with exit code 0 after a NumPy overflow warning
        ffile = write_json(tmp_path / "huge.json", _HUGE_FUNCTION)
        if argv[0] == "integrate":
            argv = argv + [
                "--measure", write_json(tmp_path / "u.json", {"type": "uniform", "d": 1}),
                "--points", write_json(tmp_path / "p.json", {"d": 1, "points": [[0.25], [0.5]]})]
        code, out, err = run_cli(capsys, *argv, "--function", ffile, "--format", fmt)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1  # no warning either
        if key is not None:
            assert key in err


    def test_non_finite_list_entry_is_named_by_its_index(self, capsys):
        report = {"result": {"values": [0.5, [1.0, float("-inf")]], "x": float("nan")}}
        with pytest.raises(ValidationError) as err:
            cli._emit(report, "json", None)
        assert str(err.value) == "report is not finite: result.values[1][1] = -inf"
        assert capsys.readouterr().out == ""


class TestTransformAndGenerate:
    def test_generate_then_transform(self, capsys, tmp_path):
        out_pts = tmp_path / "halton.json"
        code, out, _ = run_cli(
            capsys, "generate", "--n", "8", "--d", "2", "--out", str(out_pts),
        )
        assert code == 0
        assert json.loads(out)["result"]["written"] == str(out_pts)
        assert set(json.loads(out)["config"]) == {"subcommand", "n", "d", "format", "out"}
        payload = json.loads(out_pts.read_text())
        assert payload["d"] == 2 and len(payload["points"]) == 8

        mfile = write_json(
            tmp_path / "prod.json",
            {
                "type": "product",
                "axes": [
                    {"breakpoints": [0.0, 0.5, 1.0], "values": [0.0, 0.75, 1.0]},
                    {"breakpoints": [0.0, 1.0], "values": [0.0, 1.0]},
                ],
            },
        )
        out_image = tmp_path / "image.json"
        code, out, _ = run_cli(
            capsys, "transform", "--points", str(out_pts), "--measure", mfile,
            "--out", str(out_image),
        )
        assert code == 0
        image = json.loads(out_image.read_text())
        assert len(image["points"]) == 8
        assert all(0.0 <= c <= 1.0 for p in image["points"] for c in p)

    def test_transform_requires_product_measure(self, capsys, tmp_path, points_file):
        mfile = write_json(tmp_path / "discrete.json",
                           {"type": "discrete", "atoms": [{"x": [0.5, 0.5], "w": 1.0}]})
        code, _, err = run_cli(
            capsys, "transform", "--points", points_file, "--measure", mfile,
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "product" in err

    def test_transform_under_the_uniform_measure_is_the_identity(
            self, capsys, tmp_path, points_file, uniform_file):
        # a uniform measure is the product of identity axes
        out_image = tmp_path / "image.json"
        code, _, _ = run_cli(
            capsys, "transform", "--points", points_file, "--measure", uniform_file,
            "--out", str(out_image),
        )
        assert code == 0
        assert json.loads(out_image.read_text()) == json.loads(Path(points_file).read_text())


class TestIntegrateCommand:
    def test_certify_indicator(self, capsys, tmp_path, points_file, uniform_file):
        ffile = write_json(
            tmp_path / "f.json",
            {
                "breakpoints": [[0.0, 0.6, 1.0], [0.0, 0.7, 1.0]],
                "values": [1, 0, 0, 0, 0, 0, 0, 0, 0],
                "interp": "step",
            },
        )
        code, out, _ = run_cli(
            capsys, "integrate", "--function", ffile, "--measure", uniform_file,
            "--points", points_file, "--certify",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["satisfied"] is True
        assert result["observed_error"] <= result["bound"] + 1e-10
        assert result["reference_integral"] == pytest.approx(0.42, abs=1e-12)

    def test_certify_in_five_dimensions(self, capsys, tmp_path):
        ffile = write_json(tmp_path / "f.json", {
            "breakpoints": [[0.0, 0.5, 1.0]] * 5,
            "values": [int(i % 7 == 0) for i in range(3**5)],
            "interp": "step",
        })
        pfile = write_json(tmp_path / "p.json", {"d": 5, "points": halton(16, 5).points.tolist()})
        mfile = write_json(tmp_path / "m.json", {"type": "uniform", "d": 5})
        code, out, err = run_cli(capsys, "integrate", "--function", ffile, "--measure", mfile,
                                 "--points", pfile, "--certify")
        assert code == 0 and err == ""
        result = json.loads(out)["result"]
        assert result["satisfied"] is True
        assert 0.0 < result["discrepancy"] < 1.0

    def test_estimate_reads_no_measure(self, capsys, tmp_path, points_file):
        ffile = write_json(tmp_path / "f.json", {"breakpoints": [[0.0, 0.5, 1.0]] * 2,
                                                 "values": list(range(9))})
        code, out, err = run_cli(capsys, "integrate", "--function", ffile, "--points", points_file)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["config"]["measure"] is None
        assert report["result"] == {"estimate": qmc_estimate(load_grid_function(ffile),
                                                             load_points(points_file))}

    def test_certify_needs_a_measure(self, capsys, tmp_path, points_file):
        ffile = write_json(tmp_path / "f.json", {"breakpoints": [[0.0, 1.0]] * 2,
                                                 "values": [0] * 4})
        code, out, err = run_cli(capsys, "integrate", "--function", ffile, "--points", points_file,
                                 "--certify")
        assert (code, out) == (2, "")
        assert err == "error: --certify needs --measure\n"


class TestCounterexampleCommand:
    def test_report_values(self, capsys, tmp_path):
        csv_path = tmp_path / "boundary.csv"
        code, out, _ = run_cli(
            capsys, "counterexample", "--boundary-csv", str(csv_path),
            "--boundary-samples", "16",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["transformed_point"][0] == pytest.approx(7 / 9, abs=1e-12)
        assert result["transformed_point"][1] == pytest.approx(20 / 27, abs=1e-12)
        assert result["mu_discrepancy_transformed"] == pytest.approx(610 / 729, abs=1e-12)
        assert result["uniform_discrepancy_original"] == pytest.approx(20 / 23, abs=1e-12)
        assert result["measure_mass_probe"] == pytest.approx(22 / 25, abs=1e-12)
        assert result["uniform_mass_probe_image"] == pytest.approx(0.8, abs=1e-12)
        assert result["identity_holds"] is False
        assert result["rationals"]["mu_discrepancy_transformed"] == "610/729"
        assert result["rationals"]["uniform_discrepancy_original"] == "20/23"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "y1,image_x,image_y"
        assert len(lines) == 17

    def test_probe_box_image_is_the_forward_map_of_the_probe(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--box", "0.9,0.7")
        assert code == 0
        result = json.loads(out)["result"]
        image = forward_cdf_map(tuple(result["probe_box"]), chelson_conditional())
        assert result["probe_box_image"] == list(image)
        assert "forward_map_fixed_point_check" not in result

    def test_config_has_no_tolerance(self, capsys):
        # the identity verdict's slack is transforms.IDENTITY_TOL, not a flag
        code, out, _ = run_cli(capsys, "counterexample")
        assert code == 0
        report = json.loads(out)
        assert set(report["config"]) == {"subcommand", "point", "box", "boundary_csv",
                                         "boundary_samples", "format", "out"}
        assert report["result"]["identity_holds"] is False

    @pytest.mark.parametrize("argv, says", [
        (["--point", "abc"], "--point must be 'a,b', got 'abc'"),
        (["--point", "1,2,3"], "--point must be 'a,b', got '1,2,3'"),
        (["--box", "a,b"], "--box: could not convert string to float: 'a'"),
        # once "point must lie in [0,1]", naming the input point
        (["--box", "1.5,0.5"], "probe must lie in [0,1], got 1.5"),
    ], ids=["point-text", "point-three-numbers", "box-text", "box-outside"])
    def test_malformed_pair_exit_code(self, capsys, argv, says):
        code, out, err = run_cli(capsys, "counterexample", *argv)
        assert (code, out, err) == (2, "", f"error: {says}\n")

    def test_probe_is_checked_before_the_walks(self, capsys, monkeypatch):
        # a probe outside the cube is refused before the point is mapped and
        # either star-discrepancy is computed
        walks = []
        walk = transforms.star_discrepancy
        monkeypatch.setattr(transforms, "star_discrepancy",
                            lambda *args: walks.append(args) or walk(*args))
        code, out, err = run_cli(capsys, "counterexample", "--box", "1.5,0.5")
        assert (code, out, err) == (2, "", "error: probe must lie in [0,1], got 1.5\n")
        assert walks == []

    @pytest.mark.parametrize("argv", [
        ["generate", "--n", str(10**16), "--d", "2"],
        ["generate", "--n", "99999999999999999999", "--d", "2"],
        *(["counterexample", "--boundary-samples", str(n)]
          for n in (10**16, 2**62, 10**20)),
    ])
    def test_oversized_count_is_refused(self, capsys, tmp_path, argv):
        # an allocation this size fails before it touches memory, or is
        # refused before it is tried: more bytes than one array can address
        csv_path = tmp_path / "boundary.csv"
        if argv[0] == "counterexample":
            argv = argv + ["--boundary-csv", str(csv_path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and argv[1] in err and "fit in memory" in err
        assert not csv_path.exists()

    def test_boundary_samples_without_a_csv_are_refused(self, capsys):
        # never read without --boundary-csv; the report's config still lists
        # the default
        code, out, err = run_cli(capsys, "counterexample", "--boundary-samples", "16")
        assert (code, out) == (2, "")
        assert err == "error: --boundary-samples is read with --boundary-csv only\n"
        code, out, _ = run_cli(capsys, "counterexample")
        assert code == 0 and json.loads(out)["config"]["boundary_samples"] == 256

    def test_negative_boundary_samples(self, capsys, tmp_path):
        csv_path = tmp_path / "boundary.csv"
        code, out, err = run_cli(
            capsys, "counterexample", "--boundary-csv", str(csv_path),
            "--boundary-samples", "-1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--boundary-samples" in err
        assert "Traceback" not in err
        assert not csv_path.exists()


class TestReportPlumbing:
    def test_the_cached_parser_keeps_no_state(self, capsys, monkeypatch, tmp_path,
                                             points_file, uniform_file):
        # main reads every argv with one parser a process; calls in a row with
        # other subcommands and flags report what a fresh parser reports
        ffile = write_json(tmp_path / "f.json", {"breakpoints": [[0, 0.5, 1]], "values": [0, 1, 3]})
        disc = ["discrepancy", "--points", points_file, "--measure", uniform_file]
        argvs = [disc + ["--search", "40", "--seed", "3"], ["generate", "--n", "5", "--d", "3"],
                 disc + ["--format", "csv"], ["variation", "--function", ffile], disc,
                 ["counterexample", "--box", "0.9,0.7"], disc + ["--budget", "7"]]
        assert cli._parser() is cli._parser()
        cached = [(vars(cli._parser().parse_args(a)), run_cli(capsys, *a)) for a in argvs]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [(vars(cli.build_parser().parse_args(a)), run_cli(capsys, *a)) for a in argvs]
        assert cached == fresh
        assert [code for _, (code, _, _) in cached] == [0, 0, 0, 0, 0, 0, 3]
        assert json.loads(cached[4][1][1])["config"]["search"] is None

    def test_byte_identical_reports(self, capsys, points_file, uniform_file):
        disc = ["discrepancy", "--points", points_file, "--measure", uniform_file]
        for argv in (disc, disc + ["--search", "50", "--seed", "9"]):
            _, out1, _ = run_cli(capsys, *argv)
            _, out2, _ = run_cli(capsys, *argv)
            assert out1 == out2

    def test_csv_format(self, capsys, points_file, uniform_file):
        code, out, _ = run_cli(
            capsys, "discrepancy", "--points", points_file, "--measure", uniform_file,
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert any(line.startswith("result.value,") for line in out.splitlines())

    def test_report_written_to_file(self, tmp_path, capsys, points_file, uniform_file):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "discrepancy", "--points", points_file, "--measure", uniform_file,
            "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert "value" in json.loads(out_path.read_text())["result"]

    def test_unwritable_report_path(self, tmp_path, capsys, points_file, uniform_file):
        code, out, err = run_cli(
            capsys, "discrepancy", "--points", points_file, "--measure", uniform_file,
            "--out", str(tmp_path / "missing" / "report.json"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_unwritable_point_file(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "generate", "--n", "4", "--d", "2",
            "--out", str(tmp_path / "missing" / "points.json"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_thread_cap_env_validation(self, capsys, monkeypatch, points_file, uniform_file):
        # QMK_THREADS is no longer read: it changes neither the exit code
        # nor the report, and config lists only the subcommand's own flags
        argv = ["discrepancy", "--points", points_file, "--measure", uniform_file]
        _, plain, _ = run_cli(capsys, *argv)
        monkeypatch.setenv("QMK_THREADS", "zero")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out == plain
        config = json.loads(out)["config"]
        assert "threads" not in config
        assert set(config) == {"subcommand", "points", "measure", "search", "seed",
                               "budget", "format", "out"}


@pytest.mark.parametrize("argv", [
    ["generate", "--n", "4", "--d", "2", "--seed", "3"],
    ["variation", "--function", "f.json", "--budget", "5"],
    ["decompose", "--function", "f.json", "--max-exact-dim", "2"],
    ["transform", "--points", "p.json", "--measure", "m.json", "--tolerance", "1e-9"],
    ["integrate", "--f", "f.json", "--measure", "m.json", "--points", "p.json", "--seed", "1"],
    ["counterexample", "--budget", "5"],
    ["counterexample", "--tolerance", "1e-9"],
    ["discrepancy", "--points", "p.json", "--measure", "m.json", "--tolerance", "1e-9"],
    ["discrepancy", "--points", "p.json", "--measure", "m.json", "--max-exact-dim", "4"],
    ["integrate", "--f", "f.json", "--measure", "m.json", "--points", "p.json",
     "--max-exact-dim", "4"],
    # declared, but read in exact mode only: refused before any file is read
    ["integrate", "--f", "f.json", "--measure", "m.json", "--points", "p.json",
     "--budget", "0"],
    ["discrepancy", "--points", "p.json", "--measure", "m.json", "--search", "5",
     "--budget", "0"],
    ["discrepancy", "--points", "p.json", "--measure", "m.json", "--seed", "0"],
    # the estimate (1/N) sum f(x_n) reads no measure
    ["integrate", "--f", "f.json", "--points", "p.json", "--measure", "m.json"],
    # retired: its one choice selected nothing
    ["generate", "--kind", "halton", "--n", "4", "--d", "2"],
], ids=["generate-seed", "variation-budget", "decompose-max-exact-dim", "transform-tolerance",
        "integrate-seed", "counterexample-budget", "counterexample-tolerance",
        "discrepancy-tolerance",
        "discrepancy-max-exact-dim", "integrate-max-exact-dim",
        "integrate-uncertified-budget", "discrepancy-search-budget",
        "discrepancy-exact-seed", "integrate-uncertified-measure", "generate-kind"])
def test_flag_the_subcommand_does_not_read_is_rejected(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # an undeclared flag is an argparse usage error
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    if argv[0] in ("integrate", "discrepancy") and "--budget" in argv:
        assert err.startswith("error: --budget is read in exact mode only")
    elif argv[0] == "discrepancy" and "--seed" in argv:
        assert err.startswith("error: --seed is read with --search only")
    elif argv[0] == "integrate" and argv[-2] == "--measure":
        assert err.startswith("error: --measure is read with --certify only")
    else:
        assert "unrecognized arguments" in err


# ---------------------------------------------------------------------------
# fuzzing: every input ends in exit 0, 2 or 3, never in a traceback
# ---------------------------------------------------------------------------

_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=2), st.integers(-2, 5),
    st.floats(allow_nan=True, allow_infinity=True), st.just([]), st.just({}),
)
_UNIT = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


def _rarely(odd, usual, one_in=10):
    """``odd`` about once in ``one_in`` draws, else ``usual``."""
    return st.integers(1, one_in).flatmap(lambda r: odd if r == 1 else usual)


def _field(clean, messy: bool):
    """A field of a document: in a messy document, sometimes junk."""
    return _rarely(_JUNK, clean) if messy else clean


@st.composite
def _axis(draw, messy):
    """Breakpoints from 0 to 1 with a nondecreasing CDF ending at 1."""
    inner = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75]), max_size=3, unique=True))
    bps = [0.0] + sorted(inner) + [1.0]
    values = [b * b for b in bps] if draw(st.booleans()) else bps
    axis = {"breakpoints": draw(_field(st.just(bps), messy)),
            "values": draw(_field(st.just(values), messy))}
    if draw(st.booleans()):
        axis["values_left"] = draw(_field(st.just([0.0] + values[1:]), messy))
    return axis


@st.composite
def _points_doc(draw, d, messy):
    coord = _field(_UNIT, messy)
    points = draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                           min_size=int(not messy), max_size=5))
    return {"d": draw(_field(st.just(d), messy)), "points": points}


@st.composite
def _measure_doc(draw, d, messy):
    kind = draw(st.sampled_from(["uniform", "discrete", "product", "chelson"]))
    if kind == "uniform":
        return {"type": "uniform", "d": draw(_field(st.just(d), messy))}
    if kind == "discrete":
        k = draw(st.integers(1, 4))
        atoms = [{"x": draw(st.lists(_field(_UNIT, messy), min_size=d, max_size=d)),
                  "w": draw(_field(st.just(1.0 / k), messy))} for _ in range(k)]
        return {"type": "discrete", "atoms": atoms}
    if kind == "product":
        return {"type": "product", "axes": [draw(_axis(messy)) for _ in range(d)]}
    return {"type": draw(_field(st.just("chelson"), messy))}


@st.composite
def _function_doc(draw, d, messy):
    axes = [draw(_axis(False))["breakpoints"] for _ in range(d)]
    size = 1
    for b in axes:
        size *= len(b)
    values = draw(st.lists(_field(st.integers(-3, 3), messy), min_size=size, max_size=size))
    return {"breakpoints": draw(_field(st.just(axes), messy)),
            "values": values,
            "interp": draw(_field(st.sampled_from(["step", "multilinear"]), messy))}


_DOCUMENTS = {"points": _points_doc, "measure": _measure_doc, "function": _function_doc}
_BAD_FILE = st.one_of(
    _JUNK,
    st.just('{"d": 2, "points": [[0.1, '),  # malformed JSON, written as is
    # bytes, written as is: not UTF-8, nested past the recursion limit, an
    # integer past Python's integer-string limit
    st.sampled_from([b"\xff\xfe", b"[" * 200000,
                     b'{"type": "uniform", "d": ' + b"1" * 5000 + b"}"]),
    st.just("missing"),  # no such file
)


def _int_flag(lo, hi):
    """An integer flag valid from ``lo`` to ``hi``: its edges, the value just
    below, one inside, or text that is not an integer."""
    return st.one_of(
        st.sampled_from([lo - 1, lo, hi]).map(str),
        st.integers(lo, hi).map(str),
        st.sampled_from(["x", "1.5"]),
    )


_PAIR_FLAG = _rarely(
    st.sampled_from(["0.5", "a,b", "1,2,3", "nan,0.5", "-0.5,2"]),
    st.tuples(_UNIT, _UNIT).map(lambda p: f"{p[0]!r},{p[1]!r}"),
)

#: per subcommand: the input files it reads, and its numeric flags
_FLAGS = {
    "discrepancy": (["points", "measure"], {
        "--search": _int_flag(1, 40), "--seed": _int_flag(0, 2**70),
        "--budget": _int_flag(1, 10**6)}),
    "variation": (["function"], {}),
    "decompose": (["function"], {}),
    "transform": (["points", "measure"], {}),
    "integrate": (["function", "points"], {"--budget": _int_flag(1, 10**6)}),
    "generate": ([], {"--n": _int_flag(1, 40), "--d": _int_flag(1, 8)}),
    "counterexample": ([], {
        "--boundary-samples": _int_flag(0, 20),
        "--point": _PAIR_FLAG, "--box": _PAIR_FLAG}),
}


@st.composite
def _request(draw):
    """``(argv, files)``: the argv names each input file by its kind, and
    ``files`` maps a kind to the document to write there."""
    sub = draw(st.sampled_from(sorted(_FLAGS)))
    inputs, numeric = _FLAGS[sub]
    certify = sub == "integrate" and draw(st.booleans())
    if certify:  # --measure is read with --certify only
        inputs = inputs + ["measure"]
    d = draw(st.integers(1, 3))
    argv, files = [sub], {}
    for kind in inputs:
        argv += ["--" + kind, kind]
        files[kind] = draw(_rarely(_BAD_FILE, st.booleans().flatmap(
            lambda messy, kind=kind: _DOCUMENTS[kind](d, messy))))
    for flag, values in numeric.items():
        if draw(st.integers(0, 2)):  # two times in three
            argv += [flag, draw(values)]
    if certify:
        argv.append("--certify")
    if sub == "counterexample" and draw(st.booleans()):
        argv += ["--boundary-csv", "boundary.csv"]
    argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    out = draw(_rarely(st.just("missing/out.json"), st.sampled_from([None, "out.json"])))
    if out:
        argv += ["--out", out]
    return argv, files


_POINTS = {"d": 2, "points": [[0.25, 0.5]]}
_UNIFORM = {"type": "uniform", "d": 2}


class TestCliFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_request())
    # inputs that once ended in a traceback
    @example((["discrepancy", "--points", "points", "--measure", "measure",
               "--search", "5", "--seed", "-1"], {"points": _POINTS, "measure": _UNIFORM}))
    @example((["generate", "--n", "4", "--d", "2", "--out", "missing/out.json"], {}))
    # counts past memory, once a traceback
    @example((["generate", "--n", str(10**16), "--d", "2"], {}))
    @example((["generate", "--n", str(10**20), "--d", "2"], {}))
    @example((["counterexample", "--boundary-csv", "boundary.csv",
               "--boundary-samples", str(10**16)], {}))
    @example((["counterexample", "--boundary-csv", "boundary.csv",
               "--boundary-samples", str(2**62)], {}))
    # found by this test: a whole-number float dimension of 2^60 with no points
    @example((["discrepancy", "--points", "points", "--measure", "measure"],
              {"points": {"d": float(2**60), "points": []}, "measure": _UNIFORM}))
    # NaN breakpoints, once a NaN reference integral and exit 0
    @example((["integrate", "--function", "function", "--measure", "measure",
               "--points", "points", "--certify"],
              {"function": _NAN_FUNCTION, "measure": _UNIFORM, "points": _POINTS}))
    @example((["variation", "--function", "function"], {"function": _NAN_FUNCTION}))
    # values near the float limit, once an infinite report and exit 0
    @example((["variation", "--function", "function"], {"function": _HUGE_FUNCTION}))
    def test_exit_code_is_documented_and_no_traceback(self, request):
        argv, files = request
        with tempfile.TemporaryDirectory() as tmp:
            where = {"boundary.csv", "out.json", "missing/out.json", *files}
            paths = {name: str(Path(tmp) / name) for name in where}
            for kind, doc in files.items():
                if doc == "missing":
                    continue
                if isinstance(doc, bytes):
                    Path(paths[kind]).write_bytes(doc)
                    continue
                text = doc if isinstance(doc, str) and doc.startswith("{") else json.dumps(doc)
                Path(paths[kind]).write_text(text)
            argv = [argv[0]] + [paths.get(a, a) for a in argv[1:]]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            report = stdout.getvalue()
            if code == 0 and "--out" in argv and argv[0] not in ("transform", "generate"):
                report = Path(argv[argv.index("--out") + 1]).read_text()
        assert code in (0, 2, 3), (argv, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        if "--seed" in argv and "--search" not in argv:
            assert code == 2, argv  # an exact run never reads the seed
        if code:
            assert stderr.getvalue(), argv
        elif "csv" not in argv:
            json.loads(report, parse_constant=_no_constant(argv))


def _no_constant(argv):
    """A ``parse_constant`` hook: the JSON parser calls it on ``NaN``,
    ``Infinity`` and ``-Infinity``, none of which a report may hold."""
    def reject(name):
        raise AssertionError(f"exit 0 with {name} in the report: {argv}")
    return reject
