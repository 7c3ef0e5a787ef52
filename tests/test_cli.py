import json
import math
from pathlib import Path

import numpy as np
import pytest

from hsdcov import cli
from hsdcov.cli import main


def write_csv(path, rows, header=None):
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


@pytest.fixture
def sample_files(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, 3))
    x_path = tmp_path / "x.csv"
    y_path = tmp_path / "y.csv"
    write_csv(x_path, x.tolist())
    write_csv(y_path, x.tolist())  # y == x: perfectly dependent
    return x_path, y_path


class TestCmdTest:
    def test_identical_data_rejects(self, sample_files, capsys):
        x_path, y_path = sample_files
        code = main(["test", "--x", str(x_path), "--y", str(y_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["reject"] is True
        assert report["statistic"] == pytest.approx(12 / math.sqrt(2), rel=1e-9)
        assert report["config"]["alpha"] == 0.05

    def test_constant_y_degenerate(self, tmp_path, capsys):
        x_path = tmp_path / "x.csv"
        y_path = tmp_path / "y.csv"
        write_csv(x_path, np.random.default_rng(1).normal(size=(6, 2)).tolist())
        write_csv(y_path, [[1.0, 1.0]] * 6)
        code = main(["test", "--x", str(x_path), "--y", str(y_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["reject"] is False
        assert report["degenerate"] is True
        assert report["p_value"] == 1.0

    def test_ragged_csv_exit_2(self, tmp_path, capsys):
        x_path = tmp_path / "x.csv"
        with open(x_path, "w") as fh:
            fh.write("1.0,2.0\n3.0\n")
        y_path = tmp_path / "y.csv"
        write_csv(y_path, [[1.0]] * 2)
        code = main(["test", "--x", str(x_path), "--y", str(y_path)])
        assert code == 2
        assert "row 2" in capsys.readouterr().err

    def test_non_numeric_exit_2(self, tmp_path, capsys):
        x_path = tmp_path / "x.csv"
        with open(x_path, "w") as fh:
            fh.write("1.0,oops\n")
        y_path = tmp_path / "y.csv"
        write_csv(y_path, [[1.0]])
        assert main(["test", "--x", str(x_path), "--y", str(y_path)]) == 2

    def test_row_mismatch_exit_3(self, tmp_path, capsys):
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        write_csv(x_path, [[1.0], [2.0], [3.0], [4.0], [5.0]])
        write_csv(y_path, [[1.0], [2.0], [3.0], [4.0]])
        assert main(["test", "--x", str(x_path), "--y", str(y_path)]) == 3
        assert "mismatch" in capsys.readouterr().err

    def test_too_few_rows_exit_3(self, tmp_path):
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        write_csv(x_path, [[1.0], [2.0], [3.0]])
        write_csv(y_path, [[1.0], [2.0], [3.0]])
        assert main(["test", "--x", str(x_path), "--y", str(y_path)]) == 3

    def test_median_bandwidth_on_constant_block_exit_3(self, tmp_path, capsys):
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        write_csv(x_path, np.random.default_rng(3).normal(size=(6, 2)).tolist())
        write_csv(y_path, [[2.0]] * 6)
        code = main([
            "test", "--x", str(x_path), "--y", str(y_path),
            "--bandwidth", "median",
        ])
        assert code == 3
        assert "zero" in capsys.readouterr().err

    def test_header_flag(self, tmp_path, capsys):
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        data = np.random.default_rng(2).normal(size=(8, 2)).tolist()
        write_csv(x_path, data, header=["a", "b"])
        write_csv(y_path, data, header=["c", "d"])
        assert main(
            ["test", "--x", str(x_path), "--y", str(y_path), "--header"]
        ) == 0

    def test_output_file(self, sample_files, tmp_path):
        x_path, y_path = sample_files
        out = tmp_path / "report.json"
        assert main(
            ["test", "--x", str(x_path), "--y", str(y_path), "--output", str(out)]
        ) == 0
        assert json.loads(out.read_text())["reject"] is True


class TestCsvInput:
    """Accepted CSV layouts parse to float64 arrays, and every malformed file
    exits 2 naming its path."""

    @pytest.mark.parametrize(
        "text, header, want",
        [
            ("1,2\n\n3,4\n\n", False, [[1, 2], [3, 4]]),
            ("1,2\r\n3,4\r\n", False, [[1, 2], [3, 4]]),
            ('"1.5",2\n3," 4"\n', False, [[1.5, 2], [3, 4]]),
            ("1,2,3\n", False, [[1, 2, 3]]),
            ("1\n2\n3\n", False, [[1], [2], [3]]),
            ("a,b\n1,2\n3,4\n", True, [[1, 2], [3, 4]]),
        ],
        ids=["blank-lines", "crlf", "quoted", "single-row", "single-column", "header"],
    )
    def test_parses(self, text, header, want, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        got = cli._read_csv_matrix(str(path), header)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.array(want, dtype=np.float64))

    @pytest.mark.parametrize(
        "text, header",
        [
            ("1,2\n3\n", False),
            ("1,x\n", False),
            ("1,#\n", False),
            ("1,2,\n", False),
            ("", False),
            ("a,b\n", True),
        ],
        ids=["ragged", "non-numeric", "hash", "trailing-comma", "empty", "header-only"],
    )
    def test_malformed_exit_2(self, text, header, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        argv = ["test", "--x", str(path), "--y", str(path)]
        assert main(argv + ["--header"] * header) == 2
        err = capsys.readouterr().err
        assert err.startswith("hsdcov: error: ")
        assert str(path) in err


class TestCmdClt:
    def run_small(self, tmp_path, name, extra=()):
        csv_out = tmp_path / f"{name}.csv"
        json_out = tmp_path / f"{name}.json"
        args = [
            "clt",
            "--n", "50", "--p", "8", "--rho", "0.0",
            "--reps", "40", "--seed", "77",
            "--csv-out", str(csv_out), "--json-out", str(json_out),
            *extra,
        ]
        assert main(args) == 0
        return csv_out.read_bytes(), json.loads(json_out.read_text())

    def test_csv_layout(self, tmp_path):
        raw, summary = self.run_small(tmp_path, "a")
        lines = raw.decode().strip().split("\n")
        assert lines[0] == "prob,normal_quantile,sample_quantile"
        assert len(lines) == 100
        first = lines[1].split(",")
        assert float(first[0]) == 0.01
        assert 0.0 <= summary["ks_distance"] <= 1.0
        assert summary["config"]["seed"] == 77

    def test_summary_json_replays_as_config(self, tmp_path):
        _, summary = self.run_small(tmp_path, "orig")
        csv_a = (tmp_path / "orig.csv").read_bytes()
        replay_csv = tmp_path / "replay.csv"
        assert main([
            "--config", str(tmp_path / "orig.json"),
            "clt", "--csv-out", str(replay_csv),
            "--json-out", str(tmp_path / "replay.json"),
        ]) == 0
        assert replay_csv.read_bytes() == csv_a

    def test_byte_identical_reruns(self, tmp_path):
        a, _ = self.run_small(tmp_path, "r1")
        b, _ = self.run_small(tmp_path, "r2")
        assert a == b

    def test_threads_do_not_change_bytes(self, tmp_path):
        a, _ = self.run_small(tmp_path, "t1", extra=("--threads", "1"))
        b, _ = self.run_small(tmp_path, "t4", extra=("--threads", "4"))
        assert a == b

    def test_two_reps_degenerate_output(self, tmp_path):
        csv_out = tmp_path / "two.csv"
        assert main([
            "clt", "--n", "20", "--p", "4", "--rho", "0.0",
            "--reps", "2", "--seed", "1", "--csv-out", str(csv_out),
            "--json-out", str(tmp_path / "two.json"),
        ]) == 0
        lines = csv_out.read_text().strip().split("\n")
        assert len(lines) == 100  # quantile grid independent of rep count

    def test_gaussian_kernel_flags(self, tmp_path):
        assert main([
            "clt", "--n", "40", "--p", "8", "--rho", "0.1",
            "--dist", "uniform", "--kernel", "gaussian",
            "--bandwidth", "rho:1.4142135", "--standardize", "null",
            "--reps", "30", "--seed", "5",
            "--json-out", str(tmp_path / "g.json"),
        ]) == 0

    def test_invalid_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["clt", "--dist", "cauchy"])
        assert exc.value.code == 2

    def test_invalid_reps_exit_2(self, tmp_path):
        assert main([
            "clt", "--n", "20", "--p", "4", "--reps", "1",
            "--json-out", str(tmp_path / "bad.json"),
        ]) == 2


class TestCmdPower:
    def test_table_layout_and_meta(self, tmp_path):
        out = tmp_path / "power.csv"
        assert main([
            "power", "--n", "50", "--p", "8",
            "--rho-grid", "0.0,0.4",
            "--kernels", "identity,gaussian",
            "--bandwidths", "rho:1.0",
            "--reps", "30", "--seed", "3", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "kernel,bandwidth,rho,empirical_power,theoretical_power,std_err"
        assert len(lines) == 1 + 2 * 1 * 2
        meta = json.loads((tmp_path / "power.csv.meta.json").read_text())
        assert meta["config"]["seed"] == 3

    def test_single_rho_single_row(self, tmp_path):
        out = tmp_path / "single.csv"
        assert main([
            "power", "--n", "50", "--p", "8", "--rho-grid", "0",
            "--reps", "20", "--seed", "4", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2

    def test_determinism(self, tmp_path):
        args = [
            "power", "--n", "40", "--p", "6", "--rho-grid", "0.0,0.3",
            "--reps", "25", "--seed", "12",
        ]
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2), "--threads", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_out_exit_2(self):
        assert main(["power", "--rho-grid", "0.0"]) == 2

    def test_meta_config_roundtrip(self, tmp_path):
        # re-running from an output's embedded config reproduces it exactly
        first = tmp_path / "first.csv"
        assert main([
            "power", "--n", "40", "--p", "6", "--rho-grid", "0.0,0.3",
            "--kernels", "identity,gaussian", "--bandwidths", "rho:1.0,median",
            "--reps", "20", "--seed", "31", "--out", str(first),
        ]) == 0
        second = tmp_path / "second.csv"
        assert main([
            "--config", str(tmp_path / "first.csv.meta.json"),
            "power", "--out", str(second),
        ]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestCmdTheory:
    def test_null_sigma_closed_form(self, capsys):
        assert main([
            "theory", "--p", "100", "--q", "100", "--rho-xy", "0", "--n", "200",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sigma_sq"] == pytest.approx(1 / (2 * 200 * 199), rel=1e-12)
        assert report["sigma1_sq"] == 0.0
        assert "warnings" not in report  # sigma1 >= 0, so there is nothing to warn of

    def test_local_parameter(self, capsys):
        assert main([
            "theory", "--p", "100", "--q", "100", "--rho-xy", "0.1", "--n", "1000",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["A"] == pytest.approx(10.0, rel=1e-12)

    def test_csv_blocks(self, tmp_path, capsys):
        sx, sy, sxy = tmp_path / "sx.csv", tmp_path / "sy.csv", tmp_path / "sxy.csv"
        write_csv(sx, np.eye(2).tolist())
        write_csv(sy, np.eye(2).tolist())
        write_csv(sxy, (0.5 * np.eye(2)).tolist())
        assert main([
            "theory", "--sigma-x", str(sx), "--sigma-y", str(sy),
            "--sigma-xy", str(sxy), "--n", "100",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mean"] == pytest.approx(0.125, rel=1e-12)

    def test_non_psd_exit_3(self, tmp_path):
        sx, sy, sxy = tmp_path / "sx.csv", tmp_path / "sy.csv", tmp_path / "sxy.csv"
        write_csv(sx, np.eye(2).tolist())
        write_csv(sy, np.eye(2).tolist())
        write_csv(sxy, (1.5 * np.eye(2)).tolist())
        assert main([
            "theory", "--sigma-x", str(sx), "--sigma-y", str(sy),
            "--sigma-xy", str(sxy), "--n", "100",
        ]) == 3

    def test_missing_inputs_exit_2(self):
        assert main(["theory", "--n", "100"]) == 2


class TestCmdEigencheck:
    def test_zero_a(self, capsys):
        assert main(["eigencheck", "--p", "5", "--q", "4", "--a", "0", "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_identity_error"] == 0.0
        assert report["nontrivial_eigencount"] == 0

    def test_random_seeded(self, capsys):
        a = 1.0 / (4 * 6 * 6)
        assert main([
            "eigencheck", "--p", "6", "--q", "6", "--a", str(a), "--seed", "9",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_identity_error"] <= 1e-8
        assert report["nontrivial_eigencount"] <= 4

    def test_aligned_sign_files(self, tmp_path, capsys):
        u_path, v_path = tmp_path / "u.csv", tmp_path / "v.csv"
        signs = [1.0, -1.0, 1.0, 1.0]
        write_csv(u_path, [signs, signs])
        write_csv(v_path, [signs, signs])
        assert main([
            "eigencheck", "--p", "4", "--q", "4", "--a", str(1 / 64),
            "--u-signs", str(u_path), "--v-signs", str(v_path),
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_identity_error"] <= 1e-10

    def test_invalid_scale_exit_3(self):
        assert main(["eigencheck", "--p", "6", "--q", "6", "--a", "0.5"]) == 3

    def test_lapack_failure_exit_3(self, monkeypatch, capsys):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        assert main(["eigencheck", "--p", "4", "--q", "4"]) == 3
        assert capsys.readouterr().err.startswith("hsdcov: error: ")

    def test_seed_keys_the_library_stream(self, capsys):
        # the signs come from derive_stream(seed, 0), which reads the seed
        # modulo 2**64, so -1 and 2**64 - 1 draw the same signs
        reports = []
        for seed in ("-1", str(2**64 - 1)):
            assert main(["eigencheck", "--seed", seed]) == 0
            report = json.loads(capsys.readouterr().out)
            del report["config"]["seed"]
            reports.append(json.dumps(report, sort_keys=True))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("p, q", [(6, 6), (12, 12), (3, 10)])
    def test_default_scale_follows_p_and_q(self, p, q, capsys):
        assert main(["eigencheck", "--p", str(p), "--q", str(q)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["a"] == 1.0 / (4 * p * q)
        assert report["max_identity_error"] <= 1e-8


class TestConfigMerging:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 100, "q": 100, "rho_xy": 0.1, "n": 1000}))
        assert main(["--config", str(cfg), "theory"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["A"] == pytest.approx(10.0, rel=1e-12)

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 100, "q": 100, "rho_xy": 0.1, "n": 1000}))
        assert main(["--config", str(cfg), "theory", "--n", "500"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["A"] == pytest.approx(5.0, rel=1e-12)

    def test_env_seed_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HSDCOV_SEED", "4242")
        assert main([
            "eigencheck", "--p", "4", "--q", "4", "--a", str(1 / 64),
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["seed"] == 4242

    def test_malformed_env_seed_exit_2(self, monkeypatch, capsys):
        monkeypatch.setenv("HSDCOV_SEED", "abc")
        assert main(["clt", "--reps", "2", "--n", "10", "--p", "2"]) == 2
        assert "bad seed 'abc'" in capsys.readouterr().err

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        assert main(["--config", str(cfg), "theory", "--p", "4", "--rho-xy", "0"]) == 2


class TestExitCodes:
    """Library errors reach the documented 2/3 codes, never a traceback."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["clt", "--n", "3", "--p", "2", "--reps", "4"], 3),
            (["power", "--n", "3", "--p", "2", "--reps", "2", "--out", "{d}/o.csv"], 3),
            (["theory", "--p", "3", "--rho-xy", "0.1", "--n", "1"], 3),
            (["theory", "--p", "-1", "--rho-xy", "0.1"], 2),
            (["power", "--kernels", ",", "--out", "{d}/o.csv"], 2),
            (["theory", "--p", "3", "--rho-xy", "0.1", "--output", "{d}/no/r.json"], 2),
            (["test", "--x", "{d}/x.csv", "--y", "{d}/x.csv", "--alpha", "2"], 2),
            (["theory", "--p", "3", "--rho-xy", "0.1", "--alpha", "2"], 2),
            (["power", "--alpha", "2", "--out", "{d}/o.csv"], 2),
            (["eigencheck", "--p", "0"], 2),
            (["eigencheck", "--p", "-1"], 2),
            (["eigencheck", "--p", "3", "--q", "3", "--a", "nan"], 2),
            (["eigencheck", "--p", "3", "--q", "3", "--a", "inf"], 2),
            (["power", "--p", "0", "--out", "{d}/o.csv"], 2),
            (["power", "--n", "0", "--out", "{d}/o.csv"], 2),
            (["power", "--rho-grid", "1.0", "--out", "{d}/o.csv"], 2),
            (["test", "--x", "{d}/x.csv", "--y", "{d}/x.csv", "--bandwidth", "fixed:inf"], 2),
            (["test", "--x", "{d}/x.csv", "--y", "{d}/x.csv", "--bandwidth", "rho:inf"], 2),
            (["test", "--x", "{d}/x.csv", "--y", "{d}/x.csv", "--bandwidth", "fixed:nan"], 2),
            (["clt", "--bandwidth", "rho:inf", "--reps", "2"], 2),
            (["theory", "--p", "0", "--rho-xy", "0.1"], 2),
            (["theory", "--p", "3", "--q", "0", "--rho-xy", "0.1"], 2),
            # a subnormal target overflows gamma to inf: refused, not degenerate
            (["test", "--x", "{d}/x.csv", "--y", "{d}/x.csv", "--kernel", "gaussian",
              "--bandwidth", "rho:1e-320"], 3),
            (["clt", "--n", "20", "--p", "4", "--kernel", "gaussian",
              "--bandwidth", "rho:1e-320", "--reps", "2"], 3),
            (["--config", "{d}/list.json", "theory", "--p", "3", "--rho-xy", "0.1"], 2),
            (["test"], 2),
            (["theory", "--sigma-x", "{d}/x.csv"], 2),
            # x.csv is 5 x 1, not 2 rows of 3 signs
            (["eigencheck", "--p", "3", "--q", "3",
              "--u-signs", "{d}/x.csv", "--v-signs", "{d}/x.csv"], 2),
            (["eigencheck", "--u-signs", "{d}/x.csv"], 2),
        ],
    )
    def test_exit_code(self, argv, code, tmp_path, capsys):
        write_csv(tmp_path / "x.csv", [[1.0], [2.0], [4.0], [3.0], [5.0]])
        (tmp_path / "list.json").write_text("[]")
        assert main([a.format(d=tmp_path) for a in argv]) == code
        err = capsys.readouterr().err
        assert err.startswith("hsdcov: error: ")
        if "rho:1e-320" in argv:  # test and clt name the same rule
            assert "bandwidth must be finite and positive" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "config", [{"kernel": "cubic"}, {"n": "many"}, {"bandwidth": "wide"}]
    )
    def test_bad_config_value_exit_2(self, config, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["--config", str(cfg), "clt", "--reps", "2"]) == 2

    # "false" is truthy text: read as a switch it would drop the first data row
    @pytest.mark.parametrize("header", ["false", "true", 0, 1, None])
    def test_test_header_must_be_json_boolean(self, header, tmp_path, capsys):
        write_csv(tmp_path / "x.csv", [[1.0], [2.0], [4.0], [3.0], [5.0]])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x": str(tmp_path / "x.csv"), "y": str(tmp_path / "x.csv"),
                                   "header": header}))
        code = main(["--config", str(cfg), "test"])
        if header is None:  # an absent value takes the default
            assert code == 0
            assert json.loads(capsys.readouterr().out)["config"]["header"] is False
        else:
            assert code == 2
            assert "bad header" in capsys.readouterr().err


# case: (command, flags of the first run, output flags, file embedding the config)
REPLAY_CASES = {
    "test": (
        "test",
        ["--x", "{d}/x.csv", "--y", "{d}/y.csv", "--kernel", "laplace",
         "--bandwidth", "median", "--alpha", "0.1", "--header"],
        ["--output", "{d}/{run}.json"],
        "{d}/{run}.json",
    ),
    "clt": (
        "clt",
        ["--n", "30", "--p", "4", "--rho", "0.2", "--dist", "t4",
         "--kernel", "gaussian", "--bandwidth", "rho:1.5", "--reps", "12",
         "--seed", "8", "--standardize", "theory", "--center", "empirical"],
        ["--csv-out", "{d}/{run}.csv", "--json-out", "{d}/{run}.json"],
        "{d}/{run}.json",
    ),
    "power": (
        "power",
        ["--n", "30", "--p", "4", "--rho-grid", "0.1,0.3",
         "--kernels", "identity,laplace", "--bandwidths", "fixed:2,rho:1.0",
         "--alpha", "0.1", "--reps", "6", "--seed", "5", "--dist", "uniform"],
        ["--out", "{d}/{run}.csv"],
        "{d}/{run}.csv.meta.json",
    ),
    "theory": (
        "theory",
        ["--p", "5", "--q", "3", "--rho-xy", "0.2", "--n", "80", "--alpha", "0.1"],
        ["--output", "{d}/{run}.json"],
        "{d}/{run}.json",
    ),
    "theory-csv": (
        "theory",
        ["--sigma-x", "{d}/eye.csv", "--sigma-y", "{d}/eye.csv",
         "--sigma-xy", "{d}/half.csv", "--n", "80"],
        ["--output", "{d}/{run}.json"],
        "{d}/{run}.json",
    ),
    "eigencheck": (
        "eigencheck",
        ["--p", "5", "--q", "4", "--a", "0.01", "--seed", "6"],
        ["--output", "{d}/{run}.json"],
        "{d}/{run}.json",
    ),
}


@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_output_replays_from_its_config(case, tmp_path):
    command, flags, outputs, source = REPLAY_CASES[case]
    rng = np.random.default_rng(4)
    write_csv(tmp_path / "x.csv", rng.normal(size=(9, 3)).tolist())
    write_csv(tmp_path / "y.csv", rng.normal(size=(9, 2)).tolist())
    write_csv(tmp_path / "eye.csv", np.eye(3).tolist())
    write_csv(tmp_path / "half.csv", (0.5 * np.eye(3)).tolist())

    def fill(items, run):
        return [item.format(d=tmp_path, run=run) for item in items]

    assert main([command, *fill(flags, "first"), *fill(outputs, "first")]) == 0
    replay_config = source.format(d=tmp_path, run="first")
    assert main(["--config", replay_config, command, *fill(outputs, "second")]) == 0
    for first, second in zip(fill(outputs[1::2], "first"), fill(outputs[1::2], "second")):
        assert Path(first).read_bytes() == Path(second).read_bytes()
