import json
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import semigroup_lab.birth
from semigroup_lab import KernelGrid, NonFiniteError, __version__, arrival_partial_product, cli
from semigroup_lab.cli import _Writer, _load_config, run
from semigroup_lab.rates import parse_rate_spec


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, subcommand, payload, seed=0, extra=()):
    out_dir = tmp_path / "out"
    code = run([subcommand, "--config", write_config(tmp_path, payload),
                "--out", str(out_dir), "--seed", str(seed), *extra])
    return code, out_dir


def read_json(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    return json.loads("\n".join(lines[1:]))


class TestBirthSubcommand:
    def test_writes_arrival_table(self, tmp_path):
        code, out = run_cli(tmp_path, "birth",
                            {"rates": "geom:2", "lambda": [0.5, 1, 2], "N": 50})
        assert code == 0
        lines = (out / "arrival.csv").read_text().splitlines()
        assert lines[0] == f"# semigroup-lab v{__version__} subcommand=birth seed=0"
        assert lines[1] == "lambda,product_value,bracket_width,defect_truncated"
        assert len(lines) == 5
        row = lines[2].split(",")
        assert float(row[0]) == 0.5
        assert float(row[1]) > 0.0
        assert float(row[2]) <= 1e-10

    def test_defect_is_the_truncated_product(self, tmp_path):
        # at geom:1.01, N=600 the defects run from 2.5e-20 to 1.9e-63, where
        # 1 - lambda tr R would cancel to 0; a 50-digit product is the oracle
        mpmath = pytest.importorskip("mpmath")
        cases = [("geom:1.01", [0.25, 0.5, 1.0, 2.0], 600, lambda j: mpmath.mpf(1.01) ** j),
                 ("poly:1:3", [0.25, 1.0, 4.0], 200, lambda j: mpmath.mpf(j + 1) ** 3)]
        for spec, lambdas, dim, mu in cases:
            code, out = run_cli(tmp_path, "birth",
                                {"rates": spec, "lambda": lambdas, "N": dim})
            assert code == 0
            lines = (out / "arrival.csv").read_text().splitlines()[2:]
            with mpmath.workdps(50):
                for lam, line in zip(lambdas, lines):
                    expected = mpmath.fprod(1 / (1 + lam / mu(j)) for j in range(dim))
                    assert abs(float(line.split(",")[3]) - expected) <= 1e-13 * expected

    def test_a_list_of_n_rates_is_multiplied_once_per_lambda(self, tmp_path, monkeypatch):
        # arrival_laplace multiplies such a list whole, the same product as
        # the truncated chain's defect, which is not taken a second time
        calls = []
        product = semigroup_lab.birth._arrival_product

        def counted(rates, lam, n_start, count, floor):
            calls.append((lam, n_start, count))
            return product(rates, lam, n_start, count, floor)

        monkeypatch.setattr(semigroup_lab.birth, "_arrival_product", counted)
        spec = "list:" + ",".join(repr(1.001 ** j) for j in range(10 ** 4))
        code, out = run_cli(tmp_path, "birth", {"rates": spec, "lambda": [0.25, 0.5],
                                                "N": 10 ** 4})
        assert code == 0
        assert calls == [(0.25, 0, 10 ** 4), (0.5, 0, 10 ** 4)]
        rows = np.loadtxt(out / "arrival.csv", delimiter=",", skiprows=2)
        rates = parse_rate_spec(spec)
        assert rows[:, 3].tolist() == [arrival_partial_product(rates, lam, 0, 10 ** 4)
                                       for lam in (0.25, 0.5)]
        assert 0 < rows[1, 3] < rows[0, 3] < 1e-100

    def test_uncertified_tail_exits_3(self, tmp_path, capsys, monkeypatch):
        # a closed-form tail cut after one term is not certified: refused,
        # naming the level it starts from, and nothing is written
        monkeypatch.setattr(semigroup_lab.birth, "_MAX_TERMS", 1)
        code, out = run_cli(tmp_path, "birth", {"rates": "poly:1:3", "lambda": 10, "N": 10 ** 5})
        assert_clean_exit(capsys, code, 3, "numerical failure: no closed-form tail of the "
                                           "arrival product from level 4096 ")
        assert not any(out.iterdir())

    def test_byte_identical_reruns(self, tmp_path):
        payload = {"rates": "geom:2", "lambda": [0.5, 1.0], "N": 40}
        _, out1 = run_cli(tmp_path, "birth", payload)
        first = (out1 / "arrival.csv").read_bytes()
        (out1 / "arrival.csv").unlink()
        _, out2 = run_cli(tmp_path, "birth", payload)
        assert (out2 / "arrival.csv").read_bytes() == first


class TestMinimalSubcommand:
    def test_summary_contents(self, tmp_path):
        code, out = run_cli(tmp_path, "minimal",
                            {"rates": "poly:1:2", "lambda": 1, "N": 30,
                             "tol": 1e-10})
        assert code == 0
        summary = read_json(out / "minimal.json")
        assert summary["trace_trajectory_monotone"] is True
        assert summary["converged"] is True
        assert summary["match_direct"] <= 1e-8
        table = (out / "trace_trajectory.csv").read_text().splitlines()
        assert table[1] == "iteration,lambda_trace"
        assert len(table) == summary["iterations"] + 3


class TestTrajectorySubcommand:
    def test_matches_product(self, tmp_path):
        code, out = run_cli(tmp_path, "trajectory",
                            {"rates": "geom:2", "lambda": 1.0,
                             "samples": 4000, "horizon": 40.0,
                             "max_jumps": 16}, seed=42)
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        _, mean, se, product, abs_err, three_se = map(float, lines[2].split(","))
        assert abs_err <= three_se

    def test_seed_changes_output(self, tmp_path):
        payload = {"rates": "geom:2", "lambda": 1.0, "samples": 500,
                   "horizon": 40.0, "max_jumps": 16}
        _, out1 = run_cli(tmp_path, "trajectory", payload, seed=1)
        first = (out1 / "trajectory.csv").read_text()
        (out1 / "trajectory.csv").unlink()
        _, out2 = run_cli(tmp_path, "trajectory", payload, seed=2)
        assert (out2 / "trajectory.csv").read_text() != first

    def test_jump_bound_is_inclusive(self, tmp_path):
        code, out = run_cli(tmp_path, "trajectory",
                            {"rates": "const:1", "lambda": 1.0, "samples": 1,
                             "horizon": 0.001, "max_jumps": 10 ** 8})
        assert code == 0
        assert (out / "trajectory.csv").is_file()

    def test_long_jump_cap_is_drawn_a_chunk_at_a_time(self, tmp_path):
        """About 51 jumps per trajectory under a cap of 10**6: drawn up
        front, the cap would take rates past geom:1.001's overflow near
        level 710,000 and exit 3.  The row's product_value is a floor exit,
        so abs_error is not held to three_se here."""
        start = time.perf_counter()
        code, out = run_cli(tmp_path, "trajectory",
                            {"rates": "geom:1.001", "lambda": 1, "samples": 100,
                             "horizon": 50, "max_jumps": 10 ** 6})
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert (out / "trajectory.csv").is_file()

    def test_samples_are_reduced_as_they_are_drawn(self, tmp_path):
        """Well under 3 MB of traced peak memory for 20,000 samples and
        their 1.2 million jump times: holding them all takes about 14 MB."""
        payload = {"rates": "geom:2", "lambda": [0.5, 1.0, 2.0],
                   "samples": 20_000, "horizon": 50.0, "max_jumps": 60}
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            code, _ = run_cli(tmp_path, "trajectory", payload, seed=11)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 3 * 10 ** 6

    def test_bias_failure_exits_3(self, tmp_path):
        code, _ = run_cli(tmp_path, "trajectory",
                          {"rates": "geom:2", "lambda": 1.0, "samples": 200,
                           "horizon": 40.0, "max_jumps": 3})
        assert code == 3


class TestNonstandardSubcommand:
    @pytest.mark.parametrize("dim", [30, 40, 60])
    def test_inconsistent_report_exits_3(self, tmp_path, capsys, dim):
        # geom:2's stiff top rates spoil the falsifier's own checks: interior
        # deviations of 5.7e-9, 3.0e-6 and 3.61 against 1e-12 at seed 0
        code, out = run_cli(tmp_path, "nonstandard",
                            {"rates": "geom:2", "N": dim, "lambda": 1, "t": 1})
        assert_clean_exit(capsys, code, 3,
                          "numerical failure: the falsifier report fails its own checks")
        assert not any(out.iterdir())

    def test_consistent_report_at_the_largest_dimension(self, tmp_path):
        code, out = run_cli(tmp_path, "nonstandard",
                            {"rates": "poly:1:2", "N": 107, "lambda": 1, "t": 1})
        assert code == 0
        report = read_json(out / "nonstandard.json")
        assert report["interior_max_deviation"] <= 1e-12
        assert report["reset_residual"] <= 1e-9

    def test_report_fields(self, tmp_path):
        code, out = run_cli(tmp_path, "nonstandard",
                            {"rates": "geom:2", "N": 16, "lambda": 1.0,
                             "t": 1.0})
        assert code == 0
        report = read_json(out / "nonstandard.json")
        assert 0.0 < report["p11"] < 1.0
        assert report["interior_max_deviation"] <= 1e-12
        assert report["reset_residual"] <= 1e-9
        assert report["base_defect"] > 0.1

    def test_p11_is_the_tiny_base_defect(self, tmp_path):
        # the loss of geom:1.01 at N=50, lambda=100 is 1.04e-95, which
        # 1 - lambda tr R cancelled to 0; a 50-digit product is the oracle
        mpmath = pytest.importorskip("mpmath")
        code, out = run_cli(tmp_path, "nonstandard",
                            {"rates": "geom:1.01", "N": 50, "lambda": 100, "t": 1})
        assert code == 0
        report = read_json(out / "nonstandard.json")
        with mpmath.workdps(50):
            expected = mpmath.fprod(1 / (1 + 100 / mpmath.mpf(1.01) ** j)
                                    for j in range(50))
        assert report["p11"] == report["base_defect"]
        assert abs(report["p11"] - expected) <= 1e-12 * expected


class TestDiffusionSubcommand:
    def test_summary_and_kernels(self, tmp_path):
        code, out = run_cli(tmp_path, "diffusion",
                            {"X": 8.0, "h": 0.02, "t": 0.1, "lambda": 1.0,
                             "kernel": "bump:1.5:0.3"})
        assert code == 0
        lines = (out / "summary.csv").read_text().splitlines()
        header = lines[1].split(",")
        row = dict(zip(header, map(float, lines[2].split(","))))
        assert row["identity_gap"] <= 1e-5
        assert row["trace_after"] <= row["trace_before"]
        evolved = KernelGrid.from_csv(out / "evolved.csv")
        assert evolved.h == 0.02
        assert np.abs(evolved.values[0, :]).max() == 0.0
        first_line = (out / "evolved.csv").read_text().splitlines()[0]
        assert first_line.startswith("# semigroup-lab")

    def test_kernel_csv_input(self, tmp_path):
        kernel = KernelGrid.from_profile(
            lambda x: float(np.exp(-0.5 * ((x - 1.5) / 0.3) ** 2)), 8.0, 0.02)
        path = tmp_path / "input_kernel.csv"
        kernel.to_csv(path)
        code, out = run_cli(tmp_path, "diffusion",
                            {"X": 8.0, "h": 0.02, "t": 0.1, "lambda": 1.0,
                             "kernel": f"csv:{path}"})
        assert code == 0

    @pytest.mark.parametrize("complex_kernel", [True, False])
    def test_one_grid_cap(self, tmp_path, capsys, monkeypatch, complex_kernel):
        # real and complex kernels share one cap; this 401-point grid is one
        # point above it
        monkeypatch.setattr(cli, "_DIFFUSION_POINTS", 400)
        x = 0.02 * np.arange(401)
        p = np.exp(-0.5 * ((x - 1.5) / 0.3) ** 2)
        if complex_kernel:
            p = (1 + 0.5j * x) * p
        path = tmp_path / "input_kernel.csv"
        KernelGrid(8.0, 0.02, np.outer(p, p.conj())).to_csv(path)
        code, out = run_cli(tmp_path, "diffusion",
                            {"X": 8.0, "h": 0.02, "t": 0.1, "lambda": 1.0,
                             "kernel": f"csv:{path}"})
        assert_clean_exit(capsys, code, 2, "config error: X / h = 400 must be at "
                          "most 399, for a grid of at most 400 points")
        assert not any(out.iterdir())

    def test_complex_kernel_peak_memory(self, tmp_path):
        """Traced peak of a whole run on a complex, not bitwise-symmetric
        401-point csv: kernel, in units of one 401 x 401 float64 array: the
        kernel, the evolved kernel, and the resolvent's result and upper band
        array (two each), the profile, and the product of one 401-column
        block of that band array's float64 view (one each)."""
        x = 0.02 * np.arange(401)
        p = (1 + 0.5j * x) * np.exp(-0.5 * ((x - 1.5) / 0.3) ** 2)
        path = tmp_path / "input_kernel.csv"
        KernelGrid(8.0, 0.02, np.outer(p, p.conj())).to_csv(path)
        payload = {"X": 8.0, "h": 0.02, "t": 0.1, "lambda": 1.0, "kernel": f"csv:{path}"}
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            code, _ = run_cli(tmp_path, "diffusion", payload)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 10.5 * 401 ** 2 * 8

    def test_tail_violation_exits_3(self, tmp_path):
        code, _ = run_cli(tmp_path, "diffusion",
                          {"X": 4.0, "h": 0.02, "t": 0.5, "lambda": 1.0,
                           "kernel": "bump:3.5:0.3"})
        assert code == 3


class TestShiftDemoSubcommand:
    def test_density_table(self, tmp_path):
        code, out = run_cli(tmp_path, "shift-demo",
                            {"X": 10.0, "h": 0.005, "psi": "gauss:3:0.5"})
        assert code == 0
        lines = (out / "shift_density.csv").read_text().splitlines()
        assert lines[1] == "t,density,cumulative"
        last = lines[-1].split(",")
        norm_sq = float(np.sqrt(np.pi) * 0.5)  # int exp(-(x-3)^2/0.25) dx
        assert float(last[2]) == pytest.approx(norm_sq, abs=1e-6)


class TestConfigValidation:
    def test_empty_config_exits_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "birth", {})
        assert code == 2

    def test_unknown_key_exits_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "birth",
                          {"rates": "geom:2", "lambda": 1.0, "N": 10,
                           "typo_key": 1})
        assert code == 2

    def test_wrong_type_exits_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "birth",
                          {"rates": "geom:2", "lambda": "one", "N": 10})
        assert code == 2

    def test_bad_rate_spec_exits_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "minimal",
                          {"rates": "spam:1", "lambda": 1.0, "N": 10,
                           "tol": 1e-8})
        assert code == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        code = run(["birth", "--config", str(tmp_path / "absent.json"),
                    "--out", str(tmp_path)])
        assert code == 2

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = run(["birth", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, out):
        (tmp_path / "afile").write_text("kept\n")
        config = write_config(tmp_path, BIRTH)
        before = sorted(tmp_path.iterdir())
        code = run(["birth", "--config", config, "--out", str(tmp_path / out)])
        assert_clean_exit(capsys, code, 2,
                          "config error: cannot create output directory")
        assert sorted(tmp_path.iterdir()) == before
        assert (tmp_path / "afile").read_text() == "kept\n"

    @pytest.mark.parametrize("subcommand, payload, blocked", [
        ("birth", {"rates": "geom:2", "lambda": 1.0, "N": 10}, "arrival.csv"),
        ("diffusion", {"X": 8.0, "h": 0.1, "t": 0.1, "lambda": 1.0,
                       "kernel": "bump:1.5:0.3"}, "evolved.csv"),
        ("minimal", {"rates": "poly:1:2", "lambda": 1, "N": 5, "tol": 1e-10},
         "minimal.json"),
    ])
    def test_unwritable_output_exits_2_and_leaves_no_file(self, tmp_path, capsys,
                                                          subcommand, payload, blocked):
        # a directory with the output's name: the files written before it
        # (diffusion's summary.csv, minimal's trace_trajectory.csv) are removed
        (tmp_path / "out" / blocked).mkdir(parents=True)
        code, out = run_cli(tmp_path, subcommand, payload)
        assert_clean_exit(capsys, code, 2, "config error: cannot write output")
        assert [p.name for p in out.iterdir()] == [blocked]
        assert (out / blocked).is_dir()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'\xff\xfe{"rates"')
        code = run(["birth", "--config", str(path), "--out", str(tmp_path / "out")])
        assert_clean_exit(capsys, code, 2, "config error: cannot read config")
        assert not (tmp_path / "out").exists()

    def test_type_error_names_the_type(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "birth", {**BIRTH, "N": 1.5})
        assert_clean_exit(capsys, code, 2,
                          "config error: config key 'N' must be an integer")

    def test_json_list_config_exits_2(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "birth", [BIRTH])
        assert_clean_exit(capsys, code, 2, "config error: config must be a JSON object")
        assert not out.exists()

    def test_integer_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        # a 401-digit lambda: math.isfinite raises OverflowError on it
        code, out = run_cli(tmp_path, "birth", {**BIRTH, "lambda": 10 ** 400})
        assert_clean_exit(capsys, code, 2, "config error: config key 'lambda'")
        assert not out.exists()

    @pytest.mark.parametrize("n_start", [-1, 10, 11])
    def test_birth_start_level_outside_truncation_exits_2(self, tmp_path, capsys,
                                                          n_start):
        code, out = run_cli(tmp_path, "birth",
                            {"rates": "geom:2", "lambda": 1.0, "N": 10,
                             "n_start": n_start})
        assert code == 2
        assert "config error: n_start" in capsys.readouterr().err
        assert not (out / "arrival.csv").exists()

    def test_nonstandard_single_level_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "nonstandard",
                          {"rates": "poly:1:2", "N": 1, "lambda": 1, "t": 1})
        assert code == 2
        assert "config error: N" in capsys.readouterr().err


BIRTH = {"rates": "geom:2", "lambda": 1.0, "N": 10}
MINIMAL = {"rates": "poly:1:2", "lambda": 1, "N": 5, "tol": 1e-10}
NONSTANDARD = {"rates": "poly:1:2", "N": 5, "lambda": 1, "t": 1}
TRAJECTORY = {"rates": "geom:2", "lambda": 1.0, "samples": 10, "horizon": 5.0,
              "max_jumps": 5}
DIFFUSION = {"X": 4.0, "h": 0.05, "t": 0.5, "lambda": 1.0}
SHIFT = {"X": 8.0, "h": 0.01, "psi": "gauss:2:0.4"}
COARSE_DIFFUSION = {"X": 8.0, "h": 0.5, "t": 0.5, "lambda": 1.0}


def assert_clean_exit(capsys, code, expected, prefix):
    err = capsys.readouterr().err
    assert code == expected
    assert err.startswith(prefix)
    assert "Traceback" not in err


class TestConfigRanges:
    @pytest.mark.parametrize("subcommand, base, change", [
        ("birth", BIRTH, {"lambda": -1}),
        ("birth", BIRTH, {"lambda": 0}),
        ("birth", BIRTH, {"lambda": [1.0, 0.0]}),
        ("birth", BIRTH, {"tail_tol": 0}),
        ("minimal", MINIMAL, {"lambda": 0}),
        ("minimal", MINIMAL, {"tol": 0}),
        ("nonstandard", NONSTANDARD, {"lambda": 0}),
        ("nonstandard", NONSTANDARD, {"t": -1}),
        ("trajectory", TRAJECTORY, {"lambda": -1}),
        ("trajectory", TRAJECTORY, {"samples": 0}),
        ("trajectory", TRAJECTORY, {"horizon": 0}),
        ("trajectory", TRAJECTORY, {"max_jumps": 0}),
        ("trajectory", TRAJECTORY, {"n_start": -1}),
        ("diffusion", DIFFUSION, {"h": 0}),
        ("diffusion", DIFFUSION, {"t": 0}),
        ("shift-demo", SHIFT, {"X": -8}),
        ("trajectory", TRAJECTORY, {"n_start": 2 ** 62}),
        ("trajectory", TRAJECTORY, {"n_start": 10 ** 20}),
    ])
    def test_out_of_range_exits_2(self, tmp_path, capsys, subcommand, base, change):
        code, out = run_cli(tmp_path, subcommand, {**base, **change})
        assert_clean_exit(capsys, code, 2, f"config error: {next(iter(change))} must be")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("subcommand, base", [
        ("birth", BIRTH),
        ("trajectory", {**TRAJECTORY, "horizon": 40.0, "max_jumps": 64})])
    def test_lambda_list_holds_at_most_16_values(self, tmp_path, capsys,
                                                 subcommand, base):
        code, out = run_cli(tmp_path, subcommand,
                            {**base, "lambda": list(range(1, 18))})
        assert_clean_exit(capsys, code, 2, "config error: config key 'lambda' must be")
        assert not out.exists()
        code, out = run_cli(tmp_path, subcommand,
                            {**base, "lambda": list(range(1, 17))})
        assert code == 0
        assert len(list(out.iterdir())) == 1

    def test_trajectory_start_admits_2_62_minus_1(self, tmp_path):
        path = write_config(tmp_path, {**TRAJECTORY, "n_start": 2 ** 62 - 1})
        assert _load_config(path, "trajectory")["n_start"] == 2 ** 62 - 1

    @pytest.mark.parametrize("subcommand, base", [("shift-demo", SHIFT),
                                                  ("diffusion", DIFFUSION)])
    @pytest.mark.parametrize("X", [1.0, 1.05])
    def test_x_not_a_multiple_of_h_exits_2(self, tmp_path, capsys, subcommand, base, X):
        code, out = run_cli(tmp_path, subcommand, {**base, "X": X, "h": 0.3})
        assert_clean_exit(capsys, code, 2,
                          "config error: bad grid: X must be an exact multiple of h")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "NaN", "Infinity"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text('{"rates": "geom:2", "N": 10, "lambda": %s}' % text)
        code = run(["birth", "--config", str(path), "--out", str(tmp_path / "out")])
        assert_clean_exit(capsys, code, 2, "config error: config key 'lambda'")

    @pytest.mark.parametrize("subcommand, base, change, message", [
        ("birth", BIRTH, {"N": 10 ** 400}, "N must be"),
        ("minimal", MINIMAL, {"N": 2 ** 31}, "N must be"),
        ("nonstandard", NONSTANDARD, {"N": 2 ** 31}, "N must be"),
        ("shift-demo", SHIFT, {"X": 1e300, "h": 1e-300}, "X / h = inf must be"),
        ("shift-demo", SHIFT, {"X": 2.0 ** 31, "h": 1}, "X / h = 2.14748e+09 must be"),
        ("diffusion", DIFFUSION, {"X": 1e300, "h": 1e-300}, "X / h = inf must be"),
        ("trajectory", TRAJECTORY, {"samples": 10 ** 5, "max_jumps": 1001},
         "samples * max_jumps must be at most 10**8"),
        ("trajectory", TRAJECTORY, {"samples": 10 ** 6, "max_jumps": 10 ** 9},
         "samples * max_jumps must be at most 10**8"),
        ("minimal", MINIMAL, {"N": 108}, "N must be at least 2 and at most 107"),
        ("nonstandard", NONSTANDARD, {"N": 400}, "N must be at least 2 and at most 107"),
        ("birth", BIRTH, {"N": 2 ** 26 + 1}, "N must be at least 2 and at most 2**26"),
        ("diffusion", DIFFUSION, {"X": 4729.0, "h": 1.0}, "X / h = 4729 must be at most 4728"),
        ("diffusion", DIFFUSION, {"X": 400.0, "h": 0.02}, "X / h = 20000 must be at most"),
        ("shift-demo", SHIFT, {"X": 2.0 ** 22, "h": 1.0},
         "X / h = 4.1943e+06 must be at most 4194303"),
        ("shift-demo", SHIFT, {"X": 8.0, "h": 1e-8}, "X / h = 8e+08 must be at most"),
        ("trajectory", TRAJECTORY, {"samples": 10 ** 6 + 1, "max_jumps": 1},
         "samples must be at least 1 and at most 10**6"),
    ])
    def test_oversized_grid_exits_2(self, tmp_path, capsys, subcommand, base, change,
                                    message):
        code, out = run_cli(tmp_path, subcommand, {**base, **change})
        assert_clean_exit(capsys, code, 2, f"config error: {message}")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("subcommand, base", [("minimal", MINIMAL),
                                                  ("nonstandard", NONSTANDARD)])
    def test_dense_oracle_budget_admits_n_107(self, tmp_path, subcommand, base):
        # the largest N the budget admits; the config is only loaded
        path = write_config(tmp_path, {**base, "N": 107})
        assert _load_config(path, subcommand)["N"] == 107

    def test_trajectory_budget_admits_10_6_samples(self, tmp_path):
        # 9.3 s and an 83 MB resident peak at the limit; the config is only loaded
        path = write_config(tmp_path, {**TRAJECTORY, "samples": 10 ** 6, "max_jumps": 1})
        assert _load_config(path, "trajectory")["samples"] == 10 ** 6

    def test_birth_budget_admits_n_2_to_26(self, tmp_path):
        # 64 MB peak and 2.2 s at the limit; the config is only loaded
        path = write_config(tmp_path, {**BIRTH, "N": 2 ** 26})
        assert _load_config(path, "birth")["N"] == 2 ** 26

    @pytest.mark.parametrize("X, max_points", [(4728.0, cli._DIFFUSION_POINTS),
                                               (2.0 ** 22 - 1, cli._SHIFT_POINTS)])
    def test_grid_budget_admits_its_limit(self, X, max_points):
        assert cli._grid(X, 1.0, max_points).size == max_points

    def test_dense_oracle_runs_at_n_48(self, tmp_path):
        code, out = run_cli(tmp_path, "minimal", {**MINIMAL, "N": 48})
        assert code == 0
        assert read_json(out / "minimal.json")["converged"] is True

    def test_nonstandard_zero_time_is_allowed(self, tmp_path):
        code, out = run_cli(tmp_path, "nonstandard", {**NONSTANDARD, "t": 0})
        assert code == 0
        assert read_json(out / "nonstandard.json")["reset_residual"] == 0.0

    @pytest.mark.parametrize("seed", ["-3", "abc", str(2 ** 64)])
    def test_bad_seed_exits_2(self, tmp_path, capsys, seed):
        with pytest.raises(SystemExit) as exit_info:
            run(["birth", "--config", write_config(tmp_path, BIRTH),
                 "--out", str(tmp_path / "out"), "--seed", seed])
        assert_clean_exit(capsys, exit_info.value.code, 2, "usage:")

    def test_largest_u64_seed_runs(self, tmp_path):
        code, out = run_cli(tmp_path, "trajectory", {**TRAJECTORY, "max_jumps": 16},
                            seed=2 ** 64 - 1)
        assert code == 0
        assert (out / "trajectory.csv").read_text().startswith(
            f"# semigroup-lab v{__version__} subcommand=trajectory seed={2 ** 64 - 1}\n")


class TestSpecParsing:
    @pytest.mark.parametrize("subcommand, payload", [
        ("diffusion", {**DIFFUSION, "kernel": "bump:abc:1"}),
        ("diffusion", {**DIFFUSION, "kernel": "bump:1:inf"}),
        ("diffusion", {**DIFFUSION, "h": 0.3}),
        ("diffusion", {**DIFFUSION, "kernel": "csv:absent-kernel.csv"}),
        ("shift-demo", {**SHIFT, "psi": "gauss:1:x"}),
        ("shift-demo", {**SHIFT, "psi": "box:nan:1"}),
    ])
    def test_bad_spec_exits_2(self, tmp_path, capsys, subcommand, payload):
        code, _ = run_cli(tmp_path, subcommand, payload)
        assert_clean_exit(capsys, code, 2, "config error:")

    @pytest.mark.parametrize("subcommand, payload, message", [
        ("shift-demo", {**SHIFT, "psi": "box:3:1"}, "box needs a < b"),
        ("shift-demo", {**SHIFT, "psi": "spam:1:2"}, "unknown psi spec"),
        ("shift-demo", {**SHIFT, "psi": "gauss:2:0"}, "gauss width must be positive"),
        ("shift-demo", {**SHIFT, "X": 0.5, "h": 0.5}, "need at least two grid steps"),
        ("diffusion", {**DIFFUSION, "kernel": "spam:1"}, "unknown kernel spec"),
        ("diffusion", {**DIFFUSION, "kernel": "bump:2:0"}, "bump width must be positive"),
    ])
    def test_spec_error_writes_nothing(self, tmp_path, capsys, subcommand, payload,
                                       message):
        code, out = run_cli(tmp_path, subcommand, payload)
        assert_clean_exit(capsys, code, 2, f"config error: {message}")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("X, h", [(2.0, 0.05), (4.0, 0.1)])
    def test_kernel_csv_off_the_config_grid_exits_2(self, tmp_path, capsys, X, h):
        path = tmp_path / "kernel.csv"
        points = round(X / h) + 1
        KernelGrid(X, h, np.ones((points, points))).to_csv(path)
        code, out = run_cli(tmp_path, "diffusion", {**DIFFUSION, "kernel": f"csv:{path}"})
        assert_clean_exit(capsys, code, 2, f"config error: bad kernel CSV: grid X, h "
                          f"= {X:g}, {h:g} does not match the configured 4, 0.05")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("meta, cells, rows", [("12,0.02", 1201, 1201),
                                                   ("24,0.02", 1201, 1201),
                                                   ("12,0.02", 10 ** 7, 1)],
                             ids=["12,0.02", "24,0.02", "20 MB first row"])
    def test_oversized_kernel_csv_is_refused_before_parsing(self, tmp_path, capsys,
                                                            meta, cells, rows):
        """A 1201 x 1201 file for a 601-point config is refused, on its
        metadata or on its first row, before a row of values is parsed, and
        a 20 MB one-line first row once 601 * 64 characters of it are read:
        the traced peak stays below 1 MB (one 601 x 601 float64 array takes
        2.9 MB)."""
        path = tmp_path / "kernel.csv"
        path.write_text(f"{meta}\n" + (",".join(["1"] * cells) + "\n") * rows)
        payload = {"X": 12.0, "h": 0.02, "t": 0.1, "lambda": 1.0, "kernel": f"csv:{path}"}
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            code, out = run_cli(tmp_path, "diffusion", payload)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert_clean_exit(capsys, code, 2, "config error: bad kernel CSV")
        assert not any(out.iterdir())
        assert peak < 10 ** 6

    @pytest.mark.parametrize("cells, rows, tail, message", [
        (81, 82, "", "kernel CSV holds more than the grid's 81 rows"),
        (81, 81, "1\n", "kernel CSV holds more than the grid's 81 rows"),
        (80, 81, "", "the first row holds 80 cells, not the grid's 81"),
    ])
    def test_kernel_csv_rows_off_the_grid_exit_2(self, tmp_path, capsys, cells, rows,
                                                 tail, message):
        path = tmp_path / "kernel.csv"
        path.write_text("4,0.05\n" + (",".join(["1"] * cells) + "\n") * rows + tail)
        code, out = run_cli(tmp_path, "diffusion", {**DIFFUSION, "kernel": f"csv:{path}"})
        assert_clean_exit(capsys, code, 2, f"config error: bad kernel CSV: {message}")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("psi", ["gauss:1.0005:1e-300", "gauss:4.0005:1e-310",
                                     "box:8.5:9"])
    def test_psi_zero_on_the_grid_exits_2(self, tmp_path, capsys, psi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "shift-demo",
                                {"X": 8.0, "h": 0.001, "psi": psi})
        assert_clean_exit(capsys, code, 2, "config error: psi")
        assert not (out / "shift_density.csv").exists()

    def test_narrow_psi_on_a_grid_point_runs_without_warning(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "shift-demo",
                                {"X": 8.0, "h": 0.001, "psi": "gauss:1:1e-300"})
        assert code == 0
        rows = (out / "shift_density.csv").read_text().splitlines()[2:]
        assert [row for row in rows if row.split(",")[1] != "0"] == \
            ["1,1,0.00050000000000000044"]

    def test_malformed_kernel_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "kernel.csv"
        path.write_text("4,0.05\n1,x\n")
        code, out = run_cli(tmp_path, "diffusion",
                            {**DIFFUSION, "kernel": f"csv:{path}"})
        assert_clean_exit(capsys, code, 2, "config error: bad kernel CSV")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("text", ["4,0.05\n", "4,0.05\n\n# no values\n\n#\n"])
    def test_kernel_csv_without_values_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "kernel.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "diffusion",
                                {**DIFFUSION, "kernel": f"csv:{path}"})
        assert_clean_exit(capsys, code, 2, "config error: bad kernel CSV")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("text", ["1e999,0.5\n1\n", "1e300,1e-300\n1\n"])
    def test_non_finite_kernel_csv_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "kernel.csv"
        path.write_text(text)
        code, out = run_cli(tmp_path, "diffusion",
                            {**DIFFUSION, "kernel": f"csv:{path}"})
        assert_clean_exit(capsys, code, 2, "config error: bad kernel CSV")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("rates", ["geom:1e999", "poly:1e999:2", "poly:1:1e999",
                                       "list:1,1e999"])
    def test_non_finite_rate_parameter_exits_2(self, tmp_path, capsys, rates):
        code, out = run_cli(tmp_path, "birth", {**BIRTH, "rates": rates})
        assert_clean_exit(capsys, code, 2, "config error: bad rate spec")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("subcommand, extra", [("birth", {}),
                                                   ("minimal", {"tol": 1e-10}),
                                                   ("nonstandard", {"t": 1})])
    def test_rate_list_shorter_than_n_exits_2(self, tmp_path, capsys, subcommand, extra):
        # the list needs a rate for each of the N levels; it exited 3 on reading
        # past its end
        code, out = run_cli(tmp_path, subcommand,
                            {"rates": "list:1,2,4,8", "lambda": 1, "N": 5, **extra})
        assert_clean_exit(capsys, code, 2,
                          "config error: rate list of length 4 is shorter than N = 5")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("width", ["1e-170", "1e-300"])
    def test_narrow_bump_on_a_grid_point_runs_without_warning(self, tmp_path, width):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "diffusion",
                                {**COARSE_DIFFUSION, "kernel": f"bump:2:{width}"})
        assert code == 0
        kernel = KernelGrid.from_csv(out / "evolved.csv")
        assert kernel.values.any()

    def test_bump_zero_on_the_grid_exits_2(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "diffusion",
                                {**COARSE_DIFFUSION, "kernel": "bump:2.01:1e-300"})
        assert_clean_exit(capsys, code, 2, "config error: kernel")
        assert not any(out.iterdir())


class TestNonFiniteOutput:
    # rate overflow is refused by name before numpy can warn about it, so
    # these runs pass under warnings-as-errors
    def test_overflowing_rates_exit_3(self, tmp_path, capsys):
        # mu_n = 2**n overflows from n = 1024, so the defect would be nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "birth", {**BIRTH, "N": 1030})
        assert_clean_exit(capsys, code, 3, "numerical failure:")
        assert not (out / "arrival.csv").exists()

    def test_rate_check_names_the_level_past_its_first_block(self, tmp_path, capsys):
        # the top rate overflows, so the first that does is bisected for:
        # 1.01**n overflows from n = 71333
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "birth",
                                {"rates": "geom:1.01", "lambda": 1, "N": 100_000})
        assert_clean_exit(capsys, code, 3,
                          "numerical failure: refusing the non-finite rate mu_71333 ")
        assert not (out / "arrival.csv").exists()

    @pytest.mark.parametrize("rates, dim, most", [
        # monotone rates: the two ends and the arrival heads, 2**12 rates or
        # so per product, whatever N
        ("poly:1:3", 2 ** 26, 4 * (2 ** 12 + 64)),
        ("geom:1.01", 71333, 4 * (2 ** 12 + 64)),
        ("const:2", 10 ** 6, 4 * (2 ** 12 + 64)),
        # a list: its top rate, then one arrival product per lambda, multiplied whole
        pytest.param("list:" + ",".join(["1"] * 5000), 5000, 1 + 2 * 5000, id="list"),
    ])
    def test_rate_check_reads_the_ends(self, tmp_path, monkeypatch, rates, dim, most):
        reads = []
        sequence = type(parse_rate_spec(rates))
        mu_array = sequence.mu_array

        def counted(self, start, count):
            reads.append(count)
            return mu_array(self, start, count)

        monkeypatch.setattr(sequence, "mu_array", counted)
        code, out = run_cli(tmp_path, "birth", {"rates": rates, "lambda": [1, 2], "N": dim})
        assert code == 0
        assert sum(reads) <= most
        if rates.startswith("list"):  # finite by construction: its top rate
            assert reads[0] == 1

    def test_overflowing_arrival_factors_exit_3(self, tmp_path, capsys):
        # the arrival product starts past the overflow, at mu_1030 = inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "birth",
                                {**BIRTH, "N": 1100, "n_start": 1030})
        assert_clean_exit(capsys, code, 3, "numerical failure: refusing")
        assert not (out / "arrival.csv").exists()

    @pytest.mark.parametrize("n_start, level", [(1030, 1030), (1000, 1024)])
    def test_overflowing_trajectory_rates_exit_3(self, tmp_path, capsys, n_start, level):
        # every holding time past the overflow would be 0, up to the jump cap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "trajectory",
                                {**TRAJECTORY, "n_start": n_start, "max_jumps": 100_000,
                                 "horizon": 50.0})
        assert_clean_exit(capsys, code, 3,
                          f"numerical failure: refusing the non-finite rate mu_{level} ")
        assert not (out / "trajectory.csv").exists()

    def test_overflow_past_the_rate_check_exits_3(self, tmp_path, capsys):
        # minimal has no rate check of its own: mu_39 = 1e390 overflows in the
        # generator's rate array, and the catch-all reports it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "minimal",
                                {**MINIMAL, "rates": "geom:1e10", "N": 40})
        assert_clean_exit(capsys, code, 3, "numerical failure: overflow encountered")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("subcommand, payload", [
        ("birth", {"rates": "geom:0.5", "lambda": 1, "N": 1100}),
        ("trajectory", {**TRAJECTORY, "rates": "geom:0.5", "n_start": 1080}),
        ("nonstandard", {**NONSTANDARD, "rates": "geom:1e-5", "N": 80}),
    ])
    def test_underflowing_rates_exit_3(self, tmp_path, capsys, subcommand, payload):
        # mu_n = 0.5**n is 0 from n = 1075 and 1e-5**n from n = 65, so
        # lambda / mu_n or 2 / (mu_n + mu_m) divides by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, subcommand, payload)
        assert_clean_exit(capsys, code, 3, "numerical failure: divide by zero")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("rates, dim", [("geom:0.99", 10 ** 5), ("geom:0.999", 8 * 10 ** 5)])
    @pytest.mark.parametrize("lam", [1.0, 1e-300])
    def test_rates_underflowing_below_n_exit_3_at_any_lambda(self, tmp_path, capsys,
                                                             rates, dim, lam):
        # mu_n = 0.99**n is 0 from n = 74141 and 0.999**n from n = 744761; the
        # defect's head holds the last 2^12 rates, so lambda / mu_{N-1} divides
        # by zero, whether or not the product has underflowed before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "birth", {"rates": rates, "lambda": lam, "N": dim})
        assert_clean_exit(capsys, code, 3, "numerical failure: divide by zero")
        assert not any(out.iterdir())

    def test_largest_finite_rates_run(self, tmp_path):
        # every rate up to mu_1023 = 2**1023 is finite and the defect is a
        # product of factors 1 / (1 + lambda / mu_j): no mu_j + mu_j is formed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "birth", {**BIRTH, "N": 1024})
        assert code == 0
        row = (out / "arrival.csv").read_text().splitlines()[2].split(",")
        assert float(row[3]) == pytest.approx(float(row[1]), rel=1e-12)

    def test_arrival_product_past_the_overflow_runs(self, tmp_path):
        # the tail search for lambda = 1e300 reaches mu_1024 = inf, whose
        # factor 1 / (1 + lambda / mu) is exactly 1; the first factor decides
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "birth", {**BIRTH, "lambda": 1e300})
        assert code == 0
        row = (out / "arrival.csv").read_text().splitlines()[2].split(",")
        assert float(row[1]) == arrival_partial_product(parse_rate_spec(BIRTH["rates"]),
                                                        1e300, 0, 1)

    def test_overflowing_ratio_is_a_factor_of_zero(self, tmp_path):
        # lambda / mu_0 = 1e10 / 1e-300 overflows: the factor is 0 in both the
        # arrival product and the truncated defect
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(tmp_path, "birth",
                                {"rates": "poly:1e-300:2", "lambda": 1e10, "N": 10})
        assert code == 0
        row = (out / "arrival.csv").read_text().splitlines()[2].split(",")
        assert float(row[1]) == float(row[3]) == 0.0

    def test_uncertified_arrival_product_writes_nothing(self, tmp_path):
        # the give-up escapes cli.run, as the benchmark's own tests expect
        # of poly:1:2.5; it is bounded by _MAX_FACTORS and writes no file
        with pytest.raises(RuntimeError, match="no certified bracket after"):
            run_cli(tmp_path, "birth", {"rates": "poly:2:2.5", "lambda": [0.1, 1, 5],
                                        "N": 50, "n_start": 3})
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_writers_refuse_non_finite(self, tmp_path, value):
        writer = _Writer(tmp_path, "birth", 0)
        with pytest.raises(NonFiniteError):
            writer.csv("table.csv", ("a", "b"), [(1.0, 2), (value, 3)])
        with pytest.raises(NonFiniteError):
            writer.json("report.json", {"a": 1.0, "b": value})
        grid = KernelGrid.from_profile(lambda x: 1.0, 1.0, 0.5)
        grid.values[1, 2] = value
        with pytest.raises(NonFiniteError):
            grid.to_csv(tmp_path / "kernel.csv")
        assert not any(tmp_path.iterdir())

    def test_finite_output_bytes_unchanged(self, tmp_path):
        writer = _Writer(tmp_path, "birth", 5)
        writer.csv("table.csv", ("a", "b"), [(0.1, 2), (1e-300, -0.0)])
        writer.json("report.json", {"b": 1 / 3, "a": [1, 2.5]})
        header = f"# semigroup-lab v{__version__} subcommand=birth seed=5\n"
        assert (tmp_path / "table.csv").read_text() == (
            header + "a,b\n0.10000000000000001,2\n1e-300,-0\n")
        assert (tmp_path / "report.json").read_text() == (
            header + '{\n  "a": [\n    1,\n    2.5\n  ],\n  "b": 0.3333333333333333\n}\n')


class TestEntryPoint:
    def test_module_invocation_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "semigroup_lab", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"semigroup-lab {__version__}"

    def test_module_invocation_runs(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"rates": "geom:2", "lambda": 1.0, "N": 20}))
        proc = subprocess.run(
            [sys.executable, "-m", "semigroup_lab", "birth",
             "--config", str(config), "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "arrival.csv").exists()

    def test_cli_import_leaves_scipy_special_unloaded(self):
        # only trace_loss needs erfc; every other subcommand skips its import
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, semigroup_lab.cli; "
             "print('scipy.special' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_scipy_linalg_and_sparse_unloaded(self):
        # only the dense oracles of minimal and nonstandard need them
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, semigroup_lab.cli; print(sorted("
             "m for m in sys.modules if m.split('.')[:2] in "
             "(['scipy', 'linalg'], ['scipy', 'sparse'])))"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "[]"

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()
