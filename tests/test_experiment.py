import warnings

import numpy as np
import pytest

from ncadmm.cli import main
from ncadmm.config import (AdmmConfig, ExperimentConfig, GraphConfig,
                           NoiseConfig, OutputConfig, ProblemConfig)
from ncadmm.experiment import (SweepResult, emit_csv, emit_svg, format_sci_column,
                               preflight_reports, run_experiment, run_trial, write_table)


def tiny_config(**kw):
    base = dict(
        seed=31,
        trials=3,
        graph=GraphConfig(n_nodes=10, rho=0.4),
        problem=ProblemConfig(dim=2, obs_noise_var=1e-3, design_kind="well_conditioned"),
        admm=AdmmConfig(c=(0.2,), max_iter=80),
        noise=NoiseConfig(model="gaussian", sigma_e=(1e-3,), delta=0.0,
                          placement_mode="analysis_faithful"),
        output=OutputConfig(csv_path="out.csv", svg_path=None),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestFormatSci:
    def test_canonical_zero(self):
        assert format_sci_column([0.0, -0.0]) == ["0e0", "0e0"]

    def test_seventeen_significant_digits(self):
        assert format_sci_column([1.0, -0.1, 12345.678]) == [
            "1.0000000000000000e0", "-1.0000000000000001e-1", "1.2345678000000000e4"]

    def test_round_trips_through_float(self):
        values = [3.14159, 1e-300, -2.5e17, 7.0]
        assert [float(text) for text in format_sci_column(values)] == values

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            format_sci_column([float("nan")])
        with pytest.raises(ValueError):
            format_sci_column([float("inf")])

    @staticmethod
    def format_one(x):
        """The per-value formatter the column helper replaced."""
        x = float(x)
        if x == 0.0:
            return "0e0"
        if not np.isfinite(x):
            raise ValueError(f"non-finite value in output: {x}")
        mantissa, exponent = f"{x:.16e}".split("e")
        return f"{mantissa}e{int(exponent)}"

    def test_column_equals_per_value_strings(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2 ** 63, 20_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        values = np.concatenate([values * rng.choice([-1.0, 1.0], values.size),
                                 rng.standard_normal(2000) * 10.0 ** rng.integers(-320, 308, 2000),
                                 [0.0, -0.0, 5e-324, -5e-324, 1.0, 10.0, 1e100, 1e-100,
                                  1.7976931348623157e308, 0.1, 123456789.0]])
        assert format_sci_column(values) == [self.format_one(v) for v in values]
        grid = values[:12].reshape(3, 4)
        assert format_sci_column(grid) == [self.format_one(v) for v in grid.ravel()]

    @pytest.mark.parametrize("bad", [[1.0, np.inf, 0.0, np.nan], [0.0, np.nan, -np.inf],
                                     [-np.inf, 2.0]])
    def test_column_raises_the_first_per_value_error(self, bad):
        with pytest.raises(ValueError) as one:
            [self.format_one(v) for v in bad]
        with pytest.raises(ValueError) as column:
            format_sci_column(bad)
        assert str(column.value) == str(one.value)


class TestRunExperiment:
    def test_single_trial_mean_is_trajectory_metric(self):
        cfg = tiny_config(trials=1)
        res = run_experiment(cfg, quiet=True)
        direct = run_trial(cfg, 0)
        assert np.array_equal(res.mean, direct)
        assert np.array_equal(res.std, np.zeros_like(direct))

    def test_deterministic_across_invocations(self):
        cfg = tiny_config()
        a = run_experiment(cfg, quiet=True)
        b = run_experiment(cfg, quiet=True)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.std, b.std)

    def test_parallel_matches_serial(self):
        cfg = tiny_config(trials=5)
        serial = run_experiment(cfg, jobs=1, quiet=True)
        parallel = run_experiment(cfg, jobs=4, quiet=True)
        assert np.array_equal(serial.mean, parallel.mean)
        assert np.array_equal(serial.std, parallel.std)

    def test_pool_has_at_most_one_worker_per_trial(self, monkeypatch):
        import ncadmm.experiment as exp
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(exp, "ProcessPoolExecutor", SerialPool)
        serial = run_experiment(tiny_config(trials=2), jobs=1, quiet=True)
        pooled = run_experiment(tiny_config(trials=2), jobs=5000, quiet=True)
        run_experiment(tiny_config(trials=1), jobs=5000, quiet=True)
        assert sizes == [2]
        assert np.array_equal(serial.mean, pooled.mean)

    def test_cells_share_trial_instance(self):
        # Identical sigma_e twice: same graph/problem and same cell index
        # would alias, but distinct cell indices get distinct noise, so the
        # curves differ while the k=0 row (no noise yet) agrees.
        cfg = tiny_config(noise=NoiseConfig(model="gaussian", sigma_e=(1e-2, 1e-2)))
        res = run_experiment(cfg, quiet=True)
        assert res.mean[0, 0] == res.mean[1, 0] == 1.0
        assert not np.array_equal(res.mean[0], res.mean[1])

    def test_preflight_reports_per_cell(self):
        cfg = tiny_config(admm=AdmmConfig(c=(0.01, 0.2), max_iter=10))
        reports = preflight_reports(cfg)
        assert len(reports) == 2
        assert reports[0].c == 0.01
        assert reports[0].cond_linear  # tiny c satisfies the conditions

    def test_trial_failure_propagates(self, monkeypatch):
        import ncadmm.experiment as exp

        def boom(cfg, trial):
            raise RuntimeError(f"trial {trial} exploded")

        monkeypatch.setattr(exp, "run_trial", boom)
        with pytest.raises(RuntimeError, match="exploded"):
            exp.run_experiment(tiny_config(), quiet=True)

    def test_non_finite_cell_fails_at_its_trial(self, tmp_path, capsys):
        # E^DC overflows at k=1 of trial 0's first cell; the sweep stops
        # there, without floating-point warnings and without writing a CSV
        csv = tmp_path / "sweep.csv"
        cfg = tiny_config(
            seed=7, graph=GraphConfig(n_nodes=8, rho=0.5),
            admm=AdmmConfig(c=(0.05, 0.5), max_iter=60),
            noise=NoiseConfig(model="gaussian", sigma_e=(1e200,)),
            output=OutputConfig(csv_path=str(csv), svg_path=None),
        )
        path = tmp_path / "cfg.json"
        cfg.save(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["experiment", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.endswith("error: non-finite E^DC in trial 0 at c=0.05 "
                            "sigma_e=1e+200, first at k=1\n")
        assert "Warning" not in err
        assert not csv.exists()

    def test_noiseless_cells_decay_monotonically_past_transient(self):
        # release-gating sanity property: with the noise switched off, every
        # sweep curve is non-increasing from iteration 10 until it comes
        # within 10x of its floor
        cfg = tiny_config(
            trials=4,
            admm=AdmmConfig(c=(0.1, 0.5), max_iter=400),
            noise=NoiseConfig(model="none", sigma_e=(0.0,)),
        )
        res = run_experiment(cfg, quiet=True)
        for curve in res.mean:
            floor = curve[-max(1, len(curve) // 10):].mean()
            segment = curve[10:]
            active = segment[:-1] > 10.0 * floor
            assert np.all(np.diff(segment)[active] <= 0.0)


class TestWriteTable:
    COLUMNS = (np.arange(3), np.ma.masked_invalid([0.5, np.nan, -0.0]),
               np.array([True, False, True]),
               np.ma.masked_array([1.25, 2.5, 3.0], mask=[False, True, False]))
    TEXT = ("k,value,flag,level\n"
            "0,5.0000000000000000e-1,1,1.2500000000000000e0\n"
            "1,,0,\n"
            "2,0e0,1,3.0000000000000000e0\n")

    def test_floats_integers_and_blanks(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table(path, "k,value,flag,level", *self.COLUMNS)
        assert path.read_bytes() == self.TEXT.encode("ascii")

    def test_no_path_writes_the_same_text_to_stdout(self, capsys):
        write_table(None, "k,value,flag,level", *self.COLUMNS)
        assert capsys.readouterr() == (self.TEXT, "")

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        with pytest.raises(ValueError):
            write_table(path, "a,b", np.arange(3), np.arange(2))
        assert not path.exists()

    def test_unmasked_non_finite_value_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite value in output: inf"):
            write_table(tmp_path / "inf.csv", "a", np.array([1.0, np.inf]))


class TestEmitCsv:
    def test_header_and_sorting(self, tmp_path):
        cells = [(1.0, 1e-2), (0.1, 1e-2), (0.1, 1e-3)]
        mean = np.array([[1.0, 0.5], [2.0, 0.25], [3.0, 0.125]])
        std = np.zeros_like(mean)
        res = SweepResult(cells=cells, mean=mean, std=std, trials=1, wall_time=0.0)
        path = tmp_path / "sweep.csv"
        emit_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "c,sigma_e,k,mean_edc,std_edc"
        # sorted by (c, sigma_e, k): the (0.1, 1e-3) cell comes first
        assert lines[1].startswith("1.0000000000000001e-1,1.0000000000000000e-3,0,")
        assert lines[2].startswith("1.0000000000000001e-1,1.0000000000000000e-3,1,")
        assert lines[3].startswith("1.0000000000000001e-1,1.0000000000000000e-2,0,")

    def test_empty_sweep_writes_header_only(self, tmp_path):
        res = SweepResult(cells=[], mean=np.zeros((0, 5)), std=np.zeros((0, 5)),
                          trials=0, wall_time=0.0)
        path = tmp_path / "empty.csv"
        emit_csv(res, path)
        assert path.read_text() == "c,sigma_e,k,mean_edc,std_edc\n"

    def test_reemission_is_byte_identical(self, tmp_path):
        cfg = tiny_config()
        res = run_experiment(cfg, quiet=True)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(res, p1)
        emit_csv(res, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        cfg = tiny_config(trials=1, admm=AdmmConfig(c=(0.2,), max_iter=3))
        res = run_experiment(cfg, quiet=True)
        path = tmp_path / "lf.csv"
        emit_csv(res, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestEmitSvg:
    def test_one_polyline_per_cell(self, tmp_path):
        res = SweepResult(cells=[(0.5, 1e-3)],
                          mean=np.array([[1.0, 0.1, 0.01]]),
                          std=np.zeros((1, 3)), trials=1, wall_time=0.0)
        path = tmp_path / "one.svg"
        emit_svg(res, path)
        text = path.read_text()
        assert text.count("<polyline") == 1
        assert text.startswith("<svg")
        assert "href" not in text  # self-contained

    def test_monotone_data_monotone_pixels(self, tmp_path):
        vals = np.array([[10.0 ** (-k / 4) for k in range(20)]])
        res = SweepResult(cells=[(1.0, 0.0)], mean=vals, std=np.zeros_like(vals),
                          trials=1, wall_time=0.0)
        path = tmp_path / "mono.svg"
        emit_svg(res, path)
        text = path.read_text()
        points = text.split('<polyline points="')[1].split('"')[0]
        ys = [float(p.split(",")[1]) for p in points.split()]
        assert all(b >= a for a, b in zip(ys, ys[1:]))  # svg y grows downward

    def test_flat_curves_get_one_decade_axis(self, tmp_path):
        # constant curves at a power of ten floor and ceil to the same decade
        vals = np.full((2, 4), 1e-2)
        res = SweepResult(cells=[(0.1, 1e-3), (1.0, 1e-3)], mean=vals,
                          std=np.zeros_like(vals), trials=1, wall_time=0.0)
        path = tmp_path / "flat.svg"
        emit_svg(res, path)
        text = path.read_text()
        assert ">1e-2</text>" in text and ">1e-1</text>" in text
        assert ">1e0</text>" not in text
        for part in text.split('<polyline points="')[1:]:
            ys = {p.split(",")[1] for p in part.split('"')[0].split()}
            assert ys == {"470.00"}  # the bottom edge of the plot

    def test_nonpositive_values_clamped(self, tmp_path):
        vals = np.array([[1.0, 0.0, -1.0]])
        res = SweepResult(cells=[(1.0, 0.0)], mean=vals, std=np.zeros_like(vals),
                          trials=1, wall_time=0.0)
        path = tmp_path / "clamp.svg"
        emit_svg(res, path)  # must not raise on the log map

    @pytest.mark.parametrize("n_k", [1, 2, 501])
    def test_polylines_equal_per_point_formula(self, tmp_path, n_k):
        """Every point's text equals the scalar x_px/y_px formula, byte for byte."""
        rng = np.random.default_rng(n_k)
        mean = 10.0 ** rng.uniform(-20.0, 1.0, (4, n_k))
        mean[0, ::2] = 0.0
        mean[1, -1] = -1.0
        cells = [(10.0, 1e-2), (0.1, 1e-3), (1.0, 1e-2), (0.1, 1e-2)]
        res = SweepResult(cells=cells, mean=mean, std=np.zeros_like(mean),
                          trials=1, wall_time=0.0)
        path = tmp_path / "curves.svg"
        emit_svg(res, path)
        polylines = [part.split('"')[0]
                     for part in path.read_text().split('<polyline points="')[1:]]

        curves = np.maximum(mean, 1e-16)
        lo = np.floor(np.log10(curves.min()))
        hi = np.ceil(np.log10(curves.max()))
        if hi <= lo:
            hi = lo + 1.0
        expected = []
        for i in sorted(range(len(cells)), key=lambda i: cells[i]):
            expected.append(" ".join(
                f"{70.0 + 560.0 * (k / max(1, n_k - 1)):.2f},"
                f"{30.0 + 440.0 * (hi - np.log10(curves[i, k])) / (hi - lo):.2f}"
                for k in range(n_k)))
        assert polylines == expected

    def test_empty_sweep_rejected(self, tmp_path):
        res = SweepResult(cells=[], mean=np.zeros((0, 2)), std=np.zeros((0, 2)),
                          trials=0, wall_time=0.0)
        with pytest.raises(ValueError):
            emit_svg(res, tmp_path / "no.svg")
