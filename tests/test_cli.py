import json
import warnings

import pytest

from ncadmm import cli
from ncadmm.cli import main
from ncadmm.topology import read_edge_list


def small_config(tmp_path, **overrides):
    doc = {
        "seed": 17,
        "trials": 2,
        "graph": {"n_nodes": 10, "rho": 0.4},
        "problem": {"dim": 2, "obs_noise_var": 1e-3, "design_kind": "well_conditioned"},
        "admm": {"c": [0.2], "max_iter": 120},
        "noise": {"model": "gaussian", "sigma_e": [1e-3], "delta": 0.0,
                  "placement_mode": "analysis_faithful"},
        "output": {"csv_path": str(tmp_path / "sweep.csv"),
                   "svg_path": str(tmp_path / "sweep.svg")},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestGenGraph:
    def test_writes_edge_list(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        rc = main(["gen-graph", "--nodes", "12", "--rho", "0.3",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        g = read_edge_list(out)
        assert g.n_nodes == 12

    def test_impossible_rho_fails(self, tmp_path, capsys):
        rc = main(["gen-graph", "--nodes", "10", "--rho", "0.01",
                   "--seed", "1", "--out", str(tmp_path / "x")])
        assert rc != 0
        assert "error:" in capsys.readouterr().err


    def test_disconnected_samples_fail_without_traceback(self, tmp_path, capsys):
        # N-1 edges must form a spanning tree, which no sample does here
        out = tmp_path / "x"
        rc = main(["gen-graph", "--nodes", "40", "--rho", "0.05",
                   "--seed", "1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no connected graph")
        assert err.count("\n") == 1
        assert not out.exists()


class TestJobsEnvironment:
    def test_invalid_value_is_one_line_error(self, monkeypatch, capsys):
        monkeypatch.setenv("NCADMM_JOBS", "x")
        assert main(["experiment"]) == 1
        err = capsys.readouterr().err
        assert err == "error: NCADMM_JOBS must be an integer, got 'x'\n"

    def test_value_sets_default_jobs(self, monkeypatch, tmp_path):
        monkeypatch.setenv("NCADMM_JOBS", "3")
        seen = []

        def stop_before_the_sweep(cfg, jobs=1, quiet=False):
            seen.append(jobs)
            raise ValueError("stopped")

        monkeypatch.setattr(cli, "run_experiment", stop_before_the_sweep)
        assert main(["experiment", "--config", str(small_config(tmp_path))]) == 1
        assert seen == [3]

    def test_commands_that_do_not_read_it_ignore_it(self, monkeypatch, tmp_path):
        monkeypatch.setenv("NCADMM_JOBS", "abc")
        rc = main(["gen-graph", "--nodes", "12", "--rho", "0.3",
                   "--seed", "5", "--out", str(tmp_path / "g.edges")])
        assert rc == 0

    def test_jobs_flag_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("NCADMM_JOBS", "abc")
        rc = main(["experiment", "--config", str(small_config(tmp_path)), "--jobs", "1"])
        assert rc == 0
        assert (tmp_path / "sweep.csv").exists()

    def test_help_ignores_it(self, monkeypatch, capsys):
        monkeypatch.setenv("NCADMM_JOBS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--help"])
        assert exc.value.code == 0
        assert "--jobs" in capsys.readouterr().out


class TestUsageErrors:
    def test_bad_value_is_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["gen-graph", "--nodes", "x", "--rho", "0.1",
                   "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: argument --nodes: invalid int value: 'x'\n"
        assert not out.exists()

    def test_missing_command_is_one_line_error(self, capsys):
        assert main([]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-graph", "--help"])
        assert exc.value.code == 0
        assert "--nodes" in capsys.readouterr().out


class TestTheory:
    def test_single_cell_flat_json(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        rc = main(["theory", "--config", str(cfg)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert isinstance(doc, dict)
        assert {"a", "b", "delta", "contraction_factor"} <= set(doc)

    def test_multi_cell_array(self, tmp_path, capsys):
        cfg = small_config(tmp_path, admm={"c": [0.1, 0.2], "max_iter": 50})
        rc = main(["theory", "--config", str(cfg)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert isinstance(doc, list) and len(doc) == 2

    def test_missing_config_names_path(self, tmp_path, capsys):
        rc = main(["theory", "--config", str(tmp_path / "absent.json")])
        assert rc != 0
        assert "absent.json" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"'])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "f.json"
        path.write_text(text)
        assert main(["theory", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: config section must be a JSON object\n"


class TestRun:
    def test_trajectory_csv_columns(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "traj.csv"
        rc = main(["run", "--config", str(cfg), "--cell", "0.2,0.001",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,gnorm_sq,x_err_2,edc_mean,gate_satisfied"
        assert len(lines) == 122  # header + 121 states
        assert lines[1].split(",")[0] == "0"
        assert lines[-1].split(",")[4] == ""  # final state has no gate

    def test_noiseless_override_converges(self, tmp_path):
        cfg = small_config(tmp_path, admm={"c": [0.5], "max_iter": 1200})
        out = tmp_path / "clean.csv"
        rc = main(["run", "--config", str(cfg), "--cell", "0.5,0.001",
                   "--model", "none", "--out", str(out)])
        assert rc == 0
        last = out.read_text().splitlines()[-1].split(",")
        assert float(last[3]) < 1e-8  # edc_mean column

    def test_unknown_cell_rejected(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        rc = main(["run", "--config", str(cfg), "--cell", "9.9,0.5"])
        assert rc != 0
        assert "not in the config sweep" in capsys.readouterr().err


class TestAudit:
    def test_audit_csv_and_summary(self, tmp_path, capsys):
        cfg = small_config(tmp_path, admm={"c": [0.02], "max_iter": 150})
        out = tmp_path / "audit.csv"
        rc = main(["audit", "--config", str(cfg), "--cell", "0.02,0.001",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,gnorm_ratio,gate_satisfied,skipped,checked,x_bound_slack,violation"
        assert len(lines) == 151
        err = capsys.readouterr().err
        assert "delta_star=" in err
        assert "violations: contraction=0 x_bound=0" in err

    def test_run_and_audit_agree_on_the_gate(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        cell = ["--config", str(cfg), "--cell", "0.2,0.001", "--model", "fixed_norm"]
        assert main(["run", *cell, "--out", str(tmp_path / "run.csv")]) == 0
        assert main(["audit", *cell, "--out", str(tmp_path / "audit.csv")]) == 0
        run_rows = (tmp_path / "run.csv").read_text().splitlines()[1:-1]
        audit_rows = (tmp_path / "audit.csv").read_text().splitlines()[1:]
        run_gates = [row.split(",")[4] for row in run_rows]
        audit_gates = [row.split(",")[2] for row in audit_rows]
        assert {"0", "1"} <= set(run_gates)
        assert run_gates == audit_gates

    def test_audit_handles_violated_conditions(self, tmp_path):
        # large c fails the squared condition; the slack column is left
        # blank instead of emitting non-finite numbers
        cfg = small_config(tmp_path, admm={"c": [2.0], "max_iter": 40})
        out = tmp_path / "audit2.csv"
        rc = main(["audit", "--config", str(cfg), "--cell", "2.0,0.001",
                   "--out", str(out)])
        assert rc == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[4] == "0"  # nothing checked under violated conditions
        assert row[5] == ""


@pytest.mark.parametrize("command, message", [
    ("run", "error: non-finite gnorm_sq at c=0.05 sigma_e=1e+200, first at k=1\n"),
    ("audit", "error: non-finite gnorm_ratio at c=0.05 sigma_e=1e+200, first at k=0\n"),
], ids=["run", "audit"])
def test_non_finite_series_fail_cleanly(tmp_path, capsys, command, message):
    # the iterates stay finite but every squared norm overflows from k=1:
    # one error line naming the first bad printed row, no warnings, no CSV
    cfg = small_config(tmp_path, seed=7, graph={"n_nodes": 8, "rho": 0.5},
                       admm={"c": [0.05, 0.5], "max_iter": 60},
                       noise={"model": "gaussian", "sigma_e": [1e200]})
    out = tmp_path / "cell.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--config", str(cfg), "--cell", "0.05,1e200",
                   "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


class TestExperiment:
    def test_end_to_end_writes_csv_and_svg(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        rc = main(["experiment", "--config", str(cfg)])
        assert rc == 0
        csv_text = (tmp_path / "sweep.csv").read_text()
        assert csv_text.startswith("c,sigma_e,k,mean_edc,std_edc\n")
        assert (tmp_path / "sweep.svg").exists()

    def test_byte_identical_reruns_and_jobs(self, tmp_path):
        cfg = small_config(tmp_path)
        main(["experiment", "--config", str(cfg)])
        first = (tmp_path / "sweep.csv").read_bytes()
        main(["experiment", "--config", str(cfg)])
        second = (tmp_path / "sweep.csv").read_bytes()
        main(["experiment", "--config", str(cfg), "--jobs", "8"])
        third = (tmp_path / "sweep.csv").read_bytes()
        assert first == second == third

    def test_seed_override_changes_output(self, tmp_path):
        cfg = small_config(tmp_path)
        main(["experiment", "--config", str(cfg)])
        first = (tmp_path / "sweep.csv").read_bytes()
        main(["experiment", "--config", str(cfg), "--seed", "99"])
        second = (tmp_path / "sweep.csv").read_bytes()
        assert first != second

    def test_unknown_flag_rejected(self, tmp_path, capsys):
        assert main(["experiment", "--frobnicate"]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --frobnicate\n"

    def test_csv_override_flag(self, tmp_path):
        cfg = small_config(tmp_path)
        alt = tmp_path / "alt.csv"
        rc = main(["experiment", "--config", str(cfg), "--csv", str(alt)])
        assert rc == 0
        assert alt.exists()


# 10**13 iterations ask for at least 437 TiB (the six desk cells' E^DC
# curves; a run's iterate history is larger still), past the 128 TiB user
# address space, so the allocation fails whatever the overcommit setting
@pytest.mark.parametrize("command, out_flag", [
    (["run", "--cell", "0.1,0.001"], "--out"),
    (["experiment", "--trials", "1", "--jobs", "1"], "--csv"),
], ids=["run", "experiment"])
def test_unallocatable_max_iter_is_one_line_error(tmp_path, capsys, command, out_flag):
    out = tmp_path / "out.csv"
    rc = main(command + ["--max-iter", str(10 ** 13), out_flag, str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert err.splitlines()[-1].startswith("error: Unable to allocate")
    assert not out.exists()
