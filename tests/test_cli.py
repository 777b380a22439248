import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from ncadmm import cli, experiment
from ncadmm.analysis import audit_contraction, optimize_delta, theory_constants
from ncadmm.cli import main
from ncadmm.config import full_config, load_config
from ncadmm.objective import ObjectiveSet
from ncadmm.topology import build_arc_matrices, gen_connected_graph, spectral_summary


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


README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"

# every flag each subcommand accepts; each one changes what the command reads
FLAGS = {
    "gen-graph": {"--nodes", "--rho", "--seed", "--out"},
    "theory": {"--config", "--seed"},
    "run": {"--config", "--seed", "--max-iter", "--model", "--cell", "--out"},
    "experiment": {"--config", "--full", "--seed", "--trials", "--max-iter", "--model",
                   "--jobs", "--csv", "--svg"},
    "audit": {"--config", "--seed", "--max-iter", "--model", "--cell", "--out"},
}


class TestFlagSets:
    def test_each_subcommand_takes_exactly_its_flags(self):
        parser = cli._build_parser()
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        flags = {name: {opt for action in p._actions for opt in action.option_strings}
                 - {"-h", "--help"} for name, p in sub.choices.items()}
        assert flags == FLAGS
        assert sum(map(len, flags.values())) == 27

    def test_readme_names_each_flag_under_its_command(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("\n## CLI\n")[1].split("\n## ")[0]
        rows = {}
        for line in section.splitlines():
            match = re.match(r"\| `([a-z-]+)` \|(.*)\|$", line)
            if match:
                rows[match.group(1)] = set(re.findall(r"`(--[a-z-]+)`", match.group(2)))
        assert rows == FLAGS

    @pytest.mark.parametrize("argv, err", [
        (["theory", "--trials", "2"], "unrecognized arguments: --trials 2"),
        (["theory", "--max-iter", "5"], "unrecognized arguments: --max-iter 5"),
        (["theory", "--model", "none"], "unrecognized arguments: --model none"),
        (["run", "--cell", "0.2,0.001", "--trials", "2"], "unrecognized arguments: --trials 2"),
        (["audit", "--cell", "0.2,0.001", "--trials", "2"], "unrecognized arguments: --trials 2"),
        (["experiment", "--full"], "argument --full: not allowed with argument --config"),
    ], ids=["theory-trials", "theory-max-iter", "theory-model", "run-trials",
            "audit-trials", "experiment-full"])
    def test_flag_the_command_does_not_read_fails_before_any_compute(
            self, tmp_path, monkeypatch, capsys, argv, err):
        def computed(*args, **kwargs):
            pytest.fail("computed")

        for name in ("trial_instance", "run_experiment", "preflight_reports"):
            monkeypatch.setattr(cli, name, computed)
        assert main([argv[0], "--config", str(small_config(tmp_path)), *argv[1:]]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("argv, code", [
    (["theory", "--trials", "2"], 1),
    (["gen-graph", "--nodes", "6", "--rho", "1", "--seed", "1", "--out", "{tmp}/g.edges"], 0),
], ids=["failure", "success"])
def test_entrypoint_exits_with_the_command_status(tmp_path, monkeypatch, capsys, argv, code):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    monkeypatch.setattr(sys, "argv", ["ncadmm", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert exc.value.code == code


class TestGenGraph:
    def test_writes_edge_list(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        rc = main(["gen-graph", "--nodes", "12", "--rho", "0.3",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        g = gen_connected_graph(12, 0.3, 5)
        assert out.read_bytes() == "".join(
            [f"12 {g.n_edges}\n"] + [f"{i} {j}\n" for i, j in g.edges.tolist()]).encode()

    def test_header_format(self, tmp_path, capsys):
        out = tmp_path / "k3.edges"
        rc = main(["gen-graph", "--nodes", "3", "--rho", "1", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == b"3 3\n0 1\n0 2\n1 2\n"

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
    """``--jobs`` alone sets the worker count; NCADMM_JOBS, its old fallback, is not read."""

    def test_environment_leaves_default_jobs_at_one(self, monkeypatch, tmp_path):
        monkeypatch.setenv("NCADMM_JOBS", "3")
        seen = []

        def stop_before_the_sweep(cfg, jobs=1, quiet=False):
            seen.append(jobs)
            raise ValueError("stopped")

        monkeypatch.setattr(cli, "run_experiment", stop_before_the_sweep)
        assert main(["experiment", "--config", str(small_config(tmp_path))]) == 1
        assert seen == [1]

    @pytest.mark.parametrize("flag, err", [
        ("0", "error: --jobs must be at least 1, got 0\n"),
        ("-2", "error: --jobs must be at least 1, got -2\n"),
    ])
    def test_nonpositive_jobs_fail_before_the_sweep(self, monkeypatch, tmp_path, capsys,
                                                     flag, err):
        seen = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg, jobs=1, quiet=False: seen.append(jobs))
        argv = ["experiment", "--config", str(small_config(tmp_path)), "--jobs", flag]
        assert main(argv) == 1
        assert seen == []
        assert capsys.readouterr() == ("", err)

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


class TestCellRecord:
    """``run`` and ``audit`` keep the iterates and the drawn errors, never the duals."""

    @staticmethod
    def cell_instance(tmp_path, model, **overrides):
        doc = {"noise": {"model": model, "sigma_e": [1e-3], "delta": 1e-3,
                         "placement_mode": "analysis_faithful"}, **overrides}
        cfg = load_config(small_config(tmp_path, **doc))
        return (cfg, 0, *experiment.trial_instance(cfg, 0))

    @pytest.mark.parametrize("model", ["gaussian", "fixed_norm", "quantizer"])
    def test_no_dual_history(self, tmp_path, model):
        traj = cli._cell_run(*self.cell_instance(tmp_path, model))[0]
        if model == "quantizer":
            assert traj.e_xs is None
        else:
            assert traj.e_xs.shape == traj.xs[1:].shape

    def test_quantizer_audit_peaks_near_two_x_histories(self, tmp_path):
        """The record holds x only; one series temporary of its size comes on top.

        N=20, n=2, K=2000 (x is 0.64 MB): a record that also kept the duals
        and the quantizer error held three histories and peaked above four.
        """
        cfg, cell, g, obj = self.cell_instance(
            tmp_path, "quantizer", admm={"c": [0.05], "max_iter": 2000},
            graph={"n_nodes": 20, "rho": 0.3})
        spec = spectral_summary(build_arc_matrices(g))
        tracemalloc.start()
        try:
            traj, ref, c, _ = cli._cell_run(cfg, cell, g, obj)
            mu, _ = optimize_delta(spec, obj.m_f, obj.M_f, c)
            audit_contraction(traj, ref, theory_constants(spec, obj.m_f, obj.M_f, c, mu))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.xs.nbytes == 2001 * 20 * 2 * 8
        assert peak <= 3 * traj.xs.nbytes


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
    def test_stdout_carries_only_the_wrote_lines(self, tmp_path, capsys):
        # the per-cell preflight JSON is a diagnostic and goes to stderr
        cfg = small_config(tmp_path, admm={"c": [0.01, 0.02], "max_iter": 30})
        assert main(["experiment", "--config", str(cfg)]) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(f"wrote {tmp_path / 'sweep.csv'} (2 cells x 2 trials, ")
        assert lines[1] == f"wrote {tmp_path / 'sweep.svg'}"
        cells = []
        for line in err.splitlines():
            head, body = line.split(": ", 1)
            cells.append(head)
            assert json.loads(body)["cond_squared"] is True
        assert cells == ["preflight c=0.01 sigma_e=0.001", "preflight c=0.02 sigma_e=0.001"]

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

    def test_full_flag_selects_the_large_profile(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        seen = []

        def stop_before_the_sweep(cfg, jobs=1, quiet=False):
            seen.append(cfg)
            raise ValueError("stopped")

        monkeypatch.setattr(cli, "run_experiment", stop_before_the_sweep)
        assert main(["experiment", "--full"]) == 1
        assert seen == [full_config()]
        assert (seen[0].graph.n_nodes, seen[0].trials) == (200, 100)

    def test_empty_csv_flag_fails_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_experiment", lambda cfg, jobs=1: pytest.fail("swept"))
        rc = main(["experiment", "--max-iter", "3", "--trials", "1", "--csv", ""])
        assert rc == 1
        assert capsys.readouterr().err == "error: output.csv_path must be set\n"
        assert list(tmp_path.iterdir()) == []

    def test_empty_svg_flag_writes_no_svg(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = small_config(tmp_path)
        assert main(["experiment", "--config", str(cfg), "--svg", ""]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "sweep.csv"]


@pytest.mark.parametrize("argv, bad", [
    (["experiment", "--csv", "{tmp}/missing/e.csv"], "{tmp}/missing/e.csv"),
    (["experiment", "--csv", "{tmp}/e.csv", "--svg", "{tmp}/missing/e.svg"],
     "{tmp}/missing/e.svg"),
    (["experiment", "--csv", "{tmp}"], "{tmp}"),
    (["run", "--cell", "0.2,0.001", "--out", "{tmp}/missing/r.csv"], "{tmp}/missing/r.csv"),
    (["audit", "--cell", "0.2,0.001", "--out", "{tmp}"], "{tmp}"),
    (["gen-graph", "--nodes", "5", "--rho", "1", "--seed", "1",
      "--out", "{tmp}/missing/g.edges"], "{tmp}/missing/g.edges"),
], ids=["experiment-csv", "experiment-svg", "experiment-dir", "run", "audit", "gen-graph"])
def test_unwritable_output_path_fails_before_any_compute(tmp_path, monkeypatch, capsys, argv, bad):
    # the parent must be a directory and the path must not be one
    cfg = small_config(tmp_path)
    def computed(*args, **kwargs):
        pytest.fail("computed")

    for name in ("run_experiment", "trial_instance", "gen_connected_graph"):
        monkeypatch.setattr(cli, name, computed)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if argv[0] != "gen-graph":
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: output path '{bad.format(tmp=tmp_path)}' "
                            "must name a file in an existing directory\n")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("command, out_flag", [
    (["run", "--cell", "0.2,0.001"], "--out"),
    (["audit", "--cell", "0.2,0.001"], "--out"),
    (["experiment"], "--csv"),
], ids=["run", "audit", "experiment"])
def test_quantizer_without_delta_fails_before_any_compute(tmp_path, monkeypatch, capsys,
                                                          command, out_flag):
    # the config sets delta to 0, which would quantize nothing
    def computed(*args, **kwargs):
        pytest.fail("computed")

    for name in ("run_experiment", "trial_instance"):
        monkeypatch.setattr(cli, name, computed)
    out = tmp_path / "out.csv"
    argv = command + ["--config", str(small_config(tmp_path)), "--model", "quantizer",
                      "--max-iter", "20", out_flag, str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: noise.delta must be positive for noise.model quantizer\n"
    assert not out.exists()


def test_quantizer_runs_on_the_desk_profile(tmp_path, capsys):
    # the built-in delta is positive, so the quantizer needs no config file
    outs = {}
    for model in ("quantizer", "none"):
        outs[model] = tmp_path / f"{model}.csv"
        argv = ["run", "--model", model, "--max-iter", "20", "--cell", "0.1,0.001",
                "--out", str(outs[model])]
        assert main(argv) == 0
    capsys.readouterr()
    assert outs["quantizer"].read_bytes() != outs["none"].read_bytes()


@pytest.mark.parametrize("command", ["theory", "run", "audit"])
@pytest.mark.parametrize("mode", ["analysis_faithful", "broadcast"])
def test_broadcast_cells_carry_a_coverage_note(tmp_path, capsys, command, mode):
    # the note follows the command's output on stderr; the CSV is untouched
    cfg = small_config(tmp_path, admm={"c": [0.2], "max_iter": 30},
                       noise={"model": "gaussian", "sigma_e": [1e-3], "delta": 0.0,
                              "placement_mode": mode})
    argv = [command, "--config", str(cfg)]
    if command != "theory":
        argv += ["--cell", "0.2,0.001", "--out", str(tmp_path / "cell.csv")]
    assert main(argv) == 0
    err = capsys.readouterr().err
    note = ("note: the certificate does not cover placement_mode=broadcast, "
            "where the message error also enters the dual update\n")
    if mode == "broadcast":
        assert err.endswith(note) and err.count(note) == 1
    else:
        assert "note:" not in err


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
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.count("error:") == 1
    assert err.count("\n") == 1  # fails before the experiment's preflight prints
    assert err.splitlines()[-1].startswith("error: Unable to allocate")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "audit"])
def test_csv_without_out_goes_to_stdout(tmp_path, capsys, command):
    argv = [command, "--config", str(small_config(tmp_path, admm={"c": [0.2], "max_iter": 30})),
            "--cell", "0.2,0.001"]
    out = tmp_path / "cell.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("ascii") == out.read_bytes()


@pytest.mark.parametrize("command", ["run", "audit"])
def test_process_stdout_is_the_out_file_bytes(tmp_path, command):
    """Without ``--out`` the process writes the file's bytes to stdout and nothing else.

    Run as a separate process, so the raw stdout bytes are compared: ASCII,
    LF endings, no stray line; the diagnostics on stderr are the same
    either way.
    """
    cfg = small_config(tmp_path, admm={"c": [0.2], "max_iter": 30})
    argv = [sys.executable, "-c", "from ncadmm.cli import entrypoint; entrypoint()",
            command, "--config", str(cfg), "--cell", "0.2,0.001"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "cell.csv"
    to_file = subprocess.run(argv + ["--out", str(out)], capture_output=True, env=env,
                             check=True)
    to_stdout = subprocess.run(argv, capture_output=True, env=env, check=True)
    assert to_file.stdout == b""
    assert to_stdout.stdout == out.read_bytes()
    assert to_stdout.stdout.startswith(b"k,") and to_stdout.stdout.endswith(b"\n")
    assert to_stdout.stderr == to_file.stderr


@pytest.mark.parametrize("command", ["run", "audit"])
@pytest.mark.parametrize("cell", ["0.1", "0.1,x"])
def test_malformed_cell_is_one_line_error(tmp_path, monkeypatch, capsys, command, cell):
    monkeypatch.setattr(cli, "trial_instance", lambda *args: pytest.fail("computed"))
    assert main([command, "--config", str(small_config(tmp_path)), "--cell", cell]) == 1
    assert capsys.readouterr() == ("", f"error: --cell must be `c,sigma_e`, got {cell!r}\n")


class TestZeroStrongConvexity:
    """An instance whose node 0 has an all-zero design, so m_f = 0."""

    @pytest.fixture(autouse=True)
    def zero_first_design(self, monkeypatch):
        real = experiment.trial_instance

        def trial_instance(cfg, trial):
            g, obj = real(cfg, trial)
            designs = obj.designs.copy()
            designs[0] = 0.0
            flat = ObjectiveSet.from_data(designs, obj.observations)
            assert flat.m_f == 0.0
            return g, flat

        monkeypatch.setattr(cli, "trial_instance", trial_instance)
        monkeypatch.setattr(experiment, "trial_instance", trial_instance)

    @pytest.mark.parametrize("command, err", [
        (["theory"], "error: instance has m_f = 0 at c=0.2; no certificate exists "
                     "(try design_kind=well_conditioned)\n"),
        (["audit", "--cell", "0.2,0.001"], "error: instance has m_f = 0; no certificate "
                                           "to audit (try design_kind=well_conditioned)\n"),
    ], ids=["theory", "audit"])
    def test_certificate_commands_fail(self, tmp_path, monkeypatch, capsys, command, err):
        # audit refuses the instance before the engine and the reference point run
        for name in ("run_decentralized", "reference_point"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("computed"))
        out = tmp_path / "audit.csv"
        argv = command + ["--config", str(small_config(tmp_path))]
        if command[0] == "audit":
            argv += ["--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", err)
        assert not out.exists()

    def test_experiment_notes_it_and_sweeps(self, tmp_path, capsys):
        cfg = small_config(tmp_path, admm={"c": [0.2], "max_iter": 30})
        assert main(["experiment", "--config", str(cfg)]) == 0
        err = capsys.readouterr().err
        assert err == ("preflight c=0.2 sigma_e=0.001: m_f = 0 "
                       "(no certificate for this instance)\n")
        assert (tmp_path / "sweep.csv").read_text().startswith("c,sigma_e,k,mean_edc,std_edc\n")
