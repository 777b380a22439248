import json

import pytest

from ncadmm.config import (ConfigError, ExperimentConfig, default_config,
                           full_config, load_config)


def write(tmp_path, doc):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    return p


class TestLoading:
    def test_defaults_are_valid(self):
        default_config().validate()
        full_config().validate()

    def test_full_profile_dimensions(self):
        cfg = full_config()
        assert cfg.graph.n_nodes == 200
        assert cfg.graph.rho == 0.04
        assert cfg.trials == 100

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(p)

    def test_partial_document_fills_defaults(self, tmp_path):
        p = write(tmp_path, {"seed": 5, "graph": {"n_nodes": 10, "rho": 0.5}})
        cfg = load_config(p)
        assert cfg.seed == 5
        assert cfg.graph.n_nodes == 10
        assert cfg.problem.dim == 3  # default

    def test_unknown_top_level_field_rejected(self, tmp_path):
        p = write(tmp_path, {"seeed": 5})
        with pytest.raises(ConfigError, match="unknown field 'seeed'"):
            load_config(p)

    def test_unknown_nested_field_rejected(self, tmp_path):
        p = write(tmp_path, {"graph": {"n_nodes": 10, "rho": 0.5, "directed": True}})
        with pytest.raises(ConfigError, match="unknown field 'directed'"):
            load_config(p)

    def test_wrong_types_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="integer"):
            load_config(write(tmp_path, {"seed": 1.5}))
        with pytest.raises(ConfigError, match="number"):
            load_config(write(tmp_path, {"graph": {"rho": "dense"}}))
        with pytest.raises(ConfigError, match="entries"):
            load_config(write(tmp_path, {"admm": {"c": [0.1, "x"]}}))


class TestValidation:
    def test_rejects_empty_sweep_lists(self, tmp_path):
        with pytest.raises(ConfigError, match="admm.c"):
            load_config(write(tmp_path, {"admm": {"c": []}}))
        with pytest.raises(ConfigError, match="sigma_e"):
            load_config(write(tmp_path, {"noise": {"sigma_e": []}}))

    def test_rejects_bad_values(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, {"trials": 0}))
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, {"graph": {"n_nodes": 1, "rho": 0.5}}))
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, {"noise": {"model": "cauchy"}}))
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, {"noise": {"placement_mode": "sideways"}}))
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, {"admm": {"c": [0.0]}}))


    @pytest.mark.parametrize("doc, field", [
        ({"admm": {"c": [float("inf")]}}, "admm.c"),
        ({"admm": {"c": [0.1, float("nan")]}}, "admm.c"),
        ({"noise": {"sigma_e": [float("nan")]}}, "noise.sigma_e"),
        ({"noise": {"sigma_e": [float("inf")]}}, "noise.sigma_e"),
        ({"noise": {"delta": float("inf")}}, "noise.delta"),
        ({"noise": {"delta": float("nan")}}, "noise.delta"),
        ({"problem": {"obs_noise_var": float("inf")}}, "problem.obs_noise_var"),
        ({"problem": {"obs_noise_var": float("nan")}}, "problem.obs_noise_var"),
    ])
    def test_rejects_non_finite_values(self, tmp_path, doc, field):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            load_config(write(tmp_path, doc))


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self, tmp_path):
        cfg = default_config()
        doc = cfg.to_json_dict()
        again = ExperimentConfig.from_json_dict(doc)
        assert again == cfg
        assert again.to_json_dict() == doc

    def test_file_round_trip(self, tmp_path):
        cfg = full_config()
        p = tmp_path / "out.json"
        cfg.save(p)
        assert load_config(p) == cfg


class TestSweepCells:
    def test_cell_order_is_c_major(self):
        cfg = default_config()
        cells = cfg.cells()
        assert cells[0] == (0.1, 1e-3)
        assert cells[1] == (0.1, 1e-2)
        assert len(cells) == len(cfg.admm.c) * len(cfg.noise.sigma_e)

    def test_noise_model_from_cell(self):
        cfg = default_config()
        m = cfg.noise_model(0.5)
        assert m.kind == "gaussian"
        assert m.sigma_e == 0.5
