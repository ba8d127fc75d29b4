import dataclasses
import json
import math
import sys

import numpy as np
import pytest

import visco_inverse.frames
from visco_inverse import AffineModulation
from visco_inverse.cli import ExperimentConfig, main, run

PI = math.pi
TWO_PI = 2 * PI


def base_config(**overrides):
    cfg = {
        "operator": {"length": PI, "potential_shift": 0.0, "observed_endpoints": ["left"]},
        "kernel": {"variant": "zero"},
        "sigma": {"form": "constant", "a": 1.0},
        "grid": {"T": TWO_PI, "dt": TWO_PI / 2048},
        "N": 8,
        "seed": 3,
        "noise_level": 0.0,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestValidation:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["reconstruct", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["reconstruct", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_nonpositive_dt(self, tmp_path):
        cfg = base_config(grid={"T": 1.0, "dt": 0.0})
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == 2

    def test_non_integral_step_count(self, tmp_path, capsys):
        cfg = base_config(grid={"T": TWO_PI, "dt": 1e-3})
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert "integer" in capsys.readouterr().err

    def test_unknown_study_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["made-up-study", "--config", str(write_config(tmp_path, base_config()))])
        assert err.value.code == 2

    def test_study_mismatch_with_config(self, tmp_path):
        cfg = base_config(study="simulate")
        assert main(["reconstruct", "--config", str(write_config(tmp_path, cfg))]) == 2

    def test_unknown_kernel_variant(self, tmp_path):
        cfg = base_config(kernel={"variant": "fractional"})
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == 2

    def test_sigma_zero_rejected_for_reconstruction(self, tmp_path):
        cfg = base_config(sigma={"form": "constant", "a": 0.0})
        assert main(["reconstruct", "--config", str(write_config(tmp_path, cfg))]) == 2

    def test_counterexample_requires_zero_kernel(self, tmp_path):
        cfg = base_config(kernel={"variant": "exponential", "beta": 1.0, "alpha": 1.0})
        assert main(["l2-counterexample", "--config", str(write_config(tmp_path, cfg))]) == 2

    def test_negative_noise(self, tmp_path):
        cfg = base_config(noise_level=-0.5)
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == 2

    @pytest.mark.parametrize("override", [
        {"grid": {"T": math.inf, "dt": 0.1}},
        {"grid": {"T": TWO_PI, "dt": math.nan}},
        {"grid": {"T": 1e300, "dt": 1e-300}},
        {"noise_level": math.inf},
        {"kernel": {"variant": "exponential", "beta": math.nan, "alpha": 1.0}},
        {"kernel": {"variant": "polynomial", "coefficients": [1.0, -math.inf]}},
        {"sigma": {"form": "affine", "a": 1.0, "b": math.nan}},
        {"sigma": {"form": "exponential", "a": math.inf}},
    ], ids=["T", "dt", "T/dt", "noise_level", "kernel-beta", "kernel-coefficients",
            "sigma-slope", "sigma-rate"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, override):
        cfg = base_config(**override)
        assert main(["reconstruct", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["N", "trials", "seed"])
    def test_non_integral_count_rejected(self, tmp_path, capsys, key):
        cfg = base_config(**{key: 2.7})
        assert main(["stability-scan", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert "integer" in capsys.readouterr().err

    def test_bad_source_length(self, tmp_path):
        cfg = base_config(source=[1.0, 2.0])
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert code == 2


class TestReconstructStudy:
    def test_unit_mode_recovery(self, tmp_path):
        cfg = base_config(study="reconstruct", source={"unit": 3}, N=8)
        out = tmp_path / "res"
        code = main(["reconstruct", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert code == 0
        rows = (out / "reconstruct.csv").read_text().splitlines()
        assert rows[0] == "n,f_true,f_recovered,abs_error"
        table = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        k3 = table[table[:, 0] == 3][0]
        assert abs(k3[2] - 1.0) < 1e-6
        others = table[table[:, 0] != 3]
        assert np.max(np.abs(others[:, 2])) < 1e-6
        summary = json.loads((out / "reconstruct.json").read_text())
        assert summary["study"] == "reconstruct"
        assert summary["results"]["relative_l2_error"] < 1e-6
        assert summary["diagnostics"]["exit"] == "ok"

    def test_summary_echoes_effective_config(self, tmp_path):
        cfg = base_config(study="reconstruct", source="random")
        out = tmp_path / "res"
        assert main(["reconstruct", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        summary = json.loads((out / "reconstruct.json").read_text())
        eff = summary["config"]
        for key in ("operator", "kernel", "sigma", "grid", "N", "study", "seed",
                    "noise_level", "measurement", "trials", "source"):
            assert key in eff
        assert eff["grid"]["steps"] == 2048
        assert len(eff["source"]) == 8  # the drawn coefficients are echoed

    def test_seed_override_changes_random_source(self, tmp_path):
        cfg = base_config(study="reconstruct", source="random")
        path = write_config(tmp_path, cfg)
        outs = []
        for seed, name in ((1, "a"), (2, "b")):
            out = tmp_path / name
            assert main(["reconstruct", "--config", str(path), "--out", str(out), "--seed", str(seed)]) == 0
            outs.append(json.loads((out / "reconstruct.json").read_text())["config"]["source"])
        assert outs[0] != outs[1]

    def test_zero_source_has_no_relative_error(self, tmp_path):
        cfg = base_config(study="reconstruct", source=[0.0] * 8)
        out = tmp_path / "res"
        assert main(["reconstruct", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        assert strict_json(out / "reconstruct.json")["results"]["relative_l2_error"] is None

    def test_differentiated_measurement_path(self, tmp_path):
        cfg = base_config(study="reconstruct", source={"unit": 2}, measurement="bu")
        out = tmp_path / "res"
        assert main(["reconstruct", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        summary = json.loads((out / "reconstruct.json").read_text())
        # differencing the trace costs O(dt^2) accuracy but must stay tight
        assert summary["results"]["relative_l2_error"] < 1e-4


def strict_json(path):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNumericalFailure:
    def config(self, tmp_path, **overrides):
        raw = base_config(study="reconstruct", sigma={"form": "affine", "a": 1.0, "b": 0.5},
                          output=str(tmp_path / "res"))
        return dataclasses.replace(ExperimentConfig.from_mapping(raw, "reconstruct"), **overrides)

    def test_nan_sigma_fails_the_identity_gate(self, tmp_path):
        cfg = self.config(tmp_path, sigma=AffineModulation(1.0, math.nan))
        assert run(cfg) == 3
        assert not (tmp_path / "res" / "reconstruct.csv").exists()
        summary = strict_json(tmp_path / "res" / "reconstruct.json")
        assert "resolvent identity" in summary["diagnostics"]["exit"]
        assert summary["config"]["sigma"]["b"] is None

    def test_infinite_noise_is_a_numerical_failure(self, tmp_path):
        cfg = self.config(tmp_path, noise_level=math.inf)
        assert run(cfg) == 3
        assert not (tmp_path / "res" / "reconstruct.csv").exists()
        summary = strict_json(tmp_path / "res" / "reconstruct.json")
        assert summary["diagnostics"]["exit"].startswith("non-finite")
        assert "rows" in summary["diagnostics"]["exit"]
        assert summary["results"]["relative_l2_error"] is None


class TestOtherStudies:
    def test_simulate_writes_trace_columns(self, tmp_path):
        cfg = base_config(study="simulate", source={"unit": 1})
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        rows = (out / "simulate.csv").read_text().splitlines()
        assert rows[0] == "t,bu_left,bu_prime_left"
        assert len(rows) == 2048 + 2

    def test_frame_bounds_below_threshold_fails_numerically(self, tmp_path, capsys):
        cfg = base_config(grid={"T": PI, "dt": PI / 4096}, N=32,
                          kernel={"variant": "exponential", "beta": 1.0, "alpha": 1.0})
        out = tmp_path / "fb"
        code = main(["frame-bounds", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert code == 3
        assert "singular Gram" in capsys.readouterr().err
        summary = json.loads((out / "frame-bounds.json").read_text())
        assert summary["diagnostics"]["exit"] == "singular Gram"

    def test_frame_bounds_healthy_horizon(self, tmp_path):
        cfg = base_config(N=8)
        out = tmp_path / "fb"
        assert main(["frame-bounds", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        rows = (out / "frame-bounds.csv").read_text().splitlines()
        assert rows[0] == "truncation,members,min_eig,max_eig"
        # doubling sweep 1, 2, 4, 8
        assert [int(float(r.split(",")[0])) for r in rows[1:]] == [1, 2, 4, 8]

    def test_stability_scan(self, tmp_path):
        cfg = base_config(study="stability-scan", trials=5)
        out = tmp_path / "st"
        assert main(["stability-scan", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        summary = json.loads((out / "stability-scan.json").read_text())
        assert 0 < summary["results"]["min_ratio"] <= summary["results"]["max_ratio"]

    def test_zest_decay_columns(self, tmp_path):
        cfg = base_config(N=6, kernel={"variant": "exponential", "beta": 1.0, "alpha": 1.0})
        out = tmp_path / "zd"
        assert main(["zest-decay", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        rows = (out / "zest-decay.csv").read_text().splitlines()
        assert rows[0] == "n,lambda,defect"
        assert len(rows) == 7

    def test_l2_counterexample(self, tmp_path):
        cfg = base_config(N=8)
        out = tmp_path / "ce"
        assert main(["l2-counterexample", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        rows = (out / "l2-counterexample.csv").read_text().splitlines()
        assert rows[0] == "n,lambda,scaled_norm,min_gram_eig"
        table = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        np.testing.assert_allclose(table[:, 2], math.sqrt(6.0), rtol=5e-3)


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        cfg = base_config(study="reconstruct", source="random", seed=9)
        path = write_config(tmp_path, cfg)
        bodies = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["reconstruct", "--config", str(path), "--out", str(out)]) == 0
            bodies.append((out / "reconstruct.csv").read_bytes())
        assert bodies[0] == bodies[1]

    def test_reconstruct_solves_the_w_family_once(self, tmp_path, monkeypatch):
        calls = []
        solve = visco_inverse.frames.solve_w_many

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        # patch every module that bound the solver, so no caller escapes the count
        for name, module in list(sys.modules.items()):
            if name.startswith("visco_inverse") and getattr(module, "solve_w_many", None) is solve:
                monkeypatch.setattr(module, "solve_w_many", counting)
        cfg = base_config(study="reconstruct", sigma={"form": "affine", "a": 1.0, "b": 0.5})
        out = tmp_path / "res"
        assert main(["reconstruct", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        assert len(calls) == 1


class TestConfigObject:
    def test_from_mapping_resolves_defaults(self):
        cfg = ExperimentConfig.from_mapping(base_config(), "simulate")
        assert cfg.study == "simulate"
        assert cfg.measurement == "bu_prime"
        assert cfg.trials == 50
        assert cfg.output == "out"
        assert cfg.grid.steps == 2048

    def test_run_requires_writable_output(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        cfg = ExperimentConfig.from_mapping(
            base_config(output=str(blocker / "sub")), "simulate"
        )
        assert run(cfg) == 2
