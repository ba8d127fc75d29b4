import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import visco_inverse.forward
import visco_inverse.frames
from visco_inverse import AffineModulation
from visco_inverse.cli import MAX_MODE_NODES, ExperimentConfig, _write_csv, main, run

PI = math.pi
TWO_PI = 2 * PI
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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

    def test_oversized_grid_rejected_at_parse_time(self, tmp_path, capsys):
        cfg = base_config(grid={"T": 1e4, "dt": 1e-4})
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = main(["reconstruct", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "grid" in capsys.readouterr().err
        assert peak < 1 << 20
        assert not out.exists()

    def test_grid_at_the_step_limit_is_accepted(self):
        cfg = ExperimentConfig.from_mapping(base_config(grid={"T": 1.0, "dt": 1e-7}), "simulate")
        assert cfg.grid.steps == 10**7

    def test_oversized_family_rejected_at_parse_time(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "reconstruct_orthogonal.json").read_text())
        cfg["N"] = 10**6
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = main(["reconstruct", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "N x (steps + 1)" in capsys.readouterr().err
        assert peak < 1 << 20
        assert not out.exists()

    def test_family_at_the_size_limit_is_accepted(self):
        grid = {"T": 4.999, "dt": 1e-3}
        N = MAX_MODE_NODES // 5000
        cfg = ExperimentConfig.from_mapping(base_config(grid=grid, N=N), "simulate")
        assert cfg.truncation * (cfg.grid.steps + 1) == MAX_MODE_NODES
        with pytest.raises(ValueError, match="N x"):
            ExperimentConfig.from_mapping(base_config(grid=grid, N=N + 1), "simulate")

    def test_oversized_scan_rejected_at_parse_time(self, tmp_path, capsys):
        cfg = base_config(study="stability-scan", trials=10**12)
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = main(["stability-scan", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "trials x N" in capsys.readouterr().err
        assert peak < 1 << 20
        assert not out.exists()

    def test_scan_at_the_draw_limit_is_accepted(self):
        trials = MAX_MODE_NODES // 8
        cfg = ExperimentConfig.from_mapping(base_config(N=8, trials=trials), "stability-scan")
        assert cfg.trials * cfg.truncation == MAX_MODE_NODES
        with pytest.raises(ValueError, match="trials x N"):
            ExperimentConfig.from_mapping(base_config(N=8, trials=trials + 1), "stability-scan")
        # other studies draw no trials
        ExperimentConfig.from_mapping(base_config(N=8, trials=trials + 1), "simulate")

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

    @pytest.mark.parametrize("override, what", [
        ({"kernel": {"variant": ["zero"]}}, "kernel: unknown variant"),
        ({"sigma": {"form": 3}}, "sigma: unknown form"),
    ], ids=["list-variant", "number-form"])
    def test_non_string_tag_is_unknown(self, tmp_path, capsys, override, what):
        cfg = base_config(**override)
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert what in capsys.readouterr().err

    @pytest.mark.parametrize("value", [[], "x", 3, None], ids=["list", "string", "number", "null"])
    @pytest.mark.parametrize("key", ["operator", "grid"])
    def test_non_object_section_rejected(self, tmp_path, capsys, key, value):
        cfg = base_config(**{key: value})
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == f"error: {key}: expected an object\n"

    @pytest.mark.parametrize("value", [["x"], 3, None], ids=["list", "number", "null"])
    def test_non_string_output_rejected(self, tmp_path, capsys, monkeypatch, value):
        path = write_config(tmp_path, base_config(output=value))
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: output: expected a string\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

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

    @pytest.mark.parametrize("key, value", [
        ("N", True), ("trials", True), ("seed", False), ("source", {"unit": True}),
    ], ids=["N", "trials", "seed", "source-unit"])
    def test_bool_count_rejected(self, tmp_path, capsys, key, value):
        cfg = base_config(**{key: value})
        assert main(["stability-scan", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_string_endpoints_rejected(self, tmp_path, capsys):
        cfg = base_config(operator={"length": PI, "observed_endpoints": "left"})
        assert main(["reconstruct", "--config", str(write_config(tmp_path, cfg))]) == 2
        err = capsys.readouterr().err
        assert "observed_endpoints: expected a list" in err
        assert "'l'" not in err

    @pytest.mark.parametrize("mutate, key", [
        (lambda c: c.update(noise_level=True), "noise_level"),
        (lambda c: c.update(kernel={"variant": "exponential", "beta": "2", "alpha": 1.0}),
         "kernel: beta"),
        (lambda c: c["operator"].update(length="3.14"), "operator: length"),
        (lambda c: c.update(kernel={"variant": "polynomial", "coefficients": [True, 0.5]}),
         "kernel: coefficients"),
        (lambda c: c.update(kernel={"variant": "polynomial", "coefficients": "1"}),
         "kernel: coefficients"),
    ], ids=["bool-noise", "string-beta", "string-length", "bool-coefficient",
            "string-coefficients"])
    def test_non_number_real_rejected(self, tmp_path, capsys, mutate, key):
        cfg = json.loads((CONFIGS / "reconstruct_orthogonal.json").read_text())
        mutate(cfg)
        cfg["output"] = str(tmp_path / "out")
        assert main(["reconstruct", "--config", str(write_config(tmp_path, cfg))]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be a")
        assert not (tmp_path / "out").exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        cfg = base_config(seed=-1)
        assert main(["reconstruct", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert "seed" in capsys.readouterr().err

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["stability-scan", "--config", str(path), "--seed", "-3"]) == 2
        assert "seed" in capsys.readouterr().err

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

    @pytest.mark.parametrize("sigma, zero", [
        ({"form": "constant", "a": 2.0}, True),
        ({"form": "affine", "a": 1.0, "b": 0.5}, False),
        ({"form": "exponential", "a": -0.5}, False),
    ], ids=["constant", "affine", "exponential"])
    def test_resolvent_residual_is_reported(self, tmp_path, sigma, zero):
        cfg = base_config(study="reconstruct", sigma=sigma)
        out = tmp_path / "res"
        assert main(["reconstruct", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        residual = strict_json(out / "reconstruct.json")["diagnostics"]["resolvent_residual"]
        assert residual == 0.0 if zero else 0.0 < residual < 1e-13

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


    def test_bu_measurement_builds_bu_alone(self, tmp_path, monkeypatch):
        # B u = V_sigma B w is the one convolution; no B u' is built beside it
        calls = []
        convolve = visco_inverse.forward.convolve
        monkeypatch.setattr(visco_inverse.forward, "convolve",
                            lambda *args: calls.append(1) or convolve(*args))
        cfg = base_config(study="reconstruct", measurement="bu",
                          sigma={"form": "affine", "a": 1.0, "b": 0.5})
        out = tmp_path / "res"
        assert main(["reconstruct", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        assert len(calls) == 1

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

    @pytest.mark.parametrize("study", ["reconstruct", "frame-bounds"])
    def test_overflowing_modal_solve_is_a_numerical_failure(self, tmp_path, study):
        cfg = base_config(kernel={"variant": "exponential", "beta": 1.0, "alpha": -500.0},
                          grid={"T": TWO_PI, "dt": TWO_PI / 256}, N=4)
        out = tmp_path / "res"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([study, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert code == 3
        # the solve stops at its first overflow instead of stepping on inf/NaN
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (out / f"{study}.csv").exists()
        summary = strict_json(out / f"{study}.json")
        assert "non-finite modal state" in summary["diagnostics"]["exit"]

    def test_failed_run_removes_the_previous_csv(self, tmp_path):
        out = tmp_path / "res"
        for slope, code in ((0.5, 0), (1e300, 3)):
            cfg = base_config(sigma={"form": "affine", "a": 1.0, "b": slope})
            path = write_config(tmp_path, cfg)
            assert main(["reconstruct", "--config", str(path), "--out", str(out)]) == code
        assert not (out / "reconstruct.csv").exists()
        assert strict_json(out / "reconstruct.json")["diagnostics"]["exit"] != "ok"

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
        results = json.loads((out / "stability-scan.json").read_text())["results"]
        assert 0 < results["min_ratio"] <= results["max_ratio"]
        # the Monte-Carlo window lies inside the exact extremes sqrt(eig(Q))
        slack = 1e-12 * results["exact_max_ratio"]
        assert results["exact_min_ratio"] <= results["min_ratio"] + slack
        assert results["max_ratio"] <= results["exact_max_ratio"] + slack

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


def test_cli_imports_numpy_submodules_up_front_and_never_scipy(tmp_path):
    # numpy loads numpy.fft, numpy.random and numpy.polynomial lazily; the
    # package imports them itself, so their cost falls in the import and not
    # in the first run.  numpy is the only runtime dependency: no scipy
    # module may load, at import or during a run of the generic kernel path.
    cfg = base_config(study="reconstruct", N=4, grid={"T": TWO_PI, "dt": TWO_PI / 512},
                      kernel={"variant": "polynomial", "coefficients": [1.0, -0.5]},
                      sigma={"form": "affine", "a": 1.0, "b": 0.5})
    path, out = write_config(tmp_path, cfg), tmp_path / "res"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"""
import sys
seen = []

class Spy:
    def find_spec(self, name, path=None, target=None):
        seen.append(name)

sys.meta_path.insert(0, Spy())
import visco_inverse.cli
print([m for m in ("numpy.fft", "numpy.random", "numpy.polynomial") if m not in sys.modules])
rc = visco_inverse.cli.main(["reconstruct", "--config", {str(path)!r}, "--out", {str(out)!r}])
print(rc, sorted({{m for m in seen + list(sys.modules) if m.split(".")[0] == "scipy"}}))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]" and lines[-1] == "0 []"


def test_stability_scan_takes_its_median_without_numpy_ma(tmp_path):
    # np.median and np.quantile import numpy.ma on first use, a cost inside
    # cli.run; the scan's median comes from a sort and must equal np.median's
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = []
    for trials in (5, 6):  # one odd and one even count
        cfg = base_config(study="stability-scan", trials=trials, N=4,
                          kernel={"variant": "polynomial", "coefficients": [1.0, -0.5]})
        runs.append((str(write_config(tmp_path, cfg, f"scan{trials}.json")),
                     str(tmp_path / f"scan{trials}")))
    code = f"""
import sys
import visco_inverse.cli
codes = [visco_inverse.cli.main(["stability-scan", "--config", path, "--out", out])
         for path, out in {runs!r}]
print(codes, "numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] False"
    for _, out in runs:
        ratios = np.loadtxt(Path(out) / "stability-scan.csv", delimiter=",", skiprows=1)[:, 1]
        results = json.loads((Path(out) / "stability-scan.json").read_text())["results"]
        assert results["median_ratio"] == np.median(ratios)


def test_overflowing_stability_scan_exits_3(tmp_path):
    # sigma = e^(300 t) overflows on the grid, and the H1 Gram with it: a
    # numerical failure (exit 3), not a config error from the eigen solve
    cfg = json.loads((CONFIGS / "reconstruct_memory.json").read_text())
    cfg.update(study="stability-scan", trials=10, N=4, sigma={"form": "exponential", "a": 300.0})
    cfg["grid"]["dt"] = cfg["grid"]["T"] / 640
    out = tmp_path / "scan"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "visco_inverse.cli", "stability-scan",
                           "--config", str(write_config(tmp_path, cfg)), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / "stability-scan.csv").exists()
    assert "non-finite H1 Gram" in strict_json(out / "stability-scan.json")["diagnostics"]["exit"]


def test_csv_rows_keep_the_per_value_repr_bytes(tmp_path):
    # the bytes of the former writer, one repr(float(v)) per value
    def per_value(rows):
        return "a,b,c\n" + "".join(",".join(repr(float(v)) for v in row) + "\n"
                                   for row in np.atleast_2d(rows))

    rows = np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 1e-300],
                     [1.0 / 3.0, 2.5e17, -5e-324], [4000.0, 1e16, 0.1]])
    for name, table in (("rows", rows), ("row", rows[1])):
        _write_csv(tmp_path / name, ["a", "b", "c"], table)
        assert (tmp_path / name).read_bytes() == per_value(table).encode()


class TestConfigObject:
    def test_from_mapping_resolves_defaults(self):
        cfg = ExperimentConfig.from_mapping(base_config(), "simulate")
        assert cfg.study == "simulate"
        assert cfg.measurement == "bu_prime"
        assert cfg.trials == 50
        assert cfg.output == "out"
        assert cfg.grid.steps == 2048

    @pytest.mark.parametrize("kernel", [
        {"variant": "zero"},
        {"variant": "exponential", "beta": 1.0, "alpha": 0.25},
        {"variant": "polynomial", "coefficients": [1.0, -0.5, 2.0]},
        {"variant": "sampled", "values": [1.0, 0.5, 0.25], "m0": 1.0},
        {"variant": "sampled", "values": [1.0, 0.5, 0.25], "m0": None},
    ], ids=["zero", "exponential", "polynomial", "sampled", "sampled-without-m0"])
    def test_summary_echoes_the_kernel_as_configured(self, kernel):
        cfg = ExperimentConfig.from_mapping(base_config(kernel=kernel), "simulate")
        assert cfg.effective()["kernel"] == kernel

    @pytest.mark.parametrize("sigma", [
        {"form": "constant", "a": 2.0},
        {"form": "exponential", "a": -0.5},
        {"form": "affine", "a": 1.0, "b": 0.5},
        {"form": "sampled", "values": [1.0, 0.75, 0.5, 0.25]},
    ], ids=["constant", "exponential", "affine", "sampled"])
    def test_summary_echoes_sigma_as_configured(self, sigma):
        cfg = ExperimentConfig.from_mapping(base_config(sigma=sigma), "simulate")
        assert cfg.effective()["sigma"] == sigma

    def test_null_inputs_mean_the_defaults(self):
        cfg = ExperimentConfig.from_mapping(base_config(kernel=None, sigma=None), "simulate")
        assert cfg.effective()["kernel"] == {"variant": "zero"}
        assert cfg.effective()["sigma"] == {"form": "constant", "a": 1.0}

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_sample_config_parses_and_echoes_its_inputs(self, path):
        raw = json.loads(path.read_text())
        effective = ExperimentConfig.from_mapping(raw, raw["study"]).effective()
        assert effective["kernel"] == raw["kernel"]
        assert effective["sigma"] == raw["sigma"]

    def test_run_requires_writable_output(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        cfg = ExperimentConfig.from_mapping(
            base_config(output=str(blocker / "sub")), "simulate"
        )
        assert run(cfg) == 2
