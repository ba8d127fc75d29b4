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
from hypothesis import given
from hypothesis import strategies as st

import visco_inverse.forward
import visco_inverse.frames
from visco_inverse import (
    AffineModulation,
    Mode,
    TraceSignal,
    biorthogonality_defect,
    build_reconstruction,
    build_spectral_model,
    convolve,
    convolve_adjoint,
    gram,
    l2_inner,
    l2_norm,
)
import visco_inverse.cli as cli
from visco_inverse.cli import (
    _KERNELS, _SIGMAS, MAX_MODE_NODES, STUDIES, ExperimentConfig, _real, _reals, _write_csv,
    main, run)

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

    @pytest.mark.parametrize("study", STUDIES)
    def test_two_step_grid_rejected_at_parse_time(self, tmp_path, capsys, study):
        # every study, including those that would run to exit 0 on 2 steps
        cfg = base_config(grid={"T": TWO_PI, "dt": PI}, N=2, trials=3)
        out = tmp_path / "o"
        assert main([study, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: grid: need at least 3 steps, as the time derivative's stencils do\n")
        assert not out.exists()
        cfg["grid"]["dt"] = TWO_PI / 3
        assert ExperimentConfig.from_mapping(cfg, study).grid.steps == 3

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

    def test_zest_decay_sampled_kernel_needs_m0_at_parse_time(self, tmp_path, capsys):
        # the comparison rate M(0)/2 reads m0, so the run is refused before its solve
        cfg = base_config(kernel={"variant": "sampled", "values": [1.0] * 257},
                          grid={"T": TWO_PI, "dt": TWO_PI / 256})
        out = tmp_path / "o"
        assert main(["zest-decay", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: sampled kernel used without a declared M(0)\n"
        assert not out.exists()
        cfg["kernel"]["m0"] = 1.0
        assert ExperimentConfig.from_mapping(cfg, "zest-decay").kernel.at_zero() == 1.0

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

    @pytest.mark.parametrize("values, bad", [
        ([0.5, True, math.nan], True),
        ([0.5, 10 ** 400, math.nan], 10 ** 400),
        ([1, -math.inf, math.nan], -math.inf),
        ([1.0, "2", math.nan], "2"),
        ([None, 1.0], None),
    ], ids=["bool", "huge-int", "infinite", "string", "null"])
    def test_number_list_names_its_first_bad_value(self, values, bad):
        # the vectorised check of a list falls back to the per-value loop
        with pytest.raises(ValueError) as listed:
            _reals(values, "sigma: values")
        with pytest.raises(ValueError) as single:
            _real(bad, "sigma: values")
        assert str(listed.value) == str(single.value)

    def test_number_list_reads_each_value_as_float_does(self):
        values = [1, -0.0, 2 ** 53 + 1, 10 ** 300, 1e308, 5e-324, -(2 ** 64) + 1]
        parsed = _reals(values, "values")
        assert parsed.dtype == float
        assert parsed.tobytes() == np.array([float(v) for v in values]).tobytes()

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


@st.composite
def small_configs(draw):
    """A valid config of every key, N <= 4 and 3 to 256 steps (the floor)."""
    study = draw(st.sampled_from(STUDIES))
    n, steps = draw(st.integers(1, 4)), draw(st.integers(3, 256))
    horizon = TWO_PI + 0.5
    nodes = np.linspace(0.0, horizon, steps + 1)
    reals = st.floats(0.25, 2.0)
    kernel = draw(st.sampled_from(["zero"] if study == "l2-counterexample"
                                  else ["zero", "exponential", "polynomial", "sampled"]))
    kernel = {"zero": {"variant": "zero"},
              "exponential": {"variant": "exponential", "beta": draw(reals), "alpha": draw(reals)},
              "polynomial": {"variant": "polynomial",
                             "coefficients": draw(st.lists(reals, min_size=1, max_size=3))},
              "sampled": {"variant": "sampled", "values": np.exp(-nodes).tolist(), "m0": 1.0},
              }[kernel]
    sigma = draw(st.sampled_from([
        {"form": "constant", "a": draw(reals)}, {"form": "exponential", "a": draw(reals)},
        {"form": "affine", "a": draw(reals), "b": draw(reals)},
        {"form": "sampled", "values": (1.0 + 0.5 * nodes).tolist()}]))
    source = draw(st.sampled_from(
        ["random", {"unit": n - 1}, {"coefficients": [1.0] * n}, [0.5] * n]))
    return {
        "study": study,
        "operator": {"length": PI, "potential_shift": draw(st.sampled_from([0.0, 1.5])),
                     "observed_endpoints": draw(st.sampled_from([["left"], ["right"],
                                                                 ["left", "right"]]))},
        "kernel": kernel, "sigma": sigma, "grid": {"T": horizon, "dt": horizon / steps},
        "N": n, "seed": draw(st.integers(0, 100)), "noise_level": draw(st.sampled_from([0.0, 0.01])),
        "output": "res", "source": source, "measurement": draw(st.sampled_from(["bu_prime", "bu"])),
        "trials": draw(st.integers(1, 20)),
    }


def _slots(node, path=()):
    """(path, value) of every value in a config; a list's elements share one
    slot, whose path ends in None, so long sampled lists do not crowd out keys."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,), value
            yield from _slots(value, path + (key,))
    elif isinstance(node, list) and node:
        yield path + (None,), node[0]


# tag values the parser looks up by name; None marks a list's elements
_TAGS = [("study",), ("kernel", "variant"), ("sigma", "form"), ("measurement",), ("source",),
         ("operator", "observed_endpoints", None)]
_KNOWN = {*_KERNELS, *_SIGMAS, *STUDIES, "bu_prime", "bu", "random", "left", "right"}


@st.composite
def mutated_configs(draw):
    """The study and a small valid config with one key dropped, one value of
    another type, one number made non-finite or negative, or one unknown tag."""
    cfg = draw(small_configs())
    study = cfg["study"]
    slots = list(_slots(cfg))
    numbers = [(path, v) for path, v in slots
               if isinstance(v, (int, float)) and not isinstance(v, bool)]
    tags = [(path, None) for path in _TAGS if path != ("source",) or cfg["source"] == "random"]
    kind = draw(st.sampled_from(["drop", "type", "non-finite", "negative", "tag"]))
    path, old = draw(st.sampled_from({"drop": slots, "type": slots, "non-finite": numbers,
                                      "negative": numbers, "tag": tags}[kind]))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1] if path[-1] is not None else draw(st.integers(0, len(parent) - 1))
    if kind == "drop":
        del parent[key]
    elif kind == "type":
        parent[key] = draw(st.one_of(
            st.none(), st.booleans(), st.integers(-4, 4), st.floats(-4.0, 4.0),
            st.text(max_size=4), st.lists(st.integers(-4, 4), max_size=3),
            st.dictionaries(st.text(max_size=4), st.integers(-4, 4), max_size=2),
        ).filter(lambda v: type(v) is not type(old)))
    elif kind == "non-finite":
        parent[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "negative":
        parent[key] = -abs(parent[key]) or -1
    else:
        parent[key] = draw(st.text(max_size=8).filter(lambda v: v not in _KNOWN))
    return study, cfg


def test_mutated_configs_exit_cleanly(tmp_path, capsys, monkeypatch):
    # a malformed config is exit 2 with an error line and a numerical
    # breakdown exit 3; an exception (exit 1 from the entry point) leaves
    # main and fails the example.  A mutation that leaves the config valid
    # (a dropped optional key, a negative potential shift) runs: exit 0
    monkeypatch.chdir(tmp_path)

    @given(mutated_configs())
    def check(study_and_cfg):
        study, cfg = study_and_cfg
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main([study, "--config", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (code, err)
        if code == 2:
            assert err.startswith("error: "), err

    check()


@st.composite
def valid_configs(draw):
    """A valid config, N <= 4 and 3 to 256 steps (the slopes need 3), every
    choice made by a generator seeded from the draw: half are reconstruct,
    the rest any other study, under every kernel variant and sigma form.
    Hypothesis's own draws among a handful of choices repeat few distinct
    cases in 40 examples."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    others = [s for s in STUDIES if s != "reconstruct"]
    study = "reconstruct" if rng.random() < 0.5 else others[rng.integers(len(others))]
    n, steps = int(rng.integers(1, 5)), int(rng.integers(3, 257))
    horizon = TWO_PI + 0.5
    nodes = np.linspace(0.0, horizon, steps + 1)

    def real(lo, hi):
        return float(rng.uniform(lo, hi))

    kernels = {
        "zero": {"variant": "zero"},
        "exponential": {"variant": "exponential", "beta": real(0.25, 2.0), "alpha": real(-1.0, 2.0)},
        "polynomial": {"variant": "polynomial",
                       "coefficients": rng.uniform(-1.0, 2.0, rng.integers(1, 4)).tolist()},
        "sampled": {"variant": "sampled", "values": np.exp(-real(0.2, 2.0) * nodes).tolist(),
                    "m0": 1.0},
    }
    variant = "zero" if study == "l2-counterexample" else list(kernels)[rng.integers(4)]
    sigmas = [{"form": "constant", "a": real(0.25, 2.0)},
              {"form": "exponential", "a": real(-1.0, 1.0)},
              {"form": "affine", "a": real(0.25, 2.0), "b": real(-1.0, 1.0)},
              {"form": "sampled", "values": (1.0 + real(-0.5, 0.5) * nodes).tolist()}]
    source = ["random", {"unit": int(rng.integers(1, n + 1))},
              {"coefficients": rng.standard_normal(n).tolist()}][rng.integers(3)]
    return {
        "study": study,
        "operator": {"length": PI, "potential_shift": [0.0, 1.5, -2.0][rng.integers(3)],
                     "observed_endpoints": [["left"], ["right"], ["left", "right"]][rng.integers(3)]},
        "kernel": kernels[variant], "sigma": sigmas[rng.integers(4)],
        "grid": {"T": horizon, "dt": horizon / steps}, "N": n, "seed": int(rng.integers(100)),
        "noise_level": 0.01 if rng.random() < 0.25 else 0.0, "output": "res", "source": source,
        "measurement": "bu" if rng.random() < 0.25 else "bu_prime",
        "trials": int(rng.integers(1, 21)),
    }


def test_valid_configs_exit_cleanly_with_their_invariants(tmp_path, monkeypatch):
    # every study, kernel variant and sigma form, sampled ones included: exit
    # 0 or 3 with strict JSON.  On exit 0 of reconstruct, biorthogonality
    # holds to 1e-8 and the adjoint identity of sigma' and of the resolvent K
    # to 1e-12; noise-free from B u', the round trip rescales f by the
    # resolvent-identity defect d = -(dt^2 / 4) (sigma'(0) / sigma(0))^2 alone,
    # sampled inputs included (measured within 3e-11 d)
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)

    @given(valid_configs())
    def check(raw):
        cfg = ExperimentConfig.from_mapping(raw, raw["study"])
        code = run(cfg)
        assert code in (0, 3), raw
        summary = strict_json(tmp_path / "res" / f"{cfg.study}.json")
        if code or cfg.study != "reconstruct":
            return
        grid = cfg.grid
        sigma_prime = cfg.sigma.sample_derivative(grid)
        kernels = build_reconstruction(build_spectral_model(cfg.operator, cfg.truncation),
                                       cfg.kernel, cfg.sigma, grid)
        assert biorthogonality_defect(gram(kernels.family), kernels.coefficients) <= 1e-8, raw
        u, v = (TraceSignal(grid, rng.standard_normal((grid.steps + 1, 2))) for _ in range(2))
        for rho in (sigma_prime, kernels.resolvent):
            gap = abs(l2_inner(convolve(rho, u), v) - l2_inner(u, convolve_adjoint(rho, v)))
            assert gap <= 1e-12 * max(1.0, l2_norm(convolve(rho, u)) * l2_norm(v)), raw
        if cfg.noise_level == 0.0 and cfg.measurement == "bu_prime":
            d = 0.25 * grid.dt ** 2 * (sigma_prime.values[0] / cfg.sigma.at_zero()) ** 2
            assert abs(summary["results"]["relative_l2_error"] - d) <= 1e-3 * d + 1e-10, raw

    check()


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
        cfg = ExperimentConfig.from_mapping(raw, "reconstruct")
        return ExperimentConfig(**{**{name: getattr(cfg, name) for name in cfg._fields},
                                   **overrides})

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

    @pytest.mark.parametrize("study", ["reconstruct", "simulate"])
    def test_overflow_in_the_leaf_values_is_a_numerical_failure(self, tmp_path, study):
        # a growing mode whose step-map tables stay finite while the values
        # they give overflow (see tests/test_modal.py); the w family then
        # holds no rows, and the tables fail as the rows did
        cfg = base_config(operator={"length": PI, "potential_shift": -1.1e6},
                          grid={"T": 1.0, "dt": 1.0 / 456}, N=1)
        out = tmp_path / "res"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([study, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert code == 3
        assert not (out / f"{study}.csv").exists()
        exit_message = strict_json(out / f"{study}.json")["diagnostics"]["exit"]
        assert "non-finite modal state at step 257 of 456" in exit_message

    @pytest.mark.parametrize("study", ["reconstruct", "frame-bounds", "stability-scan"])
    def test_overflowing_gram_is_a_numerical_failure(self, tmp_path, capsys, study):
        # finite rows whose products pass the float range in the Gram: the
        # gate after it reports them, with no numpy warning on the way
        cfg = base_config(operator={"length": PI, "potential_shift": -4.0,
                                    "observed_endpoints": ["left", "right"]},
                          sigma={"form": "affine", "a": 1.0, "b": 0.5},
                          grid={"T": 200.0, "dt": 200.0 / 257}, N=4, trials=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([study, "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(tmp_path / "res")])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

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
        # rows left by an earlier run go, and the failed sweep writes none
        out.mkdir()
        (out / "frame-bounds.csv").write_text("truncation,members,min_eig,max_eig\n")
        code = main(["frame-bounds", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert code == 3
        assert "singular Gram" in capsys.readouterr().err
        summary = json.loads((out / "frame-bounds.json").read_text())
        assert summary["diagnostics"]["exit"] == "singular Gram"
        assert not (out / "frame-bounds.csv").exists()

    @pytest.mark.parametrize("study, overrides, message", [
        ("stability-scan", {"N": 4, "grid": {"T": 3.0, "dt": 3.0 / 512}, "trials": 5},
         "horizon 3 below the observability threshold"),
        ("simulate", {"source": [1.0, 2.0]}, "source coefficients must have length N = 8"),
        ("zest-decay", {"N": 1, "operator": {"length": PI, "potential_shift": -1.0,
                                             "observed_endpoints": ["left"]}},
         "zest-decay needs at least one nonzero branch value"),
    ], ids=["short-horizon", "source-length", "zero-branch"])
    def test_rejected_study_leaves_no_earlier_outputs(self, tmp_path, capsys, study, overrides,
                                                      message):
        # a config the study itself rejects is exit 2, and an earlier run's
        # outputs, whose summary would read "ok", go with it
        cfg = base_config(study=study, **overrides)
        out = tmp_path / "o"
        out.mkdir()
        for name in (f"{study}.csv", f"{study}.json"):
            (out / name).write_text("earlier run\n")
        code = main([study, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (out / f"{study}.csv").exists()
        assert not (out / f"{study}.json").exists()
        # nor does it make the output directory
        missing = tmp_path / "missing" / "o"
        assert main([study, "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(missing)]) == 2
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("shift, low, high", [(-36.0, 1e15, math.inf), (0.0, 1.0, 10.0)],
                             ids=["decaying", "oscillating"])
    def test_frame_bounds_reports_the_tables_cancellation(self, tmp_path, shift, low, high):
        # q = -36 gives modes 1..5 an imaginary lambda: their z members decay
        # beside growing table terms, and the eigenvalues hold about eps c of
        # relative accuracy.  The factor goes to the summary, not the CSV
        cfg = base_config(operator={"length": PI, "potential_shift": shift,
                                    "observed_endpoints": ["left"]},
                          grid={"T": TWO_PI + 0.5, "dt": (TWO_PI + 0.5) / 257}, N=6)
        out = tmp_path / "fb"
        code = main(["frame-bounds", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert low <= strict_json(out / "frame-bounds.json")["diagnostics"]["max_cancellation"] < high
        if code == 0:
            assert (out / "frame-bounds.csv").read_text().startswith(
                "truncation,members,min_eig,max_eig\n")

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
    # numpy loads numpy.fft and numpy.random lazily; the package imports
    # them itself, so their cost falls in the import and not in the first
    # run.  numpy.polynomial is never needed: the polynomial kernel samples by
    # its own Horner loop.  numpy is the only runtime dependency: no scipy
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
print([m for m in ("numpy.fft", "numpy.random") if m not in sys.modules])
rc = visco_inverse.cli.main(["reconstruct", "--config", {str(path)!r}, "--out", {str(out)!r}])
print(rc, sorted({{m for m in seen + list(sys.modules)
                  if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial")}}))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]" and lines[-1] == "0 []"


def test_cli_import_loads_no_dataclasses():
    # the package's records are plain classes on visco_inverse.record: a
    # dataclass generates and compiles its methods at every start-up
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = """
import sys
seen = []

class Spy:
    def find_spec(self, name, path=None, target=None):
        seen.append(name)

sys.meta_path.insert(0, Spy())
import visco_inverse.cli
print(sorted({m for m in seen + list(sys.modules) if m.split(".")[0] == "dataclasses"}))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


def test_cli_import_and_run_load_no_argparse(tmp_path):
    # the command-line parser belongs to main alone: importing the package's
    # CLI module as a library, or running a study through run(), loads no
    # argparse, about 3-4 ms and 0.25 MiB of a cold import
    cfg = base_config(study="reconstruct", N=4, grid={"T": TWO_PI, "dt": TWO_PI / 512})
    out = tmp_path / "res"
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
cfg = visco_inverse.cli.ExperimentConfig.from_mapping({cfg!r}, "reconstruct", {str(out)!r})
rc = visco_inverse.cli.run(cfg)
print(rc, sorted({{m for m in seen + list(sys.modules) if m.split(".")[0] == "argparse"}}))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("study, overrides", [
    ("reconstruct", {"operator": {"length": PI, "potential_shift": -4.0,
                                  "observed_endpoints": ["left", "right"]},
                     "kernel": {"variant": "exponential", "beta": 1.0, "alpha": 1.0},
                     "sigma": {"form": "affine", "a": 1.0, "b": 0.5}}),
    ("stability-scan", {"kernel": {"variant": "polynomial", "coefficients": [1.0, -0.5]},
                        "sigma": {"form": "affine", "a": 1.0, "b": 0.5}, "trials": 20}),
])
def test_studies_build_no_mode_objects(tmp_path, monkeypatch, study, overrides):
    # the spectral model holds its modes as arrays, and every step of these
    # studies reads them there: no Mode is built, not even as a view
    calls = []
    init = Mode.__init__

    def counting(self, *args, **kwargs):
        calls.append(args[0] if args else kwargs.get("index"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Mode, "__init__", counting)
    cfg = ExperimentConfig.from_mapping(base_config(study=study, **overrides), study,
                                        str(tmp_path / "res"))
    assert run(cfg) == 0
    assert calls == []
    build_spectral_model(cfg.operator, 2).mode(-1)  # the spy sees a view
    assert calls == [-1]


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


def run_overflowing_sigma(tmp_path, study):
    """The reconstruct_memory config at N = 4 and 640 steps with sigma =
    e^(300 t), which overflows on the grid, run through ``python -m``."""
    cfg = json.loads((CONFIGS / "reconstruct_memory.json").read_text())
    cfg.update(study=study, trials=10, N=4, sigma={"form": "exponential", "a": 300.0})
    cfg["grid"]["dt"] = cfg["grid"]["T"] / 640
    out = tmp_path / "out"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "visco_inverse.cli", study,
                           "--config", str(write_config(tmp_path, cfg)), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    # a numerical failure (exit 3) with its message alone: no config error,
    # no traceback, no numpy warning from an inf carried downstream
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not (out / f"{study}.csv").exists()
    return strict_json(out / f"{study}.json")["diagnostics"]["exit"]


def test_overflowing_stability_scan_exits_3(tmp_path):
    # sigma's samples are checked, so the H1 Gram is never formed from inf
    assert "sigma = 1 e^(300 t) overflows" in run_overflowing_sigma(tmp_path, "stability-scan")


def test_overflowing_sigma_fails_reconstruct_with_exit_3(tmp_path):
    assert "sigma' = 300 e^(300 t) overflows" in run_overflowing_sigma(tmp_path, "reconstruct")


def test_overflowing_resolvent_exits_3(tmp_path):
    # sigma = 1 - 200 t: K = 200 rho^n with log rho = 0.083 overflows by n = 16384
    cfg = base_config(sigma={"form": "affine", "a": 1.0, "b": -200.0})
    cfg["grid"]["dt"] = cfg["grid"]["T"] / 16384
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["reconstruct", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "res")])
    assert code == 3
    exit_message = strict_json(tmp_path / "res" / "reconstruct.json")["diagnostics"]["exit"]
    assert "the resolvent of sigma overflows" in exit_message


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

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_summary_reads_as_one_indented_throughout(self, path, tmp_path, monkeypatch):
        payloads = []
        write = cli._write_summary

        def keeping(target, payload):
            payloads.append(payload)
            write(target, payload)

        monkeypatch.setattr(cli, "_write_summary", keeping)
        raw = json.loads(path.read_text())
        cfg = ExperimentConfig.from_mapping({**raw, "output": str(tmp_path)}, raw["study"])
        assert run(cfg) == 0
        text = (tmp_path / f"{cfg.study}.json").read_text()
        indented = json.dumps(payloads[0], indent=2, sort_keys=True, allow_nan=False)
        assert json.loads(text) == json.loads(indented)
        # the echo alone is compact: one line, and every other line as indent=2 writes it
        echo = [line for line in text.splitlines() if line.startswith('  "config": ')]
        assert len(echo) == 1
        assert set(text.splitlines()) - set(echo) <= set(indented.splitlines())

    def test_run_requires_writable_output(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        cfg = ExperimentConfig.from_mapping(
            base_config(output=str(blocker / "sub")), "simulate"
        )
        assert run(cfg) == 2
