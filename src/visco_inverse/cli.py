"""Command-line experiment driver.

Usage::

    visco-inverse <study> --config <path> [--out <dir>] [--seed <int>]

The config is a single JSON file; see the README for the schema.  Each study
writes a CSV series (``<study>.csv``) and a JSON summary (``<study>.json``)
into the output directory.  The summary echoes the fully resolved
configuration so a run can be reproduced from its outputs alone.  Exit codes:
0 success, 2 validation problem, 3 numerical failure (singular Gram matrix,
an out-of-tolerance resolvent identity, or a non-finite reported number).
"""

from __future__ import annotations

import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from numpy.random import default_rng

from .errors import NumericsError
from .forward import SourceCoefficients, boundary_trace_source, source_trace, source_trace_prime
from .frames import gram, leading_frame_bounds, z_trace_family
from .inverse import (
    build_reconstruction,
    l2_only_counterexample,
    noisy_reconstruction,
    stability_gram,
    stability_ratios,
)
from .modal import comparison_defect_scan
from .record import Record
from .spectral import OperatorSpec, SpectralModel, build_spectral_model
from .volterra import (
    AffineModulation,
    ConstantModulation,
    ExponentialKernel,
    ExponentialModulation,
    MemoryKernel,
    PolynomialKernel,
    SampledKernel,
    SampledModulation,
    SourceModulation,
    TimeGrid,
    ZeroKernel,
    differentiate,
    h1_norm,
    l2_norm,
)

#: relative resolvent-identity residual above which reconstruction aborts
IDENTITY_RESIDUAL_RTOL = 1e-3

#: most time steps a config may ask for, ten times the intended regime;
#: larger grids are refused when parsed instead of failing to allocate
MAX_GRID_STEPS = 10**7

#: most N * (steps + 1) a config may ask for (500 modes on 10^6 steps, 8 GB of
#: complex rows): realized kernels keep leaf tables, so it guards the rows of
#: sampled kernels and rows built on request; it bounds trials * N draws too
MAX_MODE_NODES = 5 * 10**8

#: values per %-format of the CSV writer: 16,384 rows of stability-scan's two
#: columns, about 0.5 MB of formatted text
_CSV_VALUES = 1 << 15


def _require(mapping, key, what):
    if key not in mapping:
        raise ValueError(f"{what}: missing required key {key!r}")
    return mapping[key]


def _is_number(value) -> bool:
    # JSON true/false arrive as bool, a subclass of int, but are not numbers
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _real(value, what) -> float:
    if not _is_number(value):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return number


def _reals(values, what) -> np.ndarray:
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of numbers, got {values!r}")
    # one pass over the types and one vectorised check; a list that fails
    # either takes the loop, which names its first bad value as _real does
    try:
        if set(map(type, values)) <= {float, int}:
            array = np.array(values, dtype=float)
            if np.isfinite(array).all():
                return array
    except OverflowError:  # an integer beyond the float range
        pass
    return np.array([_real(v, what) for v in values], dtype=float)


def _integer(value, what) -> int:
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    number = _real(value, what)
    if not number.is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(number)


def _optional_real(value, what) -> float | None:
    return None if value is None else _real(value, what)


def _object(value, what, expected="an object") -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what}: expected {expected}")
    return value


#: config spelling of each model input: a variant (form) name maps to its
#: class and, in constructor order, each argument's config key and parser;
#: an argument parsed by _optional_real may be omitted
_KERNELS = {
    "zero": (ZeroKernel, ()),
    "exponential": (ExponentialKernel, (("beta", _real), ("alpha", _real))),
    "polynomial": (PolynomialKernel, (("coefficients", _reals),)),
    "sampled": (SampledKernel, (("values", _reals), ("m0", _optional_real))),
}
_SIGMAS = {
    "constant": (ConstantModulation, (("a", _real),)),
    "exponential": (ExponentialModulation, (("a", _real),)),
    "affine": (AffineModulation, (("a", _real), ("b", _real))),
    "sampled": (SampledModulation, (("values", _reals),)),
}


def _parse_input(raw, what, tag, table):
    """The kernel or sigma object ``raw``, its class named by its ``tag`` key."""
    name = _require(_object(raw, what, f"an object with a {tag!r} key"), tag, what)
    if not isinstance(name, str) or name not in table:
        raise ValueError(f"{what}: unknown {tag} {name!r}")
    cls, arguments = table[name]
    return cls(*(parse(raw.get(key) if parse is _optional_real else _require(raw, key, what),
                       f"{what}: {key}") for key, parse in arguments))


def _input_dict(obj, tag, table) -> dict:
    """``obj`` as its config object, the inverse of ``_parse_input``."""
    for name, (cls, arguments) in table.items():
        if type(obj) is cls:
            # floats, tuples and arrays become JSON numbers and lists; None stays None
            return {tag: name, **{key: np.asarray(getattr(obj, field)).tolist()
                                  for (key, _), field in zip(arguments, obj._fields)}}


class ExperimentConfig(Record):
    """Validated, fully resolved description of one study run."""

    def __init__(self, operator: OperatorSpec, kernel: MemoryKernel, sigma: SourceModulation,
                 grid: TimeGrid, truncation: int, study: str, seed: int, noise_level: float,
                 output: str,
                 source: str | int | list,  # "random" | unit index | explicit coefficients
                 measurement: str,  # "bu_prime" or "bu"
                 trials: int):
        self._set(locals())

    @classmethod
    def from_mapping(cls, raw: dict, study: str,
                     out_override: str | None = None,
                     seed_override: int | None = None) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError("config root must be a JSON object")
        if study not in STUDIES:
            raise ValueError(f"unknown study {study!r}")
        cfg_study = raw.get("study")
        if cfg_study is not None and cfg_study != study:
            raise ValueError(
                f"config names study {cfg_study!r} but {study!r} was requested"
            )

        op_raw = _object(_require(raw, "operator", "config"), "operator")
        endpoints = op_raw.get("observed_endpoints", ["left"])
        if not isinstance(endpoints, list):
            raise ValueError(f"operator: observed_endpoints: expected a list, got {endpoints!r}")
        operator = OperatorSpec(
            length=_real(_require(op_raw, "length", "operator"), "operator: length"),
            potential_shift=_real(op_raw.get("potential_shift", 0.0),
                                  "operator: potential_shift"),
            observed_endpoints=tuple(endpoints),
        )

        grid_raw = _object(_require(raw, "grid", "config"), "grid")
        horizon = _real(_require(grid_raw, "T", "grid"), "grid: T")
        dt = _real(_require(grid_raw, "dt", "grid"), "grid: dt")
        if horizon <= 0.0 or dt <= 0.0:
            raise ValueError("grid: T and dt must be positive")
        ratio = _real(horizon / dt, "grid: T/dt")
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)):
            raise ValueError(
                f"grid: T/dt = {ratio!r} must be an integer within 1e-9"
            )
        steps = int(round(ratio))
        # the time derivative's stencils (volterra._slopes) take 4 nodes; one
        # floor for every study, so that no run fails after its modal solve
        if steps < 3:
            raise ValueError("grid: need at least 3 steps, as the time derivative's stencils do")
        if steps > MAX_GRID_STEPS:
            raise ValueError(f"grid: T/dt = {ratio:g} exceeds the limit of {MAX_GRID_STEPS} steps")
        grid = TimeGrid(horizon, steps)

        truncation = _integer(_require(raw, "N", "config"), "N")
        if truncation < 1:
            raise ValueError("N must be at least 1")
        if truncation * (steps + 1) > MAX_MODE_NODES:
            raise ValueError(f"N x (steps + 1) = {truncation} x {steps + 1} exceeds "
                             f"the limit of {MAX_MODE_NODES} modal values")

        kernel = (ZeroKernel() if raw.get("kernel") is None
                  else _parse_input(raw["kernel"], "kernel", "variant", _KERNELS))
        sigma = (ConstantModulation(1.0) if raw.get("sigma") is None
                 else _parse_input(raw["sigma"], "sigma", "form", _SIGMAS))
        noise_level = _real(raw.get("noise_level", 0.0), "noise_level")
        if noise_level < 0.0:
            raise ValueError("noise_level must be nonnegative")
        seed = _integer(raw.get("seed", 0) if seed_override is None else seed_override, "seed")
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        output = raw.get("output", "out") if out_override is None else str(out_override)
        if not isinstance(output, str):
            raise ValueError("output: expected a string")

        source = raw.get("source", "random")
        if isinstance(source, dict):
            if "unit" in source:
                source = _integer(source["unit"], "source: unit")
            elif "coefficients" in source:
                source = _reals(source["coefficients"], "source: coefficients").tolist()
            else:
                raise ValueError("source: expected 'unit' or 'coefficients'")
        elif isinstance(source, list):
            source = _reals(source, "source").tolist()
        elif source != "random":
            raise ValueError("source: expected 'random', a list, or an object")

        measurement = str(raw.get("measurement", "bu_prime"))
        if measurement not in ("bu_prime", "bu"):
            raise ValueError("measurement must be 'bu_prime' or 'bu'")
        trials = _integer(raw.get("trials", 50), "trials")
        if trials < 1:
            raise ValueError("trials must be at least 1")
        if study == "stability-scan" and trials * truncation > MAX_MODE_NODES:
            raise ValueError(f"trials x N = {trials} x {truncation} exceeds "
                             f"the limit of {MAX_MODE_NODES} drawn values")

        if study == "reconstruct" and sigma.at_zero() == 0.0:
            raise ValueError("sigma(0) must be nonzero for the reconstruct study")
        if study == "l2-counterexample" and not isinstance(kernel, ZeroKernel):
            raise ValueError("the l2-counterexample study requires the zero kernel")
        if study == "zest-decay":
            kernel.at_zero()  # the comparison rate M(0)/2: a sampled kernel must declare m0

        return cls(operator, kernel, sigma, grid, truncation, study, seed,
                   noise_level, output, source, measurement, trials)

    def resolve_source(self, model: SpectralModel) -> SourceCoefficients:
        if self.source == "random":
            rng = default_rng(self.seed)
            f = rng.standard_normal(model.truncation)
            return SourceCoefficients(f / np.linalg.norm(f))
        if isinstance(self.source, int):
            return SourceCoefficients.unit(self.source, model.truncation)
        vals = np.asarray(self.source, dtype=float)
        if vals.shape != (model.truncation,):
            raise ValueError(
                f"source coefficients must have length N = {model.truncation}"
            )
        return SourceCoefficients(vals)

    def effective(self, source_values=None) -> dict:
        out = {
            "operator": {
                "length": self.operator.length,
                "potential_shift": self.operator.potential_shift,
                "observed_endpoints": list(self.operator.observed_endpoints),
            },
            "kernel": _input_dict(self.kernel, "variant", _KERNELS),
            "sigma": _input_dict(self.sigma, "form", _SIGMAS),
            "grid": {"T": self.grid.horizon, "dt": self.grid.dt,
                     "steps": self.grid.steps},
            "N": self.truncation,
            "study": self.study,
            "seed": self.seed,
            "noise_level": self.noise_level,
            "output": self.output,
            "measurement": self.measurement,
            "trials": self.trials,
        }
        if source_values is not None:
            out["source"] = [float(v) for v in source_values]
        return out


# ---------------------------------------------------------------------------
# Studies.  Each returns (header, rows, results, diagnostics) and may signal
# a numerical failure by raising NumericsError after partial output.


def _study_simulate(cfg: ExperimentConfig, model: SpectralModel):
    f = cfg.resolve_source(model)
    bu, bu_prime = boundary_trace_source(f, cfg.sigma, model, cfg.kernel, cfg.grid)
    header = ["t"]
    for ep in cfg.operator.observed_endpoints:
        header += [f"bu_{ep}", f"bu_prime_{ep}"]
    cols = [cfg.grid.nodes]
    for c in range(model.dim):
        cols += [bu.values[:, c].real, bu_prime.values[:, c].real]
    rows = np.column_stack(cols)
    results = {
        "h1_norm_bu": h1_norm(bu),
        "l2_norm_bu_prime": l2_norm(bu_prime),
        "source_norm": float(np.linalg.norm(f.values)),
    }
    diagnostics = {
        "max_imag_bu": float(np.max(np.abs(bu.values.imag))),
        "max_imag_bu_prime": float(np.max(np.abs(bu_prime.values.imag))),
    }
    return header, rows, results, diagnostics, f.values


def _study_reconstruct(cfg: ExperimentConfig, model: SpectralModel):
    f = cfg.resolve_source(model)
    kernels = build_reconstruction(model, cfg.kernel, cfg.sigma, cfg.grid)
    # ||p_k||^2 = <p_k, p_k> = coefficients[k, k] by biorthogonality
    dual_scale = float(np.sqrt(np.diag(kernels.coefficients).real.max())) or 1.0
    if not (kernels.identity_residual <= IDENTITY_RESIDUAL_RTOL * dual_scale):
        raise NumericsError(
            "resolvent identity residual "
            f"{kernels.identity_residual:.3e} exceeds tolerance"
        )
    if cfg.measurement == "bu_prime":
        measured = source_trace_prime(kernels.family, f, cfg.sigma)
    else:
        measured = differentiate(source_trace(kernels.family, f, cfg.sigma))
    report = noisy_reconstruction(
        measured, cfg.noise_level, cfg.seed, kernels, model, truth=f
    )
    header = ["n", "f_true", "f_recovered", "abs_error"]
    rows = np.column_stack([
        np.arange(1, model.truncation + 1),
        f.values,
        report.recovered.values,
        report.per_mode_error,
    ])
    results = {
        "relative_l2_error": report.relative_l2_error,
        "frame_lower": report.bounds.lower,
        "frame_upper": report.bounds.upper,
        "sigma0": kernels.sigma0,
    }
    diagnostics = {
        "imag_residual": report.imag_residual,
        "identity_residual": kernels.identity_residual,
        "resolvent_residual": kernels.resolvent_residual,
        "noise_level": cfg.noise_level,
        "measurement": cfg.measurement,
    }
    return header, rows, results, diagnostics, f.values


def _study_frame_bounds(cfg: ExperimentConfig, model: SpectralModel):
    family = z_trace_family(model, cfg.kernel, cfg.grid)
    g = gram(family)
    sizes = []
    k = 1
    while k < model.truncation:
        sizes.append(k)
        k *= 2
    sizes.append(model.truncation)
    bounds = leading_frame_bounds(g, [2 * k for k in sizes])
    header = ["truncation", "members", "min_eig", "max_eig"]
    rows = np.column_stack([
        np.array(sizes, dtype=float),
        np.array([2 * k for k in sizes], dtype=float),
        np.array([b.lower for b in bounds]),
        np.array([b.upper for b in bounds]),
    ])
    full = bounds[-1]
    results = {"frame_lower": full.lower, "frame_upper": full.upper,
               "ratio": full.lower / full.upper if full.upper > 0 else float("nan")}
    # the factor by which the tables' rounding exceeds eps |z_m|, at its largest
    diagnostics = {"max_cancellation": float(family.trajectories.cancellation().max())}
    if full.singular:
        diagnostics["failure"] = "singular Gram"
    return header, rows, results, diagnostics, None


def _study_stability_scan(cfg: ExperimentConfig, model: SpectralModel):
    h1_gram = stability_gram(model, cfg.kernel, cfg.sigma, cfg.grid)
    ratios = stability_ratios(h1_gram, cfg.trials, cfg.seed)
    # sqrt(f^T Q f) over unit f ranges exactly over sqrt(eig(Q))
    exact_min, exact_max = np.sqrt(np.maximum(np.linalg.eigvalsh(h1_gram)[[0, -1]], 0.0))
    header = ["trial", "ratio"]
    rows = np.column_stack([np.arange(len(ratios), dtype=float), ratios])
    # np.median's value from a sort; np.median and np.quantile import numpy.ma
    ordered = np.sort(ratios)
    median = 0.5 * (ordered[(len(ordered) - 1) // 2] + ordered[len(ordered) // 2])
    results = {"min_ratio": float(ratios.min()), "max_ratio": float(ratios.max()),
               "median_ratio": float(median),
               "exact_min_ratio": float(exact_min), "exact_max_ratio": float(exact_max)}
    return header, rows, results, {}, None


def _study_zest_decay(cfg: ExperimentConfig, model: SpectralModel):
    modes = model.positive_modes
    modes = modes[~modes.zero]
    if not len(modes):
        raise ValueError("zest-decay needs at least one nonzero branch value")
    defects = comparison_defect_scan(modes, cfg.kernel, cfg.grid)
    header = ["n", "lambda", "defect"]
    rows = np.column_stack([modes.index.astype(float), np.abs(modes.lam), defects])
    results = {
        "max_defect": float(defects.max()),
        "min_defect": float(defects.min()),
    }
    return header, rows, results, {"skipped_zero_branch": model.truncation - len(modes)}, None


def _study_l2_counterexample(cfg: ExperimentConfig, model: SpectralModel):
    table = l2_only_counterexample(model, cfg.sigma, cfg.grid, model.truncation)
    header = ["n", "lambda", "scaled_norm", "min_gram_eig"]
    rows = np.column_stack([
        table.indices.astype(float),
        np.abs(table.lams),
        table.scaled_norms,
        table.min_gram_eigs,
    ])
    results = {
        "scaled_norm_min": float(table.scaled_norms.min()),
        "scaled_norm_max": float(table.scaled_norms.max()),
        "final_min_gram_eig": float(table.min_gram_eigs[-1]),
    }
    return header, rows, results, {}, None


_RUNNERS = {
    "simulate": _study_simulate,
    "reconstruct": _study_reconstruct,
    "frame-bounds": _study_frame_bounds,
    "stability-scan": _study_stability_scan,
    "zest-decay": _study_zest_decay,
    "l2-counterexample": _study_l2_counterexample,
}
STUDIES = tuple(_RUNNERS)


def _write_csv(path: Path, header, rows):
    """The header, then each row's values as their reprs, as csv writes floats.
    Every header name is a fixed identifier, so none needs quoting.

    The body goes through one %-format of a block's values at a time, with
    blocks of at most _CSV_VALUES values, so a long table costs no more
    memory than one block."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    line = ",".join(["%r"] * rows.shape[1]) + "\n"
    step = max(1, _CSV_VALUES // rows.shape[1])
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _write_summary(path: Path, payload: dict):
    """The summary indented, but its config echo, which may hold a sampled
    input's values, on one line: json's C encoder writes it, where ``indent``
    takes the pure-Python one."""
    text = json.dumps({**payload, "config": 0}, indent=2, sort_keys=True, allow_nan=False)
    echo = json.dumps(payload["config"], sort_keys=True, allow_nan=False)
    # the top-level key alone has an indent of two: nested keys sit deeper
    path.write_text(text.replace('\n  "config": 0', '\n  "config": ' + echo, 1) + "\n")


def _finite_only(value, found: list, key: str = ""):
    """``value`` with every non-finite float replaced by None; their keys go to ``found``.
    A list takes one vectorised check, such as a sampled input's echo, and
    the walk over its items only if that fails or does not apply."""
    if isinstance(value, dict):
        return {k: _finite_only(v, found, k) for k, v in value.items()}
    if isinstance(value, list):
        try:
            if np.isfinite(value).all():
                return value
        except (TypeError, ValueError):  # strings, None, ragged or huge items
            pass
        return [_finite_only(v, found, key) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        found.append(key)
        return None
    return value


def run(cfg: ExperimentConfig) -> int:
    """Execute the configured study, write its outputs, return an exit code."""
    try:
        outdir = Path(cfg.output)
        csv_path = outdir / f"{cfg.study}.csv"
        summary_path = outdir / f"{cfg.study}.json"
        # an earlier run's outputs go first, so that no exit leaves them as this run's
        for path in (csv_path, summary_path):
            path.unlink(missing_ok=True)
        model = build_spectral_model(cfg.operator, cfg.truncation)
        failure = None
        try:
            header, rows, results, diagnostics, source_values = _RUNNERS[cfg.study](cfg, model)
        except NumericsError as exc:
            failure = str(exc)
            header = rows = None
            results, diagnostics, source_values = {}, {}, None
        # made only now, so that a config the study rejects leaves no directory
        outdir.mkdir(parents=True, exist_ok=True)
        if failure is None:
            failure = diagnostics.pop("failure", None)
        non_finite = []
        summary = _finite_only({
            "study": cfg.study,
            "config": cfg.effective(source_values),
            "results": results,
            "diagnostics": diagnostics,
        }, non_finite)
        if rows is not None and not np.isfinite(rows).all():
            non_finite.append("rows")
        if non_finite:
            failure = failure or "non-finite " + ", ".join(sorted(set(non_finite)))
        if not failure:
            _write_csv(csv_path, header, rows)
        summary["diagnostics"]["timestamp"] = datetime.now(timezone.utc).isoformat()
        summary["diagnostics"]["exit"] = failure if failure else "ok"
        _write_summary(summary_path, summary)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if failure:
        print(f"{cfg.study}: FAILED ({failure}); outputs in {outdir}", file=sys.stderr)
        return 3
    scalars = ", ".join(f"{k}={v:.6g}" for k, v in results.items()
                        if isinstance(v, (int, float)))
    print(f"{cfg.study}: ok ({scalars}); outputs in {outdir}")
    return 0


def main(argv=None) -> int:
    # the parser is the command line's alone: a library import or run() does
    # not load argparse
    import argparse

    parser = argparse.ArgumentParser(
        prog="visco-inverse",
        description="Run a numbered study from a JSON experiment config.",
    )
    parser.add_argument("study", choices=STUDIES)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, help="seed override")
    args = parser.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = ExperimentConfig.from_mapping(
            raw, args.study, out_override=args.out, seed_override=args.seed
        )
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
