"""End-to-end and per-module benchmark of the visco-inverse CLI studies.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one CLI study on a config generated from ``--seed``.  The
benchmark runs it again and again, one fresh worker process at a time (a
closed loop with one client), for about ``--seconds``.  Every worker imports
the package from the checkout's ``src`` and calls ``cli.run`` once.
``python3 perfbench/selftest.py`` checks this harness in seconds.

``--trace 0`` reports the end-to-end metrics, as medians over the workers:

- ``study_s``: wall time of ``cli.run(cfg)`` in the fresh process, at the
  reference host speed (below);
- ``setup_s``: spawn of the worker until its config is parsed (interpreter
  start, ``import visco_inverse``, ``ExperimentConfig.from_mapping``), at
  the reference host speed;
- ``peak_rss_mb``: the worker's maximum resident set size, in MiB.

A shared host runs slow and fast phases that last minutes and scale every
wall time alike, by up to 1.5x.  So before the first worker and after each
one, ``probe.py`` times a fixed computation that does not use the package.
A worker's times are multiplied by ``PROBE_REF_S`` over the mean of the two
probes around it; ``PROBE_REF_S`` is the probe's median on the reference
host, so a normalised time reads as that host's wall time in its usual
phase.  The raw wall-time medians and the probe median are printed as well.

The failure fraction ``fail_frac`` is ``failed / attempted`` of the result
line and is printed by name above it.  A worker fails if it exits non-zero,
raises or times out, if the CLI exit code is not 0, if any number in its CSV
or JSON summary is not finite, if its outputs miss the workload's check, or
if its CSV bytes differ from another worker's on the same config seed.

``--trace 1`` alternates untraced and traced workers.  Traced workers record
spans around the public functions of the package's modules (see
``worker.py``); this file turns them into per-module self times, call counts
and computed byte counts.  ``trace.overhead_s`` is the median, over pairs, of
a traced worker's ``study_s`` minus that of the untraced worker before it.

The first worker of every run uses config seed ``REFERENCE_SEED`` and its
outputs are compared with ``reference/<workload>.csv`` and ``.json``, the
outputs of that config at commit f927084, at the normwise relative tolerance
``REFERENCE_RTOL``.  The other workers use ``--seed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

HORIZON = 2.0 * math.pi + 0.5  # past the two-way travel time 2L with L = pi

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "long-memory": {
        "study": "reconstruct",
        "kernel": {"variant": "exponential", "beta": 1.0, "alpha": 1.0},
        "sigma": {"form": "affine", "a": 1.0, "b": 0.5},
        "endpoints": ["left"],
        "N": 16,
        "steps": 32768,
        "truth_bound": 1e-7,  # reads 2.7e-9 at f927084, the O(dt^2) resolvent defect
    },
    "wide-modes": {
        "study": "reconstruct",
        "kernel": {"variant": "zero"},
        "sigma": {"form": "constant", "a": 1.0},
        "endpoints": ["left", "right"],
        "N": 256,
        "steps": 8192,
        "truth_bound": 1e-10,  # reads 6e-16 at f927084
    },
    "generic-scan": {
        "study": "stability-scan",
        "kernel": {"variant": "polynomial", "coefficients": [1.0, -0.5]},
        "sigma": {"form": "affine", "a": 1.0, "b": 0.5},
        "endpoints": ["left"],
        "N": 16,
        "steps": 16384,
        "trials": 4000,
    },
}

REFERENCE_SEED = 0
#: max |run - reference| <= REFERENCE_RTOL * max |reference|, per output table;
#: loose enough for optimised paths within 1e-9 of the reference paths
REFERENCE_RTOL = 1e-7
#: every worker is stopped by then, and the probe after it by
#: RUN_LIMIT_S + PROBE_LIMIT_S, so a run ends within three minutes
RUN_LIMIT_S = 150.0
PROBE_LIMIT_S = 20.0
#: median probe.py wall time on the reference host while it ran nothing else,
#: a 2-vCPU Intel Xeon virtual machine at 2.1 GHz (Python 3.11, numpy 2.4,
#: OpenBLAS 2 threads); a constant, so it sets the unit and not the spread
PROBE_REF_S = 0.57

END_TO_END = {"study_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: public function -> layer whose self time and calls it adds to
LAYER = {
    "spectral.build_spectral_model": "spectral.build",
    "volterra.resolvent_kernel": "volterra.resolvent",
    "volterra.convolve": "volterra.convolve",
    "volterra.convolve_adjoint": "volterra.adjoint",
    "volterra.h1_norm": "volterra.norm",
    "volterra.l2_norm": "volterra.norm",
    "volterra.l2_inner": "volterra.norm",
    "volterra.differentiate": "volterra.norm",
    "frames.z_trace_family": "frames.family",
    "frames.w_trace_family": "frames.family",
    "frames.y_trace_family": "frames.family",
    "frames.gram": "frames.gram",
    "frames.dual_family": "frames.dual",
    "frames.biorthogonality_defect": "frames.dual",
    "frames.coefficients_via_duals": "frames.dual",
    "frames.frame_bounds": "frames.bounds",
    "frames.leading_frame_bounds": "frames.bounds",
    "forward.boundary_trace_source": "forward.source",
    "inverse.build_reconstruction": "inverse.thetas",
    "inverse.build_thetas": "inverse.thetas",
    "inverse.reconstruct": "inverse.recover",
    "inverse.reconstruct_complex": "inverse.recover",
    "inverse.noisy_reconstruction": "inverse.recover",
    "inverse.stability_ratios": "inverse.scan",
    "inverse.stability_scan": "inverse.scan",
    "cli.run": "cli.self",
}
MODAL_SOLVES = ("modal.solve_z_many", "modal.solve_w_many")

PER_LAYER = {
    "spectral.build_s": "s",
    "modal.exponential.solve_s": "s",
    "modal.generic.solve_s": "s",
    "modal.zero.solve_s": "s",
    "modal.solves": "count",
    "modal.repeat_solves": "count",
    "modal.mode_steps": "count",
    "modal.trajectory_bytes": "B_computed",
    "volterra.resolvent_s": "s",
    "volterra.resolvent_calls": "count",
    "volterra.convolve_s": "s",
    "volterra.convolve_calls": "count",
    "volterra.adjoint_s": "s",
    "volterra.adjoint_calls": "count",
    "volterra.norm_s": "s",
    "volterra.norm_calls": "count",
    "frames.family_s": "s",
    "frames.gram_s": "s",
    "frames.dual_s": "s",
    "frames.bounds_s": "s",
    "frames.dual_bytes": "B_computed",
    "forward.source_s": "s",
    "inverse.thetas_s": "s",
    "inverse.theta_bytes": "B_computed",
    "inverse.recover_s": "s",
    "inverse.scan_s": "s",
    "inverse.scan_trials": "count",
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "trace.study_s": "s",
    "trace.overhead_s": "s",
}


class HarnessError(RuntimeError):
    """The benchmark cannot measure here; no result line is printed."""


def make_config(spec: dict, seed: int) -> dict:
    cfg = {
        "operator": {"length": math.pi, "potential_shift": 0.0,
                     "observed_endpoints": list(spec["endpoints"])},
        "kernel": spec["kernel"],
        "sigma": spec["sigma"],
        "grid": {"T": HORIZON, "dt": HORIZON / spec["steps"]},
        "N": spec["N"],
        "study": spec["study"],
        "seed": seed,
        "noise_level": 0.0,
        "source": "random",
    }
    if "trials" in spec:
        cfg["trials"] = spec["trials"]
    return cfg


# ---------------------------------------------------------------------------
# Output checks


def read_csv(path: Path):
    with path.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, [[float(v) for v in row] for row in rows]


def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def _normwise_gap(values, reference) -> float:
    scale = max((abs(v) for v in reference), default=0.0)
    gap = max((abs(a - b) for a, b in zip(values, reference)), default=0.0)
    return gap / scale if scale > 0.0 else gap


def compare_reference(header, rows, results, reference: dict) -> list:
    """Problems found comparing one run's outputs with the stored reference."""
    ref_header, ref_rows = reference["csv"]
    if header != ref_header or len(rows) != len(ref_rows):
        return ["CSV layout differs from the reference"]
    problems = []
    if [r[0] for r in rows] != [r[0] for r in ref_rows]:
        problems.append("CSV index column differs from the reference")
    body = [v for r in rows for v in r[1:]]
    ref_body = [v for r in ref_rows for v in r[1:]]
    gap = _normwise_gap(body, ref_body)
    if not gap <= REFERENCE_RTOL:
        problems.append(f"CSV differs from the reference by {gap:.3e} (normwise)")
    ref_results = reference["results"]  # results may gain keys; these must stay
    keys = sorted(ref_results)
    if not set(keys) <= set(results):
        problems.append("summary results lack keys of the reference")
    else:
        gap = _normwise_gap([results[k] for k in keys], [ref_results[k] for k in keys])
        if not gap <= REFERENCE_RTOL:
            problems.append(f"summary results differ from the reference by {gap:.3e} (normwise)")
    return problems


def check_outputs(spec: dict, outdir: Path, reference: dict | None = None) -> list:
    """Problems with one worker's CLI outputs; an empty list means correct."""
    study = spec["study"]
    try:
        header, rows = read_csv(outdir / f"{study}.csv")
        summary = json.loads((outdir / f"{study}.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable outputs: {exc}"]
    problems = []
    if not all(math.isfinite(v) for row in rows for v in row):
        problems.append("non-finite number in the CSV")
    if not all(math.isfinite(v) for v in _numbers(summary)):
        problems.append("non-finite number in the summary")
    if summary.get("diagnostics", {}).get("exit") != "ok":
        problems.append("summary does not record exit 'ok'")
    results = summary.get("results", {})

    if study == "reconstruct":
        if len(rows) != spec["N"]:
            problems.append(f"expected {spec['N']} CSV rows, got {len(rows)}")
        rel = results.get("relative_l2_error")
        if not (isinstance(rel, float) and rel <= spec["truth_bound"]):
            problems.append(f"relative_l2_error {rel!r} above {spec['truth_bound']:g}")
    elif study == "stability-scan":
        ratios = [r[1] for r in rows]
        if len(ratios) != spec["trials"]:
            problems.append(f"expected {spec['trials']} trials, got {len(ratios)}")
        if not all(r > 0.0 for r in ratios):
            problems.append("a stability ratio is not positive")
        lo, mid, hi = (results.get(k) for k in ("min_ratio", "median_ratio", "max_ratio"))
        if ratios and (lo, mid, hi) != (min(ratios), statistics.median(ratios), max(ratios)):
            problems.append("summary min/median/max do not match the CSV ratios")
        if not (isinstance(lo, float) and lo <= mid <= hi):
            problems.append("summary ratios are not ordered min <= median <= max")

    if reference is not None and not problems:
        problems += compare_reference(header, rows, results, reference)
    return problems


def load_reference(name: str) -> dict:
    """Stored outputs of workload ``name`` at config seed ``REFERENCE_SEED``."""
    base = HERE / "reference" / name
    stored = json.loads(base.with_suffix(".json").read_text())
    if stored["config"] != json.loads(json.dumps(make_config(WORKLOADS[name], REFERENCE_SEED))):
        raise HarnessError(f"reference/{name}.json was made from another config")
    stored["csv"] = read_csv(base.with_suffix(".csv"))
    return stored


# ---------------------------------------------------------------------------
# Workers


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(spec: dict, seed: int, outdir: Path, traced: bool, timeout: float,
               reference: dict | None = None) -> dict:
    """Spawn one worker, wait for it, and check what it wrote."""
    outdir.mkdir(parents=True)
    cfg_path = outdir / "config.json"
    cfg_path.write_text(json.dumps(make_config(spec, seed)))
    cmd = [sys.executable, str(HERE / "worker.py"), str(cfg_path), str(outdir)]
    if traced:
        cmd.append("--trace")
    record = {"seed": seed, "traced": traced, "problems": [], "outdir": outdir}
    with (outdir / "log.txt").open("w") as log:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            record["problems"].append(f"timed out after {timeout:.0f} s")
            return record
    if code != 0:
        record["problems"].append(f"worker exited with code {code}")
        return record
    report = json.loads((outdir / "worker.json").read_text())
    record.update(
        setup_s=report["parsed_at"] - spawned,
        study_s=report["study_s"],
        parse_s=report["parse_s"],
        rss_mib=report["maxrss_kib"] / 1024.0,
        env=report["env"],
    )
    if report["code"] != 0:
        record["problems"].append(f"CLI exit code {report['code']}")
    record["problems"] += check_outputs(spec, outdir, reference)
    if traced:
        record["spans"] = json.loads((outdir / "spans.json").read_text())
    return record


def run_probe() -> float:
    """Wall time of ``probe.py``'s fixed computation, in a fresh process."""
    try:
        done = subprocess.run([sys.executable, str(HERE / "probe.py")], cwd=ROOT,
                              capture_output=True, text=True, timeout=PROBE_LIMIT_S,
                              check=True)
        return float(json.loads(done.stdout)["probe_s"])
    except (OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        raise HarnessError(f"probe.py failed: {exc}") from exc


def check_determinism(spec: dict, records: list) -> None:
    """Flag workers whose CSV bytes differ from the first on the same seed."""
    first = {}
    for rec in records:
        path = rec["outdir"] / f"{spec['study']}.csv"
        if not path.is_file():
            continue
        data = path.read_bytes()
        if first.setdefault(rec["seed"], data) != data:
            rec["problems"].append(f"CSV bytes differ between runs of seed {rec['seed']}")


def run_workers(spec: dict, seed: int, seconds: float, trace: bool, workdir: Path,
                reference: dict | None = None) -> list:
    """Closed loop of single workers for about ``seconds``.

    A worker starts only while one of median length still fits in
    ``seconds``.  Even workers run untraced and, with ``trace``, odd ones
    traced, so a traced run pairs each traced worker with the one before it;
    it has at least one pair.  A probe runs before the first worker and
    after each one; a worker's ``scale`` is ``PROBE_REF_S`` over the mean of
    the two probes around it.
    """
    records = []
    walls = []
    start = time.monotonic()
    probes = [run_probe()]
    while True:
        elapsed = time.monotonic() - start
        fits = elapsed + (statistics.median(walls) if walls else 0.0) <= seconds
        if (len(records) >= (2 if trace else 1) and not fits) or elapsed >= RUN_LIMIT_S:
            break
        i = len(records)
        first = i == 0
        records.append(run_worker(
            spec, REFERENCE_SEED if first else seed, workdir / f"w{i:03d}",
            traced=trace and i % 2 == 1, timeout=RUN_LIMIT_S - elapsed,
            reference=reference if first else None,
        ))
        probes.append(run_probe())
        walls.append(time.monotonic() - start - elapsed)
    for rec, before, after in zip(records, probes, probes[1:]):
        rec["probe_s"] = (before + after) / 2.0
        rec["scale"] = PROBE_REF_S / rec["probe_s"]
    check_determinism(spec, records)
    return records


# ---------------------------------------------------------------------------
# Spans to per-module metrics


def self_times(spans: list) -> list:
    """Span duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list) -> tuple:
    """Per-layer metrics, per-function [self_s, calls] and the time metrics
    some span fed, for one traced worker.

    Functions without a layer in ``LAYER`` go to ``<module>.other``; they
    appear in the function table but in no reported metric.
    """
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    functions = {}
    present = set()
    seen = set()
    for (name, _, _, _, attrs), own in zip(spans, self_times(spans)):
        row = functions.setdefault(name, [0.0, 0])
        row[0] += own
        row[1] += 1
        if name in MODAL_SOLVES:
            key = f"modal.{attrs['kernel']}.solve_s"
            metrics[key] += own
            metrics["modal.solves"] += 1
            metrics["modal.repeat_solves"] += attrs["key"] in seen
            seen.add(attrs["key"])
            metrics["modal.mode_steps"] += attrs["mode_steps"]
            metrics["modal.trajectory_bytes"] += attrs["bytes"]
            present.add(key)
            continue
        layer = LAYER.get(name, name.split(".")[0] + ".other")
        metrics[layer + "_s"] = metrics.get(layer + "_s", 0.0) + own
        metrics[layer + "_calls"] = metrics.get(layer + "_calls", 0) + 1
        present.add(layer + "_s")
        if name == "frames.dual_family":
            metrics["frames.dual_bytes"] += attrs["bytes"]
        elif name == "inverse.build_thetas":
            metrics["inverse.theta_bytes"] += attrs["bytes"]
        elif name == "inverse.stability_ratios":
            metrics["inverse.scan_trials"] += attrs["trials"]
    return metrics, functions, present


def spans_consistent(spans: list, study_s: float) -> bool:
    """Children lie inside their parents and do not overlap, so self times are
    nonnegative and add up to the root spans, which cover ``study_s``."""
    last_end = {}  # parent -> end of its latest child, in call order
    for _, start, end, parent, _ in spans:
        if parent >= 0 and not spans[parent][1] <= start <= end <= spans[parent][2]:
            return False
        if start < last_end.get(parent, -math.inf):
            return False
        last_end[parent] = end
    own = self_times(spans)
    return min(own, default=0.0) >= -1e-9 and abs(sum(own) - study_s) <= 1e-3


# ---------------------------------------------------------------------------
# Reporting


def tail_percentile(samples: list):
    """(percentile, value) of the highest percentile with 10 samples above it."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(samples)[k - 1]


def summarize(name: str, seed: int, trace: bool, records: list) -> dict:
    """Print the human-readable report and return the result line."""
    timed = [rec for rec in records if "study_s" in rec]
    if not timed:
        raise HarnessError("no worker reported timings:\n" + "\n".join(
            p for rec in records for p in rec["problems"]))
    plain = [rec for rec in timed if not rec["traced"]]
    traced = [rec for rec in timed if rec["traced"]]
    if trace:
        if not traced:
            raise HarnessError("no traced worker reported timings")
        per_worker = []
        present = {"cli.parse_s", "trace.study_s", "trace.overhead_s"}
        for rec in traced:
            values, functions, fed = layer_metrics(rec["spans"])
            if not spans_consistent(rec["spans"], rec["study_s"]):
                rec["problems"].append("span self times do not add up to the traced study_s")
            values["cli.parse_s"] = rec["parse_s"]
            values["trace.study_s"] = rec["study_s"]
            per_worker.append(values)
            present |= fed
        metrics = {key: statistics.median(v[key] for v in per_worker) for key in PER_LAYER}
        pairs = [(a, b) for a, b in zip(records[::2], records[1::2])
                 if "study_s" in a and "study_s" in b]
        if not pairs:
            raise HarnessError("no traced worker has a timed untraced partner")
        metrics["trace.overhead_s"] = statistics.median(
            b["study_s"] - a["study_s"] for a, b in pairs)
        units = PER_LAYER
    else:
        study = [rec["study_s"] * rec["scale"] for rec in plain]
        metrics = {
            "study_s": statistics.median(study),
            "setup_s": statistics.median(rec["setup_s"] * rec["scale"] for rec in plain),
            "peak_rss_mb": statistics.median(rec["rss_mib"] for rec in plain),
        }
        units = END_TO_END
    attempted = len(records)
    failed = sum(1 for rec in records if rec["problems"])

    print(f"workload {name}  seed {seed}  trace {int(trace)}  workers {attempted} "
          "(one at a time, closed loop)")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in timed[0]["env"].items())
          + "  VISCO_THREADS=unset")
    for i, rec in enumerate(records):
        for problem in rec["problems"]:
            print(f"  worker {i} (seed {rec['seed']}) FAILED: {problem}")
    print(f"fail_frac {failed / attempted:.4f} frac  ({failed} of {attempted} failed)")
    if trace:
        print(f"traced workers {len(traced)}, untraced {len(plain)}; "
              "self time per public function (last traced worker):")
        for fname, (own, calls) in sorted(functions.items(), key=lambda kv: -kv[1][0]):
            print(f"  {fname:36s} {own:10.4f} s  {calls:7d} calls")
        for key, unit in units.items():
            absent = key.endswith("_s") and key not in present
            print(f"  {key:28s} {metrics[key]:.6g} {unit}{'  (absent)' if absent else ''}")
    else:
        for key, unit in units.items():
            print(f"{key} {metrics[key]:.6g} {unit}  (median of {len(plain)})")
        print("study_s samples: " + " ".join(f"{v:.4f}" for v in study))
        print("unscaled medians: " + "  ".join(
            f"{key} {statistics.median(rec[key] for rec in plain):.6g} s"
            for key in ("study_s", "setup_s", "probe_s"))
            + f"  (reference probe_s {PROBE_REF_S:g} s)")
        tail = tail_percentile(study)
        if tail is None:
            print(f"study_s tail: n/a with {len(study)} samples (a tail percentile "
                  "needs 10 samples beyond it)")
        else:
            print(f"study_s p{tail[0]:.0f} {tail[1]:.6g} s  ({len(study)} samples)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def measure(name: str, spec: dict, seed: int, seconds: float, trace: bool,
            reference: dict | None, workdir: Path) -> dict:
    """Run one workload and return the result line as a dict."""
    if os.environ.get("VISCO_THREADS") is not None:
        raise HarnessError("VISCO_THREADS is set; the benchmark runs the serial "
                           "code path, so unset it")
    if not (ROOT / "src" / "visco_inverse" / "__init__.py").is_file():
        raise HarnessError(f"no visco_inverse sources under {ROOT / 'src'}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        records = run_workers(spec, seed, seconds, trace, workdir, reference)
        return summarize(name, seed, trace, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        reference = load_reference(args.workload)
        result = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), reference, ROOT / ".perfbench_work")
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
