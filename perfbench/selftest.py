"""Check the benchmark harness in seconds on tiny versions of the workloads.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload at J = 512 steps, untraced and traced, and checks the
metric names and units against BENCHMARK.json, failure counting, the output
checks, and that span self times add up to span totals.  Prints
``selftest: ok`` and exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import run

TINY_STEPS = 512


def tiny(spec: dict) -> dict:
    out = dict(spec, steps=TINY_STEPS, N=min(spec["N"], 16))
    if "trials" in out:
        out["trials"] = 40
    if "truth_bound" in out:
        out["truth_bound"] = 1e-3  # the O(dt^2) resolvent defect at J = 512
    return out


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_result_line(result: dict, units: dict, what: str) -> None:
    expect(list(result) == ["correct", "attempted", "failed", "metrics"], f"{what}: keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{what}: a clean run reads correct with no failures")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == units, f"{what}: metric names and units {got}")
    expect(all(math.isfinite(v["value"]) for v in result["metrics"].values()),
           f"{what}: finite metric values")
    json.loads(json.dumps(result, allow_nan=False))


def check_spans() -> None:
    spans = [
        ["cli.run", 0.0, 10.0, -1, None],
        ["volterra.convolve", 1.0, 4.0, 0, None],
        ["volterra.l2_inner", 2.0, 3.0, 1, None],
        ["frames.gram", 5.0, 6.0, 0, None],
    ]
    expect(run.self_times(spans) == [6.0, 2.0, 1.0, 1.0], "self times of nested spans")
    expect(run.spans_consistent(spans, 10.0), "self times add up to the study time")
    expect(not run.spans_consistent(spans, 11.0), "time outside every span is caught")
    expect(not run.spans_consistent(spans + [["x", 5.5, 7.0, 3, None]], 10.0),
           "a span outside its parent is caught")
    expect(not run.spans_consistent(spans + [["x", 1.5, 2.5, 1, None]], 10.0),
           "overlapping siblings are caught")
    metrics, functions, present = run.layer_metrics(spans)
    expect(metrics["cli.self_s"] == 6.0 and metrics["volterra.convolve_calls"] == 1
           and metrics["volterra.norm_s"] == 1.0 and functions["frames.gram"] == [1.0, 1],
           "spans map to their layers")
    expect("volterra.resolvent_s" not in present, "an uncalled layer reads as absent")


def check_failure_counting(workdir) -> None:
    spec = tiny(run.WORKLOADS["long-memory"])

    # sigma(0) = 0 is rejected while the worker parses its config
    records = run.run_workers(dict(spec, sigma={"form": "constant", "a": 0.0}),
                              1, 0.0, False, workdir)
    expect(len(records) == 1 and records[0]["problems"] == ["worker exited with code 1"],
           f"a crashing worker counts as failed: {records[0]['problems']}")

    # more modes than a coarse grid resolves: the CLI exits 3 (singular Gram)
    shutil.rmtree(workdir, ignore_errors=True)
    result = run.measure("singular", dict(spec, N=64, steps=16), 1, 0.0, False, None, workdir)
    expect(result["attempted"] == 1 and result["failed"] == 1 and not result["correct"],
           "a numerical failure counts as failed")

    # a good tiny run, then its outputs doctored one way at a time
    shutil.rmtree(workdir, ignore_errors=True)
    records = run.run_workers(spec, 1, 0.0, False, workdir)
    expect(records[0]["problems"] == [], f"clean tiny run: {records[0]['problems']}")
    expect(math.isclose(records[0]["scale"] * records[0]["probe_s"], run.PROBE_REF_S),
           "a worker's times are scaled by the probes around it")
    outdir = records[0]["outdir"]
    csv_path = outdir / "reconstruct.csv"
    header, rows = run.read_csv(csv_path)
    results = json.loads((outdir / "reconstruct.json").read_text())["results"]
    reference = {"csv": (header, rows), "results": results}
    expect(run.check_outputs(spec, outdir, reference) == [], "outputs match themselves")
    expect(run.compare_reference(header, rows, dict(results, extra=1.0), reference) == [],
           "a new summary result does not fail the reference check")
    expect(run.compare_reference(header, rows, {}, reference) != [],
           "a missing summary result fails the reference check")
    expect(run.check_outputs(dict(spec, truth_bound=1e-30), outdir) != [],
           "the truth bound catches a large relative_l2_error")

    def scaled(factor):
        return {"csv": (header, [[r[0]] + [v * factor for v in r[1:]] for r in rows]),
                "results": {k: v * factor for k, v in results.items()}}

    expect(run.check_outputs(spec, outdir, scaled(1 + 1e-9)) == [],
           "a 1e-9 relative change passes the reference check")
    expect(len(run.check_outputs(spec, outdir, scaled(1 + 1e-6))) == 2,
           "a 1e-6 relative change fails the reference check")

    twin = dict(records[0], outdir=workdir / "twin", problems=[])
    twin["outdir"].mkdir()
    text = csv_path.read_text()
    (twin["outdir"] / "reconstruct.csv").write_text(text.replace("\n", "0\n", 2))
    run.check_determinism(spec, [records[0], twin])
    expect(twin["problems"] and not records[0]["problems"],
           "differing CSV bytes on one seed count as a failure")

    csv_path.write_text(text.replace(text.splitlines()[1].split(",")[2], "nan"))
    expect("non-finite number in the CSV" in run.check_outputs(spec, outdir),
           "a NaN in the CSV counts as a failure")

    os.environ["VISCO_THREADS"] = "2"
    try:
        run.measure("long-memory", spec, 1, 0.0, False, None, workdir)
        expect(False, "VISCO_THREADS set must stop the run")
    except run.HarnessError:
        pass
    finally:
        del os.environ["VISCO_THREADS"]
    shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in bench["workloads"]} == set(run.WORKLOADS), "workload names")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END,
           "end-to-end metric names and units")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER,
           "per-layer metric names and units")
    expect(run.tail_percentile(list(range(10))) is None, "no tail below 11 samples")
    expect(run.tail_percentile(list(range(20, 0, -1))) == (50.0, 10),
           "tail percentile keeps 10 samples beyond it")
    check_spans()

    workdir = run.ROOT / ".perfbench_selftest"
    for name, spec in run.WORKLOADS.items():
        run.load_reference(name)
        for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result = run.measure(name, tiny(spec), 1, 0.0, trace, None, workdir)
            check_result_line(result, units, f"{name} trace {int(trace)}")
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            if trace and name == "generic-scan":
                expect(metrics["volterra.resolvent_calls"] == 0
                       and metrics["modal.repeat_solves"] == 0
                       and metrics["inverse.scan_trials"] == 40, "generic-scan split")
            elif trace:
                expect(metrics["modal.solves"] == 2 and metrics["modal.repeat_solves"] == 1
                       and metrics["volterra.resolvent_calls"] == 1, f"{name} split")
    check_failure_counting(workdir)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
