"""Run one visco-inverse CLI study in a fresh process and report its costs.

Usage::

    python3 perfbench/worker.py CONFIG OUTDIR [--trace]

``visco_inverse`` must be importable (``run.py`` puts the checkout's ``src``
on ``PYTHONPATH``).  The worker parses CONFIG with
``ExperimentConfig.from_mapping``, calls ``cli.run`` once, and writes
``OUTDIR/worker.json`` with the exit code, the CLOCK_MONOTONIC instant at
which the config was parsed (the parent compares it with its spawn instant),
the wall time of ``cli.run``, the maximum RSS and the run environment.

With ``--trace`` the public functions of the traced modules are wrapped at
every import site before ``cli.run`` is called.  Each call records a span
``[name, start, end, parent, attrs]`` in memory; the spans are written to
``OUTDIR/spans.json`` after the study returns.  Nothing under ``src/`` is
edited: only module attributes of this process are replaced.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib
import inspect
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

TRACED_MODULES = ("spectral", "modal", "volterra", "frames", "forward", "inverse", "cli")


class Tracer:
    """In-memory span recorder; spans nest by call order in one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, describe=None):
        """``fn`` recording one span per call.  ``describe(arguments, result)``
        gives the span's attributes; it runs after the span has ended."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if describe is not None:
                span[4] = describe(signature.bind(*args, **kwargs).arguments, out)
            return out

        return traced


def _kernel_variant(kernel) -> str:
    name = type(kernel).__name__
    return {"ZeroKernel": "zero", "ExponentialKernel": "exponential"}.get(name, "generic")


def _describe_solve(family):
    """Attributes of one modal family solve; byte counts come from nbytes."""

    def describe(arguments, out):
        modes, kernel, grid = tuple(arguments["modes"]), arguments["kernel"], arguments["grid"]
        integrated = sum(1 for m in modes if m.branch == "J1")
        return {
            "kernel": _kernel_variant(kernel),
            "key": repr((family, [m.index for m in modes], kernel, grid)),
            "mode_steps": integrated * grid.steps,
            "bytes": sum(t.z.values.nbytes + t.z_prime.values.nbytes for t in out),
        }

    return describe


def _describe_dual(arguments, out):
    return {"bytes": out.values.nbytes + out.coefficients.nbytes}


def _describe_thetas(arguments, out):
    return {"bytes": out.thetas.nbytes}


def _describe_scan(arguments, out):
    return {"trials": len(out)}


DESCRIBE = {
    "modal.solve_z_many": _describe_solve("z"),
    "modal.solve_w_many": _describe_solve("w"),
    "frames.dual_family": _describe_dual,
    "inverse.build_thetas": _describe_thetas,
    "inverse.stability_ratios": _describe_scan,
}


def install(tracer: Tracer) -> None:
    """Wrap the traced modules' public functions wherever they are bound."""
    wrappers = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"visco_inverse.{short}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                name = f"{short}.{attr}"
                wrappers[obj] = tracer.wrap(name, obj, DESCRIBE.get(name))
    for modname, mod in list(sys.modules.items()):
        if modname != "visco_inverse" and not modname.startswith("visco_inverse."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])


def openblas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
    }


def main(argv) -> int:
    config_path, outdir = Path(argv[0]), Path(argv[1])
    traced = argv[2:] == ["--trace"]
    from visco_inverse import cli

    raw = json.loads(config_path.read_text())
    t0 = time.perf_counter()
    cfg = cli.ExperimentConfig.from_mapping(raw, raw["study"], out_override=str(outdir))
    parse_s = time.perf_counter() - t0
    parsed_at = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = Tracer()
    if traced:
        install(tracer)
    t0 = time.perf_counter()
    code = cli.run(cfg)
    study_s = time.perf_counter() - t0

    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced:
        (outdir / "spans.json").write_text(json.dumps(tracer.spans))
    report = {
        "code": code,
        "parsed_at": parsed_at,
        "parse_s": parse_s,
        "study_s": study_s,
        "maxrss_kib": maxrss_kib,
        "env": environment(),
    }
    (outdir / "worker.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
