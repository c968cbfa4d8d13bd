"""The workload process: warm-up, timed passes and traced passes.

Started by run.py with BLAS pinned to one thread.  It writes its results
as JSON to --result and, when tracing, every span to --spans.

    run          untimed warm-up pass at the tiny size, then passes until
                 --seconds have gone; with --trace 1 an untraced and a
                 traced pass alternate, so their difference is the
                 tracing overhead
    traced-pass  warm-up and one traced pass (used at the machine's
                 default BLAS threads)
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import time

import tracer as tracing
import workloads
from metrics import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def run_pass(ops, reference: dict | None = None, tracer=None, probe=None,
             probe_ref_s: float = 1.0) -> dict:
    """Run every op once, closed loop; time ``run`` and check the outputs.

    An op fails when it raises or when a check reports a problem; a
    failure does not stop the pass.  With a speed probe, the probe is timed
    before each op and after the last.  Each op gets a wall-time and a
    CPU-time host-speed factor: probe_ref_s over the mean wall or CPU time
    of the probes on either side of it.
    """
    walls, cpus, probes, failures = [], [], [], []
    if probe is not None:
        probes.append(_timed(probe))
    for op_id, op in enumerate(ops):
        scope = (tracer.operation(op_id, op.label, op.subject) if tracer
                 else contextlib.nullcontext())
        error = None
        with scope as span:
            wall, cpu = _clocks()
            try:
                value = op.run()
            except Exception as exc:  # a raising op is a failed op
                error = f"{type(exc).__name__}: {exc}"
            walls.append(time.perf_counter() - wall)
            cpus.append(time.process_time() - cpu)
        if probe is not None:
            probes.append(_timed(probe))
        if span is not None:
            span.attrs["bytes_written"] = sum(_file_sizes(op.outputs))
        problems = [error] if error else _check(op, value, reference)
        failures += [f"{op.label}: {p}" for p in problems[:1]]
    result = {"wall": sum(walls), "op_walls": walls, "op_cpus": cpus,
              "ops": len(ops), "failures": failures}
    for key, clock in (("wall_speed", 0), ("cpu_speed", 1)):
        result[key] = [2.0 * probe_ref_s / (a[clock] + b[clock])
                       for a, b in zip(probes, probes[1:])] or [1.0] * len(ops)
    return result


def _clocks() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def _timed(fn) -> tuple[float, float]:
    """Wall and CPU seconds of one call."""
    wall, cpu = _clocks()
    fn()
    return time.perf_counter() - wall, time.process_time() - cpu


def _check(op, value, reference: dict | None) -> list[str]:
    try:
        problems, floats = op.check(value)
        if reference is not None:
            problems += workloads.compare_floats(floats, reference.get(op.label, {}))
    except Exception as exc:  # unreadable or malformed outputs fail the op
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return problems


def _file_sizes(paths):
    for path in paths:
        if os.path.isdir(path):
            for name in os.listdir(path):
                yield os.path.getsize(os.path.join(path, name))
        elif os.path.exists(path):
            yield os.path.getsize(path)


def traced_pass(ops, reference: dict | None = None) -> tuple[dict, list]:
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        result = run_pass(ops, reference, tracer)
    result["metrics"] = tracing.layer_metrics(tracer.spans)
    result["per_op_solves"] = tracing.per_op_solves(tracer.spans)
    return result, tracer.records()


def reference_for(workload: str, seed: int, params: dict) -> dict | None:
    """Reference floats of this run, when the reference file covers it."""
    if params != workloads.make_params(workload, seed):
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"].get(workload, {}).get(str(seed))


def env_info() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"

    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), model)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "EQUIMORSE_THREADS": os.environ.get("EQUIMORSE_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("run", "traced-pass"))
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--params", default=None)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    params = workloads.params_for(args.workload, args.seed, args.params)
    reference = reference_for(args.workload, args.seed, params)
    os.makedirs(args.workdir, exist_ok=True)
    tiny = workloads.make_params(args.workload, args.seed, tiny=True)
    run_pass(workloads.make_ops(args.workload, tiny, args.workdir))
    ops = workloads.make_ops(args.workload, params, args.workdir)

    untraced, traced, spans = [], [], []
    if args.mode == "traced-pass":
        result, records = traced_pass(ops, reference)
        traced.append(result)
        spans.append(records)
    else:
        probe = workloads.speed_probe(args.workload)
        probe()
        probe_ref_s = workloads.REFERENCE_PROBE_S[args.workload]
        started = time.perf_counter()
        while not untraced or time.perf_counter() - started < args.seconds:
            untraced.append(run_pass(ops, reference, probe=probe, probe_ref_s=probe_ref_s))
            if args.trace:
                result, records = traced_pass(ops, reference)
                traced.append(result)
                spans.append(records)

    out = {"params": params, "reference_checked": reference is not None,
           "env": env_info(), "untraced": untraced, "traced": traced,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if traced:
        # Counts repeat exactly from pass to pass; times take their median.
        out["layer"] = {name: statistics.median(t["metrics"][name] for t in traced)
                        if PER_LAYER[name][0] == "s" else value
                        for name, value in traced[0]["metrics"].items()}
        out["per_op_solves"] = traced[0]["per_op_solves"]
    if args.spans and spans:
        with open(args.spans, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "passes": spans}, fh)
    with open(args.result, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
