"""Benchmark of equimorse: one seeded workload, checked outputs, named metrics.

    python3 perfbench/run.py --workload verify_catalog --seed 0 --seconds 16 --trace 0

Run from the repository root; the package is imported from ./src.  The
workloads (see workloads.py and BENCHMARK.json) are verify_catalog,
sweep_partial, identities_large and local_oracles.

--trace 0 prints the end-to-end metrics (metrics.END_TO_END): the
workload runs in its own process with BLAS pinned to one thread and
EQUIMORSE_THREADS unset, closed loop, after an untimed warm-up pass at a
tiny size, and repeats its fixed list of operations until --seconds have
gone.  A speed probe timed next to every operation rescales run_s and
cpu_s to a reference host speed (workloads.speed_probe); the unscaled
figures are printed too.  setup_s comes from separate fresh processes.  --trace 1 prints the
per-layer metrics (metrics.PER_LAYER) of traced passes, the tracing
overhead, and for verify_catalog the eigensolve time of one more pass at
the machine's default BLAS threads.  Spans go to perfbench/runs/.

Every line but the last is for people: the parameter table (replay it with
--params FILE), the environment, each metric with its unit, and
fail_ratio.  The last line is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every output
checked out, 1 when some did not, and 2 when no result could be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "runs")
WORKLOADS = ("verify_catalog", "sweep_partial", "identities_large", "local_oracles")
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(pin_blas: bool) -> dict:
    env = dict(os.environ)
    env.pop("EQUIMORSE_THREADS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for var in BLAS_THREAD_VARS:
        if pin_blas:
            env[var] = "1"
        else:
            env.pop(var, None)
    return env


def run_child(script: str, args: list[str], env: dict, deadline: float,
              tag: str) -> dict:
    """Run one benchmark process to completion and return its JSON result."""
    result = os.path.join(RUNS, f"{tag}-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, script), *args, "--result", result]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} {tag} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{script} {tag} exited with code {proc.returncode}")
    try:
        with open(result) as fh:
            return json.load(fh)
    finally:
        os.unlink(result)


def pass_time(passes: list[dict], key: str, speed: str | None) -> float:
    """One pass's time: each op at its median over the passes.

    With speed ("wall_speed" or "cpu_speed"), each op time is first
    multiplied by that host-speed factor (workloads.speed_probe).  A burst
    of load that slows a few ops of one pass drops out in the per-op median.
    """
    per_pass = [[t * f for t, f in zip(p[key], p[speed])] if speed else p[key]
                for p in passes]
    return sum(statistics.median(times) for times in zip(*per_pass))


def measure(args) -> tuple[dict, dict, list[dict]]:
    """Metrics, information lines and every checked pass of one call."""
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.params:
        common += ["--params", os.path.abspath(args.params)]
    pinned = child_env(pin_blas=True)
    workdir = os.path.join(RUNS, f"work-{args.workload}-{os.getpid()}")
    run_args = ["run", *common, "--seconds", str(args.seconds), "--trace",
                str(args.trace), "--workdir", workdir]
    if args.trace:
        run_args += ["--spans", os.path.join(RUNS, f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        main = run_child("worker.py", run_args, pinned, deadline, "run")
        passes = main["untraced"] + main["traced"]
        info = {"params": main["params"], "env": main["env"],
                "reference_checked": main["reference_checked"]}
        if not args.trace:
            setups = [run_child("setup_probe.py", common, pinned, deadline, f"setup{i}")
                      for i in range(SETUP_PROBES)]
            metrics = {
                "run_s": pass_time(passes, "op_walls", "wall_speed"),
                "cpu_s": pass_time(passes, "op_cpus", "cpu_speed"),
                "setup_s": statistics.median(s["setup_s"] for s in setups),
                "peak_rss_mb": main["peak_rss_mb"],
            }
            info["unscaled"] = {"run_s": pass_time(passes, "op_walls", None),
                                "cpu_s": pass_time(passes, "op_cpus", None),
                                "host_speed": statistics.median(
                                    f for p in passes for f in p["wall_speed"])}
            info["samples"] = {"passes": len(passes), "setup_processes": len(setups),
                               "pass_wall_s": [p["wall"] for p in passes]}
            return metrics, info, passes
        metrics = dict(main["layer"])
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in main["traced"])
            - statistics.median(p["wall"] for p in main["untraced"]))
        info["per_op_solves"] = main["per_op_solves"]
        info["samples"] = {"untraced_passes": len(main["untraced"]),
                           "traced_passes": len(main["traced"])}
        if args.workload == "verify_catalog":
            probe = run_child("worker.py", ["traced-pass", *common, "--workdir", workdir],
                              child_env(pin_blas=False), deadline, "threads")
            passes += probe["traced"]
            pinned_s = metrics["spectral.eigensolve_s"]
            default_s = probe["layer"]["spectral.eigensolve_s"]
            info["blas_threads"] = {
                "pinned": 1, "default": f"unset, nproc {probe['env']['nproc']}",
                "spectral.eigensolve_s pinned": pinned_s,
                "spectral.eigensolve_s default": default_s,
                "default/pinned": default_s / pinned_s}
        return metrics, info, passes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--params", default=None,
                    help="JSON parameter table to replay instead of drawing one from --seed")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "equimorse", "__init__.py")):
        print(f"error: no equimorse sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)
    try:
        metrics, info, passes = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p["ops"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    table = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    for key, value in info.items():
        print(f"{key} {json.dumps(value)}")
    for name, spec in table.items():
        print(f"{name:30s} {metrics[name]!r:>22} {spec[0]:5s} {spec[-1]}")
    print(f"{'fail_ratio':30s} {len(failures)}/{attempted} ops failed")
    for failure in failures[:10]:
        print(f"  failed: {failure}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]}
                    for name in table},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
