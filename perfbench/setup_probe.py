"""One set-up measurement in a fresh process, written as JSON to --result.

Times importing equimorse plus catalog and build_backend for the models of
one workload.  The benchmark's own modules are imported outside the timed
region, so only the package's set-up is measured.
"""

import argparse
import json
import time


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--params", default=None)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import equimorse.cli  # noqa: F401  (the timed import: the package and its CLI)
    imported = time.perf_counter() - t0

    import workloads
    params = workloads.params_for(args.workload, args.seed, args.params)
    builds = workloads.setup_builds(args.workload, params)

    t0 = time.perf_counter()
    for build in builds:
        build()
    built = time.perf_counter() - t0
    with open(args.result, "w") as fh:
        json.dump({"setup_s": imported + built}, fh)


if __name__ == "__main__":
    main()
