"""Write reference.json: the float outputs of every full-size workload.

The reference pins the outputs of the commit it was written from; later
runs of the benchmark at a covered seed must stay within
workloads.REFERENCE_RTOL of it.  Run from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json
import os
import tempfile

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(10)


def main() -> None:
    out = {"rtol": workloads.REFERENCE_RTOL, "seeds": list(SEEDS), "workloads": {}}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                table = {}
                for op in workloads.make_ops(workload, workloads.make_params(workload, seed),
                                             workdir):
                    problems, floats = op.check(op.run())
                    if problems:
                        raise SystemExit(f"{workload} seed {seed} {op.label}: {problems}")
                    if floats:
                        # 12 significant digits keep the file small and sit far
                        # inside the comparison tolerance.
                        table[op.label] = {key: [float(f"{v:.12g}") for v in values]
                                           for key, values in floats.items()}
                if table:
                    out["workloads"].setdefault(workload, {})[str(seed)] = table
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
