"""Names, units and meaning of every metric the benchmark reports.

BENCHMARK.json lists the same names and units; the benchmark's tests keep
the two in step.  PER_LAYER also records, for each layer metric, which
end-to-end metric on which workload it should move.
"""

# name -> (unit, meaning); reported with --trace 0.  run_s and cpu_s are
# given at the reference host speed: each operation's wall (CPU) time is
# multiplied by the host-speed factor from the wall (CPU) time of the probe
# timed next to it (workloads.speed_probe), and each operation is taken at
# its median over the passes of the run.  The unscaled figures are printed
# beside them.
END_TO_END = {
    "run_s": ("s", "wall time of one pass over the workload's operations"),
    "cpu_s": ("s", "user+sys CPU time of the workload process in one pass"),
    "setup_s": ("s", "median over fresh processes: import equimorse, catalog "
                     "and build_backend for the workload's models"),
    "peak_rss_mb": ("MiB", "ru_maxrss of the workload process"),
}

# name -> (unit, better, the end-to-end metric and workload it should move);
# reported with --trace 1.  Times are self times: span time minus the time
# of its child spans.
PER_LAYER = {
    "backend.catalog_s": ("s", "lower", "setup_s on every workload"),
    "backend.build_s": ("s", "lower", "setup_s; run_s on identities_large"),
    "backend.builds": ("count", "lower", "setup_s; run_s on identities_large"),
    "backend.validate_s": ("s", "lower", "run_s on identities_large"),
    "cartan.assemble_s": ("s", "lower", "run_s on identities_large (most of it), "
                                        "~3% of verify_catalog, ~5% of sweep_partial"),
    "cartan.laplacians": ("count", "lower", "as cartan.assemble_s"),
    "cartan.laplacian_nnz": ("count", "lower", "as cartan.assemble_s; a count computed "
                                               "from the returned matrices"),
    "cartan.identity_s": ("s", "lower", "run_s on identities_large"),
    "spectral.eigensolve_s": ("s", "lower", "run_s and peak_rss_mb on verify_catalog "
                                            "(dense), run_s on sweep_partial "
                                            "(shift-invert); 0 on identities_large"),
    "spectral.eigensolves": ("count", "lower", "run_s on verify_catalog; "
                                               "flat on sweep_partial, identities_large"),
    "spectral.unique_solves": ("count", "lower", "the base of spectral.unique_ratio"),
    "spectral.unique_ratio": ("ratio", "higher", "distinct (case, N, k, s, count) over "
                                                 "all solves; run_s on verify_catalog"),
    "spectral.solve_dim_max": ("count", "lower", "peak_rss_mb on verify_catalog"),
    "spectral.eigenvalues_returned": ("count", "lower", "run_s on verify_catalog"),
    "spectral.trace_s": ("s", "lower", "run_s on verify_catalog and sweep_partial"),
    "spectral.betti_s": ("s", "lower", "run_s on verify_catalog"),
    "spectral.other_s": ("s", "lower", "run_s on verify_catalog and sweep_partial "
                                       "(delta_spectrum, sweep_s, de_rham_index)"),
    "spectral.errors": ("count", "lower", "failed ops on every workload"),
    "local_models.closed_form_s": ("s", "lower", "run_s on local_oracles"),
    "local_models.grid_oracle_s": ("s", "lower", "run_s on local_oracles"),
    "local_models.counts_s": ("s", "lower", "run_s on local_oracles"),
    "pipeline.critical_levels_s": ("s", "lower", "run_s on verify_catalog, ~1%"),
    "pipeline.trace_ineq_s": ("s", "lower", "run_s on verify_catalog, ~1%"),
    "pipeline.self_s": ("s", "lower", "run_s on verify_catalog, ~1% (run_case and "
                                      "the integer-count checks it calls)"),
    "cli.self_s": ("s", "lower", "run_s on verify_catalog and sweep_partial "
                                 "(config, JSON/CSV writes)"),
    "cli.bytes_written": ("B", "lower", "run_s on verify_catalog and sweep_partial"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced run_s"),
}
