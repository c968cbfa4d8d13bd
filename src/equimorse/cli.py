"""Command-line surface: catalog listing, single spectra, deformation
sweeps, full verification runs and local-model oracle comparisons.

Subcommands
    catalog   list the model cases with expected count/Betti sequences
    verify    run the full verification of one case, write a JSON report
    spectrum  the low eigenvalues of one (degree, s) pair, JSON + optional
              CSV: the lowest --count, else all below the default phi's
              Lambda (36.04) and one more
    sweep     deformation sweep: eigenvalue CSV and trace CSV
    local     closed-form local-model spectra against their grid oracles
    report    summarize a previously written verification JSON

Exit codes: 0 all checks passed, 1 a verification or oracle comparison
failed, 2 configuration or usage error.

Configuration files (`--config`) are flat `key = value` text with
sections, read by configparser; on every command a flag overrides the
file's value.  Keys are case-sensitive, and a key not listed below, in a
section the command reads, is a usage error.  Each key's parser also
checks its range.  Recognized keys:

    [run]          case (a catalog case), n_grid, weight, kmax, out
    [geometry]     case parameters (e.g. c, R, r) as floats; the case
                   rejects the ones it does not take
    [deformation]  s_list (comma-separated, nonnegative, strictly ascending)
    [trace]        phi_kind (exp_decay | gaussian), phi_scale
    [local]        q (must be 1), s (> 0), m (>= 1), eps (+1 or -1)

`verify` and `sweep` read [run], [geometry], [deformation] and [trace];
`spectrum` reads the same but [trace], which it ignores; `local` reads
[local] alone.  Each JSON's `config` records the values its command
read: case, n_grid, weight, s_list and params, plus kmax (null when
unset), phi_kind and phi_scale for `verify`, and phi_kind and phi_scale
for `sweep`.

`sweep` writes its CSV and JSON files into the directory `out`, by
default sweep_out, and exits 1 when the kernel dimension varies along
the sweep.  sweep.json records each point's solver facts: dim,
operator_norm, kernel_dim, separation and worst_residual.  Flags must
be spelled in full.

This module alone formats, checks and writes files.  Every output path
is checked before anything is built or solved, and every file is
written atomically, with the mode a new file gets; CSV lines end in LF.
Outputs never embed timestamps, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import tempfile

from . import backend as backend_mod
from . import local_models as local_mod
from . import pipeline as pipeline_mod
from . import spectral as spectral_mod
from .backend import CATALOG_CASES
from .cartan import ConfigurationError as CartanConfigurationError

__all__ = ["main"]

# The values verify, spectrum and sweep take when neither a flag nor the
# config file sets them; spectrum and sweep overlay a few of their own.
RUN_DEFAULTS = {
    "case": "sphere_height", "n_grid": 256, "weight": 1,
    "s_list": [0.0, 4.0, 8.0, 16.0, 32.0, 64.0], "kmax": None,
    "phi_kind": "exp_decay", "phi_scale": 1.0, "out": "report.json",
}


class ConfigError(ValueError):
    pass


def _number(text: str, kind: type, what: str):
    """text parsed as an int or float; malformed, non-finite or beyond the
    float range is a ConfigError."""
    try:
        value = kind(text)
        if math.isfinite(value):
            return value
    except (ValueError, OverflowError):
        pass
    raise ConfigError(f"{what} must be a finite {kind.__name__}, got {text!r}")


def _parse_s_list(text: str) -> list[float]:
    values = [_number(t, float, "s") for t in text.replace(",", " ").split()]
    if any(v < 0 for v in values):
        raise ConfigError("s values must be nonnegative")
    return values


# Each settable key: the config-file section that sets it (None for a
# flag-only key), its type or parser and, for a key with a range, the
# rule its value must meet and that rule in words.  A flag sets the key
# named by its dest and overrides the file; [geometry] keys and --param
# set the case parameters.
KEYS = {
    "case": ("run", str, CATALOG_CASES.__contains__,
             "a case that `equimorse catalog` lists"),
    "n_grid": ("run", int), "weight": ("run", int), "kmax": ("run", int),
    "out": ("run", str),
    "s_list": ("deformation", _parse_s_list,
               lambda v: all(a < b for a, b in zip(v, v[1:])), "strictly ascending"),
    "phi_kind": ("trace", str), "phi_scale": ("trace", float),
    "q": ("local", int, lambda v: v == 1, "1 (grid oracles cover one rotation plane)"),
    "s": ("local", float, lambda v: v > 0, "positive"),
    "m": ("local", int, lambda v: v >= 1, "a positive integer"),
    "eps": ("local", int, lambda v: v in (-1, 1), "+1 or -1"),
    "k": (None, int, lambda v: v >= 0, "nonnegative"),
    "count": (None, int), "csv": (None, str),
}


def _parse(key: str, text: str):
    """text parsed by the parser of key, and checked against its range."""
    _, kind, *rule = KEYS[key]
    value = _number(text, kind, key) if kind in (int, float) else kind(text)
    if rule and not rule[0](value):
        raise ConfigError(f"{key} must be {rule[1]}, got {value!r}")
    return value


def _read_values(args, sections, defaults: dict) -> dict:
    """The command's defaults, overlaid by the config file's sections that
    the command reads and then by the given flags, each text parsed once,
    and range-checked, by the parser of its key.
    """
    texts: dict = {}
    params: dict = {}
    if args.config is not None:
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str  # [geometry] R and r are different parameters
        try:
            if not parser.read(args.config):
                raise ConfigError(f"cannot read config file {args.config!r}")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{args.config}: {exc}".replace("\n", " ")) from None
        for name in (n for n in parser.sections() if n in sections and n != "geometry"):
            for key in parser[name]:
                if KEYS.get(key, (None,))[0] != name:
                    raise ConfigError(f"{args.config}: unknown key {key!r} in [{name}]")
                texts[key] = parser[name][key]
        if "geometry" in sections and parser.has_section("geometry"):
            params.update(parser["geometry"])
    flags = vars(args)
    texts.update((k, v) for k, v in flags.items() if k in KEYS and v is not None)
    if flags.get("phi") is not None:
        kind, _, scale = args.phi.partition(":")
        texts.update(phi_kind=kind, phi_scale=scale or "1")
    for item in flags.get("param") or []:
        key, _, val = item.partition("=")
        if not val:
            raise ConfigError(f"--param needs key=value, got {item!r}")
        params[key] = val
    values = dict(defaults, **{k: _parse(k, t) for k, t in texts.items()})
    if "geometry" in sections:
        values["params"] = {k: _number(v, float, k) for k, v in params.items()}
    return values


def _trace_spec(values: dict) -> spectral_mod.TraceSpec:
    try:
        return spectral_mod.TraceSpec(values["phi_kind"], values["phi_scale"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _config(values: dict, *keys: str) -> dict:
    """A report's record of the values its command read: case, n_grid,
    weight and s_list, then the given keys, then the case parameters
    sorted by name."""
    params = values["params"]
    return {**{k: values[k] for k in ("case", "n_grid", "weight", "s_list") + keys},
            "params": {k: params[k] for k in sorted(params)}}


def _check_out(*paths: str) -> None:
    """Refuse output files that could not be written: no path may name a
    directory, and the nearest existing path of its directory and their
    ancestors must be a writable directory.  No two paths may resolve to
    one file, which the later would silently replace.  Nothing is created."""
    seen = {}
    for path in paths:
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"cannot write {path!r}: {seen[real]!r} names the same file")
        seen[real] = path
        full = os.path.abspath(path)
        if path.endswith(os.sep) or os.path.isdir(full):
            raise ConfigError(f"cannot write {path!r}: it names a directory")
        parent = os.path.dirname(full)
        while not os.path.exists(parent):
            parent = os.path.dirname(parent)
        if not (os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)):
            raise ConfigError(f"cannot write {path!r}: {parent!r} is not a writable "
                              "directory")


def _write(path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it over path,
    with the mode open(path, "w") gives a new file: 0o666 less the umask.
    A failure at any point leaves an existing file at path untouched."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".equimorse-")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _write_csv(path, header: tuple, rows) -> None:
    """Write header and rows as CSV, LF line ends, floats to 17 digits."""
    lines = [header] + [[format(v, ".17g") if isinstance(v, float) else str(v)
                         for v in row] for row in rows]
    _write(path, "".join(",".join(line) + "\n" for line in lines))


def _write_eigenvalues(path, reports) -> None:
    """The eigenvalues of each report as CSV rows (k, s, index, value)."""
    _write_csv(path, ("k", "s", "index", "value"),
               [(rep.k, float(rep.s), i, float(lam))
                for rep in reports for i, lam in enumerate(rep.eigenvalues)])


def _finite_or_none(x: float) -> float | None:
    """x, or None for infinity: strict JSON has no Infinity."""
    return x if math.isfinite(x) else None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_catalog(_args) -> int:
    print(f"{'case':<16} {'geometry/function':<42} {'expected kernels':<22} notes")
    for case, row in backend_mod.CATALOG.items():
        text, kernels, notes = row["listing"]
        betti = f"betti ({','.join(map(str, kernels))})"
        print(f"{case:<16} {text:<42} {betti:<22} {notes}")
    return 0


def cmd_verify(args) -> int:
    values = _read_values(args, ("run", "geometry", "deformation", "trace"),
                          RUN_DEFAULTS)
    spec, case, s_list, out = (_trace_spec(values), values["case"],
                               values["s_list"], values["out"])
    if not s_list:
        raise ConfigError("verify needs at least one s value")
    profile, f = backend_mod.catalog(case, values["params"], n_grid=values["n_grid"],
                                     weight=values["weight"])
    _check_out(out)
    kmax = values["kmax"] if values["kmax"] is not None else 4
    report = pipeline_mod.run_case(profile, f, s_list, kmax, spec)
    report["case"] = case
    report["config"] = _config(values, "kmax", "phi_kind", "phi_scale")
    _write(out, _json_text(report))
    print(f"case {case}: betti {report['betti']}")
    print(f"  counts c={report['c']} d={report['d']} tilde_c={report['tilde_c']}")
    print(f"  counting slack {report['slack_thm1']}")
    print(f"  trace slack at s={max(s_list):g}: {report['slack_thm2']}")
    print(f"  euler {report['euler']}")
    print(f"  status {report['status']}  -> {out}")
    return 0 if report["status"] == "PASS" else 1


def cmd_spectrum(args) -> int:
    values = _read_values(args, ("run", "geometry", "deformation"),
                          dict(RUN_DEFAULTS, s_list=[0.0], k=0))
    if len(values["s_list"]) != 1:
        raise ConfigError(f"spectrum takes exactly one s value, got {values['s_list']}")
    profile, f = backend_mod.catalog(values["case"], values["params"],
                                     n_grid=values["n_grid"], weight=values["weight"])
    (s_value,), k, out, csv_path = (values["s_list"], values["k"], values["out"],
                                    values.get("csv"))
    _check_out(out, *([csv_path] if csv_path else []))
    be = backend_mod.build_backend(profile, f)
    rep = spectral_mod.delta_spectrum(be, k, s=s_value, count=values.get("count"),
                                      ceiling=spectral_mod.TraceSpec().ceiling())
    # The report but ritz_sum, and vectors: the number of residual norms.
    _write(out, _json_text({
        "k": rep.k, "s": rep.s, "eigenvalues": list(rep.eigenvalues),
        "kernel_dim": rep.kernel_dim, "gap": _finite_or_none(rep.gap),
        "residual_norms": list(rep.residual_norms), "dim": rep.dim,
        "operator_norm": rep.operator_norm, "separation": _finite_or_none(rep.separation),
        "vectors": len(rep.residual_norms), "config": _config(values)}))
    print(f"degree {k}, s={s_value:g}: kernel {rep.kernel_dim}, gap {rep.gap:.6g}"
          f" -> {out}")
    if csv_path:
        _write_eigenvalues(csv_path, [rep])
        print(f"eigenvalues -> {csv_path}")
    return 0


def cmd_sweep(args) -> int:
    values = _read_values(args, ("run", "geometry", "deformation", "trace"),
                          dict(RUN_DEFAULTS, out="sweep_out", k=2))
    spec, k, s_list, out = (_trace_spec(values), values["k"], values["s_list"],
                            values["out"])
    profile, f = backend_mod.catalog(values["case"], values["params"],
                                     n_grid=values["n_grid"], weight=values["weight"])
    eig_path, mu_path, meta_path = (os.path.join(out, name) for name in
                                    ("eigenvalues.csv", "traces.csv", "sweep.json"))
    _check_out(eig_path, mu_path, meta_path)
    be = backend_mod.build_backend(profile, f)
    result = spectral_mod.sweep_s(be, k, s_list, spec, count=values.get("count"))
    _write_eigenvalues(eig_path, [p.report for p in result.points])
    _write_csv(mu_path, ("k", "s", "mu"), [(k, p.s, p.mu) for p in result.points])
    _write(meta_path, _json_text({
        "k": k,
        "kernel_constant": result.kernel_constant,
        "gap_monotone_from": result.gap_monotone_from,
        "gaps": [[s, _finite_or_none(g)] for s, g in result.gaps()],
        "points": [_solver_record(p) for p in result.points],
        "config": _config(values, "phi_kind", "phi_scale"),
    }))
    print(f"sweep k={k}, s={s_list} -> {eig_path}, {mu_path}")
    if not result.kernel_constant:
        print(f"  kernel dimension varies along the sweep: "
              f"{[p.report.kernel_dim for p in result.points]}")
    return 0 if result.kernel_constant else 1


def _solver_record(point) -> dict:
    """The solver facts of one sweep point: all deterministic, no wall time."""
    rep = point.report
    return {"s": point.s, "dim": rep.dim, "operator_norm": rep.operator_norm,
            "kernel_dim": rep.kernel_dim,
            "separation": _finite_or_none(rep.separation),
            "worst_residual": max(rep.residual_norms)}


def cmd_local(args) -> int:
    values = _read_values(args, ("local",),
                          {"q": 1, "s": 10.0, "m": 2, "eps": -1, "out": "local.json"})
    s, m, eps, out = values["s"], values["m"], values["eps"], values["out"]
    _check_out(out)
    tol = 1e-2
    branch_a, branch_b = local_mod.ab_branch_spectra(s, m, eps, 3)
    try:
        radial = local_mod.radial_invariant_spectrum(s * s, 3)
        coupled = local_mod.coupled_branch_spectrum(s, m, eps, 3)
    except ValueError as exc:  # no finite oracle grid at this s
        raise ConfigError(f"s = {s:g}: {exc}") from None
    shifted = [v - 2.0 * eps * s for v in radial]

    def _rel(xs, ys):
        scale = max(max(abs(y) for y in ys), s)
        return max(abs(x - y) / scale for x, y in zip(xs, ys))

    err_a = _rel(shifted, branch_a.eigenvalues)
    err_b = _rel(coupled, branch_b.eigenvalues[:3])
    osc = local_mod.ho_spectrum(1.0, 3)
    (lam_lo, _), (lam_hi, _) = local_mod.block_matrix_eigen(s, m, eps)
    model = local_mod.LocalPointModel(q=1, weights=(m,), eps=(eps,),
                                      lambdas=(), n=2, s=s)
    contributions = [local_mod.point_contribution(model, k) for k in range(5)]
    payload = {
        "s": s, "m": m, "eps": eps,
        "oscillator_first": osc,
        "fiber_eigenvalues": [lam_lo, lam_hi],
        "branch_a": {"formula": branch_a.eigenvalues, "grid": shifted,
                     "rel_error": err_a},
        "branch_b": {"formula": branch_b.eigenvalues[:3], "grid": coupled,
                     "rel_error": err_b},
        "morse_index": model.index,
        "contributions_deg0_4": contributions,
    }
    _write(out, _json_text(payload))
    ok = err_a <= tol and err_b <= tol
    print(f"local model q=1, m={m}, eps={eps:+d}, s={s:g}: "
          f"branch errors {err_a:.2e}, {err_b:.2e} "
          f"({'OK' if ok else 'DISAGREE'}) -> {out}")
    return 0 if ok else 1


def cmd_report(args) -> int:
    with open(args.path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{args.path} is not a JSON report: {exc}") from None
    if (not isinstance(payload, dict) or payload.get("status") not in ("PASS", "FAIL")
            or not isinstance(payload.get("betti"), list)):
        raise ConfigError(f"{args.path} is not a verification report "
                          "(needs status PASS or FAIL and a betti list)")
    print(f"case {payload.get('case')}  N={payload.get('N')}  "
          f"status {payload.get('status')}")
    print(f"  betti     {payload.get('betti')}")
    print(f"  tilde_c   {payload.get('tilde_c')}")
    print(f"  slack(counting) {payload.get('slack_thm1')}")
    print(f"  slack(trace)    {payload.get('slack_thm2')}")
    print(f"  euler     {payload.get('euler')}")
    return 0 if payload.get("status") == "PASS" else 1


def _add_run_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--s", dest="s_list", help="comma-separated strictly ascending list")
    p.add_argument("--param", action="append",
                   help="geometry parameter key=value (repeatable)")
    for flag in ("--case", "--n-grid", "--weight", "--out") + flags:
        p.add_argument(flag)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="equimorse", allow_abbrev=False,
        description="Equivariant Hodge theory and Witten deformation on "
                    "S^1-symmetric model manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list model cases", allow_abbrev=False)

    # Every value flag is text; _read_values parses it and supplies defaults.
    p_verify = sub.add_parser("verify", help="full verification of one case",
                              allow_abbrev=False)
    _add_run_flags(p_verify, "--kmax")
    p_spec = sub.add_parser("spectrum", help="one (degree, s) spectrum",
                            allow_abbrev=False)
    _add_run_flags(p_spec, "--k", "--count", "--csv")
    p_sweep = sub.add_parser("sweep", help="deformation sweep of one degree",
                             allow_abbrev=False)
    _add_run_flags(p_sweep, "--k", "--count")
    for p in (p_verify, p_sweep):
        p.add_argument("--phi", help="exp_decay | gaussian, optionally kind:scale")

    p_local = sub.add_parser("local", help="local-model oracle comparison",
                             allow_abbrev=False)
    p_local.add_argument("--config",
                         help="config file with a [local] section (q, m, eps, s)")
    p_local.add_argument("--weight", dest="m")
    for flag in ("--s", "--eps", "--out"):
        p_local.add_argument(flag)

    p_report = sub.add_parser("report", help="summarize a verification JSON",
                              allow_abbrev=False)
    p_report.add_argument("path")

    args = parser.parse_args(argv)
    handlers = {
        "catalog": cmd_catalog,
        "verify": cmd_verify,
        "spectrum": cmd_spectrum,
        "sweep": cmd_sweep,
        "local": cmd_local,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError,
            backend_mod.BackendError,
            backend_mod.ProfileValidationError,
            backend_mod.DegenerateCriticalLevelError,
            spectral_mod.AmbiguousKernelError,
            spectral_mod.CountError,
            spectral_mod.SolverError,
            spectral_mod.TailBoundError,
            CartanConfigurationError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
