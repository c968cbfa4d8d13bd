"""Command-line surface: catalog listing, single spectra, deformation
sweeps, full verification runs and local-model oracle comparisons.

Subcommands
    catalog   list the model cases with expected count/Betti sequences
    verify    run the full verification of one case, write a JSON report
    spectrum  eigenvalues of one (degree, s) pair, JSON + optional CSV
    sweep     deformation sweep: eigenvalue CSV and trace CSV
    local     closed-form local-model spectra against their grid oracles
    report    summarize a previously written verification JSON

Exit codes: 0 all checks passed, 1 a verification or oracle comparison
failed, 2 configuration or usage error.

Configuration files are flat `key = value` text with sections, read by
configparser; command-line flags override file values.  Recognized keys:

    [run]          case, n_grid, weight, kmax, out
    [geometry]     case parameters (e.g. c, R, r) as floats
    [deformation]  s_list (comma-separated)
    [trace]        phi_kind (exp_decay | gaussian), phi_scale

Outputs never embed timestamps and are written atomically, so repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import backend as backend_mod
from . import local_models as local_mod
from . import pipeline as pipeline_mod
from . import spectral as spectral_mod
from .backend import CATALOG_CASES
from .cartan import ConfigurationError as CartanConfigurationError
from .spectral import write_atomic

__all__ = ["RunConfig", "main"]

DEFAULT_S_LIST = [0.0, 4.0, 8.0, 16.0, 32.0, 64.0]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated run parameters; every report embeds this for reproducibility."""

    case: str = "sphere_height"
    n_grid: int = 256
    weight: int = 1
    s_list: list[float] = field(default_factory=lambda: list(DEFAULT_S_LIST))
    kmax: int | None = None
    phi_kind: str = "exp_decay"
    phi_scale: float = 1.0
    out: str = "report.json"
    params: dict = field(default_factory=dict)

    def trace_spec(self) -> spectral_mod.TraceSpec:
        return spectral_mod.TraceSpec(self.phi_kind, self.phi_scale)

    def as_dict(self) -> dict:
        return {
            "case": self.case,
            "n_grid": self.n_grid,
            "weight": self.weight,
            "s_list": [float(s) for s in self.s_list],
            "kmax": self.kmax,
            "phi_kind": self.phi_kind,
            "phi_scale": self.phi_scale,
            "params": {k: self.params[k] for k in sorted(self.params)},
        }


def _number(text: str, kind: type, what: str):
    """text parsed as an int or float; malformed or non-finite is a ConfigError."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite {kind.__name__}, got {text!r}")
    return value


def _parse_s_list(text: str) -> list[float]:
    values = [_number(t, float, "s") for t in text.replace(",", " ").split()]
    if any(v < 0 for v in values):
        raise ConfigError("s values must be nonnegative")
    return values


def _parse_phi(text: str) -> tuple[str, float]:
    kind, _, scale = text.partition(":")
    return kind, _number(scale, float, "phi scale") if scale else 1.0


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    out: dict = {}
    if parser.has_section("run"):
        run = parser["run"]
        for key in ("case", "out"):
            if key in run:
                out[key] = run[key]
        for key in ("n_grid", "weight", "kmax"):
            if key in run:
                out[key] = _number(run[key], int, key)
    if parser.has_section("geometry"):
        out["params"] = {k: _number(v, float, k) for k, v in parser["geometry"].items()}
    if parser.has_section("deformation") and "s_list" in parser["deformation"]:
        out["s_list"] = _parse_s_list(parser["deformation"]["s_list"])
    if parser.has_section("trace"):
        tr = parser["trace"]
        if "phi_kind" in tr:
            out["phi_kind"] = tr["phi_kind"]
        if "phi_scale" in tr:
            out["phi_scale"] = _number(tr["phi_scale"], float, "phi_scale")
    return out


def _build_config(args, default_s=None) -> RunConfig:
    values: dict = {}
    if default_s is not None:
        values["s_list"] = list(default_s)
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    for key in ("case", "n_grid", "weight", "kmax", "out"):
        v = getattr(args, key.replace("-", "_"), None)
        if v is not None:
            values[key] = v
    if getattr(args, "s", None) is not None:
        values["s_list"] = _parse_s_list(args.s)
    if getattr(args, "phi", None):
        values["phi_kind"], values["phi_scale"] = _parse_phi(args.phi)
    params = dict(values.pop("params", {}))
    for item in getattr(args, "param", None) or []:
        key, _, val = item.partition("=")
        if not val:
            raise ConfigError(f"--param needs key=value, got {item!r}")
        params[key] = _number(val, float, key)
    cfg = RunConfig(params=params, **values)
    if cfg.case not in CATALOG_CASES:
        raise ConfigError(f"unknown case {cfg.case!r}; see `equimorse catalog`")
    if cfg.s_list != sorted(cfg.s_list):
        raise ConfigError("s_list must be ascending")
    if getattr(args, "k", 0) < 0:
        raise ConfigError(f"degree --k must be nonnegative, got {args.k}")
    if cfg.kmax is not None and cfg.kmax < 0:
        raise ConfigError(f"kmax must be nonnegative, got {cfg.kmax}")
    try:
        cfg.trace_spec()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

CATALOG_TABLE = [
    ("sphere_height", "R=1, f=cos(theta)",
     "betti (1,0,2,0,2,0)", "c=(1,0,1), d=0, slacks all zero"),
    ("sphere_bumpy", "R=1, f=cos(theta)+c*cos(2 theta), c=0.6",
     "betti (1,0,2,0,2,0)", "extra critical latitude(s); slacks >= 0"),
    ("torus_height", "r=1, R=3, f=sin(theta)",
     "betti (1,1,0,0,0)", "d=(1,1), c=0, slacks all zero"),
    ("circle_trivial", "free action of S^1 on itself",
     "betti (1,0,0,0,0)", "algebraic/spectral identities only"),
]


def cmd_catalog(_args) -> int:
    print(f"{'case':<16} {'geometry/function':<42} {'expected kernels':<22} notes")
    for row in CATALOG_TABLE:
        print(f"{row[0]:<16} {row[1]:<42} {row[2]:<22} {row[3]}")
    return 0


def cmd_verify(args) -> int:
    cfg = _build_config(args)
    if not cfg.s_list:
        raise ConfigError("verify needs at least one s value")
    profile, f = backend_mod.catalog(cfg.case, cfg.params, n_grid=cfg.n_grid,
                                     weight=cfg.weight)
    kmax = cfg.kmax if cfg.kmax is not None else 4
    report = pipeline_mod.run_case(profile, f, cfg.s_list, kmax, cfg.trace_spec())
    report["case"] = cfg.case
    report["config"] = cfg.as_dict()
    write_atomic(cfg.out, _json_text(report))
    print(f"case {cfg.case}: betti {report['betti']}")
    if report["tilde_c"]:
        print(f"  counts c={report['c']} d={report['d']} tilde_c={report['tilde_c']}")
        print(f"  counting slack {report['slack_thm1']}")
        print(f"  trace slack at s={max(cfg.s_list):g}: {report['slack_thm2']}")
    print(f"  euler {report['euler']}")
    print(f"  status {report['status']}  -> {cfg.out}")
    return 0 if report["status"] == "PASS" else 1


def cmd_spectrum(args) -> int:
    cfg = _build_config(args, default_s=[0.0])
    profile, f = backend_mod.catalog(cfg.case, cfg.params, n_grid=cfg.n_grid,
                                     weight=cfg.weight)
    be = backend_mod.build_backend(profile, f)
    s_value = cfg.s_list[-1] if cfg.s_list else 0.0
    k = args.k
    rep = spectral_mod.delta_spectrum(be, k, s=s_value, count=args.count)
    payload = rep.to_record()
    payload["config"] = cfg.as_dict()
    write_atomic(cfg.out, _json_text(payload))
    print(f"degree {k}, s={s_value:g}: kernel {rep.kernel_dim}, gap {rep.gap:.6g}"
          f" -> {cfg.out}")
    if args.csv:
        spectral_mod.reports_to_csv([rep], args.csv)
        print(f"eigenvalues -> {args.csv}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _build_config(args)
    profile, f = backend_mod.catalog(cfg.case, cfg.params, n_grid=cfg.n_grid,
                                     weight=cfg.weight)
    be = backend_mod.build_backend(profile, f)
    result = spectral_mod.sweep_s(be, args.k, cfg.s_list, cfg.trace_spec(),
                                  count=args.count)
    out_dir = cfg.out if cfg.out != "report.json" else "sweep_out"
    os.makedirs(out_dir, exist_ok=True)
    eig_path = os.path.join(out_dir, "eigenvalues.csv")
    mu_path = os.path.join(out_dir, "traces.csv")
    spectral_mod.reports_to_csv([p.report for p in result.points], eig_path)
    lines = ["k,s,mu"]
    for p in result.points:
        lines.append(f"{args.k},{format(p.s, '.17g')},{format(p.mu, '.17g')}")
    write_atomic(mu_path, "\n".join(lines) + "\n")
    meta = {
        "k": args.k,
        "kernel_constant": result.kernel_constant,
        "gap_monotone_from": result.gap_monotone_from,
        "gaps": result.gaps(),
        "notes": result.notes,
        "config": cfg.as_dict(),
    }
    write_atomic(os.path.join(out_dir, "sweep.json"), _json_text(meta))
    print(f"sweep k={args.k}, s={cfg.s_list} -> {eig_path}, {mu_path}")
    for note in result.notes:
        print(f"  note: {note}")
    return 0 if result.kernel_constant else 1


def cmd_local(args) -> int:
    s, m, eps = args.s, args.weight_local, args.eps
    if args.config:
        parser = configparser.ConfigParser()
        if not parser.read(args.config):
            raise ConfigError(f"cannot read config file {args.config!r}")
        if parser.has_section("local"):
            sec = parser["local"]
            if _number(sec.get("q", "1"), int, "q") != 1:
                raise ConfigError("grid oracles cover one rotation plane (q = 1)")
            s = _number(sec.get("s", str(s)), float, "s")
            m = _number(sec.get("m", str(m)), int, "m")
            eps = _number(sec.get("eps", str(eps)), int, "eps")
    if eps not in (-1, 1):
        raise ConfigError("eps must be +1 or -1")
    if not 0.0 < s < math.inf:
        raise ConfigError(f"s must be finite and positive, got {s}")
    if m < 1:
        raise ConfigError(f"rotation speed m must be a positive integer, got {m}")
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
    write_atomic(args.out, _json_text(payload))
    ok = err_a <= tol and err_b <= tol
    print(f"local model q=1, m={m}, eps={eps:+d}, s={s:g}: "
          f"branch errors {err_a:.2e}, {err_b:.2e} "
          f"({'OK' if ok else 'DISAGREE'}) -> {args.out}")
    return 0 if ok else 1


def cmd_report(args) -> int:
    with open(args.path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{args.path} is not a JSON report: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{args.path} is not a JSON report")
    print(f"case {payload.get('case')}  N={payload.get('N')}  "
          f"status {payload.get('status')}")
    print(f"  betti     {payload.get('betti')}")
    if payload.get("tilde_c"):
        print(f"  tilde_c   {payload.get('tilde_c')}")
        print(f"  slack(counting) {payload.get('slack_thm1')}")
        print(f"  slack(trace)    {payload.get('slack_thm2')}")
    print(f"  euler     {payload.get('euler')}")
    return 0 if payload.get("status") == "PASS" else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case", choices=CATALOG_CASES, default=None)
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--n-grid", dest="n_grid", type=int, default=None)
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--s", default=None, help="comma-separated ascending list")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--phi", default=None,
                   help="exp_decay | gaussian, optionally kind:scale")
    p.add_argument("--out", default=None)
    p.add_argument("--param", action="append", default=None,
                   help="geometry parameter key=value (repeatable)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="equimorse",
        description="Equivariant Hodge theory and Witten deformation on "
                    "S^1-symmetric model manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list model cases")

    p_verify = sub.add_parser("verify", help="full verification of one case")
    _add_common(p_verify)

    p_spec = sub.add_parser("spectrum", help="one (degree, s) spectrum")
    _add_common(p_spec)
    p_spec.add_argument("--k", type=int, default=0)
    p_spec.add_argument("--count", type=int, default=None)
    p_spec.add_argument("--csv", default=None)

    p_sweep = sub.add_parser("sweep", help="deformation sweep of one degree")
    _add_common(p_sweep)
    p_sweep.add_argument("--k", type=int, default=2)
    p_sweep.add_argument("--count", type=int, default=None)

    p_local = sub.add_parser("local", help="local-model oracle comparison")
    p_local.add_argument("--s", dest="s", type=float, default=10.0)
    p_local.add_argument("--weight", dest="weight_local", type=int, default=2)
    p_local.add_argument("--eps", type=int, choices=(-1, 1), default=-1)
    p_local.add_argument("--config", default=None,
                         help="config file with a [local] section (q, m, eps, s)")
    p_local.add_argument("--out", default="local.json")

    p_report = sub.add_parser("report", help="summarize a verification JSON")
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
