"""Span tracer for the traced run: wraps the public functions of each module.

Installing the tracer replaces every public function of the six modules,
wherever a module of the package holds a reference to it, with a wrapper
that records a span (name, start, end, parent, op id).  Spans stay in
memory; layer_metrics derives the per-layer numbers from them after the
pass.  A span's self time is its duration minus the durations of its
direct children, so the self times of one operation's spans add up to
the operation's wall time.  The tracer assumes one thread
(EQUIMORSE_THREADS unset).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass, field

import equimorse
from equimorse import backend, cartan, cli, local_models, pipeline, spectral

from metrics import PER_LAYER

# Public function of each module -> the per-layer self-time metric it feeds.
# The spectral report writers are left unwrapped: their CSV writes count in
# cli.self_s together with the JSON writes of the command line.
SELF_TIME = {
    backend: {
        "catalog": "backend.catalog_s",
        "flat_point_profile": "backend.catalog_s",
        "flat_orbit_profile": "backend.catalog_s",
        "build_backend": "backend.build_s",
        "validate_backend": "backend.validate_s",
    },
    cartan: {
        "degree_space": "cartan.assemble_s",
        "mass_vector": "cartan.assemble_s",
        "build_deq": "cartan.assemble_s",
        "build_deq_star": "cartan.assemble_s",
        "adjoint": "cartan.assemble_s",
        "build_delta_eq": "cartan.assemble_s",
        "build_deformed": "cartan.assemble_s",
        "deformation_blocks": "cartan.assemble_s",
        "expansion_residual": "cartan.identity_s",
        "build_equivariant_de_rham": "cartan.identity_s",
        "t_shift_dims_match": "cartan.identity_s",
    },
    spectral: {
        "eigensolve": "spectral.eigensolve_s",
        "trace_phi": "spectral.trace_s",
        "betti_numbers": "spectral.betti_s",
        "delta_spectrum": "spectral.other_s",
        "sweep_s": "spectral.other_s",
        "de_rham_index": "spectral.other_s",
        "periodicity_defect": "spectral.other_s",
    },
    local_models: {
        **dict.fromkeys(
            ["ho_spectrum", "ho_ground", "block_matrix_eigen", "ab_branch_spectra",
             "wedge_matrix", "contract_matrix", "z_matrix", "clifford_fiber",
             "point_contribution", "orbit_contribution", "asymptotic_counts"],
            "local_models.closed_form_s"),
        **dict.fromkeys(
            ["ho_grid_spectrum", "radial_invariant_spectrum", "coupled_branch_spectrum"],
            "local_models.grid_oracle_s"),
        **dict.fromkeys(
            ["near_zero_counts", "point_model_counts", "orbit_model_counts"],
            "local_models.counts_s"),
    },
    pipeline: {
        "find_critical_levels": "pipeline.critical_levels_s",
        "morse_counts": "pipeline.critical_levels_s",
        "verify_trace_inequalities": "pipeline.trace_ineq_s",
        "run_case": "pipeline.self_s",
        "verify_counting_inequalities": "pipeline.self_s",
        "euler_characteristic_check": "pipeline.self_s",
    },
    cli: {"main": "cli.self_s"},
}
METHODS = {(cartan.EquivariantDeRham, "square_defect"): "cartan.identity_s"}

SPECTRAL_ERRORS = (spectral.SolverError, spectral.AmbiguousKernelError,
                   spectral.TailBoundError)
LAPLACIAN_BUILDERS = ("cartan.build_delta_eq", "cartan.build_deformed")
_EIGENSOLVE_SIGNATURE = inspect.signature(spectral.eigensolve)


@dataclass
class Span:
    name: str
    metric: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Spans of one traced pass, in the order they opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._errors: list[BaseException] = []

    def open(self, name: str, metric: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, metric, time.perf_counter(), parent=parent, op=self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id: int, label: str, subject: str):
        """Root span of one benchmark operation; yields the span."""
        self._op = op_id
        span = self.open(label, "op")
        span.attrs["subject"] = subject
        try:
            yield span
        finally:
            self.close(span)
            self._op = None

    def note_error(self, span: Span, exc: BaseException) -> None:
        """Count a spectral error once, at the span that raised it."""
        if not any(exc is seen for seen in self._errors):
            self._errors.append(exc)
            span.attrs["error"] = type(exc).__name__

    def records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, **s.attrs} for s in self.spans]


def _eigensolve_attrs(span, args, kwargs, report):
    requested = _EIGENSOLVE_SIGNATURE.bind(*args, **kwargs).arguments.get("count")
    span.attrs.update(solve=[report.k, report.s, requested], dim=report.dim,
                      returned=len(report.eigenvalues))


def _laplacian_attrs(span, args, kwargs, result):
    delta = result[2] if isinstance(result, tuple) else result
    span.attrs["laplacian_nnz"] = int(delta.matrix.nnz)


ATTRS = {"spectral.eigensolve": _eigensolve_attrs,
         "cartan.build_delta_eq": _laplacian_attrs,
         "cartan.build_deformed": _laplacian_attrs}


def _wrap(tracer: Tracer, fn, name: str, metric: str):
    attrs = ATTRS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name, metric)
        try:
            result = fn(*args, **kwargs)
        except SPECTRAL_ERRORS as exc:
            tracer.note_error(span, exc)
            raise
        finally:
            tracer.close(span)
        if attrs is not None:
            attrs(span, args, kwargs, result)
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every public call of the package through tracer, then restore."""
    holders = [equimorse, *SELF_TIME]
    patches = []
    try:
        for module, table in SELF_TIME.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for fname, metric in table.items():
                original = getattr(module, fname)
                wrapper = _wrap(tracer, original, f"{layer}.{fname}", metric)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            patches.append((holder, attr, original))
                            setattr(holder, attr, wrapper)
        for (cls, fname), metric in METHODS.items():
            original = getattr(cls, fname)
            patches.append((cls, fname, original))
            setattr(cls, fname, _wrap(tracer, original, f"cartan.{fname}", metric))
        yield tracer
    finally:
        for holder, attr, original in reversed(patches):
            setattr(holder, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_s excepted)."""
    metrics = {name: 0.0 for name, (unit, _, _) in PER_LAYER.items() if unit == "s"}
    for span, own in zip(spans, self_times(spans)):
        if span.metric != "op":
            metrics[span.metric] += own
    subject = {s.op: s.attrs["subject"] for s in spans if s.metric == "op"}
    solves = [s for s in spans if s.name == "spectral.eigensolve" and "solve" in s.attrs]
    unique = {(subject[s.op], *s.attrs["solve"], s.attrs["dim"]) for s in solves}
    laplacians = [s for s in spans if "laplacian_nnz" in s.attrs
                  and not _inside_laplacian_build(spans, s)]
    metrics.update({
        "backend.builds": sum(1 for s in spans if s.name == "backend.build_backend"),
        "cartan.laplacians": len(laplacians),
        "cartan.laplacian_nnz": sum(s.attrs["laplacian_nnz"] for s in laplacians),
        "spectral.eigensolves": len(solves),
        "spectral.unique_solves": len(unique),
        "spectral.unique_ratio": len(unique) / len(solves) if solves else 0.0,
        "spectral.solve_dim_max": max((s.attrs["dim"] for s in solves), default=0),
        "spectral.eigenvalues_returned": sum(s.attrs["returned"] for s in solves),
        "spectral.errors": sum(1 for s in spans if "error" in s.attrs),
        "cli.bytes_written": sum(s.attrs.get("bytes_written", 0) for s in spans),
    })
    return metrics


def per_op_solves(spans: list[Span]) -> dict[str, list[int]]:
    """Eigensolves and distinct eigensolves of each operation that solves."""
    out: dict[str, list[int]] = {}
    for root in (s for s in spans if s.metric == "op"):
        solves = [s for s in spans if s.op == root.op and "solve" in s.attrs]
        if solves:
            out[root.name] = [len(solves),
                              len({(*s.attrs["solve"], s.attrs["dim"]) for s in solves})]
    return out


def _inside_laplacian_build(spans: list[Span], span: Span) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name in LAPLACIAN_BUILDERS:
            return True
        parent = spans[parent].parent
    return False
