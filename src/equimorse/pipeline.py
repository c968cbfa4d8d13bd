"""End-to-end Morse verification: count sequences, the counting and trace
inequalities, and the Euler-characteristic check.

The critical levels come from backend.find_critical_levels, the one Morse
analysis, re-exported here with CriticalLevel.

For an invariant function on a surface of revolution the critical set
consists of the pole fixed points (always critical, indices 0 or 2 from
the sign of the normal Hessian) and of interior critical latitudes,
which are free orbits with transversal index 0 or 1.  With c_k and d_k
the counts of fixed points and orbits of index k, the combined sequence

    ctilde_k = d_k + c_k + c_{k-2} + c_{k-4} + ...

dominates the equivariant Betti numbers in the alternating sense: every
partial alternating sum of ctilde minus the same sum of beta (the slack)
is nonnegative, with equality throughout for a perfect invariant
function.  The finite-deformation counterpart replaces ctilde by traces
of phi over the deformed spectra and holds at every s; as s grows the
trace version converges to the counting version (localization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import cartan, spectral
from .backend import (
    BackendMatrices,
    CriticalLevel,
    InvariantMorseFunction,
    RevolutionProfile,
    build_backend,
    find_critical_levels,
    validate_backend,
)

__all__ = [
    "CriticalLevel",
    "MorseCounts",
    "find_critical_levels",
    "morse_counts",
    "SlackReport",
    "verify_counting_inequalities",
    "verify_trace_inequalities",
    "euler_characteristic_check",
    "run_case",
]


@dataclass
class MorseCounts:
    """Counts by index: c for fixed points, d for orbits, and the combined
    ctilde_k = d_k + c_k + c_{k-2} + ..."""

    c: list[int]
    d: list[int]
    tilde_c: list[int]


def morse_counts(levels, kmax: int) -> MorseCounts:
    """Tally fixed points and orbits by index and form ctilde."""
    c = [0] * (kmax + 1)
    d = [0] * (kmax + 1)
    for lv in levels:
        if lv.index <= kmax:
            if lv.kind == "fixed_point":
                c[lv.index] += 1
            else:
                d[lv.index] += 1
    tilde = [d[k] + sum(c[j] for j in range(k % 2, k + 1, 2)) for k in range(kmax + 1)]
    return MorseCounts(c=c, d=d, tilde_c=tilde)


@dataclass
class SlackReport:
    """Alternating-sum slacks of one inequality family, slack[k] for
    degrees 0..kmax, and whether every one meets its bound."""

    slack: list[float]
    passed: bool


def _alternating_slack(upper, lower, kmax: int) -> list[float]:
    out = []
    for k in range(kmax + 1):
        acc = 0.0
        for j in range(k + 1):
            sign = (-1.0) ** (k - j)
            acc += sign * (upper[j] - lower[j])
        out.append(acc)
    return out


def verify_counting_inequalities(counts: MorseCounts, betti) -> SlackReport:
    """Slack of the counting inequalities per degree.

    slack_k = sum_{j<=k} (-1)^{k-j} (ctilde_j - beta_j), over the degrees
    that both sequences cover, must be nonnegative for every k.
    """
    kmax = min(len(counts.tilde_c), len(betti)) - 1
    slack = _alternating_slack(counts.tilde_c, betti, kmax)
    return SlackReport(slack=slack, passed=all(sv >= 0 for sv in slack))


def verify_trace_inequalities(backend: BackendMatrices, s_probes, kmax: int,
                              trace_spec: spectral.TraceSpec,
                              betti) -> dict[float, SlackReport]:
    """Slacks of the trace inequalities at each deformation parameter.

    slack_k(s) = sum_{j<=k} (-1)^{k-j} (mu_j(s) - beta_j) with
    mu_j = tr phi(Delta_s^j) and betti the equivariant Betti numbers of
    degrees 0 to at least kmax; nonnegative for every s because the
    alternating sum telescopes to the trace of a nonnegative operator.
    Numerical tolerance: -1e-8.  Each degree j <= kmax is one
    spectral.sweep_s over the probes in ascending order, so each window
    starts from the one before; the probes must be distinct and
    nonnegative.  Returns {s: SlackReport}, in ascending s.
    """
    probes = sorted(s_probes)
    sweeps = [spectral.sweep_s(backend, k, probes, trace_spec) for k in range(kmax + 1)]
    reports = {}
    for i, sv in enumerate(probes):
        slack = _alternating_slack([sw.points[i].mu for sw in sweeps], betti, kmax)
        reports[sv] = SlackReport(slack=slack, passed=all(x >= -1e-8 for x in slack))
    return reports


def euler_characteristic_check(backend: BackendMatrices, counts: MorseCounts,
                               betti) -> dict:
    """The Euler identity beta^n - beta^{n+1} = (-1)^n chi tying kernels to
    fixed points.

    lhs is the kernel side, rhs the count side with chi the signed
    fixed-point count (orbits contribute zero; empty counts, as for the
    circle, give chi = 0), and pass is lhs == rhs.  de_rham_index is the
    same kernel difference, dim ker Delta^n - dim ker Delta^{n+1}, solved
    afresh.
    """
    n = backend.n
    chi = sum((-1) ** k * c for k, c in enumerate(counts.c))
    lhs = betti[n] - betti[n + 1]
    rhs = (-1) ** n * chi
    return {
        "lhs": int(lhs),
        "rhs": int(rhs),
        "pass": bool(lhs == rhs),
        "chi": int(chi),
        "de_rham_index": int(spectral.de_rham_index(backend)),
    }


def run_case(profile: RevolutionProfile, f: InvariantMorseFunction | None,
             s_probes, kmax: int, trace_spec: spectral.TraceSpec) -> dict:
    """Full verification of one catalog case; returns the report payload.

    kmax must be at least the dimension n, and the probes distinct,
    nonnegative and finite, else ConfigurationError before anything is
    solved.  The backend passes validate_backend, else BackendError, also
    before any solve.  s_probes may be any iterable in any order; it is
    read once.  The trace probes are one verify_trace_inequalities call,
    a warm-started sweep per degree; the report lists them in the
    caller's order.  The circle (f None, no invariant Morse function) is
    the case with no critical levels, empty counts and no probes: its
    counting check is empty, so its Betti numbers and Euler identity
    decide its status.  The trace slacks reported under 'slack_thm2' are
    those at the largest probe; per-probe values are embedded under
    'trace_slack_per_s'.
    """
    s_probes = list(s_probes)
    if len(set(s_probes)) < len(s_probes) or not all(0 <= sv < math.inf for sv in s_probes):
        raise cartan.ConfigurationError(
            f"s probes must be distinct, nonnegative and finite, got {s_probes}")
    be = build_backend(profile, f)
    validate_backend(be)
    if kmax < be.n:
        raise cartan.ConfigurationError(
            f"kmax = {kmax} is below the dimension n = {be.n} that the Euler check needs")
    betti = spectral.betti_numbers(be, kmax + 1)
    if f is None:
        levels, counts, s_probes = [], MorseCounts(c=[], d=[], tilde_c=[]), []
    else:
        levels = find_critical_levels(profile, f)
        counts = morse_counts(levels, kmax)
    counting = verify_counting_inequalities(counts, betti[:kmax + 1])
    trace = verify_trace_inequalities(be, s_probes, min(kmax, be.n + 1), trace_spec, betti)
    euler = euler_characteristic_check(be, counts, betti)
    return {
        "case": profile.name,
        "N": profile.n_grid,
        "s_probes": [float(sv) for sv in s_probes],
        "betti": [int(b) for b in betti],
        "c": counts.c,
        "d": counts.d,
        "tilde_c": counts.tilde_c,
        "slack_thm1": [float(x) for x in counting.slack],
        "slack_thm2": [float(x) for x in trace[max(s_probes)].slack] if trace else [],
        "euler": {"lhs": euler["lhs"], "rhs": euler["rhs"], "pass": euler["pass"]},
        "status": "PASS" if all([counting.passed, euler["pass"],
                                 *(rep.passed for rep in trace.values())]) else "FAIL",
        "levels": [
            {"kind": lv.kind, "theta": lv.theta, "index": lv.index,
             "value": lv.value}
            for lv in levels
        ],
        "trace_slack_per_s": {
            format(float(sv), "g"): [float(x) for x in trace[sv].slack]
            for sv in s_probes
        },
    }
