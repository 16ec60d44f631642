"""Certified lower/upper bounds on stationary expectations.

Everything here works over one truncated system.  Writing y for the row
solve nu (I - B)^{-1}, the cycle-based quantities are

    lower:   kappa_lo(r) = r(z) + y . r,      kappa_lo(e) = 1 + y . e
    delta  = min over K' of ((I - B)^{-1} p)
    beta   = P(z, z) + y . p
    Delta1 = y . h1 + h1(z) + ((1 - beta)/delta) * max_{K'} (I - B)^{-1}(r + h1)
    Delta2 = analogously with (e, h2)
    upper:   kappa_hi = kappa_lo + Delta

and the certified interval for the stationary expectation is
[kappa_lo(r)/kappa_hi(e), kappa_hi(r)/kappa_lo(e)], which also contains
the truncation estimate kappa_lo(r)/kappa_lo(e).

The h(z) terms account for one-step escape from the regeneration state
itself (mass P(z, A^c) does not appear in the entry row nu, but the
reward it accrues before re-entering K is still part of the cycle).  They
vanish for any model whose z cannot leave A in one step.

When K = {z} there are no post-excursion restart states: every return to
K ends the cycle, so the correction term is empty and delta is reported
as 1 by convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .chain import (
    StateIndex,
    TruncationProblem,
    as_state_array,
    member_mask,
    one_step_fringe,
    reward_values,
)
from .models import LyapunovCertificate
from .solver import (
    SolverOptions,
    TruncatedSystem,
    assemble_truncated_system,
    expected_g_rows,
    solve,
    solve_transpose,
)

#: relative slack of the drift audit's inequalities
DRIFT_REL_SLACK = 1e-12


class DegenerateDeltaError(RuntimeError):
    """delta is numerically indistinguishable from zero, so the excursion
    correction (1 - beta)/delta is unusable."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@dataclass(frozen=True)
class BoundReport:
    """All certified quantities for one (chain, A, z, K, r) problem."""

    pi_tilde_r: float
    kappa_lower_r: float
    kappa_lower_e: float
    kappa_upper_r: float
    kappa_upper_e: float
    delta: float
    beta: float
    Delta1: float
    Delta2: float
    interval: tuple[float, float]
    error_bound: float
    tv_bound: float


@dataclass(frozen=True)
class DriftViolation:
    state: int
    kind: str        # "g1" | "g2"
    lhs: float
    rhs: float


@dataclass
class DriftReport:
    """Pointwise drift-inequality audit over a finite window."""

    checked_states: list[int] = field(default_factory=list)
    excluded_states: list[int] = field(default_factory=list)
    violations: list[DriftViolation] = field(default_factory=list)
    max_slack: float = 0.0
    min_slack: float = np.inf

    @property
    def passed(self) -> bool:
        return not self.violations


def compute_pi_tilde(system: TruncatedSystem) -> np.ndarray:
    """Truncation approximation to the stationary vector, indexed by A_full.

    pi(x) = y(x) / (1 + y . e) for x in A' and pi(z) = 1 / (1 + y . e);
    states outside A carry zero mass.  Sums to one by construction.
    """
    y = solve_transpose(system).x
    denom = 1.0 + float(y.sum())
    pi = np.empty(system.A_full.size)
    z_pos = int(np.searchsorted(system.A_full, system.z))
    mask = np.ones(system.A_full.size, dtype=bool)
    mask[z_pos] = False
    pi[mask] = y / denom
    pi[z_pos] = 1.0 / denom
    return pi


def _clamp_unit(value: float, name: str, tol: float) -> float:
    if value < -10.0 * tol or value > 1.0 + 10.0 * tol:
        raise PipelineError(f"{name}={value!r} outside [0, 1] beyond tolerance; "
                           "system looks mis-assembled")
    return min(max(value, 0.0), 1.0)


def compute_error_bound(kappa_lower_r: float, kappa_lower_e: float,
                        kappa_upper_e: float, Delta1: float, Delta2: float) -> float:
    """Bound on |pi r - pi_tilde r| from the kappa gaps Delta_i."""
    if min(Delta1, Delta2) < 0:
        raise ValueError("Delta terms must be non-negative")
    num = kappa_lower_r * Delta2 + kappa_lower_e * Delta1 + Delta1 * Delta2
    return num / (kappa_lower_e * kappa_upper_e)


def compute_tv_bound(error_bound: float) -> float:
    """r-weighted total-variation bound: twice the expectation error bound."""
    if error_bound < 0:
        raise ValueError("error bound must be non-negative")
    return 2.0 * error_bound


def run_pipeline(problem: TruncationProblem,
                 certificate: LyapunovCertificate,
                 options: SolverOptions | None = None) -> BoundReport:
    """Assemble and run the full bound computation for one problem.

    Exactly four linear solves are performed against one shared
    factorization: the transpose solve for y plus columns for p,
    r + h1 and e + h2.  All lower-bound quantities are inner products
    against y.
    """
    opts = options or SolverOptions()

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise PipelineError(f"stage '{name}' failed: {exc}") from exc

    system = stage("assemble", assemble_truncated_system, problem, certificate)
    y = stage("transpose_solve", solve_transpose, system, opts.tol).x
    kappa_lower_r = system.r_z + float(y @ system.r_vec)
    kappa_lower_e = 1.0 + float(y.sum())
    pi_tilde_r = kappa_lower_r / kappa_lower_e

    # K' = K - {z}; TruncationProblem has already checked z in K and K in A
    kp = system.positions(problem.K[problem.K != problem.z])
    beta = _clamp_unit(system.P_zz + float(y @ system.p), "beta", opts.tol)
    corr1 = corr2 = 0.0
    if kp.size == 0:
        delta = 1.0
    else:
        u_p = stage("delta_solve", solve, system, system.p, opts.tol).x
        delta = float(u_p[kp].min())
        if delta <= 10.0 * opts.tol:
            raise DegenerateDeltaError(
                f"delta={delta:.3e} <= 10*tol={10 * opts.tol:.1e}; enlarge A or shrink K")
        delta = _clamp_unit(delta, "delta", opts.tol)
        u1 = stage("upper_solves", solve, system, system.r_vec + system.h1, opts.tol).x
        u2 = stage("upper_solves", solve, system, np.ones(system.size) + system.h2,
                   opts.tol).x
        amp = max(0.0, 1.0 - beta) / delta
        corr1 = amp * float(u1[kp].max())
        corr2 = amp * float(u2[kp].max())
    Delta1 = float(y @ system.h1) + system.h1_z + corr1
    Delta2 = float(y @ system.h2) + system.h2_z + corr2

    kappa_upper_r = kappa_lower_r + Delta1
    kappa_upper_e = kappa_lower_e + Delta2
    error_bound = compute_error_bound(kappa_lower_r, kappa_lower_e,
                                      kappa_upper_e, Delta1, Delta2)
    return BoundReport(
        pi_tilde_r=pi_tilde_r,
        kappa_lower_r=kappa_lower_r,
        kappa_lower_e=kappa_lower_e,
        kappa_upper_r=kappa_upper_r,
        kappa_upper_e=kappa_upper_e,
        delta=delta,
        beta=beta,
        Delta1=Delta1,
        Delta2=Delta2,
        interval=(kappa_lower_r / kappa_upper_e, kappa_upper_r / kappa_lower_e),
        error_bound=error_bound,
        tv_bound=compute_tv_bound(error_bound),
    )


def verify_lyapunov_drift(problem: TruncationProblem,
                          certificate: LyapunovCertificate,
                          check_window: Iterable[StateIndex] | None = None
                          ) -> DriftReport:
    """Audit the drift inequalities pointwise over a finite window.

    For each window state x outside K the two inequalities

        sum_{y not in K} P(x, y) g1(y) <= g1(x) - r(x)
        sum_{y not in K} P(x, y) g2(y) <= g2(x) - 1

    are evaluated exactly from the finite-support row of x, read through
    ``chain.row_chunks`` like the rows of an assembly, with g and r
    evaluated on whole chunks; each left-hand side is ``expected_g_rows``
    of the row's entries outside K, summed left to right along the row.
    States inside K are excluded (the inequalities are only required on
    K^c).

    The window check is necessarily finite; whether the inequalities hold
    on all of K^c remains the certificate supplier's analytic obligation.
    ``DRIFT_REL_SLACK`` absorbs roundoff for certificates that are tight
    by construction.
    """
    chain, A, K = problem.chain, problem.A, problem.K
    if check_window is None:
        fringe = np.fromiter(one_step_fringe(chain, A), dtype=np.int64)
        states = np.union1d(A, fringe)
    else:
        states = as_state_array(check_window)
    report = DriftReport()
    in_K = member_mask(states, K)
    report.excluded_states = states[in_K].tolist()
    states = states[~in_K]
    for _, xs, indptr, targets, probs in chain.row_chunks(states):
        keep = ~member_mask(targets, K)
        counts = np.bincount(np.repeat(np.arange(xs.size), np.diff(indptr))[keep],
                             minlength=xs.size)
        _, lhs1, lhs2 = expected_g_rows(certificate, counts, targets[keep], probs[keep])
        g1 = reward_values(certificate.g1, xs, "g1")
        g2 = reward_values(certificate.g2, xs, "g2")
        found = []
        for kind, lhs, rhs in (("g1", lhs1, g1 - problem.rewards(xs)),
                               ("g2", lhs2, g2 - 1.0)):
            slack = rhs - lhs
            report.max_slack = max(report.max_slack, float(slack.max()))
            report.min_slack = min(report.min_slack, float(slack.min()))
            bad = np.flatnonzero(lhs > rhs + DRIFT_REL_SLACK * (1.0 + np.abs(rhs)))
            found += [(i, kind, DriftViolation(int(xs[i]), kind, float(lhs[i]), float(rhs[i])))
                      for i in bad.tolist()]
        # state order, and g1 before g2 at one state
        report.violations += [v for _, _, v in sorted(found, key=lambda f: f[:2])]
        report.checked_states.extend(xs.tolist())
    return report
