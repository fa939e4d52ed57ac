"""Running blow-up criterion functionals.

Four monitored families: the maximum-vorticity time integral, the two
scale-critical velocity/gradient families with 2/q + 3/p equal to 1 and 2,
and the anisotropic dyadic-norm integral of the horizontal gradient block
(partial_1 u1, partial_2 u1, partial_1 u2, partial_2 u2).  Each accumulator
carries a running trapezoidal integral of quantity^q and an optional alarm
threshold; finiteness of these integrals is the continuation certificate,
their growth the forensic signal.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .littlewood_paley import BesovParams, besov_norm
from .solver import BlowUpSuspected, State
from .spectral import (
    RealField,
    entry_magnitude,
    forward_transform,
    lp_norm,
    vector_magnitude,
)


class CriterionKind(str, enum.Enum):
    BKM = "BKM"
    PS_U = "PS_u"
    PS_GRAD_U = "PS_grad_u"
    BESOV_ANISO = "BESOV_ANISO"


@dataclass
class CriterionAccumulator:
    """One criterion functional: exponents, running integral, alarm state."""

    kind: CriterionKind
    p: float
    q: float
    r: float | None = None  # summation exponent, anisotropic kind only
    threshold: float | None = None
    integral: float = 0.0
    last_value: float = 0.0  # most recent instantaneous quantity
    last_integrand: float = 0.0  # quantity ** q
    peak_integrand: float = 0.0
    crossed_at: float | None = None
    primed: bool = False


def _scaling_target(kind: CriterionKind) -> float:
    """2/q + 3/p of the kind's family: 1 for PS_u, 2 otherwise (BKM is p = inf)."""
    return 1.0 if kind is CriterionKind.PS_U else 2.0


def make_accumulator(kind, p: float = math.inf, threshold: float | None = None) -> CriterionAccumulator:
    """Build an accumulator, deriving q (and r) from the kind's scaling relation.

    Admissible ranges are strict: PS_u needs 3 < p <= inf, the gradient and
    anisotropic kinds need 3/2 < p <= inf, BKM needs p = inf.
    """
    kind = CriterionKind(kind)
    p = float(p)
    if kind is CriterionKind.BKM and not math.isinf(p):
        raise ValueError(f"BKM integrates the maximum norm; p must be inf, got {p}")
    if kind is CriterionKind.PS_U and not p > 3.0:
        raise ValueError(f"PS_u requires 3 < p <= inf (strictly above 3), got p={p}")
    if not p > 1.5:
        raise ValueError(f"{kind.value} requires 3/2 < p <= inf (strictly above 3/2), got p={p}")
    q = 2.0 / (_scaling_target(kind) - 3.0 / p)
    r = 2.0 * p / 3.0 if kind is CriterionKind.BESOV_ANISO else None
    return CriterionAccumulator(kind=kind, p=p, q=q, r=r, threshold=threshold)


def scaling_defect(acc: CriterionAccumulator) -> float:
    """|2/q + 3/p - target| for the accumulator's family."""
    return abs(2.0 / acc.q + 3.0 / acc.p - _scaling_target(acc.kind))


def horizontal_block_magnitude(state: State) -> RealField:
    """Pointwise Euclidean magnitude of (d1 u1, d2 u1, d1 u2, d2 u2).

    The four entries are collapsed to one scalar before any band norm is
    taken; any fixed finite-dimensional norm here changes constants only.
    The entries are the snapshot's shared velocity-gradient samples.
    """
    return entry_magnitude(state.grid, [row[:2] for row in state.grad_u[:2]])


def instantaneous_quantity(acc: CriterionAccumulator, state: State) -> float:
    if acc.kind is CriterionKind.BKM:
        return lp_norm(state.omega_magnitude, math.inf)
    if acc.kind is CriterionKind.PS_U:
        return lp_norm(vector_magnitude(state.u), acc.p)
    if acc.kind is CriterionKind.PS_GRAD_U:
        return lp_norm(state.grad_u_magnitude, acc.p)
    block = horizontal_block_magnitude(state)
    return besov_norm(forward_transform(block), BesovParams(0.0, acc.p, acc.r))


def observe(acc: CriterionAccumulator, state: State, dt: float) -> CriterionAccumulator:
    """Update one accumulator after an accepted step.

    The first call (dt = 0 from the run loop) primes the trapezoid with the
    t = 0 integrand; later calls add dt * (previous + current) / 2 of
    quantity^q.  A non-finite quantity signals a suspected blow-up.
    """
    value = instantaneous_quantity(acc, state)
    if not math.isfinite(value):
        raise BlowUpSuspected(
            f"{acc.kind.value} integrand is non-finite at t={state.t:.6f}"
        )
    integrand = value**acc.q
    if acc.primed and dt > 0.0:
        acc.integral += 0.5 * dt * (acc.last_integrand + integrand)
    acc.last_value = value
    acc.last_integrand = integrand
    acc.peak_integrand = max(acc.peak_integrand, integrand)
    acc.primed = True
    if acc.threshold is not None and acc.crossed_at is None and acc.integral >= acc.threshold:
        acc.crossed_at = state.t
    return acc


@dataclass
class CriteriaReport:
    """Per-criterion table plus an earliest-alarm ranking."""

    rows: list[dict]
    ranking: list[str]


def jsonable(x):
    """x for json.dumps: non-finite floats become 'inf', '-inf' or 'nan'
    inside any dicts and lists; ints, None and strings pass unchanged."""
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, list):
        return [jsonable(v) for v in x]
    if isinstance(x, float):
        return float(x) if math.isfinite(x) else str(x)
    return x


def report(accs) -> CriteriaReport:
    """Summarize accumulators; rank them by earliest threshold crossing, the
    ones that never crossed last in their given order."""
    rows = [
        jsonable(
            {
                "kind": acc.kind.value,
                "p": acc.p,
                "q": acc.q,
                "r": acc.r,
                "integral": acc.integral,
                "peak_integrand": acc.peak_integrand,
                "threshold": acc.threshold,
                "crossed_at": acc.crossed_at,
            }
        )
        for acc in accs
    ]
    crossers = sorted(
        (acc for acc in accs if acc.crossed_at is not None), key=lambda a: a.crossed_at
    )
    ranking = [acc.kind.value for acc in crossers]
    ranking += [acc.kind.value for acc in accs if acc.crossed_at is None]
    return CriteriaReport(rows=rows, ranking=ranking)
