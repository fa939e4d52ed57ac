"""Time integration of the coupled velocity / charge-transport system.

State is (u, v, w): an incompressible velocity field forced by the Coulomb
term laplacian(psi) * grad(psi), and two advected-diffused charge densities
drifting along the self-consistent electric field, closed by the periodic
Poisson solve laplacian(psi) = v - w.  All physical coefficients are one.

Stepping is an integrating-factor scheme: the stiff diffusion is integrated
exactly by exp(-|k|^2 dt) on coefficients, the nonlinear and coupling terms
by a third-order explicit Runge-Kutta (Kutta's tableau, written so that only
decaying exponential factors appear).

The run loop steps one snapshot (a `State`) at a time.  Hooks receive that
snapshot; its coefficients and derived fields are computed on first use,
once, and shared by every hook and by the next step, so hooks must treat
them as read-only.  When the hooks return, the run drops the fields that
only observers read.  The arrays the next step reuses (samples, coefficients,
grad psi) and the power arrays the observers' norms share are flagged
read-only, and writing into them raises.

A snapshot's coefficients are forward transforms of real samples, or the
run's dealiased arithmetic on them, so their inverse transforms go through
`_samples_from_coeffs`, without `backward_transform`'s Hermitian check.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import (
    ChargeNeutralityError,
    Grid,
    NEUTRALITY_TOL,
    NonFiniteFieldError,
    RealField,
    SpectralField,
    VectorField,
    _coeffs_from_samples,
    _leray_coeffs,
    _samples_from_coeffs,
    curl,
    divergence,
    entry_magnitude,
    forward_transform,
    power_sum,
    sobolev_weights,
    solve_poisson,
    spectral_power,
    vector_magnitude,
)

DIVERGENCE_TOL = 1e-9
MEAN_DRIFT_TOL = 1e-10


class BlowUpSuspected(RuntimeError):
    """The run can no longer continue: non-finite state or collapsed time step."""


class InvariantViolation(RuntimeError):
    """A structural invariant of the evolution failed."""


class RunStatus(str, enum.Enum):
    COMPLETED = "completed"
    BLOW_UP_SUSPECTED = "blow_up_suspected"
    INVARIANT_VIOLATION = "invariant_violation"


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _readonly(arrays):
    for a in arrays:
        _frozen(a)
    return arrays


@dataclass
class State:
    """Solution snapshot: velocity u, charge densities v and w, clock.

    Coefficients and derived fields are computed on first use and cached.
    A state the run materializes carries the run's coefficient arrays, its
    samples are their inverse transforms, and its samples are read-only;
    any other state's coefficients are the forward transforms of its
    samples, each made when first asked for.  Coefficient, power and grad
    psi arrays are always read-only.
    """

    u: VectorField
    v: RealField
    w: RealField
    t: float = 0.0
    step_index: int = 0
    _coeffs: tuple | None = field(default=None, repr=False)

    @property
    def grid(self) -> Grid:
        return self.u.grid

    @property
    def samples(self) -> tuple:
        return (*(c.samples for c in self.u.components), self.v.samples, self.w.samples)

    @cached_property
    def _transforms(self) -> list:
        """A user state's coefficient arrays by field, each made on first use."""
        return [None] * 5

    def _field_coeffs(self, i: int) -> np.ndarray:
        """Coefficients of field i of (ux, uy, uz, v, w)."""
        if self._coeffs is not None:
            return self._coeffs[i]
        made = self._transforms
        if made[i] is None:
            fields = (*self.u.components, self.v, self.w)
            made[i] = _frozen(forward_transform(fields[i]).coeffs)
        return made[i]

    @property
    def coeffs(self) -> tuple:
        """The (ux, uy, uz, v, w) coefficient arrays (read-only)."""
        return tuple(self._field_coeffs(i) for i in range(5))

    @cached_property
    def u_hat(self) -> VectorField:
        g = self.grid
        return VectorField(*(SpectralField(g, self._field_coeffs(i)) for i in range(3)))

    @property
    def v_hat(self) -> SpectralField:
        return SpectralField(self.grid, self._field_coeffs(3))

    @property
    def w_hat(self) -> SpectralField:
        return SpectralField(self.grid, self._field_coeffs(4))

    @cached_property
    def psi_hat(self) -> SpectralField:
        return solve_poisson(
            SpectralField(self.grid, self._field_coeffs(3) - self._field_coeffs(4))
        )

    @cached_property
    def u_power(self) -> tuple:
        """Full-lattice power (`spectral_power`) of each velocity component."""
        return _readonly(tuple(spectral_power(c) for c in self.u_hat.components))

    @cached_property
    def v_power(self) -> np.ndarray:
        return _frozen(spectral_power(self.v_hat))

    @cached_property
    def w_power(self) -> np.ndarray:
        return _frozen(spectral_power(self.w_hat))

    @cached_property
    def psi_power(self) -> np.ndarray:
        return _frozen(spectral_power(self.psi_hat))

    @cached_property
    def u_h3_norm(self) -> float:
        """||u||_H3, from the velocity power: the root of the summed squares
        of the components' norms, each the root `sobolev_norm` takes."""
        weights = sobolev_weights(self.grid, 3.0)
        return math.sqrt(sum(math.sqrt(power_sum(p, weights)) ** 2 for p in self.u_power))

    @cached_property
    def psi(self) -> RealField:
        return RealField(self.grid, _samples_from_coeffs(self.grid, self.psi_hat.coeffs))

    @cached_property
    def omega(self) -> VectorField:
        return VectorField(*(RealField(self.grid, _samples_from_coeffs(self.grid, c.coeffs))
                             for c in curl(self.u_hat).components))

    @cached_property
    def omega_magnitude(self) -> RealField:
        """Pointwise magnitude of the vorticity."""
        return vector_magnitude(self.omega)

    @cached_property
    def zeta(self) -> RealField:
        return RealField(self.grid, self.v.samples + self.w.samples)

    @cached_property
    def eta(self) -> RealField:
        return RealField(self.grid, self.v.samples - self.w.samples)

    @cached_property
    def grad_psi(self) -> list | None:
        """Samples of the three components of grad psi (read-only); None
        when both charge densities vanish."""
        if not (self._field_coeffs(3).any() or self._field_coeffs(4).any()):
            return None
        return _readonly(_gradient_samples(self.grid, self.psi_hat.coeffs))

    @cached_property
    def grad_u(self) -> list:
        """Samples of the velocity gradient, d_j u_i as grad_u[i][j]."""
        return [_gradient_samples(self.grid, c.coeffs) for c in self.u_hat.components]

    @cached_property
    def grad_u_magnitude(self) -> RealField:
        """Pointwise Frobenius magnitude of the velocity gradient."""
        return entry_magnitude(self.grid, self.grad_u)

    def _release(self, keep=()):
        """Drop the fields computed on first use, except those named in keep;
        asking again recomputes them."""
        for name, attr in vars(State).items():
            if isinstance(attr, cached_property) and name not in keep:
                self.__dict__.pop(name, None)


@dataclass
class StepControl:
    """Time-step policy: base step dt, Courant factor, horizon, abort floor."""

    dt: float = 5e-4
    cfl: float = 0.4
    t_end: float = 1.0
    dt_min: float = 1e-10

    def __post_init__(self):
        broken = self.violations(self.dt, self.cfl, self.t_end, self.dt_min)
        if broken:
            raise ValueError(broken[0])

    @staticmethod
    def violations(dt, cfl, t_end, dt_min) -> list[str]:
        """The step rules these values break, each as a message."""
        broken = []
        if not dt > 0:
            broken.append(f"dt must be positive, got {dt}")
        elif not 0 < dt_min <= dt:
            broken.append(f"need 0 < dt_min <= dt, got dt_min={dt_min}, dt={dt}")
        if not 0 < cfl < 1:
            broken.append(f"cfl must lie strictly between 0 and 1, got {cfl}")
        if not 0 <= t_end < math.inf:
            broken.append(f"t_end must be nonnegative and finite, got {t_end}")
        return broken


@dataclass
class RunReport:
    """Outcome of a run: termination status, checksum, wall-clock stats."""

    status: RunStatus
    steps: int
    t_final: float
    state_checksum: str
    wall_seconds: float
    diagnostic: str | None = None
    final_state: State | None = field(default=None, repr=False)


def derive(state: State) -> State:
    """The snapshot of state's samples, with coefficients from their forward
    transforms: state itself unless the run materialized it."""
    if state._coeffs is None:
        return state
    return State(state.u, state.v, state.w, state.t, state.step_index)


def _diffusion_factors(grid: Grid, dt: float):
    """exp(-|k|^2 dt), its half-step companion, and the multiples of them the
    RK3 stage sums use (-e_full, 2 e_half, 4 e_half; exact, so each product
    equals the one formed inline), kept on the grid for the last dt."""
    dt = float(dt)
    entry = grid.tables.get("diffusion")
    if entry is None or entry[0] != dt:
        e_full = np.exp(-grid.k2 * dt)
        e_half = np.exp(-grid.k2 * (0.5 * dt))
        entry = grid.tables["diffusion"] = (
            dt, e_full, e_half, -e_full, 2.0 * e_half, 4.0 * e_half
        )
    return entry[1:]


def _gradient_samples(grid: Grid, coeffs: np.ndarray, work=None) -> list:
    """Samples of the gradient of the field with coefficients coeffs; work is
    a spectral-shape array to form i*k*coeffs in (allocated when not given)."""
    if work is None:
        work = np.empty_like(coeffs)
    return [
        _samples_from_coeffs(grid, np.multiply(1j * kk, coeffs, out=work))
        for kk in (grid.kx, grid.ky, grid.kz)
    ]


class _Work:
    """Work arrays that one run reuses in every RK stage of every step.

    Allocating them once per run, not once per stage, keeps freed
    multi-megabyte blocks from going back to the system and being faulted
    in again as fresh pages (at 64^3, 8,700 instead of 18,000 minor page
    faults per step).
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.real = [np.empty((grid.n,) * 3) for _ in range(2)]
        self.spectral = [np.empty(grid.spectral_shape, dtype=complex) for _ in range(2)]

    @cached_property
    def stages(self) -> tuple:
        """Two sets of five coefficient arrays: the input of RK stage 2 and
        then its right-hand side, and the same for stage 3."""
        shape = self.grid.spectral_shape
        return tuple([np.empty(shape, dtype=complex) for _ in range(5)] for _ in range(2))

    @cached_property
    def zeros(self) -> tuple:
        """One zero sample array and one zero coefficient array: v and w,
        each time, of every uncharged snapshot of the run (which flags them
        read-only)."""
        return np.zeros((self.grid.n,) * 3), np.zeros(self.grid.spectral_shape, dtype=complex)


def _finish_divergence(grid: Grid, a: np.ndarray) -> np.ndarray:
    """-1j * a * mask, in place: the last two factors of a divergence term."""
    np.multiply(-1j, a, out=a)
    return np.multiply(a, grid.dealias_mask, out=a)


def _nonlinear(grid: Grid, c, work: _Work, samples=None, dpsi=None, out=None):
    """Dealiased nonlinear + coupling right-hand sides on raw coefficients.

    c = (ux, uy, uz, v, w) coefficient arrays, or (ux, uy, uz) alone for an
    uncharged flow (v = w = 0, which the charge equations keep exactly
    zero).  Returns the same layout, in the arrays of out (new arrays when
    not given): the projected momentum terms P[-(u.grad)u + lap(psi)
    grad(psi)] and the divergence-form charge fluxes; diffusion is left to
    the integrator.
    samples (the inverse transforms of c) and dpsi (the samples of grad
    psi) are computed here unless given; stage 1 takes them from the
    snapshot.  c is read before out is first written, so out may be c.
    work holds the scratch arrays.

    The momentum terms are evaluated through the flux tensor
    u_i u_j - d_i(psi) d_j(psi): with div u = 0 its negative divergence
    differs from -(u.grad)u + lap(psi) grad(psi) by a pure gradient, which
    the projection annihilates exactly.

    Each term is -1j*(kx*F_x + ky*F_y + kz*F_z)*mask over transformed fluxes
    F, accumulated in place with that expression's operations and operand
    order, so the result is bitwise the expression's.
    """
    kvec = (grid.kx, grid.ky, grid.kz)
    prod, rwork = work.real
    cwork = work.spectral[0]

    charged = len(c) == 5
    if samples is None:
        samples = [_samples_from_coeffs(grid, a) for a in c]
    u = samples[:3]
    if charged:
        v, w = samples[3], samples[4]
        if dpsi is None:
            eta = SpectralField(grid, np.subtract(c[3], c[4], out=work.spectral[1]))
            dpsi = _gradient_samples(grid, solve_poisson(eta).coeffs, cwork)
    if out is None:
        out = [np.empty_like(a) for a in c]

    def product(i, j):
        """u_i u_j - d_i(psi) d_j(psi), in prod."""
        np.multiply(u[i], u[j], out=prod)
        if charged:
            np.subtract(prod, np.multiply(dpsi[i], dpsi[j], out=rwork), out=prod)
        return prod

    def add_term(total, d, f):
        """total = kx*f for d = 0, else total += k_d*f: a divergence sum in order."""
        if d == 0:
            np.multiply(kvec[0], f, out=total)
        else:
            total += np.multiply(kvec[d], f, out=cwork)

    # Row i of the momentum divergence sums k_j * F[i,j] over j; each flux
    # F[i,j] = F[j,i] is transformed once and added to both rows that use it.
    nu = out[:3]
    for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        f = _coeffs_from_samples(grid, product(i, j))
        add_term(nu[i], j, f)
        if i != j:
            add_term(nu[j], i, f)
    del f
    _leray_coeffs(grid, *(_finish_divergence(grid, a) for a in nu), work.spectral)

    if not charged:
        return tuple(out)

    # Charges in divergence form (exact mean conservation): the drift carries
    # v down and w up the potential gradient, flux u_d q +- q d_d(psi).
    for q, drift, total in ((v, np.add, out[3]), (w, np.subtract, out[4])):
        for d in range(3):
            np.multiply(u[d], q, out=prod)
            drift(prod, np.multiply(q, dpsi[d], out=rwork), out=prod)
            add_term(total, d, _coeffs_from_samples(grid, prod))
        _finish_divergence(grid, total)
    return tuple(out)


def nonlinear_rhs(state: State) -> tuple[VectorField, RealField, RealField]:
    """Right-hand sides with diffusion excluded, in samples: the projected
    momentum terms, then the advection + drift terms of v and of w."""
    g = state.grid
    rhs = [RealField(g, _samples_from_coeffs(g, a)) for a in _nonlinear(g, state.coeffs, _Work(g))]
    return VectorField(*rhs[:3]), rhs[3], rhs[4]


def _check_finite_state(state: State, error: type, prefix: str = ""):
    """Raise error, its message led by prefix, at the first non-finite field."""
    for name, f in (("u.x", state.u.x), ("u.y", state.u.y), ("u.z", state.u.z),
                    ("v", state.v), ("w", state.w)):
        if not np.isfinite(f.samples).all():
            raise error(
                f"{prefix}non-finite values in field {name} at t={state.t:.6f} "
                f"(step {state.step_index})"
            )


def _max_magnitude(components) -> float:
    """Pointwise-Euclidean maximum of a 3-component field, overflow-safe.

    Components are rescaled by their largest entry before squaring, so
    finite inputs near the float ceiling still yield a finite speed.
    """
    scale = max(max(float(a.max()), -float(a.min())) for a in components)
    if scale == 0.0 or not np.isfinite(scale):
        return abs(scale)  # the maximum of a.max() and -a.min() can be -0.0 or -NaN
    # sum((a / scale) ** 2) in two arrays: the sum starts from the first
    # square (0 + x is x, bit for bit, for every square x).
    first, *rest = components
    sq = np.divide(first, scale)
    np.square(sq, out=sq)
    tmp = np.empty_like(sq)
    for a in rest:
        sq += np.square(np.divide(a, scale, out=tmp), out=tmp)
    return scale * float(np.sqrt(sq.max()))


def max_advection_speed(state: State) -> float:
    """max |u| + max |grad psi|: the effective transport speed for the CFL bound."""
    speed = _max_magnitude([c.samples for c in state.u.components])
    dpsi = state.grad_psi
    return speed + (0.0 if dpsi is None else _max_magnitude(dpsi))


def cfl_limit(state: State, cfl: float) -> float:
    """Largest admissible dt at this state; inf when nothing moves."""
    speed = max_advection_speed(state)
    if speed <= 0.0:
        return np.inf
    return cfl * state.grid.spacing / speed


def _advance(grid: Grid, c0, f1, dt: float, work: _Work):
    """One integrating-factor RK3 step on coefficient arrays; f1 is stage 1.

    c0 holds five arrays, or the three velocity arrays of an uncharged flow;
    as many are carried.

    The stage sums are evaluated in place, with the operations and operand
    order of

        s2 = e_half * (c0 + 0.5*dt * f1)
        s3 = e_full * c0 + dt * (-e_full * f1 + 2*e_half * f2)
        c1 = e_full * c0 + dt/6 * (e_full * f1 + 4*e_half * f2 + f3)

    so the result is bitwise theirs.  Each stage's right-hand side
    overwrites its input in work.stages, and c1 overwrites f1, so f1 is
    consumed; c0 is only read.
    """
    e_full, e_half, neg_e_full, two_e_half, four_e_half = _diffusion_factors(grid, dt)
    s2, s3 = (s[: len(c0)] for s in work.stages)
    tmp = work.spectral[0]

    half_dt = 0.5 * dt
    for a, fa, s in zip(c0, f1, s2):
        np.multiply(half_dt, fa, out=s)
        np.add(a, s, out=s)
        np.multiply(e_half, s, out=s)
    f2 = _nonlinear(grid, s2, work, out=s2)

    for a, fa, fb, s in zip(c0, f1, f2, s3):
        np.multiply(neg_e_full, fa, out=s)
        s += np.multiply(two_e_half, fb, out=tmp)
        np.multiply(dt, s, out=s)
        np.add(np.multiply(e_full, a, out=tmp), s, out=s)
    f3 = _nonlinear(grid, s3, work, out=s3)

    c1 = f1
    for a, fa, fb, fc in zip(c0, c1, f2, f3):
        np.multiply(e_full, fa, out=fa)
        fa += np.multiply(four_e_half, fb, out=tmp)
        fa += fc
        np.multiply(dt / 6.0, fa, out=fa)
        np.add(np.multiply(e_full, a, out=tmp), fa, out=fa)

    # Re-project and re-mask against roundoff drift.
    _leray_coeffs(grid, *c1[:3], work.spectral)
    for a in c1:
        np.multiply(a, grid.dealias_mask, out=a)
    return tuple(c1)


def _materialize(grid: Grid, c, t: float, step_index: int, work: _Work) -> State:
    """The snapshot of coefficient arrays c; given only the three velocity
    arrays, v and w share the run's read-only zeros."""
    samples = [_samples_from_coeffs(grid, a) for a in c]
    if len(c) == 3:
        zero_samples, zero_coeffs = work.zeros
        samples += [zero_samples] * 2
        c = (*c, zero_coeffs, zero_coeffs)
    u = VectorField(*(RealField(grid, a) for a in samples[:3]))
    v, w = (RealField(grid, a) for a in samples[3:])
    state = State(u=u, v=v, w=w, t=t, step_index=step_index, _coeffs=_readonly(c))
    _readonly(state.samples)
    return state


def _step(state: State, control: StepControl, work: _Work) -> State:
    """Shared stepping core.

    Stage 1 does not depend on dt, so it runs first, on the snapshot's
    samples and grad psi; the CFL bound then reads the same arrays.  With
    no charge (grad psi is None) only the three velocity arrays are
    carried: the charge equations are linear and homogeneous in (v, w), so
    zero charges stay exactly zero.
    """
    grid = state.grid
    dpsi = state.grad_psi
    c0 = state.coeffs if dpsi is not None else state.coeffs[:3]
    samples = state.samples if state._coeffs is not None else None
    f1 = _nonlinear(grid, c0, work, samples, dpsi)
    dt_stab = cfl_limit(state, control.cfl)
    dt = min(control.dt, dt_stab)
    if dt < control.dt_min:
        raise BlowUpSuspected(
            f"time step collapsed: CFL limit {dt_stab:.3e} fell below "
            f"dt_min {control.dt_min:.3e} at t={state.t:.6f}"
        )
    remaining = control.t_end - state.t
    if 0.0 < remaining < dt:
        dt = remaining

    new = _materialize(
        grid, _advance(grid, c0, f1, dt, work), state.t + dt, state.step_index + 1, work
    )
    _check_finite_state(new, BlowUpSuspected, "step produced a non-finite state: ")
    return new


def step(state: State, control: StepControl) -> State:
    """Advance one time step.

    dt is the base step clamped by the CFL bound and the remaining horizon;
    a CFL clamp below dt_min, or a non-finite result, aborts the run as a
    suspected blow-up.
    """
    _check_finite_state(state, BlowUpSuspected)
    return _step(state, control, _Work(state.grid))


def validate_initial_state(state: State):
    """Invariants required at the start of a run; raises InvariantViolation."""
    _check_finite_state(state, InvariantViolation)
    div = float(np.abs(_samples_from_coeffs(state.grid, divergence(state.u_hat).coeffs)).max())
    if div > DIVERGENCE_TOL:
        raise InvariantViolation(
            f"initial velocity is not divergence-free: max |div u| = {div:.3e}"
        )
    mean_eta = float(np.mean(state.v.samples) - np.mean(state.w.samples))
    if abs(mean_eta) > NEUTRALITY_TOL:
        raise InvariantViolation(
            f"initial charges are not neutral: mean(v - w) = {mean_eta:.3e}"
        )


def run(state0: State, control: StepControl, hooks=()) -> RunReport:
    """Advance to t_end, invoking each hook after every accepted step.

    Hooks are callables (state, derived, dt); they are also invoked once on
    the initial state with dt = 0 so time-integral accumulators can record
    the t = 0 integrand.  derived is state again (observers take state
    alone).  Its fields are computed on first use, shared by all hooks and
    the next step, and read-only; once the hooks of a snapshot the run
    made return, the run drops every field the next step does not read.
    A hook raising BlowUpSuspected or InvariantViolation ends the run with
    that status, its message the diagnostic; a NonFiniteFieldError (a
    non-finite field a hook transformed) counts as a suspected blow-up.
    """
    from .checkpoint import state_checksum

    t0 = time.monotonic()
    status = RunStatus.COMPLETED
    diagnostic = None
    s = state0
    steps = 0
    work = _Work(state0.grid)

    try:
        validate_initial_state(s)
        # A user state transforms each field when first asked; step 1 asks
        # for all five, so they are transformed here, in set-up.
        s.coeffs
        mean_v0 = float(np.mean(s.v.samples))
        mean_w0 = float(np.mean(s.w.samples))
        for hook in hooks:
            hook(s, s, 0.0)

        while s.t < control.t_end - 1e-12 * max(1.0, control.t_end):
            t_prev = s.t
            s = _step(s, control, work)
            if steps == 0:
                state0._release()  # the caller keeps state0; step 1 was its last use
            steps += 1
            _check_run_invariants(s, mean_v0, mean_w0)
            dt_used = s.t - t_prev
            for hook in hooks:
                hook(s, s, dt_used)
            # Of its cached fields the next step reads grad psi alone; the
            # step's arrays reuse the memory of the others.
            s._release(keep=("grad_psi",))
    except (BlowUpSuspected, NonFiniteFieldError) as exc:
        status, diagnostic = RunStatus.BLOW_UP_SUSPECTED, str(exc)
    except (InvariantViolation, ChargeNeutralityError) as exc:
        status, diagnostic = RunStatus.INVARIANT_VIOLATION, str(exc)

    return RunReport(
        status=status,
        steps=steps,
        t_final=s.t,
        state_checksum=state_checksum(s),
        wall_seconds=time.monotonic() - t0,
        diagnostic=diagnostic,
        final_state=s,
    )


def _check_run_invariants(state: State, mean_v0: float, mean_w0: float):
    coeffs = state.coeffs
    div = float(np.abs(_samples_from_coeffs(state.grid, divergence(state.u_hat).coeffs)).max())
    if div > DIVERGENCE_TOL:
        raise InvariantViolation(
            f"divergence invariant failed at t={state.t:.6f}: max |div u| = {div:.3e}"
        )
    for name, c, mean0 in (("v", coeffs[3], mean_v0), ("w", coeffs[4], mean_w0)):
        drift = abs(float(c[0, 0, 0].real) - mean0)
        if drift > MEAN_DRIFT_TOL * max(1.0, abs(mean0)):
            raise InvariantViolation(
                f"mean of {name} drifted by {drift:.3e} at t={state.t:.6f}"
            )
