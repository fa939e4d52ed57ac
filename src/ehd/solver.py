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
snapshot; its derived fields are computed on first use, once, and shared by
every hook and by the next step, so hooks must treat them as read-only.
A snapshot's cached fields are dropped once its hooks have returned and the
next step has read it.  The arrays the next step reuses (samples,
coefficients, grad psi) and the power arrays the observers' norms share are
flagged read-only, and writing into them raises.  The observers' |omega|
and |grad u| are streamed from the coefficients (`_streamed_magnitudes`):
omega and grad u themselves are made only for a caller that asks.

A snapshot's coefficients are forward transforms of real samples, or the
run's dealiased arithmetic on them, so their inverse transforms go through
`_samples_from_coeffs`, without `backward_transform`'s Hermitian check.

A snapshot's coefficients and powers live on the dealiased block
(`Grid.block`), the one spectral layout: a snapshot the run makes carries
five block arrays, copied from the step's result, which the next step
reads, and a user state makes each once, by the pruned forward transform
of its samples; `u_hat`, `v_hat`, `w_hat` and `psi_hat` hold those arrays.
Every transform computes only the lines that reach or leave the block,
in a half-spectrum work array: a step's in that of its thread (`_Work`),
an observer's in one the field makes.  A step's flux forwards write every
plane of theirs, so each inverse zeroes its array whole before it
scatters the block.

A run's step context is one `_Work`: the grid, the work arrays and the
run's one worker thread, where a second core pays (`_lanes_pay`).  Block
arrays become samples in `_materialize` alone (RK stages 2 and 3, stage 1
of a user state, each new snapshot): the lane makes those of w and, when
asked, of grad psi, into arrays the stepping thread allocates before it
forks the lane, and the stepping thread makes those of u and v.  A charged
right-hand side then forks the lane for the charge terms beside the
momentum terms.  The lane is the worker, with work arrays of its own, for
a charged step at 64^3 or more; otherwise each task runs after the
stepping thread's part, and from 32^3 up the worker takes the step lane
instead: `run` hands it step k + 1 while the calling thread runs the hooks
of snapshot k.  Each output keeps its serial operations, so the bits do
not depend on the lanes.  Every task has joined before the function that
forked it returns or raises, so hooks run on the calling thread, and no
thread outlives `run`.
"""

from __future__ import annotations

import contextvars
import enum
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
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
    _add_term,
    _coeffs_from_samples,
    _curl_coeffs,
    _gradient_blocks,
    _k_dot,
    _leray_coeffs,
    _poisson_coeffs,
    _samples_from_coeffs,
    _streamed_magnitudes,
    _zero_coeffs,
    forward_transform,
    power_sum,
    sobolev_weights,
    spectral_power,
)

DIVERGENCE_TOL = 1e-9
MEAN_DRIFT_TOL = 1e-10
# RK3's stability interval on the negative real axis is about [-2.51, 0].
# The charges relax at a rate up to max v + max w (drift along grad psi,
# with laplacian(psi) = v - w), so dt * (max v + max w) must stay inside it.
RK3_REAL_STABILITY = 2.51
# -i, the factor of each right-hand side's k.F sum: its real part is +0, not
# the literal -1j's -0, so a zero sum gives +0 and zero charges stay +0.
_MINUS_I = complex(0.0, -1.0)


class BlowUpSuspected(RuntimeError):
    """The run can no longer continue: non-finite state or collapsed time step."""


class InvariantViolation(RuntimeError):
    """A structural invariant of the evolution failed."""


class RunStatus(str, enum.Enum):
    COMPLETED = "completed"
    BLOW_UP_SUSPECTED = "blow_up_suspected"
    INVARIANT_VIOLATION = "invariant_violation"


def _readonly(a):
    """a, an array or a sequence of arrays, flagged read-only."""
    for x in [a] if isinstance(a, np.ndarray) else a:
        x.flags.writeable = False
    return a


@dataclass
class State:
    """Solution snapshot: velocity u, charge densities v and w, clock.

    Every state holds its coefficients as five arrays on the dealiased
    block (`Grid.block`).  A state the run makes carries the run's, its
    samples are their inverse transforms, and its samples are read-only;
    any other state makes each field's array, the `forward_transform` of
    its samples, when first asked for.  Derived fields but zeta and eta are
    cached on first use; observer fields are formed on the block, and the
    power arrays are block arrays.  Coefficient, power and grad psi arrays
    are always read-only.
    """

    u: VectorField
    v: RealField
    w: RealField
    t: float = 0.0
    step_index: int = 0
    _block: tuple | None = field(default=None, repr=False)

    @property
    def grid(self) -> Grid:
        return self.u.grid

    @property
    def samples(self) -> tuple:
        return (*(c.samples for c in self.u.components), self.v.samples, self.w.samples)

    @cached_property
    def _transforms(self) -> list:
        """A user state's block arrays by field, each made on first use."""
        return [None] * 5

    def _field_block(self, i: int) -> np.ndarray:
        """Block array of field i of (ux, uy, uz, v, w)."""
        if self._block is not None:
            return self._block[i]
        made = self._transforms
        if made[i] is None:
            fields = (*self.u.components, self.v, self.w)
            made[i] = _readonly(forward_transform(fields[i]).coeffs)
        return made[i]

    def _blocks(self, count: int = 5) -> list:
        """The block arrays of the first count fields of (ux, uy, uz, v, w)."""
        return [self._field_block(i) for i in range(count)]

    @property
    def coeffs(self) -> tuple:
        """The (ux, uy, uz, v, w) block arrays (read-only)."""
        return tuple(self._blocks())

    @cached_property
    def u_hat(self) -> VectorField:
        return VectorField(*(SpectralField(self.grid, c) for c in self._blocks(3)))

    @property
    def v_hat(self) -> SpectralField:
        return SpectralField(self.grid, self._field_block(3))

    @property
    def w_hat(self) -> SpectralField:
        return SpectralField(self.grid, self._field_block(4))

    @cached_property
    def psi_hat(self) -> SpectralField:
        """The potential; the Poisson solve raises unless v - w is neutral."""
        eta = self._field_block(3) - self._field_block(4)
        return SpectralField(self.grid, _readonly(_poisson_coeffs(self.grid.block, eta)))

    @cached_property
    def u_power(self) -> tuple:
        """Full-lattice power (`spectral_power`) of each velocity component."""
        return _readonly(tuple(spectral_power(F) for F in self.u_hat.components))

    @cached_property
    def v_power(self) -> np.ndarray:
        return _readonly(spectral_power(self.v_hat))

    @cached_property
    def w_power(self) -> np.ndarray:
        return _readonly(spectral_power(self.w_hat))

    @cached_property
    def psi_power(self) -> np.ndarray:
        return _readonly(spectral_power(self.psi_hat))

    @cached_property
    def u_h3_norm(self) -> float:
        """||u||_H3, from the velocity power: the root of the summed squares
        of the components' norms, each the root `sobolev_norm` takes."""
        g, weights = self.grid, sobolev_weights(self.grid, 3.0)
        return math.sqrt(sum(math.sqrt(power_sum(g, p, weights)) ** 2 for p in self.u_power))

    @cached_property
    def psi(self) -> RealField:
        g = self.grid
        return RealField(g, _samples_from_coeffs(g, self.psi_hat.coeffs, _zero_coeffs(g)))

    @cached_property
    def omega(self) -> VectorField:
        g, full = self.grid, _zero_coeffs(self.grid)
        return VectorField(*(RealField(g, _samples_from_coeffs(g, c, full))
                             for c in _curl_coeffs(g.block, *self._blocks(3))))

    @cached_property
    def omega_magnitude(self) -> RealField:
        """Pointwise magnitude of the vorticity, bitwise that of `omega`,
        streamed over the curl components without keeping them."""
        g = self.grid
        return _streamed_magnitudes(g, _curl_coeffs(g.block, *self._blocks(3)))[0]

    @property
    def zeta(self) -> RealField:
        return RealField(self.grid, self.v.samples + self.w.samples)

    @property
    def eta(self) -> RealField:
        return RealField(self.grid, self.v.samples - self.w.samples)

    @cached_property
    def grad_psi(self) -> list | None:
        """Samples of the three components of grad psi (read-only); None
        when both charge densities vanish.  The run sets it, bitwise this,
        on each snapshot it makes but the last (`_snapshot`)."""
        if not (self._field_block(3).any() or self._field_block(4).any()):
            return None
        return _readonly(_gradient_samples(self.grid, self.psi_hat.coeffs,
                                           _zero_coeffs(self.grid)))

    @cached_property
    def grad_u(self) -> list:
        """Samples of the velocity gradient, d_j u_i as grad_u[i][j]."""
        g, full = self.grid, _zero_coeffs(self.grid)
        return [_gradient_samples(g, c, full) for c in self._blocks(3)]

    @cached_property
    def grad_u_magnitudes(self) -> list:
        """The pointwise Frobenius magnitudes of the velocity gradient and
        of its horizontal block (d1 u1, d2 u1, d1 u2, d2 u2), bitwise those
        of `grad_u`'s entries, streamed in one pass over the nine without
        keeping them."""
        g, work = self.grid, np.empty(self.grid.block.shape, dtype=complex)
        entries = (d for c in self._blocks(3) for d in _gradient_blocks(g.block, c, work))
        return _streamed_magnitudes(g, entries, part=(0, 1, 3, 4))

    @property
    def grad_u_magnitude(self) -> RealField:
        """Pointwise Frobenius magnitude of the velocity gradient."""
        return self.grad_u_magnitudes[0]

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
    if state._block is None:
        return state
    return State(state.u, state.v, state.w, state.t, state.step_index)


def _diffusion_factors(grid: Grid, dt: float):
    """exp(-|k|^2 dt) on the block, its half-step companion, and the
    multiples of them the RK3 stage sums use (-e_full, 2 e_half, 4 e_half;
    exact, so each product equals the one formed inline), kept on the grid
    for the last dt."""
    dt = float(dt)
    entry = grid.tables.get("diffusion")
    if entry is None or entry[0] != dt:
        e_full = np.exp(-grid.block.k2 * dt)
        e_half = np.exp(-grid.block.k2 * (0.5 * dt))
        entry = grid.tables["diffusion"] = (
            dt, e_full, e_half, -e_full, 2.0 * e_half, 4.0 * e_half
        )
    return entry[1:]


def _gradient_samples(grid: Grid, coeffs: np.ndarray, full: np.ndarray, work=None,
                      out=(None,) * 3) -> list:
    """Samples of the gradient of the field with block array coeffs
    (`_gradient_blocks`, in work, allocated when not given), by block
    inverse transforms with the work array full, into the three arrays of
    out (new arrays where None)."""
    if work is None:
        work = np.empty_like(coeffs)
    return [_samples_from_coeffs(grid, c, full, o)
            for c, o in zip(_gradient_blocks(grid.block, coeffs, work), out)]


def _lanes_pay(grid: Grid, charged: bool) -> tuple[bool, bool]:
    """(charge lane, step lane): whether the run's worker thread makes the
    charge terms beside the momentum terms, or the next step beside the
    hooks.  Both need two CPUs in this process's affinity mask.  A charged
    step at 64^3 or more keeps the charge lane; otherwise, from 32^3 up,
    the worker takes the next step.

    On a shared 2-vCPU VM, the step lane raised the steps per second of a
    plain `ehd run` (its default observers, 20 steps) by a median 28% on
    an uncharged 32^3 restart writing a checkpoint each step (6 of 6
    pairs; 18-52% in 5 more), by 48-78% on the same at 64^3 (3 of 3), and
    by a median 3-13% on a charged 32^3 run (12 of 16 pairs), whose step
    runs 1.3-1.8x slower beside the hooks:
    both threads make many short numpy and transform calls and hand the
    interpreter lock back and forth.  At 16^3 that contention doubled a
    charged step plus its hooks (4.4 to 8.7 ms), so it stays inline."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    lane = cpus >= 2 and charged and grid.n >= 64
    return lane, cpus >= 2 and grid.n >= 32 and not lane


class _Work:
    """One run's step context: its grid, the work arrays it reuses in every
    RK stage of every step, and its worker thread, which makes the charge
    terms (lane) or runs the next step beside the hooks (step_lane); with
    neither, the calling thread does all.

    real holds two sample arrays and spectral two arrays of the shape of
    the grid's block; full is the half-spectrum work array of the
    transforms: each flux forward's r2c pass writes all of it
    (`_coeffs_from_samples`), and each inverse zeroes it, scatters the
    block into its kept kz planes and transforms them in place
    (`_samples_from_coeffs`).  The lane's work arrays (side) have the same
    layout, so the worker's forwards write into side's full array and its
    inverses into sample arrays the stepping thread made: the worker
    allocates no transform output.  One step at a time uses them, on
    whichever thread runs it.

    Allocating them once per run, not once per stage or transform, keeps
    freed multi-megabyte blocks from going back to the system and being
    faulted in again as fresh pages.  Steps 3 to 6 of a charged 64^3 run
    faulted 3,600-7,700 minor pages each on two lanes, and 0-4,200
    inline, while the worker and the flux forwards made their own
    outputs; with the outputs written into these arrays, 0-160 either
    way (2-vCPU VM).
    """

    def __init__(self, grid: Grid, lane: bool = False, step_lane: bool = False):
        self.grid = grid
        self.block = grid.block
        self.real, self.spectral, self.full = self._arrays()
        self.lane, self.step_lane = lane, step_lane
        self.pool = ThreadPoolExecutor(1, "ehd-lane") if lane or step_lane else None

    def _arrays(self) -> tuple:
        return ([np.empty((self.grid.n,) * 3) for _ in range(2)],
                [np.empty(self.block.shape, dtype=complex) for _ in range(2)],
                _zero_coeffs(self.grid))

    @cached_property
    def side(self) -> tuple:
        """The (real, spectral, full) work arrays of the charge samples and
        terms: the worker's own, made on first use (an uncharged run never
        uses them), or these when the lane runs inline.  It holds the
        arrays, never self: a reference cycle would keep a finished run's
        arrays until the garbage collector runs."""
        return self._arrays() if self.lane else (self.real, self.spectral, self.full)

    def submit(self, task, *args):
        """The future of task(*args), started on the worker in a copy of the
        caller's context (numpy's errstate is context-local)."""
        return self.pool.submit(contextvars.copy_context().run, task, *args)

    @contextmanager
    def beside(self, task, *args):
        """Run task(*args) in the lane while the with-body runs: on the
        worker (`submit`), or after the body when the lane is inline.  Both
        have finished when the block exits; when both raise, the body's
        exception wins, as in that serial order."""
        if not self.lane:
            yield
            task(*args)
            return
        pending = self.submit(task, *args)
        try:
            yield
        except BaseException:
            pending.exception()  # waits for the task
            raise
        pending.result()

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()

    @cached_property
    def stages(self) -> tuple:
        """Three sets of five block arrays: a step's stage-1 right-hand
        side, which becomes its result; the input of RK stage 2 and then its
        right-hand side; and the same for stage 3."""
        return tuple([np.empty(self.block.shape, dtype=complex) for _ in range(5)]
                     for _ in range(3))

    @cached_property
    def zeros(self) -> tuple:
        """One zero sample array and one zero block array: v and w, each
        time, of every uncharged snapshot of the run (which flags them
        read-only)."""
        return np.zeros((self.grid.n,) * 3), np.zeros(self.block.shape, dtype=complex)


def _lane_samples(grid: Grid, c, side, out: list):
    """The samples of w into out[0] and, given four arrays, those of grad
    psi into out[1:], from the block arrays c = (v, w), with the work
    arrays side (`_Work.side`); the Poisson solve raises unless v - w is
    neutral."""
    _, (cwork, flux), full = side
    _samples_from_coeffs(grid, c[1], full, out[0])
    if len(out) > 1:
        psi = _poisson_coeffs(grid.block, np.subtract(c[0], c[1], out=flux), out=flux)
        _gradient_samples(grid, psi, full, cwork, out[1:])


def _materialize(c, work: _Work, grad: bool) -> tuple:
    """(samples, dpsi): the inverse transforms of the block arrays c =
    (ux, uy, uz, v, w), or (ux, uy, uz) alone, and the samples of grad psi
    if grad is true, else None.  Given five, the lane (`_Work.beside`) makes
    w and grad psi (`_lane_samples`) beside u and v, into arrays this thread
    allocates first, so the worker allocates no output; neither writes c."""
    grid = work.grid
    lane = [np.empty((grid.n,) * 3) for _ in range(4 if grad else 1)] if len(c) == 5 else []
    with (work.beside(_lane_samples, grid, c[3:], work.side, lane)
          if lane else nullcontext()):
        samples = [_samples_from_coeffs(grid, a, work.full) for a in c[:4]]
    return samples + lane[:1], (lane[1:] if grad else None)


def _charge_terms(grid: Grid, samples, dpsi, out, side):
    """The charge terms of `_nonlinear`, into out (the arrays of v and w),
    with the work arrays side (`_Work.side`).

    Charges in divergence form (exact mean conservation): the drift carries
    v down and w up the potential gradient, flux u_d q +- q d_d(psi).
    """
    block = grid.block
    (prod, rwork), (cwork, flux), full = side
    u, (v, w) = samples[:3], samples[3:]
    for q, drift, total in ((v, np.add, out[0]), (w, np.subtract, out[1])):
        for d in range(3):
            np.multiply(u[d], q, out=prod)
            drift(prod, np.multiply(q, dpsi[d], out=rwork), out=prod)
            _add_term(block, total, d, _coeffs_from_samples(grid, prod, flux, full), cwork)
        np.multiply(_MINUS_I, total, out=total)


def _nonlinear(samples, dpsi, work: _Work, *, out):
    """Dealiased nonlinear + coupling right-hand sides on block coefficients.

    samples are those of (ux, uy, uz, v, w) and dpsi those of grad psi, or
    None for an uncharged flow (v = w = 0, which the charge equations keep
    exactly zero), whose right-hand sides are three.  Returns, in the block
    arrays of out, the projected momentum terms P[-(u.grad)u + lap(psi)
    grad(psi)] and the divergence-form charge fluxes, which the lane
    (`_Work.beside`, `_charge_terms`) makes beside the momentum terms;
    diffusion is left to the integrator.  work holds the grid and the work
    arrays.

    The momentum terms are evaluated through the flux tensor
    u_i u_j - d_i(psi) d_j(psi): with div u = 0 its negative divergence
    differs from -(u.grad)u + lap(psi) grad(psi) by a pure gradient, which
    the projection annihilates exactly.

    Each term is -i*(kx*F_x + ky*F_y + kz*F_z) over transformed fluxes F
    (-i as `_MINUS_I`), accumulated in place with that expression's
    operations and operand order (`_add_term`), so the result is bitwise
    the expression's.
    """
    grid, block = work.grid, work.block
    prod, rwork = work.real
    cwork, flux = work.spectral
    charged = dpsi is not None

    # Row i of the momentum divergence sums k_j * F[i,j] over j; each flux
    # F[i,j] = F[j,i] is transformed once and added to both rows that use it.
    u, nu = samples[:3], out[:3]
    with (work.beside(_charge_terms, grid, samples, dpsi, out[3:], work.side)
          if charged else nullcontext()):
        for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
            np.multiply(u[i], u[j], out=prod)  # u_i u_j - d_i(psi) d_j(psi)
            if charged:
                np.subtract(prod, np.multiply(dpsi[i], dpsi[j], out=rwork), out=prod)
            f = _coeffs_from_samples(grid, prod, flux, work.full)
            _add_term(block, nu[i], j, f, cwork)
            if i != j:
                _add_term(block, nu[j], i, f, cwork)
        _leray_coeffs(block, *(np.multiply(_MINUS_I, a, out=a) for a in nu), work.spectral)
    return tuple(out)


def nonlinear_rhs(state: State) -> tuple[VectorField, RealField, RealField]:
    """Right-hand sides with diffusion excluded, in samples: the projected
    momentum terms, then the advection + drift terms of v and of w."""
    g, work = state.grid, _Work(state.grid)
    rhs = [RealField(g, _samples_from_coeffs(g, a, work.full))
           for a in _nonlinear(*_materialize(state._blocks(), work, True), work,
                               out=work.stages[0])]
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


def cfl_limit(state: State, cfl: float) -> float:
    """Largest admissible dt at this state, from the effective transport
    speed max |u| + max |grad psi|; inf when nothing moves."""
    dpsi = state.grad_psi
    speed = _max_magnitude([c.samples for c in state.u.components]) + (
        0.0 if dpsi is None else _max_magnitude(dpsi))
    if speed <= 0.0:
        return np.inf
    return cfl * state.grid.spacing / speed


def _advance(c0, f1, dt: float, work: _Work):
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
    e_full, e_half, neg_e_full, two_e_half, four_e_half = _diffusion_factors(work.grid, dt)
    s2, s3 = (s[: len(c0)] for s in work.stages[1:])
    tmp = work.spectral[0]

    half_dt = 0.5 * dt
    for a, fa, s in zip(c0, f1, s2):
        np.multiply(half_dt, fa, out=s)
        np.add(a, s, out=s)
        np.multiply(e_half, s, out=s)
    f2 = _nonlinear(*_materialize(s2, work, len(s2) == 5), work, out=s2)

    for a, fa, fb, s in zip(c0, f1, f2, s3):
        np.multiply(neg_e_full, fa, out=s)
        s += np.multiply(two_e_half, fb, out=tmp)
        np.multiply(dt, s, out=s)
        np.add(np.multiply(e_full, a, out=tmp), s, out=s)
    f3 = _nonlinear(*_materialize(s3, work, len(s3) == 5), work, out=s3)

    c1 = f1
    for a, fa, fb, fc in zip(c0, c1, f2, f3):
        np.multiply(e_full, fa, out=fa)
        fa += np.multiply(four_e_half, fb, out=tmp)
        fa += fc
        np.multiply(dt / 6.0, fa, out=fa)
        np.add(np.multiply(e_full, a, out=tmp), fa, out=fa)

    # Re-project against roundoff drift.
    _leray_coeffs(work.block, *c1[:3], work.spectral)
    return tuple(c1)


def _snapshot(c, t: float, step_index: int, work: _Work, potential: bool) -> State:
    """The snapshot of block arrays c, which carries copies of them; given
    only the three velocity arrays, v and w share the run's read-only
    zeros.  Given five, and with potential, it carries grad psi from
    `_materialize` (bitwise `State.grad_psi`) unless that property would
    give None or raise (zero or non-neutral charges)."""
    grid, charged = work.grid, len(c) == 5
    grad = potential and charged and abs(c[3][0, 0, 0] - c[4][0, 0, 0]) <= NEUTRALITY_TOL and (
        c[3].any() or c[4].any())
    samples, dpsi = _materialize(c, work, grad)
    c = [a.copy() for a in c]
    if not charged:
        zero_samples, zero_block = work.zeros
        samples += [zero_samples] * 2
        c += [zero_block] * 2
    u = VectorField(*(RealField(grid, a) for a in samples[:3]))
    v, w = (RealField(grid, a) for a in samples[3:])
    state = State(u=u, v=v, w=w, t=t, step_index=step_index, _block=_readonly(tuple(c)))
    _readonly(state.samples)
    if grad:
        state.__dict__["grad_psi"] = _readonly(dpsi)
    return state


def _before_end(t: float, control: StepControl) -> bool:
    """Whether a run at time t takes another step: the run loop's test."""
    return t < control.t_end - 1e-12 * max(1.0, control.t_end)


def _step(state: State, control: StepControl, work: _Work, release: bool = True) -> State:
    """Shared stepping core.

    Stage 1 does not depend on dt, so it runs first, on the snapshot's
    samples and grad psi (made with the snapshot by the step before; for a
    user state, its block arrays' samples by `_materialize` and grad psi by
    `State.grad_psi`); the CFL bound and, for charges, the relaxation
    bound then read the same arrays, the step's last read of its input,
    which then drops every cached field if release is true.
    With no charge (grad psi is None) only the three velocity arrays are
    carried: the charge equations are linear and homogeneous in (v, w), so
    zero charges stay exactly zero.
    """
    dpsi = state.grad_psi
    c0 = state._blocks(5 if dpsi is not None else 3)
    samples = state.samples if state._block is not None else _materialize(c0, work, False)[0]
    f1 = _nonlinear(samples, dpsi, work, out=work.stages[0][: len(c0)])
    limits = {"CFL": cfl_limit(state, control.cfl)}
    if dpsi is not None:
        rate = float(state.v.samples.max()) + float(state.w.samples.max())
        if rate > 0.0:
            limits["charge relaxation"] = control.cfl * RK3_REAL_STABILITY / rate
    # The step has read its input and stage-1 samples for the last time:
    # their memory (with the input's cached fields) serves the new snapshot.
    # A hook that asks again gets the fields recomputed, same bits.
    if release:
        state._release()
    del dpsi, samples
    limit = min(limits, key=limits.get)
    dt = min(control.dt, limits[limit])
    if dt < control.dt_min:
        raise BlowUpSuspected(
            f"time step collapsed: {limit} limit {limits[limit]:.3e} fell below "
            f"dt_min {control.dt_min:.3e} at t={state.t:.6f}"
        )
    remaining = control.t_end - state.t
    if 0.0 < remaining < dt:
        dt = remaining

    new = _snapshot(_advance(c0, f1, dt, work), state.t + dt, state.step_index + 1, work,
                    _before_end(state.t + dt, control))
    _check_finite_state(new, BlowUpSuspected, "step produced a non-finite state: ")
    return new


def step(state: State, control: StepControl) -> State:
    """Advance one time step.

    dt is the base step clamped by the CFL bound, the charge relaxation
    bound (`RK3_REAL_STABILITY`) and the remaining horizon; a clamp below
    dt_min, which names its bound, or a non-finite result, aborts the run
    as a suspected blow-up.
    """
    _check_finite_state(state, BlowUpSuspected)
    return _step(state, control, _Work(state.grid))


def _k_dot_u(state: State) -> np.ndarray:
    """k.c on the velocity's block, `divergence`'s sum: div u / 1j."""
    return _k_dot(state.grid.block, *state._blocks(3))


def _divergence_bound(state: State) -> tuple[float, float]:
    """sum mult*|k.c| over the velocity's block, which bounds max |div u|
    (a snapshot's coefficients are zero outside the block), and the
    divergence tolerance, relative to the size of grad u:
    DIVERGENCE_TOL * max(1, sum mult*|k|*(|cx| + |cy| + |cz|)).  A check
    passes when the bound is at most half the tolerance (the half absorbs
    roundoff), else it transforms div u, 1j*k.c on the block, in its own
    frame."""
    block = state.grid.block
    cx, cy, cz = state._blocks(3)
    size = (np.abs(cx) + np.abs(cy) + np.abs(cz)) * block.kmag
    return (float((block.mult * np.abs(_k_dot_u(state))).sum()),
            DIVERGENCE_TOL * max(1.0, float((block.mult * size).sum())))


def validate_initial_state(state: State):
    """Invariants required at the start of a run; raises InvariantViolation.
    div u is transformed only when `_divergence_bound` does not settle it."""
    _check_finite_state(state, InvariantViolation)
    bound, tol = _divergence_bound(state)
    div = bound if bound <= tol / 2 else float(np.abs(_samples_from_coeffs(
        state.grid, 1j * _k_dot_u(state), _zero_coeffs(state.grid))).max())
    if div > tol:
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
    the next step, and read-only.  Each snapshot the run makes passes
    `_check_run_invariants` before its hooks see it.
    Hooks run on the calling thread, one snapshot at a time, in order.
    Where the run's worker takes the step lane (`_lanes_pay`), step k + 1
    runs on it while the hooks of snapshot k run, from step 2 on (the t = 0
    hooks and step 1 run first, inline); snapshot k keeps its cached fields
    until both are done.  Otherwise the hooks come first, the run then
    drops every field the next step does not read, and the step drops the
    rest once it has read them.  The worker (see the module docstring) is
    shut down before run returns or raises.
    An initial state that fails validation ends the run before any hook is
    called, as an invariant violation.  A hook raising BlowUpSuspected or
    InvariantViolation ends the run with that status, its message the
    diagnostic; a NonFiniteFieldError (a non-finite field a hook
    transformed) counts as a suspected blow-up.  A hook that raises ends
    the run at its snapshot: a step running beside it is waited for, and
    its result or failure discarded.  A failing step counts only once the
    hooks of the snapshot before it have returned.
    """
    from .checkpoint import state_checksum

    t0 = time.monotonic()
    status = RunStatus.COMPLETED
    diagnostic = None
    work = _Work(state0.grid, *_lanes_pay(state0.grid, bool(
        state0.v.samples.any() or state0.w.samples.any())))
    s, steps, dt, ahead = state0, 0, 0.0, None
    del state0  # the run holds the state in s alone, so step 1 can free it
    try:
        validate_initial_state(s)
        # A user state makes each field's block array, by the pruned forward
        # transform, when first asked; step 1 asks for all five, so they are
        # made here, in set-up.
        s._blocks()
        means = (float(np.mean(s.v.samples)), float(np.mean(s.w.samples)))
        while True:
            if steps and work.step_lane and _before_end(s.t, control):
                ahead = work.submit(_step, s, control, work, False)
            try:
                for hook in hooks:
                    hook(s, s, dt)
            except BaseException:
                if ahead is not None:
                    ahead.exception()  # waits for the step, whose outcome is dropped
                raise
            if ahead is None:
                # Of its cached fields the next step reads grad psi alone;
                # the step's arrays reuse the memory of the others.
                if steps:
                    s._release(keep=("grad_psi",))
                if not _before_end(s.t, control):
                    break
                new = _step(s, control, work)
            else:
                new, ahead = ahead.result(), None
                s._release()
            s, steps, dt = new, steps + 1, new.t - s.t
            _check_run_invariants(s, *means)
    except (BlowUpSuspected, NonFiniteFieldError) as exc:
        status, diagnostic = RunStatus.BLOW_UP_SUSPECTED, str(exc)
    except (InvariantViolation, ChargeNeutralityError) as exc:
        status, diagnostic = RunStatus.INVARIANT_VIOLATION, str(exc)
    finally:
        work.close()

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
    bound, tol = _divergence_bound(state)
    div = bound if bound <= tol / 2 else float(np.abs(_samples_from_coeffs(
        state.grid, 1j * _k_dot_u(state), _zero_coeffs(state.grid))).max())
    if div > tol:
        raise InvariantViolation(
            f"divergence invariant failed at t={state.t:.6f}: max |div u| = {div:.3e}"
        )
    for name, i, mean0 in (("v", 3, mean_v0), ("w", 4, mean_w0)):
        drift = abs(float(state._field_block(i)[0, 0, 0].real) - mean0)
        if drift > MEAN_DRIFT_TOL * max(1.0, abs(mean0)):
            raise InvariantViolation(
                f"mean of {name} drifted by {drift:.3e} at t={state.t:.6f}"
            )
