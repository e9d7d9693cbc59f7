"""Explicit simulation of the von Neumann measurement scheme.

A pointer with coordinate q couples to a system observable A through
H_int = (G/T) pi (x) A over the window (t_start, t_stop) of length T that
the sojourn operator averages over, pi the pointer momentum.  This module
evolves the composite system-pointer state, extracts pointer distributions
(unconditioned and postselected), survival probabilities, and the pointer
readouts of time-moment meters.  The derivative identities that re-derive
weak values from pointer statistics are cross-checks and live with the
test oracle, not here.

Because the pointer has no free Hamiltonian, the evolution factorizes
over pointer momentum modes: each Fourier mode of the pointer profile
drags an independent system evolution with the scalar coupling
(G/T) pi_k A.  The meter exploits this: the system lives on one factor
(a position grid or one spin) and the observable A is diagonal, passed as
its real 1-D array a, so each mode's generator H + (G/T) pi_k diag(a) is
real symmetric tridiagonal and differs from the others only by a multiple
of diag(a).  The evolved state psi(s) = exp(-iT(H + s diag(a)))psi0 is
the coupled family of `dynamics.CoupledSystem`, which evolves it once, at
Chebyshev nodes in s as one block, and interpolates every kept mode of
every run that shares it from those nodes; no mode needs an eigensolve.
In a scenario the clocks take the same `read` of the same coupled system.
The moment routes (the moment meter and the lambda route) couple to the
carried-along sojourn operator instead, which commutes with its own
history: they read `sojourn.CarriedFamily`, whose every shift is
closed-form phases in the cached eigenbasis of the operator, through the
same `read`, and the moment meter is `run_meter` on it.

A run never forms its (system, pointer) amplitude array psi(s, q), nor
any N-row block.  Only the K kept modes differ from c_k psi_ref, so that
array is B @ R: B = [psi_ref | psi(s_k)] is (N, K + 1) and R, the pointer
rows, is (K + 1, n), cached per (pointer spec, mode cutoff): row 0 the
inverse transform of the dropped modes' coefficients, row k that of c_k
alone.  Every pointer statistic is a (K + 1)-sized form.  A run keeps
Gamma = B^H B and the `read` of its family it came from, whose basis
fixes the N-sized work once per fit: the marginal is w r_q^H Gamma r_q
over the columns r_q of R, the norm sqrt(w tr(Gamma P)).  A postselector
chi reads o = w chi^H B off that read, and the pointer amplitude o R has
probability o P o^H and q-moment o Q o^H - |o j|^2, P = R R^H dq and
(Q, j) the closed-form split of R diag(q) R^H dq, cached with R.  So a
run costs (K + 1)^2 (nodes + 1) and a readout (K + 1)^2, none of it
growing with N or n; only a caller that asks `pointer_distribution` for a
density pays (K + 1) n or (K + 1)^2 n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .clocks import SweepRecord, _checked_strengths, extrapolate_to_zero
from .dynamics import CoupledSystem, FixedRead, apply_real
from .errors import ParameterError, StructureError
from .hilbert import (
    HBAR,
    Grid,
    QuantumState,
    checked_overlap,
    fourier_momentum_values,
    gaussian_pointer,
)
from .sojourn import CarriedFamily, CarriedRead, SojournOperator, _check_state

# relative pointer-mode cutoff.  A dropped mode is evolved as if uncoupled,
# which errs in that mode by at most twice its coefficient; each kept mode
# is one more row and column of a run's Gram and of the cached pointer
# forms, so a run costs (K + 1)^2 (nodes + 1) and a postselected readout
# (K + 1)^2 for K kept modes.  On the default
# PointerSpec.auto grid (extent_factor=16) the Fourier coefficients of the
# Gaussian profile fall to a plateau below this cutoff: for
# auto(width=1.0, max_shift=0.3), the scenario meter pointer, the plateau is
# 2.6e-10 of the peak and 23 of 256 modes are kept.  MeterRun.modes_kept
# reports the count.  Pass mode_cutoff=0.0 to keep every mode.
DEFAULT_MODE_CUTOFF = 1e-8
EDGE_MASS_BUDGET = 1e-7
_EDGE_POINTS = [0, 1, -2, -1]  # the pointer points the edge-mass guard reads


@dataclass(frozen=True)
class PointerSpec:
    """Pointer register: a q-grid and the initial Gaussian width.

    The initial profile is a normalized Gaussian centered at q = 0; the
    grid must contain the origin so that the center is representable.
    """

    grid: Grid
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise ParameterError("pointer width must be positive")
        if np.min(np.abs(self.grid.points)) > 0.5 * self.grid.dx:
            raise ParameterError("pointer grid must contain q = 0")

    @classmethod
    def auto(
        cls,
        width: float,
        max_shift: float = 0.0,
        n_points: int = 256,
        extent_factor: float = 16.0,
    ) -> "PointerSpec":
        """Grid sized to hold both the initial profile and the largest
        expected shift, with q = 0 on a grid point."""
        scale = max(width, abs(max_shift))
        extent = extent_factor * scale
        dq = extent / (n_points - 1)
        x_min = -(n_points // 2) * dq
        grid = Grid(n_points, x_min, x_min + (n_points - 1) * dq)
        return cls(grid, width)

    def initial_state(self) -> QuantumState:
        state = gaussian_pointer(self.grid, self.width)
        q = self.grid.points
        mean = float(np.sum(q * np.abs(state.amplitudes) ** 2) * self.grid.dx)
        if not abs(mean) <= self.grid.dx:
            raise ParameterError("initial pointer mean off center by more than dq")
        return state


class _Pointer(NamedTuple):
    """What a run needs of its pointer, which depends only on the spec and
    the mode cutoff, all read-only: the kept modes' momenta, the norm of
    the initial profile, the (K + 1, n) pointer rows R, and the pointer
    forms.  R's first row is the inverse transform of the coefficients with
    the kept ones zeroed, row k that of the kept coefficient c_k alone.  An
    amplitude o R has probability o P o^H and q-moment o Q o^H - |o j|^2,
    P = R R^H dq; Q and j split R diag(q) R^H dq (see `_pointer_modes`)."""

    momenta: np.ndarray
    norm: float
    rows: np.ndarray
    prob_form: np.ndarray
    mean_form: np.ndarray
    jump: np.ndarray


@dataclass(frozen=True, eq=False)
class MeterRun:
    """One measurement experiment: the composite final state as forms,
    plus context.

    The composite amplitudes psi(s, q) are B @ R, B = [psi_ref | psi(s_k)
    for the kept modes k] and R the pointer rows, which carry the
    profile's coefficients; neither they nor B is ever formed.  `pointer`
    holds R, the kept modes' momenta pi_k and the pointer forms, shared by
    every run with the same spec and mode cutoff.  `family` is the coupled
    family the run read (shared, never copied), and `reading` its read at
    the run's shifts (coupling / duration) pi_k, which serves a
    postselector's overlaps with B from the fit the run was made with, so
    a later refit or reference state of the family changes no readout.
    `gram` is B^H B, (modes_kept + 1, modes_kept + 1), read-only.
    `modes_kept` counts the kept modes, evolved with the coupling; the
    others were below the cutoff.  `reference_system_final` is the system
    state evolved with the meter switched off, used for survival
    probabilities and as the unperturbed state that postselected readouts
    guard their overlap against.  `norm_drift` is the composite norm's
    distance from ||psi0|| ||phi||, `edge_mass` the unconditioned pointer
    probability on the two grid points at each edge, at most
    EDGE_MASS_BUDGET.
    """

    spec: PointerSpec
    coupling: float
    pointer: _Pointer
    family: CoupledSystem | CarriedFamily
    reading: FixedRead | CarriedRead
    gram: np.ndarray
    reference_system_final: QuantumState
    norm_drift: float
    edge_mass: float
    modes_kept: int

    @property
    def system_weight(self) -> float:
        return self.reference_system_final.cell_weight


@dataclass(frozen=True)
class PointerDistribution:
    """Probability density over the pointer coordinate."""

    grid: Grid
    density: np.ndarray
    mean: float
    probability: float = 1.0

    def __post_init__(self):
        d = np.asarray(self.density, dtype=float)
        total = float(np.sum(d) * self.grid.dx)
        if not abs(total - 1.0) <= 1e-9:
            raise ParameterError(f"density normalization off by {total - 1.0:.3e}")
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "density", d)

    def peak_count(self, threshold: float = 0.01) -> int:
        """Number of interior local maxima above `threshold` of the peak."""
        d = self.density
        floor = threshold * np.max(d)
        inner = (d[1:-1] > d[:-2]) & (d[1:-1] >= d[2:]) & (d[1:-1] > floor)
        return int(np.count_nonzero(inner))


@functools.lru_cache(maxsize=8)
def _pointer_modes(spec: PointerSpec, mode_cutoff: float) -> _Pointer:
    """The `_Pointer` of a spec and cutoff.  R = C F^-1 for the coefficient
    rows C and the DFT F is taken by ifft of C, so that every phase is
    reduced mod n, and the forms come from C in closed form, w = exp(2 pi i
    / n): sum_j w^(d j) is n [d = 0], so P = (dq / n) C C^H; and over the
    grid index j, q_j = x_min + j dq is q_mid = x_min + n dq / 2 plus a
    sawtooth whose sum against w^(d j) is -(n dq / 2) i cot(pi d / n) for d
    != 0, except at j = 0, where the periodic q jumps and that sawtooth
    takes the jump's midpoint.  So R diag(q) R^H dq = Q - j j^H, Q = q_mid P
    - i (dq^2 / 2n) C cot C^H and j = sqrt(n / 2) dq R[:, 0]: summed over
    the grid, the jump's constant part would cancel only to eps max|q| and
    shift every pointer mean by that; here it is |o j|^2, the first point's
    own amplitude."""
    phi = spec.initial_state()
    grid = spec.grid
    n, dq = grid.n_points, grid.dx
    coeffs = np.fft.fft(phi.amplitudes)
    kept = np.nonzero(np.abs(coeffs) > mode_cutoff * np.max(np.abs(coeffs)))[0]
    modes = np.zeros((kept.size + 1, n), dtype=complex)
    modes[0] = coeffs
    modes[0, kept] = 0.0
    modes[np.arange(1, kept.size + 1), kept] = coeffs[kept]
    rows = np.fft.ifft(modes, axis=1)
    # cot(pi (l - l') / n) over pairs of momentum indices, 0 for l = l',
    # built in place in one real (n, n) array
    angle = np.arange(n) * (np.pi / n)
    cot = np.subtract.outer(angle, angle)
    np.tan(cot, out=cot)
    np.fill_diagonal(cot, np.inf)
    np.reciprocal(cot, out=cot)
    prob_form = (dq / n) * (modes @ modes.conj().T)
    mean_form = ((grid.x_min + 0.5 * n * dq) * prob_form
                 - (0.5j * dq**2 / n) * (apply_real(cot.T, modes.T).T @ modes.conj().T))
    pointer = _Pointer(fourier_momentum_values(grid)[kept], phi.norm(), rows, prob_form,
                       mean_form, np.sqrt(0.5 * n) * dq * rows[:, 0])
    for a in (pointer.momenta, rows, prob_form, mean_form, pointer.jump):
        a.flags.writeable = False
    return pointer


def coupling_shifts(spec: PointerSpec, coupling: float, duration: float,
                    mode_cutoff: float = DEFAULT_MODE_CUTOFF) -> np.ndarray:
    """(G/T) pi_k over the pointer modes above `mode_cutoff`: the shifts a
    `run_meter` at coupling G reads off a family of window length T."""
    return (coupling / duration) * _pointer_modes(spec, mode_cutoff).momenta


def run_meter(
    spec: PointerSpec,
    coupled: CoupledSystem | CarriedFamily,
    coupling: float,
    mode_cutoff: float = DEFAULT_MODE_CUTOFF,
) -> MeterRun:
    """Evolve psi0 (x) Gaussian pointer under H + (G/T) pi (x) A over the
    window of length T of `coupled`: a `CoupledSystem`, A = diag(a) its
    observable (e.g. a region indicator or [1, -1] for sigma_z), or a
    `CarriedFamily`, A = T_op^l / T.

    The pointer modes above `mode_cutoff` (relative to the largest) are
    kept, their system vectors psi((G/T) pi_k); a dropped mode is
    uncoupled, psi_ref, so the composite is B @ R, B = [psi_ref | psi(s_k)],
    R the cached pointer rows weighted by the profile's coefficients.  The
    run keeps Gamma = B^H B and the `coupled.read` it came from, and
    builds nothing of size N; a CoupledSystem reads it off the node block
    every run of a ladder shares.  The edge-mass
    guard reads the marginal w r_q^H Gamma r_q at the two pointer points at
    each edge (ParameterError past EDGE_MASS_BUDGET), and the norm is
    sqrt(w tr(Gamma P)).
    """
    pointer = _pointer_modes(spec, mode_cutoff)
    psi_ref = coupled.reference_system_final
    reading = coupled.read((coupling / coupled.duration) * pointer.momenta)
    gram = reading.gram()
    weight = psi_ref.cell_weight
    edges = pointer.rows[:, _EDGE_POINTS]
    mass = weight * spec.grid.dx * float(np.sum((edges.conj() * (gram @ edges)).real))
    if not mass <= EDGE_MASS_BUDGET:
        raise ParameterError(
            f"pointer support reaches the grid edge (mass {mass:.3e}); "
            "enlarge the pointer grid"
        )
    norm = np.sqrt(weight * np.vdot(pointer.prob_form, gram).real)
    gram.flags.writeable = False
    return MeterRun(
        spec=spec,
        coupling=coupling,
        pointer=pointer,
        family=coupled,
        reading=reading,
        gram=gram,
        reference_system_final=psi_ref,
        norm_drift=float(abs(norm - coupled.psi0.norm() * pointer.norm)),
        edge_mass=mass,
        modes_kept=pointer.momenta.size,
    )


def run_moment_meter(
    spec: PointerSpec,
    psi0: QuantumState,
    op: SojournOperator,
    order: int,
    coupling: float,
    mode_cutoff: float = DEFAULT_MODE_CUTOFF,
) -> MeterRun:
    """Couple the pointer to the l-th power of the time-in-region operator,
    carried along in the evolving picture so that the interaction commutes
    with its own history: `run_meter` on the `CarriedFamily`, each pointer
    mode the closed form exp(-i G pi_k T_op^l / hbar) after free flight
    over the operator's window."""
    return run_meter(spec, CarriedFamily(op, psi0, order), coupling, mode_cutoff)


# -- pointer statistics ----------------------------------------------------


def _pointer_moments(run: MeterRun, postselect: Optional[QuantumState]):
    """(o, probability, mean) of the pointer, marginal or conditioned on a
    system postselection, from the (K + 1)-sized forms alone.  The marginal
    (o None) reads w Gamma against them as traces; a postselector chi reads
    o = w chi^H B, its pointer amplitude being o R, and has its overlap
    guarded by `hilbert.checked_overlap`."""
    pointer = run.pointer
    if postselect is None:
        gram = run.system_weight * run.gram
        prob = float(np.vdot(pointer.prob_form, gram).real)
        moment = (np.vdot(pointer.mean_form, gram)
                  - pointer.jump.conj() @ gram @ pointer.jump).real
        return None, prob, float(moment) / prob
    if postselect.space != run.reference_system_final.space:
        raise StructureError("postselector must live on the system space")
    o = run.system_weight * run.reading.overlaps(postselect)
    prob = float((o @ pointer.prob_form @ o.conj()).real)
    # the composite's norm is the reference state's, up to norm_drift
    checked_overlap(postselect, run.reference_system_final, np.sqrt(prob))
    moment = (o @ pointer.mean_form @ o.conj()).real - abs(o @ pointer.jump) ** 2
    return o, prob, float(moment) / prob


def pointer_distribution(
    run: MeterRun, postselect: Optional[QuantumState] = None
) -> PointerDistribution:
    """Pointer probability density, marginal or conditioned on a system
    postselection; the conditional one carries its branch probability.
    The density is the one product with the pointer rows a run ever takes;
    probability and mean are the forms' numbers the readouts read."""
    o, prob, mean = _pointer_moments(run, postselect)
    rows = run.pointer.rows
    if o is None:
        raw = run.system_weight * np.sum((rows.conj() * (run.gram @ rows)).real, axis=0)
    else:
        raw = np.abs(o @ rows) ** 2
    return PointerDistribution(grid=run.spec.grid, density=raw / prob, mean=mean,
                               probability=prob)


def survival_probability(run: MeterRun) -> float:
    """Probability that the system is still found in its unperturbed
    (freely evolved) state after the measurement."""
    prob = _pointer_moments(run, run.reference_system_final)[1]
    return prob / run.reference_system_final.norm() ** 2


def pointer_shift_fit(runs, postselect: Optional[QuantumState] = None):
    """Least-squares line through (coupling, conditional pointer mean) over
    a ladder of runs; returns (slope, intercept)."""
    if len(runs) < 2:
        raise ParameterError("need at least 2 runs to fit a line")
    g = np.array([r.coupling for r in runs], dtype=float)
    y = np.array([_pointer_moments(r, postselect)[2] for r in runs])
    slope, intercept = np.polyfit(g, y, 1)
    return float(slope), float(intercept)


def meter_moment_readout(runs, postselect: Optional[QuantumState] = None) -> SweepRecord:
    """Conditional pointer shift per unit coupling over a descending ladder
    of runs at positive couplings, extrapolated to zero coupling.

    Returns the clocks' SweepRecord, whose `time` is the readout in units
    of the coupled observable; with no postselector it reads the marginal
    pointer.  The shift is odd in the coupling for a real-profile pointer,
    so the leading ladder error is quadratic and no run at -G is needed: it
    is the +G run with the pointer axis mirrored.  The fitted order is
    reported but never flagged, since on readouts that agree to rounding
    (free_box) it fits noise.
    """
    g = _checked_strengths(r.coupling for r in runs)
    readouts = [_pointer_moments(r, postselect)[2] / r.coupling for r in runs]
    value, order, residual = extrapolate_to_zero(g, readouts, 2)
    return SweepRecord(
        strengths=g,
        readouts=tuple(complex(v) for v in readouts),
        value=value,
        order=order,
        residual=residual,
        flagged=False,
    )


def lambda_moment_route(
    op: SojournOperator,
    psi0: QuantumState,
    chi: QuantumState,
    order: int,
    lambdas,
):
    """Moments from scalar-coupling derivatives: read the first-order
    `CarriedFamily` at s = +-lambda / T, exp(-i lambda T_op / hbar) after
    free flight, and apply (i hbar d/dlambda)^l to the postselected
    amplitude ratio at lambda = 0 by central differences.  Returns (value,
    residual); the real part is the moment.  Like every sojourn readout it
    refuses (ParameterError) a `chi` that is not referenced to the window
    end.
    """
    if order not in (1, 2):
        raise ParameterError("lambda route implemented for orders 1 and 2")
    lambdas = np.array(_checked_strengths(lambdas))
    _check_state(op, chi)
    family = CarriedFamily(op, psi0, 1)
    den = checked_overlap(chi, family.reference_system_final)
    amps = family.read(np.concatenate([lambdas, -lambdas]) / op.duration).overlaps(chi)[1:]
    rp, rm = np.reshape(chi.cell_weight * amps / den, (2, -1))
    if order == 1:
        readouts = 1j * HBAR * (rp - rm) / (2.0 * lambdas)
    else:
        readouts = (1j * HBAR) ** 2 * (rp - 2.0 + rm) / lambdas**2
    value, _, residual = extrapolate_to_zero(lambdas, readouts, 2)
    return value, residual
