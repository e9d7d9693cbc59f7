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
In a scenario the clocks read their keys off the same coupled system.
The moment routes (the moment meter and the lambda route) couple to the
carried-along sojourn operator instead, which commutes with its own
history: they read `sojourn.CarriedFamily`, whose every shift is
closed-form phases in the cached eigenbasis of the operator, through the
same `columns` surface, and the moment meter is `run_meter` on it.

A run never forms its (system, pointer) amplitude array psi(s, q).  Only
the K kept modes differ from c_k psi_ref, so that array is B @ R: B =
[psi_ref | kept columns] is (N, K + 1) and R, the pointer rows, is
(K + 1, n), cached per (pointer spec, mode cutoff).  The pointer
statistics read it through one small QR of B, which costs N (K + 1)^2 +
(K + 1)^2 n per run instead of the N n log n transform of the whole array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clocks import SweepRecord, _checked_strengths, extrapolate_to_zero
from .dynamics import CoupledSystem
from .errors import ParameterError, StructureError
from .hilbert import (
    HBAR,
    Grid,
    QuantumState,
    checked_overlap,
    fourier_momentum_values,
    gaussian_pointer,
)
from .sojourn import CarriedFamily, SojournOperator, _check_state

# relative pointer-mode cutoff.  A dropped mode is evolved as if uncoupled,
# which errs in that mode by at most twice its coefficient; each kept mode
# is one more column interpolated from the node block, one more column of a
# run's system factor B and one more of its cached pointer rows, so a run
# costs N (K + 1)^2 + (K + 1)^2 n for K kept modes.  On the default
# PointerSpec.auto grid (extent_factor=16) the Fourier coefficients of the
# Gaussian profile fall to a plateau below this cutoff: for
# auto(width=1.0, max_shift=0.3), the scenario meter pointer, the plateau is
# 2.6e-10 of the peak and 23 of 256 modes are kept.  MeterRun.modes_kept
# reports the count.  Pass mode_cutoff=0.0 to keep every mode.
DEFAULT_MODE_CUTOFF = 1e-8
EDGE_MASS_BUDGET = 1e-7


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


@dataclass(frozen=True, eq=False)
class MeterRun:
    """One measurement experiment: the composite final state as factors,
    plus context.

    The composite amplitudes psi(s, q) are `system_block @ pointer_rows`
    and are never formed.  `system_block` is B = [psi_ref | c_k psi_k for
    the kept modes k], shaped (system dimension, modes_kept + 1);
    `pointer_rows` is R, shaped (modes_kept + 1, pointer points): the
    inverse pointer transform of the dropped modes' coefficients, then the
    kept modes' inverse-transform rows.  `marginal` is the unconditioned
    pointer density w sum_s |psi(s, q)|^2, w the system cell weight, not
    normalized.  All three are read-only, and `pointer_rows` is shared by
    every run with the same spec and mode cutoff.
    `reference_system_final` is the system state evolved with the meter
    switched off, used for survival probabilities and as the unperturbed
    state that postselected readouts guard their overlap against.
    `modes_kept` counts the pointer modes evolved with the coupling; the
    others were below the mode cutoff.  Their columns are one `columns`
    read of the family the run was given: interpolated from a
    `CoupledSystem`'s node block, which reports that block, or closed-form
    phases of a `CarriedFamily`.
    """

    spec: PointerSpec
    coupling: float
    system_block: np.ndarray
    pointer_rows: np.ndarray
    marginal: np.ndarray
    reference_system_final: QuantumState
    norm_drift: float
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
def _pointer_modes(spec: PointerSpec, mode_cutoff: float):
    """What a run needs of its pointer, which depends only on the spec and
    the cutoff: the kept modes' momenta and coefficients, the norm of the
    initial profile and the read-only (K + 1, n) pointer rows R.  R's first
    row is the inverse transform of the coefficients with the kept ones
    zeroed, its others the kept modes' inverse-transform rows, taken by
    ifft of unit rows so that every phase is reduced mod n."""
    phi = spec.initial_state()
    coeffs = np.fft.fft(phi.amplitudes)
    kept = np.nonzero(np.abs(coeffs) > mode_cutoff * np.max(np.abs(coeffs)))[0]
    dropped = coeffs.copy()
    dropped[kept] = 0.0
    rows = np.fft.ifft(np.vstack([dropped, np.eye(coeffs.size)[kept]]), axis=1)
    pi_kept = fourier_momentum_values(spec.grid)[kept]
    coeffs_kept = coeffs[kept]
    for a in (pi_kept, coeffs_kept, rows):
        a.flags.writeable = False
    return pi_kept, coeffs_kept, phi.norm(), rows


def coupling_shifts(spec: PointerSpec, coupling: float, duration: float,
                    mode_cutoff: float = DEFAULT_MODE_CUTOFF) -> np.ndarray:
    """(G/T) pi_k over the pointer modes above `mode_cutoff`: the shifts a
    `run_meter` at coupling G reads off a family of window length T."""
    return (coupling / duration) * _pointer_modes(spec, mode_cutoff)[0]


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
    kept, their system vectors c_k psi((G/T) pi_k) one `coupled.columns`
    read; a CoupledSystem interpolates them from the node block every run
    of a ladder shares.  A dropped mode is uncoupled, c_k psi_ref, so the
    composite is B @ R, B = [psi_ref | kept columns], R the cached pointer
    rows.  With B = Q R_b (one QR, wide for N < K + 1), each pointer column
    of the composite has the norm of that column of R_b @ R, so the
    marginal and the norm cost N (K + 1)^2 + (K + 1)^2 n per run.
    """
    _, coeffs_kept, phi_norm, rows = _pointer_modes(spec, mode_cutoff)
    psi_ref = coupled.reference_system_final
    kept = coupled.columns(coupling_shifts(spec, coupling, coupled.duration, mode_cutoff))
    block = np.column_stack([psi_ref.amplitudes, kept * coeffs_kept])
    reduced = np.linalg.qr(block, mode="r") @ rows
    marginal = psi_ref.cell_weight * np.sum(np.abs(reduced) ** 2, axis=0)
    mass = float((np.sum(marginal[:2]) + np.sum(marginal[-2:])) * spec.grid.dx)
    if not mass <= EDGE_MASS_BUDGET:
        raise ParameterError(
            f"pointer support reaches the grid edge (mass {mass:.3e}); "
            "enlarge the pointer grid"
        )
    norm = np.sqrt(psi_ref.cell_weight * spec.grid.dx) * np.linalg.norm(reduced)
    block.flags.writeable = False
    marginal.flags.writeable = False
    return MeterRun(
        spec=spec,
        coupling=coupling,
        system_block=block,
        pointer_rows=rows,
        marginal=marginal,
        reference_system_final=psi_ref,
        norm_drift=float(abs(norm - coupled.psi0.norm() * phi_norm)),
        modes_kept=coeffs_kept.size,
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


def pointer_distribution(
    run: MeterRun, postselect: Optional[QuantumState] = None
) -> PointerDistribution:
    """Pointer probability density, marginal or conditioned on a system
    postselection; the conditional one carries its branch probability."""
    grid = run.spec.grid
    dq = grid.dx
    if postselect is None:
        raw = run.marginal
        prob = float(np.sum(raw) * dq)
    else:
        if postselect.space != run.reference_system_final.space:
            raise StructureError("postselector must live on the system space")
        amp = run.system_weight * ((postselect.amplitudes.conj() @ run.system_block)
                                   @ run.pointer_rows)
        raw = np.abs(amp) ** 2
        prob = float(np.sum(raw) * dq)
        # the composite's norm is the reference state's, up to norm_drift
        checked_overlap(postselect, run.reference_system_final, np.sqrt(prob))
    density = raw / prob
    mean = float(np.sum(grid.points * density) * dq)
    return PointerDistribution(grid=grid, density=density, mean=mean, probability=prob)


def survival_probability(run: MeterRun) -> float:
    """Probability that the system is still found in its unperturbed
    (freely evolved) state after the measurement."""
    dist = pointer_distribution(run, postselect=run.reference_system_final)
    return dist.probability / run.reference_system_final.norm() ** 2


def pointer_shift_fit(runs, postselect: Optional[QuantumState] = None):
    """Least-squares line through (coupling, conditional pointer mean) over
    a ladder of runs; returns (slope, intercept)."""
    if len(runs) < 2:
        raise ParameterError("need at least 2 runs to fit a line")
    g = np.array([r.coupling for r in runs], dtype=float)
    y = np.array([pointer_distribution(r, postselect).mean for r in runs])
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
    readouts = [pointer_distribution(r, postselect).mean / r.coupling for r in runs]
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
    amps = family.columns(np.concatenate([lambdas, -lambdas]) / op.duration)
    rp, rm = np.reshape(chi.cell_weight * (chi.amplitudes.conj() @ amps) / den, (2, -1))
    if order == 1:
        readouts = 1j * HBAR * (rp - rm) / (2.0 * lambdas)
    else:
        readouts = (1j * HBAR) ** 2 * (rp - 2.0 + rm) / lambdas**2
    value, _, residual = extrapolate_to_zero(lambdas, readouts, 2)
    return value, residual
