"""Weak values, dwell times and the sojourn-time operator.

The central object is the time average of a Heisenberg-picture observable
over a window, realized as a trapezoid quadrature of U0(t_f,t) A U0^dag(t_f,t)
weighted by the coupling profile.  Applied to a region projector and scaled
by the window length this yields the hermitian sojourn-time operator, whose
matrix elements give dwell times, postselected traversal times and their
higher moments.

All states passed to the readout functions are Heisenberg-representation
states referenced to the window end, i.e. Schroedinger states evolved to
t_stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import CouplingProfile, Hamiltonian
from .errors import (
    DegeneratePostselectionError,
    ParameterError,
    StructureError,
)
from .hilbert import (
    HBAR,
    Grid,
    OperatorMatrix,
    QuantumState,
    Region,
    basis_cell_state,
    inner_product,
    projector,
)

DEFAULT_OVERLAP_FLOOR = 1e-8
ANOMALY_FACTOR = 10.0


@dataclass(frozen=True, eq=False)
class IntegratedOperator:
    """Trapezoid time average of a Heisenberg-picture observable."""

    base: OperatorMatrix
    window: tuple[float, float]
    matrix: OperatorMatrix
    n_slices: int
    profile: CouplingProfile

    @property
    def duration(self) -> float:
        return self.window[1] - self.window[0]


@dataclass(frozen=True, eq=False)
class SojournOperator:
    """Window length times the time-averaged region projector; hermitian,
    spectrum within [0, window length] up to quadrature tolerance."""

    region: Region
    window: tuple[float, float]
    integrated: IntegratedOperator
    matrix: OperatorMatrix

    @property
    def duration(self) -> float:
        return self.window[1] - self.window[0]


@dataclass(frozen=True)
class WeakValueResult:
    """A (possibly conditional) weak value with postselection metadata."""

    value: complex
    observable: str
    window: tuple[float, float]
    postselection: Optional[str] = None
    anomalous: bool = False


def _trapezoid_filter(omega: np.ndarray, duration: float, n_slices: int) -> np.ndarray:
    """Trapezoid sum of exp(-i omega s)/T over s in [0, T] with n_slices panels.

    Closed trig form (delta/T) cot(omega delta/2) sin(omega T/2) exp(-i omega T/2)
    with delta = T/n_slices: no cancellation at small omega delta, exactly 1
    only at omega == 0, and n_slices costs nothing.
    """
    half = (0.5 * duration / n_slices) * omega
    zero = half == 0.0
    half = np.where(zero, 1.0, half)
    phase = 0.5 * duration * omega
    sin_phase = np.sin(phase)
    amp = sin_phase / (n_slices * np.tan(half))
    return np.where(zero, 1.0, amp * np.cos(phase) - 1j * (amp * sin_phase))


def integrate_heisenberg(
    observable: OperatorMatrix,
    free_hamiltonian: Hamiltonian,
    window: tuple[float, float],
    n_slices: int,
    profile: Optional[CouplingProfile] = None,
) -> IntegratedOperator:
    """Time-averaged Heisenberg observable over `window`.

    The trapezoid sum is evaluated exactly in the real eigenbasis V of the
    free Hamiltonian: V (A_eig * F) V^T with A_eig = V^T A V and F the
    trapezoid filter of the level differences.  A diagonal observable (a
    region projector) needs only its nonzero rows of V; the complex
    back-transform runs as real products on the real and imaginary parts.
    """
    if n_slices < 2:
        raise ParameterError("n_slices must be at least 2")
    if not observable.hermitian:
        raise ParameterError("integrated observable must be hermitian")
    if tuple(observable.space) != free_hamiltonian.space:
        raise StructureError("observable space does not match the Hamiltonian")
    t_start, t_stop = window
    duration = t_stop - t_start
    if duration <= 0:
        raise ParameterError("window must have positive duration")
    profile = profile or CouplingProfile.rectangular(t_start, t_stop)

    vals, vecs = free_hamiltonian.eigensystem()
    a = observable.matrix
    diag = np.diagonal(a).real
    if np.count_nonzero(a) == np.count_nonzero(diag):
        idx = np.flatnonzero(diag)
        a_eig = (vecs[idx].T * diag[idx]) @ vecs[idx]
    else:
        a_eig = vecs.T @ a.real @ vecs + 1j * (vecs.T @ a.imag @ vecs)
    omega = (vals[:, None] - vals[None, :]) / HBAR
    m = a_eig * _trapezoid_filter(omega, duration, n_slices)
    re = vecs @ m.real @ vecs.T
    im = vecs @ m.imag @ vecs.T
    mat = 0.5 * (re + re.T) + 0.5j * (im - im.T)
    return IntegratedOperator(
        base=observable,
        window=(t_start, t_stop),
        matrix=OperatorMatrix(observable.space, mat, hermitian=True),
        n_slices=n_slices,
        profile=profile,
    )


def sojourn_matrix(
    region: Region,
    grid: Grid,
    free_hamiltonian: Hamiltonian,
    window: tuple[float, float],
    n_slices: int,
) -> SojournOperator:
    """Sojourn-time operator for `region` over `window`."""
    proj = projector(region, grid)
    if tuple(proj.space) != free_hamiltonian.space:
        raise StructureError("sojourn operator requires a position-only Hamiltonian")
    integrated = integrate_heisenberg(proj, free_hamiltonian, window, n_slices)
    duration = window[1] - window[0]
    mat = OperatorMatrix(
        proj.space, duration * integrated.matrix.matrix, hermitian=True
    )
    return SojournOperator(region=region, window=tuple(window), integrated=integrated, matrix=mat)


def _check_reference_time(state: QuantumState, window) -> None:
    if abs(state.representation_time - window[1]) > 1e-9:
        raise ParameterError(
            "readout states must be referenced to the window end "
            f"(state at t={state.representation_time}, window end {window[1]})"
        )


def weak_value(
    integrated: IntegratedOperator, psi_final: QuantumState, observable: str = "observable"
) -> WeakValueResult:
    """Unconditioned weak value <psi|I(A)|psi>; real for hermitian A."""
    _check_reference_time(psi_final, integrated.window)
    val = complex(
        psi_final.cell_weight
        * np.vdot(psi_final.amplitudes, integrated.matrix.matrix @ psi_final.amplitudes)
    )
    return WeakValueResult(value=val, observable=observable, window=integrated.window)


def conditional_weak_value(
    integrated: IntegratedOperator,
    psi_final: QuantumState,
    chi_final: QuantumState,
    observable: str = "observable",
    postselection: str = "custom",
    overlap_floor: float = DEFAULT_OVERLAP_FLOOR,
) -> WeakValueResult:
    """Postselected weak value <chi|I(A)|psi> / <chi|psi>; complex in general."""
    _check_reference_time(psi_final, integrated.window)
    _check_reference_time(chi_final, integrated.window)
    den = inner_product(chi_final, psi_final)
    if abs(den) <= overlap_floor * psi_final.norm():
        raise DegeneratePostselectionError(
            f"postselection overlap {abs(den):.3e} below floor; value undefined"
        )
    num = complex(
        chi_final.cell_weight
        * np.vdot(chi_final.amplitudes, integrated.matrix.matrix @ psi_final.amplitudes)
    )
    val = num / den
    anomalous = abs(val) > ANOMALY_FACTOR * max(1.0, integrated.duration)
    return WeakValueResult(
        value=val,
        observable=observable,
        window=integrated.window,
        postselection=postselection,
        anomalous=anomalous,
    )


def dwell_time(op: SojournOperator, psi_final: QuantumState) -> float:
    """Unconditioned dwell time; lies in [0, window length]."""
    res = weak_value(op.integrated, psi_final, observable="region projector")
    tau = op.duration * res.value.real
    # clip quadrature-level excursions only
    if -1e-9 < tau < 0.0:
        tau = 0.0
    elif op.duration < tau < op.duration + 1e-9:
        tau = op.duration
    return tau


def conditional_dwell_time(
    op: SojournOperator,
    psi_final: QuantumState,
    chi_final: QuantumState,
    postselection: str = "custom",
    overlap_floor: float = DEFAULT_OVERLAP_FLOOR,
) -> WeakValueResult:
    """Postselected mean time in the region: window length times the
    conditional projector weak value.  May be negative or exceed the window;
    flagged anomalous outside ten window lengths."""
    res = conditional_weak_value(
        op.integrated,
        psi_final,
        chi_final,
        observable="region projector",
        postselection=postselection,
        overlap_floor=overlap_floor,
    )
    val = op.duration * res.value
    return WeakValueResult(
        value=val,
        observable="region time",
        window=op.window,
        postselection=postselection,
        anomalous=abs(val) > ANOMALY_FACTOR * op.duration,
    )


def moment(
    op: SojournOperator,
    psi_final: QuantumState,
    chi_final: QuantumState,
    order: int,
    overlap_floor: float = DEFAULT_OVERLAP_FLOOR,
) -> float:
    """Real part of the order-l conditional weak value of the sojourn
    operator power, by repeated matrix application."""
    if order < 1:
        raise ParameterError("moment order must be >= 1")
    if order > 4:
        raise ParameterError("moments implemented for order <= 4")
    _check_reference_time(psi_final, op.window)
    _check_reference_time(chi_final, op.window)
    den = inner_product(chi_final, psi_final)
    if abs(den) <= overlap_floor * psi_final.norm():
        raise DegeneratePostselectionError("postselection overlap below floor")
    vec = psi_final.amplitudes
    for _ in range(order):
        vec = op.matrix.matrix @ vec
    num = psi_final.cell_weight * np.vdot(chi_final.amplitudes, vec)
    return float((num / den).real)


def moment_sum(
    op: SojournOperator,
    psi_final: QuantumState,
    chi_family: list[QuantumState],
    order: int,
) -> float:
    """Sum of |overlap|^2-weighted conditional moments over a family of
    orthonormal final states, evaluated in numerator form so that cells with
    vanishing overlap contribute zero instead of 0/0."""
    vec = psi_final.amplitudes
    for _ in range(order):
        vec = op.matrix.matrix @ vec
    total = 0.0
    w = psi_final.cell_weight
    for chi in chi_family:
        p = w * np.vdot(chi.amplitudes, psi_final.amplitudes)
        num = w * np.vdot(chi.amplitudes, vec)
        total += (np.conj(p) * num).real
    return total


def second_moment_position_integral(op: SojournOperator, psi_final: QuantumState) -> float:
    """Second moment via the position integral of squared cell-postselected
    times, |t(r)|^2 |psi(r, t_f)|^2 summed over cells.

    Uses the numerator-only form |<r| t_op |psi>|^2, which is the same
    product with the cell amplitude cancelled, so cells where psi vanishes
    contribute their correct (zero) weight without dividing by zero.
    """
    if len(op.matrix.space) != 1 or op.matrix.space[0].kind != "position":
        raise StructureError("position-integral route requires a bare position space")
    _check_reference_time(psi_final, op.window)
    w = op.matrix.matrix @ psi_final.amplitudes
    dx = op.matrix.space[0].grid.dx
    return float(np.sum(np.abs(w) ** 2) * dx)


@dataclass(frozen=True)
class PositionSecondMoment:
    """Both definitions of a cell-postselected second moment."""

    operator_form: float      # Re <r| t_op^2 |psi> / <r|psi>
    symmetrized_form: float   # <psi| t_op P_r t_op |psi> / <psi| P_r |psi>


def second_moment_position_postselected(
    op: SojournOperator,
    psi_final: QuantumState,
    cell_index: int,
    overlap_floor: float = DEFAULT_OVERLAP_FLOOR,
) -> PositionSecondMoment:
    """Second moment conditioned on finding the particle in one grid cell.

    Returns the operator form together with the symmetrized alternative;
    the two differ in general.
    """
    if len(op.matrix.space) != 1 or op.matrix.space[0].kind != "position":
        raise StructureError("cell postselection requires a bare position space")
    _check_reference_time(psi_final, op.window)
    grid = op.matrix.space[0].grid
    cell = basis_cell_state(grid, cell_index, space=op.matrix.space, time=psi_final.representation_time)
    den = inner_product(cell, psi_final)
    if abs(den) <= overlap_floor * psi_final.norm():
        raise DegeneratePostselectionError("cell weight below floor")
    t_psi = op.matrix.matrix @ psi_final.amplitudes
    t2_psi = op.matrix.matrix @ t_psi
    w = psi_final.cell_weight
    operator_form = float((w * np.vdot(cell.amplitudes, t2_psi) / den).real)
    symmetrized = float(np.abs(t_psi[cell_index]) ** 2 / np.abs(psi_final.amplitudes[cell_index]) ** 2)
    return PositionSecondMoment(operator_form=operator_form, symmetrized_form=symmetrized)

