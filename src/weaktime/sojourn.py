"""Dwell times, postselected traversal times and the sojourn-time operator.

The central object is the time average of the Heisenberg-picture region
projector P over a window, a trapezoid quadrature of U0(t_f,t) P U0^dag(t_f,t).
It is evaluated exactly, and stored once, in the real eigenbasis V of the
free Hamiltonian: as the hermitian matrix M = sym(P_eig * F), with
P_eig = V^T P V and F the trapezoid filter of the level differences.  Every
readout applies it as V M^l V^T to a few vectors; no position-basis matrix
is formed.  Scaled by the window length T this is the hermitian
sojourn-time operator T V M V^T, whose matrix elements give dwell times,
postselected traversal times and their higher moments; the projector's
weak value is the dwell time (or, postselected, the traversal time) over T.

All states passed to the readout functions are Heisenberg-representation
states referenced to the window end, i.e. Schroedinger states evolved to
t_stop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import Hamiltonian
from .errors import ContractError, ParameterError, StructureError
from .hilbert import (
    HBAR,
    HERMITICITY_TOL,
    FactorSpace,
    QuantumState,
    Region,
    basis_cell_state,
    check_time,
    checked_overlap,
)

ANOMALY_FACTOR = 10.0


@dataclass(frozen=True, eq=False)
class SojournOperator:
    """Window length T times the time-averaged projector on `region`, stored
    as the hermitian matrix `eigen_matrix` (M) in the real eigenbasis
    (`vals`, `vecs`) of the free Hamiltonian it was built from; the
    position-basis operator is T V M V^T, hermitian with spectrum within
    [0, T] up to quadrature tolerance.  T^l enters its powers as a scalar.
    M's own eigensystem is solved on first use and cached, like
    `Hamiltonian.eigensystem`."""

    space: FactorSpace
    region: Region
    window: tuple[float, float]
    eigen_matrix: np.ndarray
    vals: np.ndarray
    vecs: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def duration(self) -> float:
        return self.window[1] - self.window[0]

    def _average(self, amplitudes: np.ndarray, power: int) -> np.ndarray:
        """V M^power V^T a, the time-averaged projector's power.  The real V
        acts on the real and imaginary parts separately, so it is never
        upcast to complex."""
        vecs = self.vecs
        c = vecs.T @ amplitudes.real + 1j * (vecs.T @ amplitudes.imag)
        for _ in range(power):
            c = self.eigen_matrix @ c
        return vecs @ c.real + 1j * (vecs @ c.imag)

    def apply(self, amplitudes: np.ndarray, power: int = 1) -> np.ndarray:
        """The operator's power-th power applied to position amplitudes."""
        return self.duration**power * self._average(amplitudes, power)

    def dense(self) -> np.ndarray:
        """Position-basis matrix T V M V^T, meant as input to brute-force
        cross-checks on small grids."""
        vecs, m = self.vecs, self.eigen_matrix
        return self.duration * (vecs @ m.real @ vecs.T + 1j * (vecs @ m.imag @ vecs.T))

    def eigensystem(self):
        """Real eigenvalues and unitary eigenvectors (tau, W) of M, so that
        M = W diag(tau) W^dag; one hermitian eigh, cached."""
        cached = self._cache.get("eig")
        if cached is None:
            cached = np.linalg.eigh(self.eigen_matrix)
            self._cache["eig"] = cached
        return cached


@dataclass(frozen=True)
class WeakValueResult:
    """A postselected time, flagged anomalous beyond ANOMALY_FACTOR window
    lengths."""

    value: complex
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


def sojourn_matrix(
    region: Region,
    free_hamiltonian: Hamiltonian,
    window: tuple[float, float],
    n_slices: int,
) -> SojournOperator:
    """Sojourn-time operator for `region` over `window`, on the position grid
    of `free_hamiltonian`.  The region projector is diagonal, so its
    eigenbasis matrix needs only the region's rows of V."""
    grid = free_hamiltonian.position_grid
    if grid is None:
        raise StructureError("sojourn operator requires a position-only Hamiltonian")
    if n_slices < 2:
        raise ParameterError("n_slices must be at least 2")
    t_start, t_stop = window
    duration = t_stop - t_start
    if duration <= 0:
        raise ParameterError("window must have positive duration")
    vals, vecs = free_hamiltonian.eigensystem()
    rows = vecs[region.indices(grid)]
    omega = (vals[:, None] - vals[None, :]) / HBAR
    m = (rows.T @ rows) * _trapezoid_filter(omega, duration, n_slices)
    m_dag = m.conj().T
    defect = np.max(np.abs(m - m_dag))
    if defect >= HERMITICITY_TOL:
        raise ContractError(f"time average not hermitian: |M - M^dag| = {defect:.3e}")
    return SojournOperator(
        free_hamiltonian.space, region, (t_start, t_stop), 0.5 * (m + m_dag), vals, vecs
    )


def _postselected_ratio(
    op: SojournOperator,
    psi_final: QuantumState,
    chi_final: QuantumState,
    power: int,
) -> complex:
    """<chi| V M^power V^T |psi> / <chi|psi>, with both states referenced to
    the window end and the overlap guarded by `hilbert.checked_overlap`."""
    check_time(psi_final, op.window[1], "window end")
    check_time(chi_final, op.window[1], "window end")
    den = checked_overlap(chi_final, psi_final)
    num = chi_final.cell_weight * np.vdot(
        chi_final.amplitudes, op._average(psi_final.amplitudes, power)
    )
    return complex(num / den)


def dwell_time(op: SojournOperator, psi_final: QuantumState) -> float:
    """Unconditioned dwell time T Re<psi|M|psi>, returned unclipped: it lies
    in [0, T] up to rounding (a whole-box region gives T plus a few ulps)."""
    check_time(psi_final, op.window[1], "window end")
    amps = psi_final.amplitudes
    weak = complex(psi_final.cell_weight * np.vdot(amps, op._average(amps, 1)))
    return op.duration * weak.real


def conditional_dwell_time(
    op: SojournOperator, psi_final: QuantumState, chi_final: QuantumState
) -> WeakValueResult:
    """Postselected mean time in the region: window length times the
    conditional projector weak value.  May be negative or exceed the window;
    flagged anomalous outside ANOMALY_FACTOR window lengths."""
    val = op.duration * _postselected_ratio(op, psi_final, chi_final, 1)
    return WeakValueResult(value=val, anomalous=abs(val) > ANOMALY_FACTOR * op.duration)


def moment(
    op: SojournOperator,
    psi_final: QuantumState,
    chi_final: QuantumState,
    order: int,
) -> float:
    """Real part of the order-l conditional weak value of the sojourn
    operator power."""
    if order < 1:
        raise ParameterError("moment order must be >= 1")
    if order > 4:
        raise ParameterError("moments implemented for order <= 4")
    ratio = _postselected_ratio(op, psi_final, chi_final, order)
    return float((op.duration**order * ratio).real)


def moment_sum(
    op: SojournOperator,
    psi_final: QuantumState,
    chi_family: list[QuantumState],
    order: int,
) -> float:
    """Sum of |overlap|^2-weighted conditional moments over a family of
    orthonormal final states, evaluated in numerator form so that cells with
    vanishing overlap contribute zero instead of 0/0."""
    vec = op.apply(psi_final.amplitudes, order)
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
    dx = op.space.grid.dx
    check_time(psi_final, op.window[1], "window end")
    w = op.apply(psi_final.amplitudes)
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
) -> PositionSecondMoment:
    """Second moment conditioned on finding the particle in one grid cell.

    Returns the operator form together with the symmetrized alternative;
    the two differ in general.
    """
    cell = basis_cell_state(op.space.grid, cell_index, time=psi_final.representation_time)
    operator_form = moment(op, psi_final, cell, 2)
    t_psi = op.apply(psi_final.amplitudes)
    symmetrized = float(np.abs(t_psi[cell_index]) ** 2 / np.abs(psi_final.amplitudes[cell_index]) ** 2)
    return PositionSecondMoment(operator_form=operator_form, symmetrized_form=symmetrized)
