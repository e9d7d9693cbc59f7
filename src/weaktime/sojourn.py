"""Dwell times, postselected traversal times and the sojourn-time operator.

The central object is the time average of the Heisenberg-picture region
projector P over a window, (1/T) times the integral of
U0(t_f,t) P U0^dag(t_f,t) over t.  It is evaluated exactly in the real
eigenbasis V of the free Hamiltonian, as the elementwise product
M = (V_R^T V_R) * F, with V_R the region's rows of V and F the closed-form
window filter sinc(phi) exp(-i phi) of the level differences,
phi = (E_i - E_j) T / 2 hbar.  F depends only on the levels and T, so its
upper block rows are evaluated once per (Hamiltonian, window length), one
evaluation per level pair, and kept for the eight most recently used pairs
(`functools.lru_cache`).  `sojourn_matrix` forms M once, as its upper
block rows only, each its own block of V_R^T V_R times the filter's, and
the operator keeps them read-only for its lifetime (N^2/2 + 32N complex
values, 2.4 MB at N = 512); no N x N Gram is formed.  V_R^T V_R is
symmetric and F_ji = conj(F_ij), so the conjugate of each block row is
M's column block below the diagonal.  Every readout applies M as
V M^l V^T to a few vectors (one ladder M^l V^T a per state); no
position-basis matrix is formed.  Scaled by the window length T this is
the hermitian sojourn-time operator T V M V^T, with spectrum in [0, T] up
to rounding, whose matrix elements give dwell times, postselected
traversal times and their higher moments; the projector's weak value is
the dwell time (or, postselected, the traversal time) over T.

All states passed to the readout functions are Heisenberg-representation
states referenced to the window end, i.e. Schroedinger states evolved to
t_stop.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Hamiltonian, apply_real
from .errors import ParameterError, StructureError
from .hilbert import (
    HBAR,
    FactorSpace,
    QuantumState,
    Region,
    check_time,
    checked_overlap,
)

ANOMALY_FACTOR = 10.0
_BLOCK = 64  # rows of M per block row


@dataclass(frozen=True, eq=False)
class SojournOperator:
    """Window length T times the exact time average of a region projector,
    held in the real eigenbasis (`vals`, `vecs`) of the free Hamiltonian it
    was built from as the upper block rows `blocks` of its eigenbasis
    matrix M = (V_R^T V_R) * F: (i0, i1, M[i0:i1, i0:]) for i0 in steps of
    64, read-only, N^2/2 + 32N complex values (2.4 MB at N = 512).  The
    conjugate of each block row is M's column block below the diagonal.
    The position-basis operator is T V M V^T, with spectrum in [0, T] up to
    rounding; the package never forms it.  T^l enters its powers as a
    scalar.  M's own eigensystem is solved on first use and cached, like
    `Hamiltonian.eigensystem`."""

    space: FactorSpace
    window: tuple[float, float]
    blocks: tuple
    vals: np.ndarray
    vecs: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def duration(self) -> float:
        return self.window[1] - self.window[0]

    def _apply_eigen(self, x: np.ndarray) -> np.ndarray:
        """M x, from the block rows and their conjugate mirrors."""
        y = np.zeros(x.shape, dtype=complex)
        for i0, i1, block in self.blocks:
            y[i0:i1] += block @ x[i0:]
            y[i1:] += (x[i0:i1].conj() @ block[:, _BLOCK:]).conj()
        return y

    def _average(self, amplitudes: np.ndarray, power: int) -> np.ndarray:
        """V M^power V^T a, read-only.  The ladder M^l V^T a and its back
        transforms are kept for the last read-only `amplitudes`, by identity."""
        memo = self._cache.get("ladder", (None,))
        if memo[0] is not amplitudes or amplitudes.flags.writeable:
            key = None if amplitudes.flags.writeable else amplitudes
            memo = self._cache["ladder"] = (key, [apply_real(self.vecs.T, amplitudes)], {})
        _, ladder, back = memo
        while len(ladder) <= power:
            ladder.append(self._apply_eigen(ladder[-1]))
        if power not in back:
            back[power] = apply_real(self.vecs, ladder[power])
            back[power].flags.writeable = False
        return back[power]

    def apply(self, amplitudes: np.ndarray, power: int = 1) -> np.ndarray:
        """The operator's power-th power applied to position amplitudes."""
        return self.duration**power * self._average(amplitudes, power)

    def eigensystem(self):
        """Real eigenvalues and unitary eigenvectors (tau, W) of M, so that
        M = W diag(tau) W^dag; one hermitian eigh of M's lower triangle,
        filled with the conjugate transposed block rows, cached."""
        cached = self._cache.get("eig")
        if cached is None:
            n = self.vals.size
            lower = np.zeros((n, n), dtype=complex)
            for i0, i1, block in self.blocks:
                lower[i0:, i0:i1] = block.conj().T
            cached = self._cache["eig"] = np.linalg.eigh(lower)
        return cached


@dataclass(frozen=True)
class WeakValueResult:
    """A postselected time, flagged anomalous beyond ANOMALY_FACTOR window
    lengths."""

    value: complex
    anomalous: bool = False


def _window_filter(phi: np.ndarray) -> np.ndarray:
    """(1/T) times the integral of exp(-i omega s) over s in [0, T], as
    sinc(phi) exp(-i phi) with phi = omega T / 2: no cancellation at any phi,
    exactly 1 at phi == 0, and made of the odd sin and the even cos alone, so
    that the filter of -phi is the exact conjugate of the filter of phi."""
    sin_phi = np.sin(phi)
    sinc = np.divide(sin_phi, phi, out=np.ones_like(phi), where=phi != 0.0)
    return sinc * np.cos(phi) - 1j * (sinc * sin_phi)


@functools.lru_cache(maxsize=8)
def _filter_blocks(hamiltonian: Hamiltonian, duration: float) -> tuple:
    """Upper block rows F[i0:i0+64, i0:] of the window filter of the levels
    of `hamiltonian` over `duration`, read-only.  One entry is N^2/2 + 32N
    complex values (2.4 MB at N = 512), so the cache holds at most 19 MB at
    N = 512."""
    vals = hamiltonian.eigensystem()[0]
    scale = 0.5 * duration / HBAR
    blocks = tuple(
        _window_filter((vals[i0:i0 + _BLOCK, None] - vals[None, i0:]) * scale)
        for i0 in range(0, vals.size, _BLOCK)
    )
    for block in blocks:
        block.flags.writeable = False
    return blocks


def sojourn_matrix(
    region: Region,
    free_hamiltonian: Hamiltonian,
    window: tuple[float, float],
) -> SojournOperator:
    """Sojourn-time operator for `region` over `window`, on the position grid
    of `free_hamiltonian`.  The region projector is diagonal, so M needs
    only the region's rows V_R of V: each upper block row is its own block
    of V_R^T V_R times the filter's."""
    grid = free_hamiltonian.position_grid
    if grid is None:
        raise StructureError("sojourn operator requires a position-only Hamiltonian")
    t_start, t_stop = window
    duration = t_stop - t_start
    if not duration > 0:
        raise ParameterError("window needs t_start < t_stop")
    vals, vecs = free_hamiltonian.eigensystem()
    rows = vecs[region.indices(grid)]
    blocks = []
    for i0, f in zip(range(0, vals.size, _BLOCK), _filter_blocks(free_hamiltonian, duration)):
        block = rows[:, i0:i0 + _BLOCK].T @ rows[:, i0:] * f  # the slices stop at N
        block.flags.writeable = False
        blocks.append((i0, i0 + _BLOCK, block))
    return SojournOperator(free_hamiltonian.space, (t_start, t_stop), tuple(blocks), vals, vecs)


def _check_state(op: SojournOperator, state: QuantumState, instant: str = "window end"):
    """StructureError for a state on another space than the operator's,
    ParameterError for one not at the window end (start, for "run start")."""
    if state.space != op.space:
        raise StructureError("state and sojourn operator live on different spaces")
    check_time(state, op.window[0] if instant == "run start" else op.window[1], instant)


def _postselected_ratio(
    op: SojournOperator,
    psi_final: QuantumState,
    chi_final: QuantumState,
    power: int,
) -> complex:
    """<chi| V M^power V^T |psi> / <chi|psi>, with both states referenced to
    the window end and the overlap guarded by `hilbert.checked_overlap`."""
    _check_state(op, psi_final)
    _check_state(op, chi_final)
    den = checked_overlap(chi_final, psi_final)
    num = chi_final.cell_weight * np.vdot(
        chi_final.amplitudes, op._average(psi_final.amplitudes, power)
    )
    return complex(num / den)


def dwell_time(op: SojournOperator, psi_final: QuantumState) -> float:
    """Unconditioned dwell time T Re<psi|M|psi>, returned unclipped: it lies
    in [0, T] up to rounding (a whole-box region gives T plus a few ulps)."""
    _check_state(op, psi_final)
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
    vanishing overlap contribute zero instead of 0/0.  Having no overlap
    guard, it checks the space and time of every state itself."""
    _check_state(op, psi_final)
    vec = op.apply(psi_final.amplitudes, order)
    total = 0.0
    w = psi_final.cell_weight
    for chi in chi_family:
        _check_state(op, chi)
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
    _check_state(op, psi_final)
    w = op.apply(psi_final.amplitudes)
    return float(np.sum(np.abs(w) ** 2) * dx)
