"""Dwell times, postselected traversal times and the sojourn-time operator.

The central object is the time average of the Heisenberg-picture region
projector P over a window, (1/T) times the integral of
U0(t_f,t) P U0^dag(t_f,t) over t, evaluated exactly in the real
eigenbasis V of the free Hamiltonian.  Its window filter sinc(phi)
exp(-i phi), phi = (E_i - E_j) T / 2 hbar, factors as sinc(phi) u_i
conj(u_j) with u = exp(-i E T / 2 hbar), so M = D_u K D_u^dag: K =
(V_R^T V_R) * sinc(phi), V_R the region's rows of V, is the same average
about the window midpoint, real symmetric since the Hamiltonian is real.
sinc(phi) depends only on the levels and T, so its upper block rows are
evaluated once per (Hamiltonian, window length) and kept for the eight
most recently used pairs (`functools.lru_cache`; N^2/2 + 32N float64
values, 1.2 MB at N = 512, so at most 9.6 MB).  `sojourn_matrix` forms
K's upper block rows once, each its own block of V_R^T V_R scaled in
place by sinc's, and the operator keeps them (1.2 MB at N = 512).  Every
readout applies M as V D_u K^l D_u^dag V^T to a few vectors; no
position-basis matrix is formed.  Scaled by T this is the hermitian
sojourn-time operator T V M V^T, with spectrum in [0, T] up to rounding,
whose matrix elements give dwell times, postselected traversal times and
their higher moments; the projector's weak value is the dwell time (or,
postselected, the traversal time) over T.

All states passed to the readout functions are Heisenberg-representation
states referenced to the window end, i.e. Schroedinger states evolved to
t_stop.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

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
_BLOCK = 64  # rows of K per block row


@dataclass(frozen=True, eq=False)
class SojournOperator:
    """Window length T times the exact time average of a region projector,
    held in the real eigenbasis (`vals`, `vecs`) of the free Hamiltonian it
    was built from as M = D_u K D_u^dag, u = `midpoint_phases` and K the
    real symmetric average about the window midpoint, kept as its upper
    block rows `blocks`: (i0, i1, K[i0:i1, i0:]) for i0 in steps of 64,
    float64, read-only, N^2/2 + 32N values (1.2 MB at N = 512).  The
    transpose of each block row is K's column block below the diagonal.
    The position-basis operator is T V M V^T, with spectrum in [0, T] up to
    rounding; the package never forms it.  T^l enters its powers as a
    scalar.  K's own eigensystem is solved on first use and cached, like
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

    @functools.cached_property
    def midpoint_phases(self) -> np.ndarray:
        """u = exp(-i E T / 2 hbar), read-only: M = D_u K D_u^dag."""
        u = np.exp(-1j * (self.vals * (0.5 * self.duration / HBAR)))
        u.flags.writeable = False
        return u

    def _apply_k(self, x: np.ndarray) -> np.ndarray:
        """K x for a contiguous complex x, from the block rows and their
        transposed mirrors, as real products on its interleaved float view."""
        xf = x.view(float).reshape(-1, 2)
        y = np.zeros_like(xf)
        for i0, i1, block in self.blocks:
            y[i0:i1] += block @ xf[i0:]
            y[i1:] += block[:, _BLOCK:].T @ xf[i0:i1]
        return y.view(complex)[:, 0]

    def _start(self, amplitudes: np.ndarray, coefficients: np.ndarray):
        """Start the readout ladder of `amplitudes` from their eigenbasis
        coefficients V^T a; kept, by identity, only for read-only ones."""
        key = None if amplitudes.flags.writeable else amplitudes
        self._cache["ladder"] = (key, [self.midpoint_phases.conj() * coefficients], {})

    def _average(self, amplitudes: np.ndarray, power: int) -> np.ndarray:
        """V M^power V^T a, read-only.  The ladder K^l D_u^dag V^T a and its
        back transforms are kept for the last read-only `amplitudes`."""
        memo = self._cache.get("ladder", (None,))
        if memo[0] is not amplitudes or amplitudes.flags.writeable:
            self._start(amplitudes, apply_real(self.vecs.T, amplitudes))
        _, ladder, back = self._cache["ladder"]
        while len(ladder) <= power:
            ladder.append(self._apply_k(ladder[-1]))
        if power not in back:
            back[power] = apply_real(self.vecs, self.midpoint_phases * ladder[power])
            back[power].flags.writeable = False
        return back[power]

    def apply(self, amplitudes: np.ndarray, power: int = 1) -> np.ndarray:
        """The operator's power-th power applied to position amplitudes."""
        return self.duration**power * self._average(amplitudes, power)

    def eigensystem(self):
        """Eigenvalues and real orthogonal eigenvectors (tau, W_K) of K, so
        M = W diag(tau) W^dag with W = D_u W_K; one real symmetric eigh of
        K's lower triangle, filled with the transposed block rows, cached."""
        cached = self._cache.get("eig")
        if cached is None:
            n = self.vals.size
            lower = np.zeros((n, n))
            for i0, i1, block in self.blocks:
                lower[i0:, i0:i1] = block.T
            cached = self._cache["eig"] = np.linalg.eigh(lower)
        return cached


def _check_order(order) -> None:
    """ParameterError unless `order` is an integer in 1..4."""
    if not isinstance(order, numbers.Integral) or not 1 <= order <= 4:
        raise ParameterError(f"sojourn-operator power must be an integer in 1..4, got {order!r}")


class CarriedFamily:
    """psi0 coupled over the operator's window to T_op^order, the sojourn
    operator carried along in the evolving picture so that the coupling
    commutes with its own history: psi(s) = exp(-i s T T_op^order / hbar)
    psi_free for real shifts s, psi_free = `reference_system_final`, psi0
    freely evolved to the window end.  psi(s) is closed-form phases in M's
    cached eigenbasis W = D_u W_K (`SojournOperator.eigensystem`): psi(s) =
    V D_u W_K (z o E(s)), E(s) = exp(-i s T (T tau)^order / hbar), z the
    free state's coefficients in that basis.

    It has the one surface every reader of a `dynamics.CoupledSystem`
    takes, the clocks and `meter.run_meter` alike (`psi0`, `duration`,
    `reference_system_final`, `read`), so a meter run at coupling G evolves
    its mode k by exp(-i G pi_k T_op^order / hbar).  ParameterError for an
    order that is not an integer in 1..4 or a psi0 not at the window start,
    StructureError for one on another space.
    """

    def __init__(self, op: SojournOperator, psi0: QuantumState, order: int):
        _check_order(order)
        _check_state(op, psi0, "run start")
        self.op, self.psi0, self.order, self.duration = op, psi0, order, op.duration
        free = np.exp(-1j * op.vals * op.duration / HBAR) * apply_real(op.vecs.T, psi0.amplitudes)
        self.reference_system_final = QuantumState(psi0.space, apply_real(op.vecs, free),
                                                   op.window[1])
        tau, self._w = op.eigensystem()
        self._spectrum = (op.duration * tau) ** order
        self._z = apply_real(self._w.T, op.midpoint_phases.conj() * free)

    def read(self, shifts) -> CarriedRead:
        """B = [psi_ref | psi(s_1) .. psi(s_K)] at `shifts`, as a
        `CarriedRead`; the family serves every shift as it was built, so
        the read holds only the shifts."""
        return CarriedRead(self, np.asarray(shifts))


class CarriedRead(NamedTuple):
    """B = [psi_ref | psi(s_1) .. psi(s_K)] of a `CarriedFamily` at
    `shifts`: V D_u W_K (z o E), E = [1 | E(s_1) .. E(s_K)] the phases,
    (dimension, K + 1), built for each call and never kept."""

    family: CarriedFamily
    shifts: np.ndarray

    def _phases(self) -> np.ndarray:
        f = self.family
        phases = np.ones((f._z.size, self.shifts.size + 1), dtype=complex)
        phases[:, 1:] = np.exp((-1j * f.duration / HBAR) * np.outer(f._spectrum, self.shifts))
        return phases

    def gram(self) -> np.ndarray:
        """B^H B, (K + 1, K + 1): V D_u W_K is unitary, so it is E^H
        diag(|z|^2) E."""
        phases = self._phases()
        return phases.conj().T @ ((np.abs(self.family._z) ** 2)[:, None] * phases)

    def overlaps(self, chi: QuantumState) -> np.ndarray:
        """chi^H B, (K + 1,), with no cell weight: one pair of real
        transforms, y = W_K^T (conj(u) o V^T chi), then (conj(y) o z) E."""
        op = self.family.op
        y = apply_real(self.family._w.T, op.midpoint_phases.conj()
                       * apply_real(op.vecs.T, chi.amplitudes))
        return (y.conj() * self.family._z) @ self._phases()


@dataclass(frozen=True)
class WeakValueResult:
    """A postselected time, flagged anomalous beyond ANOMALY_FACTOR window
    lengths."""

    value: complex
    anomalous: bool = False


def _window_sinc(phi: np.ndarray) -> np.ndarray:
    """sinc(phi) = sin(phi) / phi, the real factor of the window filter
    (1/T) times the integral of exp(-i omega s) over s in [0, T], phi =
    omega T / 2: no cancellation at any phi, exactly 1 at phi == 0, and,
    sin being odd, exactly even, so that K is exactly symmetric."""
    sin_phi = np.sin(phi)
    return np.divide(sin_phi, phi, out=np.ones_like(phi), where=phi != 0.0)


@functools.lru_cache(maxsize=8)
def _filter_blocks(hamiltonian: Hamiltonian, duration: float) -> tuple:
    """Upper block rows S[i0:i0+64, i0:] of sinc(phi) over the levels of
    `hamiltonian` and `duration`, float64, read-only.  One entry is
    N^2/2 + 32N values (1.2 MB at N = 512), so the cache holds at most
    9.6 MB at N = 512."""
    vals = hamiltonian.eigensystem()[0]
    scale = 0.5 * duration / HBAR
    blocks = tuple(
        _window_sinc((vals[i0:i0 + _BLOCK, None] - vals[None, i0:]) * scale)
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
    of `free_hamiltonian`.  The region projector is diagonal, so K needs
    only the region's rows V_R of V: each upper block row is its own block
    of V_R^T V_R scaled in place by sinc's."""
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
    for i0, s in zip(range(0, vals.size, _BLOCK), _filter_blocks(free_hamiltonian, duration)):
        block = rows[:, i0:i0 + _BLOCK].T @ rows[:, i0:]  # the slices stop at N
        block *= s
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
    _check_order(order)
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
