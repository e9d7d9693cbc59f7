"""Independent brute-force reference implementation.

Everything here is deliberately written against raw numpy arrays with a
Van Loan block exponential for time averages, eigendecomposition-based
propagation (a dense exponential with an absorber) and literal tensor
products (system (x) pointer, position (x) spin), sharing no code with the
package beyond the numbers it is fed.  Two exceptions: `full_eigen_matrix`
reuses the package's window filter, because it pins the blocked arrangement
of M and not the filter (which is checked against mpmath); and
`second_moment_position_postselected` composes the package's own guarded
readouts, because it compares two definitions of one moment rather than
the package against a reference.  It is slow and only meant for small grids.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from weaktime.hilbert import HBAR, basis_cell_state
from weaktime.sojourn import _window_filter, moment


def evolve_exact(h_matrix, psi, duration):
    """Propagate an amplitude vector by exp(-i H t): via eigendecomposition
    for a hermitian H, by a dense matrix exponential for one with an
    absorbing (imaginary) part."""
    if not np.array_equal(h_matrix, h_matrix.conj().T):
        return scipy.linalg.expm(-1j * duration * h_matrix) @ psi
    vals, vecs = scipy.linalg.eigh(h_matrix)
    return vecs @ (np.exp(-1j * vals * duration) * (vecs.conj().T @ psi))


def time_average(a_matrix, h_matrix, window):
    """Exact average of U0(t_f,t) A U0(t_f,t)^dag over the window, from one
    dense matrix exponential (Van Loan, IEEE Trans. Autom. Control 23, 395
    (1978)): the upper-right block of expm(T [[-iH, A], [0, -iH]]) is the
    integral of exp(-iH(T-s)) A exp(-iHs) over s in [0, T], and exp(iHT) on
    the right turns it into the integral of U0(u) A U0(u)^dag over u."""
    duration = window[1] - window[0]
    n = h_matrix.shape[0]
    gen = np.zeros((2 * n, 2 * n), dtype=complex)
    gen[:n, :n] = gen[n:, n:] = -1j * h_matrix
    gen[:n, n:] = a_matrix
    block = scipy.linalg.expm(duration * gen)[:n, n:]
    return block @ scipy.linalg.expm(1j * duration * h_matrix) / duration


def full_eigen_matrix(rows, vals, duration):
    """The sojourn operator's eigenbasis matrix M = (V_R^T V_R) * F(phi) in
    one full N x N build, every level pair filtered, as `sojourn_matrix`
    formed it before it built M in row blocks."""
    phi = (vals[:, None] - vals[None, :]) * (0.5 * duration / HBAR)
    return (rows.T @ rows) * _window_filter(phi)


@dataclass(frozen=True)
class PositionSecondMoment:
    """Both definitions of a cell-postselected second moment."""

    operator_form: float      # Re <r| t_op^2 |psi> / <r|psi>
    symmetrized_form: float   # <psi| t_op P_r t_op |psi> / <psi| P_r |psi>


def second_moment_position_postselected(op, psi_final, cell_index):
    """Second moment of a `SojournOperator` conditioned on finding the
    particle in one grid cell, in the operator form (through the package's
    `moment`, so its overlap guard applies) and the symmetrized alternative;
    the two differ in general."""
    cell = basis_cell_state(op.space.grid, cell_index, time=psi_final.representation_time)
    operator_form = moment(op, psi_final, cell, 2)
    t_psi = op.apply(psi_final.amplitudes)
    symmetrized = float(np.abs(t_psi[cell_index]) ** 2 / np.abs(psi_final.amplitudes[cell_index]) ** 2)
    return PositionSecondMoment(operator_form=operator_form, symmetrized_form=symmetrized)


def sojourn(region_mask, h_matrix, window):
    """Window length times the time-averaged projector onto the masked cells."""
    proj = np.diag(region_mask.astype(complex))
    return (window[1] - window[0]) * time_average(proj, h_matrix, window)


def weak_value(matrix, psi, dx):
    return dx * np.vdot(psi, matrix @ psi)


def conditional_weak_value(matrix, psi, chi, dx):
    return dx * np.vdot(chi, matrix @ psi) / (dx * np.vdot(chi, psi))


def conditional_moment(t_matrix, psi, chi, order, dx):
    power = np.linalg.matrix_power(t_matrix, order)
    return (dx * np.vdot(chi, power @ psi) / (dx * np.vdot(chi, psi))).real


def second_moment_cells(t_matrix, psi, dx):
    """Position integral of |conditional cell time|^2 weighted by the final
    density, in the numerator form that avoids dividing by empty cells."""
    w = t_matrix @ psi
    return float(np.sum(np.abs(w) ** 2) * dx)


def kinetic_matrix(n, dx):
    """-d^2/dx^2 with hard walls (mass 1/2, hbar 1)."""
    inv2 = 1.0 / dx**2
    m = 2.0 * inv2 * np.eye(n)
    m -= inv2 * np.eye(n, k=1)
    m -= inv2 * np.eye(n, k=-1)
    return m


def dft_momentum(n, dq):
    """Dense momentum operator diagonalized by the DFT (periodic pointer
    grid), p = 2 pi fftfreq(n, dq)."""
    p = 2.0 * np.pi * np.fft.fftfreq(n, d=dq)
    mat = np.fft.ifft(p[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    return 0.5 * (mat + mat.conj().T)


def composite_meter(h_matrix, a_matrix, psi0, phi, dq, coupling, duration):
    """Literal system (x) pointer meter: the amplitudes, shaped (system,
    pointer), after exp(-i T (H (x) 1 + (G/T) A (x) p)) acting on psi0 (x) phi."""
    n_q = phi.size
    gen = np.kron(h_matrix, np.eye(n_q)) + (coupling / duration) * np.kron(
        a_matrix, dft_momentum(n_q, dq)
    )
    final = evolve_exact(gen, np.kron(psi0, phi), duration)
    return final.reshape(psi0.size, n_q)


def stepped_moment_meter(h_matrix, t_matrix, order, psi0, phi, dq, coupling,
                         window, dt):
    """Moment meter amplitudes, shaped (system, pointer), by time stepping.

    Pointer momentum mode p drags the system under H + (G p / T) O(t) with
    O(t) = U0(t_f, t)^dag T_op^order U0(t_f, t), the Schroedinger picture of
    the sojourn operator power, frozen at each step midpoint.  Freezing at
    t_m gives the step U0(t_f,t_m)^dag exp(-i dt (H + (G p/T) T_op^order))
    U0(t_f,t_m), since U0 commutes with H.
    """
    t0, tf = window
    span = tf - t0
    n = int(round(span / dt))
    vals, vecs = scipy.linalg.eigh(h_matrix)

    def u0(s):
        return (vecs * np.exp(-1j * vals * s)) @ vecs.conj().T

    power = np.linalg.matrix_power(t_matrix, order)
    conj = [u0(tf - (t0 + (j + 0.5) * dt)) for j in range(n)]
    p = 2.0 * np.pi * np.fft.fftfreq(phi.size, d=dq)
    coeffs = np.fft.fft(phi)
    modes = np.empty((psi0.size, phi.size), dtype=complex)
    for k in range(phi.size):
        w, u = scipy.linalg.eigh(h_matrix + (coupling * p[k] / span) * power)
        step = (u * np.exp(-1j * dt * w)) @ u.conj().T
        v = psi0
        for c in conj:
            v = c.conj().T @ (step @ (c @ v))
        modes[:, k] = coeffs[k] * v
    return np.fft.ifft(modes, axis=1)


def larmor_spinors(h_matrix, region_mask, psi0, chi, omegas, duration, dx):
    """Postselected spinors (a_up, a_down) of the literal position (x) spin
    Larmor clock, one per precession frequency.

    The spin starts along +x; H (x) 1 + (omega/2) P_region (x) sigma_z is
    exponentiated by eigendecomposition of the 2N x 2N matrix, and the
    position factor is projected on chi.
    """
    n = psi0.size
    sigma_z = np.diag([1.0, -1.0])
    state0 = np.kron(psi0, np.array([1.0, 1.0]) / np.sqrt(2.0))
    out = []
    for omega in omegas:
        gen = np.kron(h_matrix, np.eye(2)) + 0.5 * omega * np.kron(
            np.diag(region_mask.astype(float)), sigma_z
        )
        v = evolve_exact(gen, state0, duration)
        out.append(dx * (chi.conj() @ v.reshape(n, 2)))
    return out
