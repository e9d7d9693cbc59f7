"""Independent brute-force reference implementation.

Everything here is deliberately written against raw numpy arrays with a
Van Loan block exponential for time averages, eigendecomposition-based
propagation (a dense exponential with an absorber) and literal tensor
products (system (x) pointer, position (x) spin), sharing no code with the
package beyond the numbers it is fed; the dense matrices of the package's
Hamiltonian and sojourn operator are built here too (`dense_hamiltonian`
from the kinetic stencil, not from `Hamiltonian.tridiagonal`; `k_matrix`
assembles K whole from a `SojournOperator`'s upper block rows, the one
form of M = D_u K D_u^dag the package keeps, and `eigen_matrix` rotates
it by phases computed here; `full_eigen_matrix` builds M with the
unfactored complex filter).  The exceptions compare two definitions of
one quantity rather than the package against a reference, so they
compose the package's own pieces: `full_k_matrix` reuses the sinc
filter, because it pins the blocked arrangement of K and not the filter
(which is checked against mpmath);
`second_moment_position_postselected` composes the guarded readouts;
`columns` forms a `CoupledSystem`'s columns from its `read`, and
`meter_composite` reads a run's system columns through it (a
`CarriedFamily` run's are evolved densely here);
`conditional_mean_sum` reads the marginal pointer through
`pointer_distribution`; and `derivative_identity_check` guards its
postselection with `checked_overlap` and extrapolates with
`extrapolate_to_zero`.  It is slow and only meant for small grids.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from weaktime.clocks import extrapolate_to_zero
from weaktime.errors import ParameterError
from weaktime.hilbert import HBAR, basis_cell_state, checked_overlap, fourier_momentum_values
from weaktime.meter import pointer_distribution
from weaktime.sojourn import CarriedFamily, _window_sinc, moment


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


def k_matrix(op):
    """A `SojournOperator`'s real midpoint matrix K as one N x N array: its
    upper block rows, with their transposes as the column blocks below."""
    n = op.vals.size
    k = np.empty((n, n))
    for i0, i1, block in op.blocks:
        k[i0:i1, i0:] = block
        k[i1:, i0:i1] = block[:, i1 - i0:].T
    return k


def midpoint_phases(vals, duration):
    """u = exp(-i E T / 2 hbar), the free phases over half the window."""
    return np.exp(-0.5j * vals * duration / HBAR)


def eigen_matrix(op):
    """A `SojournOperator`'s eigenbasis matrix M = D_u K D_u^dag as one
    N x N array, u from the levels and window length (`midpoint_phases`)."""
    u = midpoint_phases(op.vals, op.duration)
    return u[:, None] * k_matrix(op) * u.conj()[None, :]


def full_k_matrix(rows, vals, duration):
    """The sojourn operator's midpoint matrix K = (V_R^T V_R) * sinc(phi) in
    one full N x N build, every level pair filtered at once."""
    phi = (vals[:, None] - vals[None, :]) * (0.5 * duration / HBAR)
    return (rows.T @ rows) * _window_sinc(phi)


def full_eigen_matrix(rows, vals, duration):
    """The sojourn operator's eigenbasis matrix M = (V_R^T V_R) * F(phi) in
    one full N x N build, with the unfactored window filter F(phi) = sinc(phi)
    exp(-i phi) = sinc(phi) cos(phi) - i sinc(phi) sin(phi) of every level
    pair, as `sojourn_matrix` formed it before it kept the midpoint K."""
    phi = (vals[:, None] - vals[None, :]) * (0.5 * duration / HBAR)
    sin_phi = np.sin(phi)
    sinc = np.divide(sin_phi, phi, out=np.ones_like(phi), where=phi != 0.0)
    return (rows.T @ rows) * (sinc * np.cos(phi) - 1j * (sinc * sin_phi))


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


def dense_sojourn(op):
    """Position-basis matrix T V M V^T of a `SojournOperator`."""
    vecs, m = op.vecs, eigen_matrix(op)
    return op.duration * (vecs @ m.real @ vecs.T + 1j * (vecs @ m.imag @ vecs.T))


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


def dense_hamiltonian(ham):
    """Dense matrix of a `Hamiltonian`: the hard-wall kinetic stencil plus
    diag(potential_real) on a position grid, zeros on a spin."""
    grid = ham.position_grid
    if grid is None:
        return np.zeros((ham.dimension, ham.dimension))
    h = kinetic_matrix(grid.n_points, grid.dx)
    if ham.potential_real is not None:
        h += np.diag(ham.potential_real)
    return h


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
    frames = [u0(tf - (t0 + (j + 0.5) * dt)) for j in range(n)]
    frames = [(c, c.conj().T) for c in frames]
    p = 2.0 * np.pi * np.fft.fftfreq(phi.size, d=dq)
    coeffs = np.fft.fft(phi)
    # every mode at once: one step matrix per mode, stacked (mode, N, N),
    # and the modes' states as the columns of one (N, mode) block
    w, u = np.linalg.eigh(h_matrix + (coupling * p[:, None, None] / span) * power)
    steps = (u * np.exp(-1j * dt * w)[:, None, :]) @ u.conj().transpose(0, 2, 1)
    v = np.repeat(psi0[:, None].astype(complex), phi.size, axis=1)
    for c, c_dag in frames:
        v = c_dag @ (steps @ (c @ v).T[:, :, None])[:, :, 0].T
    return np.fft.ifft(coeffs * v, axis=1)


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


def columns(family, shifts):
    """psi(s_k) for each shift as the columns of one (dimension,
    len(shifts)) block, formed from a `CoupledSystem`'s `read` as X M
    without its first column, which the package never does: it keeps only
    the read's small forms."""
    reading = family.read(shifts)
    return reading.rows.T @ reading.mix[:, 1:]


def _meter_columns(family, shifts):
    """psi(s_k) for each shift as columns: a `CoupledSystem`'s through
    `columns`, a `CarriedFamily`'s by exponentiating its carried operator
    power densely, exp(-i s T T_op^l / hbar) psi_ref."""
    if not isinstance(family, CarriedFamily):
        return columns(family, shifts)
    vals, vecs = np.linalg.eigh(dense_sojourn(family.op))
    coeffs = vecs.conj().T @ family.reference_system_final.amplitudes
    phases = np.exp(-1j * family.duration * np.outer(vals**family.order, shifts) / HBAR)
    return vecs @ (phases * coeffs[:, None])


def meter_composite(run):
    """The (system, pointer) amplitude array psi(s, q) of a meter run, built
    densely, which the package never does: pointer mode k drags psi((G/T)
    pi_k) if it is among the run's kept modes and psi_ref if not, and the inverse transform of c_k times those columns over k is
    the array over q."""
    coeffs = np.fft.fft(run.spec.initial_state().amplitudes)
    momenta = fourier_momentum_values(run.spec.grid)
    kept = np.isin(momenta, run.pointer.momenta)
    shifts = (run.coupling / run.family.duration) * momenta[kept]
    cols = np.repeat(run.reference_system_final.amplitudes[:, None], coeffs.size, axis=1)
    cols[:, kept] = _meter_columns(run.family, shifts)
    return np.fft.ifft(cols * coeffs, axis=1)


def _pointer_amplitude(run, chi):
    """Postselected pointer amplitude <chi|psi(q)> of a meter run."""
    return run.system_weight * (chi.amplitudes.conj() @ meter_composite(run))


def conditional_mean_sum(run, chi_family):
    """Left and right side of the conditional-mean decomposition: the
    branch-weighted sum of conditional pointer means against the marginal
    mean.  Exact when the family is orthonormal and complete on the
    system's support."""
    total = pointer_distribution(run).mean
    q, dq = run.spec.grid.points, run.spec.grid.dx
    acc = 0.0
    for chi in chi_family:
        acc += float(np.sum(q * np.abs(_pointer_amplitude(run, chi)) ** 2) * dq)
    return acc, total


@dataclass(frozen=True)
class IdentityReport:
    """Weak values recovered from pointer statistics by finite differences."""

    pointer_weak_value: complex
    pointer_residual: float
    momentum_projected: dict
    momentum_residuals: dict


def derivative_identity_check(run_factory, strengths, chi, orders=(1, 2)):
    """Recover conditional weak values from the pointer in two ways.

    (i) the coupling-derivative of the pointer-position matrix element
    projected on the zero-momentum pointer component, and (ii) for each
    requested order l, (i hbar / pi d/dG)^l of the fixed-small-momentum
    amplitude; both by central differences over a ladder of +-G runs
    produced by `run_factory`.
    """
    strengths = tuple(float(g) for g in strengths)
    if len(strengths) < 3:
        raise ParameterError("need at least 3 ladder strengths")
    runs = {g: run_factory(g) for g in strengths}
    runs_neg = {g: run_factory(-g) for g in strengths}

    probe = runs[strengths[0]]
    den0 = checked_overlap(chi, probe.reference_system_final)
    grid = probe.spec.grid
    q = grid.points
    phi0 = probe.spec.initial_state().amplitudes
    # zero-momentum projection = plain sum over the pointer axis
    denom_q = den0 * np.sum(phi0)

    pi1 = fourier_momentum_values(grid)[1]
    a0 = den0 * np.fft.fft(phi0)[1]

    # discrete response factor of the q-weighted readout: the q-sum applied
    # to the trigonometric interpolant of the discretely modulated pointer
    # differs from the ideal derivative at zero momentum by this computable
    # factor (close to 1); dividing by it makes the identity exact on the grid
    coeffs = np.fft.fft(phi0)
    response = complex(
        -1j
        * np.sum(coeffs * fourier_momentum_values(grid) * np.fft.ifft(q))
        / coeffs[0]
    )

    q_readouts = []
    mom_readouts = {l: [] for l in orders}
    for g in strengths:
        amp_p = _pointer_amplitude(runs[g], chi)
        amp_m = _pointer_amplitude(runs_neg[g], chi)
        nq = np.sum(q * amp_p) - np.sum(q * amp_m)
        q_readouts.append(nq / (2.0 * g * denom_q * response))
        ap = np.fft.fft(amp_p)[1]
        am = np.fft.fft(amp_m)[1]
        for l in orders:
            if l == 1:
                d = (ap - am) / (2.0 * g)
            elif l == 2:
                d = (ap - 2.0 * a0 + am) / g**2
            else:
                raise ParameterError("momentum-projected check implemented for l <= 2")
            mom_readouts[l].append((1j * HBAR / pi1) ** l * d / a0)

    pw, _, pres = extrapolate_to_zero(strengths, q_readouts, 2)
    mom_vals, mom_res = {}, {}
    for l in orders:
        mom_vals[l], _, mom_res[l] = extrapolate_to_zero(strengths, mom_readouts[l], 2)
    return IdentityReport(
        pointer_weak_value=pw,
        pointer_residual=pres,
        momentum_projected=mom_vals,
        momentum_residuals=mom_res,
    )
