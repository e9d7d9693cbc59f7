"""Physical clock methods: perturbation sweeps with extrapolation to zero.

Three probes extract the mean time spent in a region from the response of
the perturbed wavefunction: a small real potential step (phase clock), a
small absorbing potential (norm clock) and a small spin precession field
confined to the region (Larmor clock).  Each is swept over a descending
ladder of strengths and Richardson-extrapolated to zero strength.

All of them read window-end states of one packet evolved under the system
Hamiltonian plus a weak complex potential u on the region: u = +-v for the
phase clock, u = +-hbar omega/2 for Larmor and u = -i Gamma/2 for the
absorber.  A `ClockRuns` table holds those states for one packet, region
and window under their exact u, so clocks that share a Hamiltonian share
its evolution.  The keys it is told to expect (`clock_shifts`; 12 for the
scenario pipeline's ladders, 9 real and 3 absorbing) are evolved together,
as the columns of one `dynamics.evolve_shifted` Chebyshev block, on the
first request.  The readouts below take a strength ladder and the table.

The Larmor coupling (hbar omega/2) P_region (x) sigma_z is block-diagonal
in the spin, so spin-up and spin-down evolve under H + hbar omega/2 and
H - hbar omega/2 on the region: the same pair of position-only runs as the
phase clock at v = hbar omega/2.  No spin factor is ever built.

The block has no time step: its series is cut where the truncation bound,
widened for the absorbers' imaginary extent, falls below 1e-15 (see
`evolve_shifted`).  Its columns agree with a dense matrix exponential to a
few 1e-14 on the catalog, as do the postselectors, which come from the
exact eigenbasis evolution (`dynamics.evolve_eigenbasis`).  So the finite
differences resolve the weak-potential response, not a stepping error: the
real and Larmor clocks meet the sojourn weak values to 1e-10 relative on
both catalog barriers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# not called here: perfbench/tracing.py wraps `evolve` under this module's
# name, so the import stays until that hook moves
from .dynamics import Hamiltonian, evolve, evolve_shifted  # noqa: F401
from .errors import ParameterError
from .hilbert import HBAR, QuantumState, Region, checked_overlap, inner_product

MIN_STRENGTH = 1e-7
ORDER_BAND = (0.8, 2.5)
# an absorbing run that loses more of the packet than this is refused: the
# one-sided Gamma-derivative is no longer in its linear regime
MAX_ABSORBED_FRACTION = 0.2


def _ladder(strengths) -> tuple[float, ...]:
    s = tuple(float(v) for v in strengths)
    if len(s) < 3:
        raise ParameterError("need at least 3 sweep strengths")
    if any(b >= a for a, b in zip(s, s[1:])):
        raise ParameterError("strengths must be strictly decreasing")
    if s[-1] <= MIN_STRENGTH:
        raise ParameterError(f"smallest strength must exceed {MIN_STRENGTH}")
    return s


def clock_shifts(real_potential=(), imaginary_potential=(), larmor=()) -> tuple:
    """Every key u that `clock_real_potential`, `clock_imaginary_potential`
    (and `absorption_survival_dwell`), and `clock_larmor` read from a
    `ClockRuns` at these ladders, u = 0 first and each once: +-v, +-hbar
    omega/2 and -i Gamma/2, computed as the readouts compute them."""
    keys = [0j]
    for v in real_potential:
        keys += [v, -v]
    for w in larmor:
        v = 0.5 * HBAR * w
        keys += [v, -v]
    keys += [-0.5j * g for g in imaginary_potential]
    return tuple(dict.fromkeys(complex(u) for u in keys))


@dataclass
class ClockRuns:
    """Window-end states of `psi_initial` under `system` plus a complex
    potential u on `region`.

    `final(u)` is the state evolved under system + Re(u) P_region +
    i Im(u) P_region, u = 0 the unmodified system, cached under the exact
    value of u.  A request for a missing key evolves it together with every
    key of `shifts` not yet evolved, as the columns of one
    `evolve_shifted` block, so declaring the keys that the readouts will
    read (`clock_shifts`) evolves them all at once.  A run that absorbs
    more than MAX_ABSORBED_FRACTION of the packet raises ParameterError.
    """

    system: Hamiltonian
    psi_initial: QuantumState
    region: Region
    window: tuple[float, float]
    shifts: tuple = ()
    _finals: dict = field(default_factory=dict, init=False, repr=False)

    def final(self, u: complex) -> QuantumState:
        u = complex(u)
        if u not in self._finals:
            keys = [k for k in dict.fromkeys(map(complex, (u, *self.shifts)))
                    if k not in self._finals]
            t0, t1 = self.window
            block, _ = evolve_shifted(
                self.system, self.region.indicator(self.system.position_grid), keys,
                self.psi_initial.amplitudes, t1 - t0,
            )
            finals = [QuantumState(self.psi_initial.space, col, t1) for col in block.T]
            for key, phi in zip(keys, finals):
                absorbed = 1.0 - phi.norm() ** 2
                if absorbed > MAX_ABSORBED_FRACTION:
                    raise ParameterError(
                        f"absorbed fraction {absorbed:.3f} at u = {key} exceeds "
                        f"{MAX_ABSORBED_FRACTION}; shrink the sweep ladder"
                    )
            self._finals.update(zip(keys, finals))
        return self._finals[u]


@dataclass(frozen=True)
class SweepRecord:
    """Per-strength readouts with the zero-strength extrapolation."""

    method: str
    postselection: str
    strengths: tuple[float, ...]
    readouts: tuple[complex, ...]
    value: complex
    order: float
    residual: float
    flagged: bool
    metadata: dict = field(default_factory=dict)

    @property
    def time(self) -> float:
        return float(self.value.real)


def extrapolate_to_zero(strengths, values, error_order: int = 2):
    """Polynomial (Richardson) extrapolation of readouts to zero strength.

    Assumes the leading error is proportional to strength**error_order
    (2 for central differences, 1 for one-sided), with higher corrections in
    successive powers.  Returns (value, fitted_order, residual).
    """
    g = np.asarray(strengths, dtype=float)
    f = np.asarray(values, dtype=complex)
    if g.size < 3:
        raise ParameterError("need at least 3 points to extrapolate")
    if np.unique(g).size != g.size or np.any(g <= 0):
        raise ParameterError("strengths must be positive and distinct")

    def _intercept(gv, fv):
        m = gv.size
        if error_order == 2:
            powers = [0] + [2 * k for k in range(1, m)]
        else:
            powers = list(range(m))
        vand = np.array([[x**p for p in powers] for x in gv])
        coeffs = np.linalg.solve(vand, fv)
        return coeffs[0]

    value = _intercept(g, f)
    reduced = _intercept(g[1:], f[1:])  # drop the largest strength
    residual = float(abs(value - reduced))

    err = np.abs(f - value)
    mask = err > 1e-14 * max(1.0, float(np.max(np.abs(f))))
    if np.count_nonzero(mask) >= 2:
        slope, _ = np.polyfit(np.log(g[mask]), np.log(err[mask]), 1)
        order = float(slope)
    else:
        order = float(error_order)
    return complex(value), order, residual


def _record(method, label, strengths, readouts, error_order, metadata=None) -> SweepRecord:
    value, order, residual = extrapolate_to_zero(strengths, readouts, error_order)
    flagged = not (ORDER_BAND[0] <= order <= ORDER_BAND[1])
    return SweepRecord(
        method=method,
        postselection=label,
        strengths=tuple(strengths),
        readouts=tuple(complex(r) for r in readouts),
        value=value,
        order=order,
        residual=residual,
        flagged=flagged,
        metadata=metadata or {},
    )


def _chi_items(chi):
    if isinstance(chi, dict):
        return list(chi.items())
    return [("custom", chi)]


def _unwrap(result, chi):
    return result if isinstance(chi, dict) else result["custom"]


def clock_real_potential(strengths, runs: ClockRuns, chi):
    """Phase clock: evolve under the system Hamiltonian plus a small real
    potential step +-v on the region, and read i*hbar times the central
    potential-derivative of the postselected amplitude.

    `chi` may be a single final state or a dict label -> state; a dict
    shares the sweep evolutions across postselections.
    """
    strengths = _ladder(strengths)
    phi0 = runs.final(0.0)
    perturbed = {v: (runs.final(v), runs.final(-v)) for v in strengths}

    out = {}
    for label, chi_state in _chi_items(chi):
        den = checked_overlap(chi_state, phi0)
        readouts = []
        for v in strengths:
            up, down = (inner_product(chi_state, s) for s in perturbed[v])
            deriv = (up - down) / (2.0 * v)
            readouts.append(1j * HBAR * deriv / den)
        out[label] = _record("real_potential", label, strengths, readouts, 2)
    return _unwrap(out, chi)


def clock_imaginary_potential(strengths, runs: ClockRuns, chi):
    """Absorption clock: evolve with -i*Gamma/2 on the region and read
    -2*hbar times the one-sided Gamma-derivative of the postselected
    amplitude ratio.  The one-sided ladder divides rounding in its inputs
    by strengths down to 0.0375/T, amplifying it about 10^3 (a 1.6e-15
    relative change in `psi_final` moves records by up to 6.5e-11
    relative), so record-equality checks on it hold only to ~1e-11."""
    strengths = _ladder(strengths)
    phi0 = runs.final(0.0)
    perturbed = {g: runs.final(-0.5j * g) for g in strengths}
    absorbed = 1.0 - perturbed[strengths[0]].norm() ** 2

    out = {}
    for label, chi_state in _chi_items(chi):
        den = checked_overlap(chi_state, phi0)
        readouts = []
        for g in strengths:
            ratio = inner_product(chi_state, perturbed[g]) / den
            readouts.append(-2.0 * HBAR * (ratio - 1.0) / g)
        out[label] = _record(
            "imaginary_potential", label, strengths, readouts, 1,
            {"absorbed_fraction_max": absorbed},
        )
    return _unwrap(out, chi)


def absorption_survival_dwell(strengths, runs: ClockRuns) -> SweepRecord:
    """Unconditioned absorption clock from total norm loss,
    -hbar * d/dGamma of the survival probability at zero strength; it reads
    the same -i*Gamma/2 runs as `clock_imaginary_potential`."""
    strengths = _ladder(strengths)
    readouts = [
        complex(-HBAR * (runs.final(-0.5j * g).norm() ** 2 - 1.0) / g) for g in strengths
    ]
    return _record("imaginary_potential_norm", "none", strengths, readouts, 1)


def clock_larmor(strengths, runs: ClockRuns, chi):
    """Larmor clock: attach a spin initially polarized along +x, precess it
    in the region, and read the conditional y-polarization per unit
    precession frequency.

    The spin-up and spin-down amplitudes behind the postselector are
    a_up = <chi|psi_+>/sqrt(2) and a_down = <chi|psi_->/sqrt(2), with psi_+-
    evolved under H +- hbar omega/2 on the region; the common 1/sqrt(2)
    cancels from both readouts and is left out.  Each record's metadata
    carries `identity_value`, the same sweep read through the
    pointer-derivative identity i (a_up - a_down) / (omega a_up(0)), which is
    the phase clock's central difference at v = hbar omega/2.
    """
    strengths = _ladder(strengths)
    phi0 = runs.final(0.0)
    spins = {}
    for w in strengths:
        v = 0.5 * HBAR * w
        spins[w] = (runs.final(v), runs.final(-v))

    out = {}
    for label, chi_state in _chi_items(chi):
        den = checked_overlap(chi_state, phi0)
        sy_readouts = []
        id_readouts = []
        for w in strengths:
            a_up, a_dn = (inner_product(chi_state, s) for s in spins[w])
            sy = 2.0 * np.imag(np.conj(a_up) * a_dn)
            weight = abs(a_up) ** 2 + abs(a_dn) ** 2
            sy_readouts.append(complex(sy / weight / w))
            id_readouts.append(1j * (a_up - a_dn) / (w * den))
        value_id, order_id, residual_id = extrapolate_to_zero(strengths, id_readouts, 2)
        rec = _record(
            "larmor", label, strengths, sy_readouts, 2,
            {
                "identity_value": value_id,
                "identity_residual": residual_id,
            },
        )
        out[label] = rec
    return _unwrap(out, chi)
