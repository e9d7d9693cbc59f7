"""Physical clock methods: perturbation sweeps with extrapolation to zero.

Three probes extract the mean time spent in a region from the response of
the perturbed wavefunction: a small real potential step (phase clock), a
small absorbing potential (norm clock) and a small spin precession field
confined to the region (Larmor clock).  Each is swept over a descending
ladder of strengths and Richardson-extrapolated to zero strength.

All of them read window-end states of one packet evolved under the system
Hamiltonian plus a weak complex potential u on the region: u = +-v for the
phase clock, u = +-hbar omega/2 for Larmor and u = -i Gamma/2 for the
absorber, stated once per clock in `CLOCK_KEYS`.  These are the coupled
family psi(u) = exp(-iT(H + u P_region))psi0 of a `dynamics.CoupledSystem`
observing the region, the one the meter reads at real u, and the clocks
read it the way the meter does: each readout takes one `read` of u = 0
and its keys, the real keys interpolated between its real nodes, the
absorbing ones by analytic continuation, and a key outside the fit held
refits it.  A survival is a diagonal entry of that read's Gram, a
postselected amplitude an entry of its overlaps.  In a scenario
`run_scenario` serves every shift the clocks (`clock_shifts`) and the
meter read before any readout, so they all share one node block.  The
postselected readouts share one skeleton (`_sweep`) and differ only in
their formula: each takes a strength ladder, the coupled system and a map
label -> postselected final state, and returns one `SweepRecord` per
label; `checked_overlap` refuses a state not referenced to the window end.

The Larmor coupling (hbar omega/2) P_region (x) sigma_z is block-diagonal
in the spin, so spin-up and spin-down evolve under H + hbar omega/2 and
H - hbar omega/2 on the region: the same pair of position-only runs as the
phase clock at v = hbar omega/2.  No spin factor is ever built.

Nothing here has a time step: on the catalog ladders 12 nodes bound the
interpolant's dropped tail by 1e-13 ||psi0|| at every key (see
`CoupledSystem`), and the keys, absorbing ones included, agree with a dense
evolution to 1e-12 in any entry, as do the postselectors, which come from
the exact eigenbasis evolution (`dynamics.evolve_eigenbasis`).  So the
finite differences resolve the weak-potential response, not an evolution
error: the real and Larmor clocks meet the sojourn weak values to 1e-10
relative on both catalog barriers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import CoupledSystem
from .errors import ParameterError, StructureError
from .hilbert import HBAR, checked_overlap

# a placeholder that nothing calls: perfbench/tracing.py patches `evolve`
# under this module's name, and the benchmark change that moves that hook
# (ROADMAP item 1) deletes the name with it
evolve = None

MIN_STRENGTH = 1e-7
ORDER_BAND = (0.8, 2.5)
# an absorbing run that loses more of the packet than this is refused: the
# one-sided Gamma-derivative is no longer in its linear regime
MAX_ABSORBED_FRACTION = 0.2
# each clock's keys u at strength s, the weak potentials on the region that
# its readout compares with u = 0; `clock_shifts` lists them in this order
CLOCK_KEYS = {
    "real_potential": lambda v: (v, -v),
    "larmor": lambda w: (0.5 * HBAR * w, -0.5 * HBAR * w),
    "imaginary_potential": lambda g: (-0.5j * g,),
}


def clock_shifts(real_potential=(), imaginary_potential=(), larmor=()) -> tuple:
    """Every key u that `clock_real_potential`, `clock_imaginary_potential`
    (and `absorption_survival_dwell`), and `clock_larmor` read from a
    `CoupledSystem` at these ladders, u = 0 first and each once, in
    `CLOCK_KEYS` order: what `CoupledSystem.serve` must serve for the
    readouts to evolve nothing more."""
    ladders = locals()  # the three ladders, by clock name
    keys = [0j]
    for clock, at in CLOCK_KEYS.items():
        keys += [u for s in ladders[clock] for u in at(s)]
    return tuple(dict.fromkeys(complex(u) for u in keys))


def _read(coupled: CoupledSystem, keys: list):
    """`coupled.read` of u = 0 and the keys, and each key's survival
    ||psi(u)||^2 / ||psi0||^2, the share of the packet kept at u whatever
    its norm, off the read's Gram; ParameterError for a key that absorbs
    more than MAX_ABSORBED_FRACTION of the packet."""
    reading = coupled.read([0j, *keys])
    weight = coupled.psi0.cell_weight / coupled.psi0.norm() ** 2
    survival = (weight * reading.gram().diagonal()[2:].real).tolist()
    for u, kept in zip(keys, survival):
        if not 1.0 - kept <= MAX_ABSORBED_FRACTION:
            raise ParameterError(
                f"absorbed fraction {1.0 - kept:.3f} at u = {u} exceeds "
                f"{MAX_ABSORBED_FRACTION}; shrink the sweep ladder"
            )
    return reading, survival


@dataclass(frozen=True)
class SweepRecord:
    """Per-strength readouts with the zero-strength extrapolation."""

    strengths: tuple[float, ...]
    readouts: tuple[complex, ...]
    value: complex
    order: float
    residual: float
    flagged: bool

    @property
    def time(self) -> float:
        return float(self.value.real)


def _checked_strengths(strengths) -> tuple[float, ...]:
    """The strengths as floats; ParameterError unless there are at least 3,
    strictly decreasing, the smallest above MIN_STRENGTH: the ladder
    `extrapolate_to_zero` needs, whose residual drops the first, largest
    strength.  Routes that divide by a strength call it first."""
    s = tuple(float(v) for v in strengths)
    if len(s) < 3:
        raise ParameterError("need at least 3 sweep strengths")
    if any(not b < a for a, b in zip(s, s[1:])):
        raise ParameterError("strengths must be strictly decreasing")
    if not s[-1] > MIN_STRENGTH:
        raise ParameterError(f"strengths must be positive, the smallest above {MIN_STRENGTH}")
    return s


def extrapolate_to_zero(strengths, values, error_order: int = 2):
    """Polynomial (Richardson) extrapolation of readouts to zero strength.

    Assumes the leading error is proportional to strength**error_order
    (2 for central differences, 1 for one-sided; any other error_order
    raises ParameterError), with higher corrections in successive powers.
    Returns (value, fitted_order, residual): the order is the least-squares
    slope of log|readout - value| against log strength over the readouts
    that differ from the value by more than rounding.
    """
    if error_order not in (1, 2):
        raise ParameterError(f"error_order must be 1 or 2, got {error_order!r}")
    g = _checked_strengths(strengths)
    f = [complex(v) for v in values]
    x = [s**error_order for s in g]
    value = _lagrange_at_zero(x, f)
    # drop the largest strength
    reduced = _lagrange_at_zero(x[1:], f[1:])
    residual = abs(value - reduced)

    floor = 1e-14 * max(1.0, max(abs(v) for v in f))
    fit = [(math.log(s), math.log(abs(v - value))) for s, v in zip(g, f)
           if abs(v - value) > floor]
    if len(fit) < 2:
        return value, float(error_order), residual
    xm, ym = (sum(c) / len(fit) for c in zip(*fit))
    order = sum((p - xm) * (q - ym) for p, q in fit) / sum((p - xm) ** 2 for p, _ in fit)
    return value, order, residual


def _lagrange_at_zero(x: list, f: list) -> complex:
    """The polynomial through (x_i, f_i) at x = 0, in Lagrange form:
    sum_i f_i prod_{j != i} x_j / (x_j - x_i)."""
    return sum(fi * math.prod(xj / (xj - xi) for j, xj in enumerate(x) if j != i)
               for i, (xi, fi) in enumerate(zip(x, f)))


def _record(strengths, readouts, error_order) -> SweepRecord:
    value, order, residual = extrapolate_to_zero(strengths, readouts, error_order)
    return SweepRecord(
        strengths=tuple(strengths),
        readouts=tuple(complex(r) for r in readouts),
        value=value,
        order=order,
        residual=residual,
        flagged=not (ORDER_BAND[0] <= order <= ORDER_BAND[1]),
    )


def _sweep(strengths, coupled: CoupledSystem, chis: dict, clock: str, error_order: int,
           read) -> dict:
    """The postselected readouts' shared skeleton: for each label of `chis`
    (label -> final state), `read(s, <chi|psi(0)>, *<chi|psi(u)>)` at each
    strength s, u over `CLOCK_KEYS[clock](s)`, extrapolated to zero.  One
    `_read` of u = 0 and the keys; every overlap is an entry of its
    `overlaps`, <chi|psi(0)> the interpolant's, which shares the keys'
    interpolation error."""
    strengths = _checked_strengths(strengths)
    space = coupled.psi0.space
    if any(chi.space != space for chi in chis.values()):
        raise StructureError("postselector and packet live on different spaces")
    keys = [u for s in strengths for u in CLOCK_KEYS[clock](s)]
    reading, _ = _read(coupled, keys)
    out = {}
    for label, chi in chis.items():
        row = space.weight * reading.overlaps(chi)[1:]
        den = checked_overlap(chi, coupled.reference_system_final, row[0])
        per_strength = row[1:].reshape(len(strengths), -1)
        readouts = [read(s, den, *amps) for s, amps in zip(strengths, per_strength)]
        out[label] = _record(strengths, readouts, error_order)
    return out


def clock_real_potential(strengths, coupled: CoupledSystem, chis: dict) -> dict:
    """Phase clock: evolve under the system Hamiltonian plus a small real
    potential step +-v on the region, and read i*hbar times the central
    potential-derivative of the postselected amplitude, one record per
    label of `chis` (label -> final state), all from the same read."""
    return _sweep(strengths, coupled, chis, "real_potential", 2,
                  lambda v, den, up, down: 1j * HBAR * ((up - down) / (2.0 * v)) / den)


def clock_imaginary_potential(strengths, coupled: CoupledSystem, chis: dict) -> dict:
    """Absorption clock: evolve with -i*Gamma/2 on the region and read
    -2*hbar times the one-sided Gamma-derivative of the postselected
    amplitude ratio, one record per label of `chis`.  Its one-sided ladder
    (Gamma down to 0.0375/T) amplifies input rounding about 10^3: a 1.1e-15
    relative change in `psi_final` moved `barrier_farside`'s reflected
    record by 1.3e-10 relative (3.2e-12 absolute, against its residual of
    9.4e-9), so no record-equality check tighter than ~1e-10 relative holds
    across a rounding change."""
    return _sweep(strengths, coupled, chis, "imaginary_potential", 1,
                  lambda g, den, a: -2.0 * HBAR * (a / den - 1.0) / g)


def absorption_survival_dwell(strengths, coupled: CoupledSystem) -> SweepRecord:
    """Unconditioned absorption clock from total norm loss,
    -hbar * d/dGamma of the survival probability at zero strength; it reads
    the same -i*Gamma/2 keys as `clock_imaginary_potential`."""
    strengths = _checked_strengths(strengths)
    _, survival = _read(coupled, [CLOCK_KEYS["imaginary_potential"](g)[0] for g in strengths])
    readouts = [-HBAR * (p - 1.0) / g for g, p in zip(strengths, survival)]
    return _record(strengths, readouts, 1)


def _spin_y(w, den, a_up, a_dn):
    # no <chi|phi0> denominator, but `_sweep` refuses a degenerate chi
    sy = 2.0 * np.imag(np.conj(a_up) * a_dn)
    weight = abs(a_up) ** 2 + abs(a_dn) ** 2
    return sy / weight / w


def clock_larmor(strengths, coupled: CoupledSystem, chis: dict) -> dict:
    """Larmor clock: attach a spin initially polarized along +x, precess it
    in the region, and read the conditional y-polarization per unit
    precession frequency, one record per label of `chis`.

    The spin-up and spin-down amplitudes behind the postselector are
    a_up = <chi|psi_+>/sqrt(2) and a_down = <chi|psi_->/sqrt(2), with psi_+-
    evolved under H +- hbar omega/2 on the region; the common 1/sqrt(2)
    cancels from the readout and is left out.  Read through the identity
    i (a_up - a_down) / (omega a_up(0)), the same amplitudes give the phase
    clock at v = hbar omega/2.
    """
    return _sweep(strengths, coupled, chis, "larmor", 2, _spin_y)
