"""Three physical clocks against the sojourn-operator reference.

Each clock couples a weak probe to presence in the region and reads the
accumulated response, extrapolated to zero coupling:

* real potential: phase accumulated while inside,
* imaginary potential: norm lost to a weak absorber inside,
* Larmor: spin precession driven only inside the region.

All three should land on the dwell time computed from the sojourn-time
operator, with corrections vanishing as the coupling shrinks.
"""

import numpy as np

from weaktime import (
    ClockRuns,
    Grid,
    Hamiltonian,
    Region,
    clock_imaginary_potential,
    clock_larmor,
    clock_real_potential,
    clock_shifts,
    dwell_time,
    evolve_eigenbasis,
    gaussian_packet,
    position_space,
    sojourn_matrix,
)

grid = Grid(64, 0.0, 48.0)
space = position_space(grid)
region = Region(20.0, 28.0)
window = (0.0, 8.0)

ham = Hamiltonian(space)
psi0 = gaussian_packet(grid, 13.0, 2.5, 1.0)

psi_final = evolve_eigenbasis(psi0, ham, window[1])

op = sojourn_matrix(region, ham, window)
tau = dwell_time(op, psi_final)
print(f"sojourn-operator dwell time: {tau:.6f}\n")

configs = [
    ("real_potential", clock_real_potential, (0.12, 0.06, 0.03)),
    ("imaginary_potential", clock_imaginary_potential, (0.04, 0.02, 0.01)),
    ("larmor", clock_larmor, (0.2, 0.1, 0.05)),
]

print(f"{'clock':<22}{'time':>12}{'dev vs ref':>14}{'fit order':>11}{'residual':>12}")
# one table of evolutions serves all three clocks: every potential on the
# region that their ladders read is declared here, and all of them are
# evolved together, as one Chebyshev block, when the first clock asks
runs = ClockRuns(ham, psi0, region, window,
                 clock_shifts(**{name: ladder for name, _, ladder in configs}))
for name, fn, ladder in configs:
    rec = fn(ladder, runs, psi_final)
    print(f"{name:<22}{rec.time:>12.6f}{rec.time - tau:>14.2e}"
          f"{rec.order:>11.2f}{rec.residual:>12.2e}")

# the Larmor sweeps also support a second, amplitude-based readout: the
# spin-up and spin-down runs are the phase clock's +-v runs at v = omega/2,
# so i (a_up - a_down) / (omega a_up(0)) is its central difference; both
# readings come from the same two evolutions per strength and must agree;
# the table already holds them, so this reads without evolving again
rec = clock_larmor((0.2, 0.1, 0.05), runs, psi_final)
ident = rec.metadata["identity_value"]
print(f"\nlarmor amplitude identity: {ident.real:.6f}"
      f"  (precession readout {rec.time:.6f})")

# raw sweep points, to show what the extrapolation removes
print("\nlarmor raw readouts vs strength:")
for s, r in zip(rec.strengths, rec.readouts):
    print(f"  strength {s:7.3f} -> {np.real(r):.6f}")
