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
    HBAR,
    CoupledSystem,
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
# one coupled system serves all three clocks: serving every potential on
# the region that their ladders read fits one node block of the packet
# coupled to the region, and each clock reads its potentials off it, the
# absorbing ones by analytic continuation
coupled = CoupledSystem(ham, psi0, region.indicator(grid), window)
coupled.serve(clock_shifts(**{name: ladder for name, _, ladder in configs}))
records = {}
for name, fn, ladder in configs:
    rec = records[name] = fn(ladder, coupled, {"none": psi_final})["none"]
    print(f"{name:<22}{rec.time:>12.6f}{rec.time - tau:>14.2e}"
          f"{rec.order:>11.2f}{rec.residual:>12.2e}")

# the Larmor spin-up and spin-down runs are the phase clock's +-v runs at
# v = hbar omega/2, so the amplitude identity i (a_up - a_down) / (omega
# a_up(0)) is the phase clock read at those strengths; both readings come
# from the same two columns per strength, already served, and must agree
larmor = records["larmor"]
omegas = larmor.strengths
ident = clock_real_potential(tuple(0.5 * HBAR * w for w in omegas), coupled,
                             {"none": psi_final})["none"]
print(f"\nlarmor amplitude identity (phase clock at hbar omega/2): {ident.time:.6f}"
      f"  (precession readout {larmor.time:.6f})")

# raw sweep points, to show what the extrapolation removes
print("\nlarmor raw readouts vs strength:")
for s, r in zip(larmor.strengths, larmor.readouts):
    print(f"  strength {s:7.3f} -> {np.real(r):.6f}")
