"""Dwell times from the sojourn-time operator.

A free Gaussian packet crosses a marked interval.  The mean time spent
inside is the expectation of the sojourn-time operator, i.e. the window
length times the time-averaged Heisenberg projector.  The operator is kept
in the energy eigenbasis V of the free Hamiltonian, as one matrix M, and
applied to a state as V M V^T; no position-basis matrix is formed.  We
check it against a direct quadrature of the instantaneous presence
probability, and look at two exactly solvable cases.
"""

import numpy as np

from weaktime import (
    Grid,
    Hamiltonian,
    QuantumState,
    Region,
    dwell_time,
    evolve_eigenbasis,
    gaussian_packet,
    position_space,
)
from weaktime.sojourn import sojourn_matrix

grid = Grid(128, 0.0, 96.0)
space = position_space(grid)
region = Region(40.0, 56.0)
window = (0.0, 24.0)

ham = Hamiltonian(space)
psi0 = gaussian_packet(grid, 24.0, 4.0, 1.0)  # group velocity 2 k0 = 2

op = sojourn_matrix(region, ham, window)
psi_final = evolve_eigenbasis(psi0, ham, window[1])
tau = dwell_time(op, psi_final)

# direct route: integrate the presence probability over time
mask = region.indicator(grid)
times = np.linspace(window[0], window[1], 401)
presence = [
    float(np.sum(mask * np.abs(evolve_eigenbasis(psi0, ham, t).amplitudes) ** 2)
          * grid.dx)
    for t in times
]
tau_direct = np.trapezoid(presence, times)

print("packet crossing a 16-unit interval at speed 2")
print(f"  sojourn-operator dwell time : {tau:.6f}")
print(f"  presence-probability integral: {tau_direct:.6f}")
print(f"  ballistic width/velocity     : {16.0 / 2.0:.6f}")
print("  (the exact value is larger: slow momentum components linger,")
print("   and dwell weights each component by 1/velocity)")

# sanity case 1: the region is the whole box, so the answer is the window
whole = Region(grid.x_min - 1.0, grid.x_max + 1.0)
op_all = sojourn_matrix(whole, ham, window)
print(f"\nregion = whole box  -> {dwell_time(op_all, psi_final):.6f}"
      f"  (window length {window[1] - window[0]:g})")

# sanity case 2: a box eigenstate spends half its time in either half
left = Region(grid.x_min - 1.0, 0.5 * (grid.x_min + grid.x_max))
op_half = sojourn_matrix(left, ham, window)
_, vecs = ham.eigensystem()
eig2 = QuantumState(space, vecs[:, 2] / np.sqrt(grid.dx), window[1])
print(f"eigenstate, left half -> {dwell_time(op_half, eig2):.6f}"
      f"  (half window {(window[1] - window[0]) / 2:g})")

# the weak value of the time-averaged projector is the dwell time over T:
# the fraction of the window spent inside
print(f"\ntime-averaged presence (weak value): {tau / op.duration:.6f}")
