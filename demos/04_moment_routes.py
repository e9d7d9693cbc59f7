"""One second moment, four independent computations.

The fluctuation of the time spent in a region is the second moment of the
sojourn-time operator.  The package computes it four ways:

* operator route: sandwich the squared operator directly,
* position route: decompose the square over position cells and sum,
* lambda route: numerically differentiate a generating amplitude twice,
* meter route: couple a pointer to the squared operator and read its shift.

The first two are algebraically exact; the last two involve finite
couplings extrapolated to zero, so they carry small residuals.  Agreement
across all four is the consistency check this module exists for.

Every route reads the one stored form of the operator: its matrix M in the
energy eigenbasis V of the free Hamiltonian, kept as the real symmetric
K = D_u^dag M D_u of the window midpoint, u = exp(-i E T / 2 hbar).  The
lambda and meter routes both read one carried-along family,
`CarriedFamily(op, psi0, order)`: psi0 freely evolved in that same
eigenbasis, then coupled to the l-th power of the operator as closed-form
phases in the one real eigendecomposition of K, solved on first use and
cached on the operator, so they need no Hamiltonian argument.  The meter
route is `run_meter` on that family, the lambda route two reads of its
columns at s = +-lambda / T per lambda.
"""

from weaktime import (
    Grid,
    Hamiltonian,
    PointerSpec,
    Region,
    dwell_time,
    evolve_eigenbasis,
    gaussian_packet,
    moment,
    position_space,
    second_moment_position_integral,
    sojourn_matrix,
)
from weaktime.meter import (
    lambda_moment_route,
    meter_moment_readout,
    run_moment_meter,
)

grid = Grid(64, 0.0, 48.0)
space = position_space(grid)
region = Region(20.0, 28.0)
window = (0.0, 8.0)

ham = Hamiltonian(space)
psi0 = gaussian_packet(grid, 13.0, 2.5, 1.0)

psi_final = evolve_eigenbasis(psi0, ham, window[1])
chi = psi_final.normalized()

op = sojourn_matrix(region, ham, window)
tau = dwell_time(op, psi_final)

via_operator = moment(op, psi_final, chi, 2)
via_cells = second_moment_position_integral(op, psi_final)
lam_val, lam_rec = lambda_moment_route(op, psi0, chi, 2, (0.2, 0.1, 0.05))
spec = PointerSpec.auto(width=0.2, max_shift=1.0, n_points=256)
runs = [run_moment_meter(spec, psi0, op, 2, g) for g in (0.02, 0.01, 0.005)]
via_meter = meter_moment_readout(runs).time

print(f"dwell time (first moment): {tau:.8f}")
print(f"dwell time squared       : {tau**2:.8f}\n")

routes = [
    ("operator", via_operator),
    ("position cells", via_cells),
    ("lambda derivative", lam_val.real),
    ("pointer readout", via_meter),
]
print("second moment of the sojourn time:")
for name, value in routes:
    print(f"  {name:<18}{value:.10f}")

values = [v for _, v in routes]
spread = (max(values) - min(values)) / abs(via_operator)
print(f"\nrelative spread across routes: {spread:.2e}")
print(f"variance (spread of times)   : {via_operator - tau**2:.8f}")

# higher moments come from the same operator route
print("\nconditional moments through order four:")
for order in (1, 2, 3, 4):
    print(f"  l={order}: {moment(op, psi_final, chi, order):.8f}")
