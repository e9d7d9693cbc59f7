"""One postselection-overlap policy across every postselected route.

Each route refuses a postselector chi whose overlap with the route's own
unperturbed final state phi is at most 1e-8 ||chi|| ||phi||
(hilbert.checked_overlap), and accepts one above it.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from weaktime.clocks import (
    ClockRuns,
    clock_imaginary_potential,
    clock_larmor,
    clock_real_potential,
)
from weaktime.dynamics import Hamiltonian, evolve_eigenbasis
from weaktime.errors import DegeneratePostselectionError
from weaktime.hilbert import (
    Grid,
    QuantumState,
    Region,
    inner_product,
    position_space,
)
from weaktime.meter import (
    PointerSpec,
    derivative_identity_check,
    lambda_moment_route,
    pointer_distribution,
    run_meter,
    run_moment_meter,
)
from weaktime.sojourn import (
    conditional_dwell_time,
    moment,
    second_moment_position_postselected,
    sojourn_matrix,
)

GRID = Grid(32, 0.0, 15.5)
SPACE = position_space(GRID)
REGION = Region(7.0, 9.0)
WINDOW = (0.0, 4.0)
CELL = 10


@pytest.fixture(scope="module")
def ctx():
    ham = Hamiltonian(SPACE, potential_real=1.0 * REGION.indicator(GRID))
    _, vecs = ham.eigensystem()
    coeff = np.array([1.0, 0.8j, -0.5, 0.3 + 0.2j, 0.1])
    psi0 = QuantumState(SPACE, vecs[:, :5] @ coeff).normalized()
    spec = PointerSpec.auto(width=1.0, max_shift=0.5, n_points=64)
    return SimpleNamespace(
        ham=ham,
        psi0=psi0,
        psi_final=evolve_eigenbasis(psi0, ham, WINDOW[1]),
        op=sojourn_matrix(REGION, ham, WINDOW),
        spec=spec,
        # at zero coupling the postselected pointer amplitude is
        # <chi|phi> times the pointer profile, so its norm is the overlap
        run=run_meter(spec, psi0, REGION.indicator(GRID), 0.0, WINDOW, ham),
        # the clock table's own unperturbed final state
        clock_final=ClockRuns(ham, psi0, REGION, WINDOW).final(0),
    )


def _postselector(phi: QuantumState, eps: float) -> QuantumState:
    """Unit state whose overlap with phi is eps ||phi||."""
    phi_hat = phi.normalized()
    seed = QuantumState(phi.space, np.exp(1j * np.arange(GRID.n_points)))
    eta = seed.amplitudes - inner_product(phi_hat, seed) * phi_hat.amplitudes
    eta = QuantumState(phi.space, eta).normalized()
    amps = eps * phi_hat.amplitudes + np.sqrt(1.0 - eps**2) * eta.amplitudes
    return QuantumState(phi.space, amps, phi.representation_time)


def _cell_second_moment(c, eps):
    # the postselector is the cell; the state's amplitude there sets the overlap
    amps = c.psi_final.amplitudes.copy()
    amps[CELL] = 0.0
    norm = QuantumState(SPACE, amps).norm()
    amps[CELL] = eps * norm / np.sqrt(GRID.dx)
    psi = QuantumState(SPACE, amps, WINDOW[1])
    return second_moment_position_postselected(c.op, psi, CELL)


def _clock(fn, strengths):
    def route(c, eps):
        runs = ClockRuns(c.ham, c.psi0, REGION, WINDOW)
        return fn(strengths, runs, _postselector(c.clock_final, eps))

    return route


def _identity_check(c, eps):
    def factory(g):
        return run_moment_meter(c.spec, c.psi0, c.op, 1, g)

    chi = _postselector(c.psi_final, eps)
    return derivative_identity_check(factory, (0.05, 0.025, 0.0125), chi, orders=(1,))


ROUTES = {
    "conditional_dwell_time": lambda c, eps: conditional_dwell_time(
        c.op, c.psi_final, _postselector(c.psi_final, eps)
    ),
    "moment": lambda c, eps: moment(c.op, c.psi_final, _postselector(c.psi_final, eps), 2),
    "second_moment_position_postselected": _cell_second_moment,
    "pointer_distribution": lambda c, eps: pointer_distribution(
        c.run, _postselector(c.run.reference_system_final, eps)
    ),
    "lambda_moment_route": lambda c, eps: lambda_moment_route(
        c.op, c.psi0, _postselector(c.psi_final, eps), 1, (0.1, 0.05, 0.025)
    ),
    "derivative_identity_check": _identity_check,
    "clock_real_potential": _clock(clock_real_potential, (0.02, 0.01, 0.005)),
    "clock_imaginary_potential": _clock(clock_imaginary_potential, (0.02, 0.01, 0.005)),
    "clock_larmor": _clock(clock_larmor, (0.04, 0.02, 0.01)),
}


@pytest.mark.parametrize("route", list(ROUTES))
def test_one_overlap_floor_on_every_route(route, ctx):
    ROUTES[route](ctx, 1e-6)
    with pytest.raises(DegeneratePostselectionError):
        ROUTES[route](ctx, 1e-10)
