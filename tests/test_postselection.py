"""One postselection policy across every postselected route.

Each route refuses a postselector chi whose overlap with the route's own
unperturbed final state phi is at most 1e-8 ||chi|| ||phi||
(hilbert.checked_overlap), and accepts one above it; and each refuses a
chi that is not referenced to the window end.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from weaktime.clocks import (
    clock_imaginary_potential,
    clock_larmor,
    clock_real_potential,
)
from weaktime.dynamics import Hamiltonian, evolve_eigenbasis
from weaktime.errors import DegeneratePostselectionError, ParameterError
from weaktime.hilbert import (
    Grid,
    QuantumState,
    Region,
    inner_product,
    position_space,
)
from weaktime.meter import (
    CoupledSystem,
    PointerSpec,
    lambda_moment_route,
    pointer_distribution,
    run_meter,
    run_moment_meter,
)
from weaktime.sojourn import (
    conditional_dwell_time,
    moment,
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
        run=run_meter(spec, CoupledSystem(ham, psi0, REGION.indicator(GRID), WINDOW), 0.0),
        # the clocks' unperturbed final state, read off their coupled system
        clock_final=CoupledSystem(ham, psi0, REGION.indicator(GRID),
                                  WINDOW).reference_system_final,
    )


def _postselector(phi: QuantumState, eps: float, time=None) -> QuantumState:
    """Unit state whose overlap with phi is eps ||phi||, referenced to
    `time` (default phi's own)."""
    phi_hat = phi.normalized()
    seed = QuantumState(phi.space, np.exp(1j * np.arange(GRID.n_points)))
    eta = seed.amplitudes - inner_product(phi_hat, seed) * phi_hat.amplitudes
    eta = QuantumState(phi.space, eta).normalized()
    amps = eps * phi_hat.amplitudes + np.sqrt(1.0 - eps**2) * eta.amplitudes
    return QuantumState(phi.space, amps, phi.representation_time if time is None else time)


def _cell_second_moment(c, eps, time=None):
    # the postselector is the cell, built at the state's time; the state's
    # amplitude there sets the overlap
    amps = c.psi_final.amplitudes.copy()
    amps[CELL] = 0.0
    norm = QuantumState(SPACE, amps).norm()
    amps[CELL] = eps * norm / np.sqrt(GRID.dx)
    psi = QuantumState(SPACE, amps, WINDOW[1] if time is None else time)
    return oracle.second_moment_position_postselected(c.op, psi, CELL)


def _clock(fn, strengths):
    def route(c, eps, time=None):
        coupled = CoupledSystem(c.ham, c.psi0, REGION.indicator(GRID), WINDOW)
        return fn(strengths, coupled, {"chi": _postselector(c.clock_final, eps, time)})

    return route


def _identity_check(c, eps, time=None):
    def factory(g):
        return run_moment_meter(c.spec, c.psi0, c.op, 1, g)

    chi = _postselector(c.psi_final, eps, time)
    return oracle.derivative_identity_check(factory, (0.05, 0.025, 0.0125), chi, orders=(1,))


# route(ctx, eps, time=None): the route's readout postselected on a state
# whose overlap with the route's final state is eps, referenced to `time`
ROUTES = {
    "conditional_dwell_time": lambda c, eps, time=None: conditional_dwell_time(
        c.op, c.psi_final, _postselector(c.psi_final, eps, time)
    ),
    "moment": lambda c, eps, time=None: moment(
        c.op, c.psi_final, _postselector(c.psi_final, eps, time), 2),
    "second_moment_position_postselected": _cell_second_moment,
    "pointer_distribution": lambda c, eps, time=None: pointer_distribution(
        c.run, _postselector(c.run.reference_system_final, eps, time)
    ),
    "lambda_moment_route": lambda c, eps, time=None: lambda_moment_route(
        c.op, c.psi0, _postselector(c.psi_final, eps, time), 1, (0.1, 0.05, 0.025)
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


@pytest.mark.parametrize("route", list(ROUTES))
def test_every_route_refuses_a_postselector_off_the_window_end(route, ctx):
    # a well-conditioned postselector at t = 0: the readouts are window-end
    # weak values, so an instant mix-up is refused, never read
    ROUTES[route](ctx, 0.5)
    with pytest.raises(ParameterError, match="not referenced"):
        ROUTES[route](ctx, 0.5, time=0.0)
