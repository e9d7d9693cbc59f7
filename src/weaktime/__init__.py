"""weaktime: a numerical laboratory for quantum traversal times.

Dwell times, postselected traversal times and their higher moments for 1D
wavepackets, computed along three independent routes and cross-checked:

* weak values of the time-averaged region projector (sojourn module),
* physical clocks read perturbatively and extrapolated to zero strength
  (clocks module),
* explicit system-pointer measurement simulations (meter module).

Units: hbar = 1, particle mass 1/2, so kinetic energy is -d^2/dx^2.
"""

from .errors import (
    DegeneratePostselectionError,
    EmptyRegionError,
    NumericalError,
    ParameterError,
    StructureError,
    ValidationError,
    WeaktimeError,
)
from .hilbert import (
    HBAR,
    Grid,
    FactorSpace,
    QuantumState,
    Region,
    gaussian_packet,
    gaussian_pointer,
    inner_product,
    position_space,
    spin_space,
)
from .dynamics import (
    Hamiltonian,
    Propagator,
    evolve,
    evolve_eigenbasis,
)
from .sojourn import (
    SojournOperator,
    WeakValueResult,
    conditional_dwell_time,
    dwell_time,
    moment,
    moment_sum,
    second_moment_position_integral,
    sojourn_matrix,
)
from .clocks import (
    ClockRuns,
    SweepRecord,
    clock_imaginary_potential,
    clock_larmor,
    clock_real_potential,
    clock_shifts,
    extrapolate_to_zero,
)
from .meter import (
    MeterRun,
    PointerDistribution,
    PointerSpec,
    derivative_identity_check,
    lambda_moment_route,
    pointer_distribution,
    run_meter,
    run_moment_meter,
    survival_probability,
)
from .scenarios import (
    ResultBundle,
    Scenario,
    catalog,
    emit,
    postselect_transmitted_reflected,
    run_scenario,
    validate_scenario,
)
from .scenarios import VERSION as __version__

__all__ = [name for name in dir() if not name.startswith("_")]
