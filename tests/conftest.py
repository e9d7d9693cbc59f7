"""Shared fixtures.

The expensive catalog contexts (512-point eigensystems, sojourn operators)
are session scoped so that module tests and the acceptance suite pay for
them once.
"""

import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from weaktime.dynamics import evolve_eigenbasis
from weaktime.hilbert import QuantumState
from weaktime.scenarios import catalog, postselect_transmitted_reflected
from weaktime.sojourn import SojournOperator, sojourn_matrix


@dataclass
class ScenarioContext:
    scenario: object
    ham: object
    psi0: QuantumState
    psi_final: QuantumState
    op: SojournOperator
    chi_t: QuantumState = None
    chi_r: QuantumState = None
    p_t: complex = 0.0
    p_r: complex = 0.0


def _build_context(name):
    sc = catalog()[name]
    ham = sc.hamiltonian()
    psi0 = sc.initial_state()
    psi_final = evolve_eigenbasis(psi0, ham, sc.window[1])
    op = sojourn_matrix(sc.region, ham, sc.window)
    ctx = ScenarioContext(sc, ham, psi0, psi_final, op)
    if sc.postselection == "transmitted_reflected":
        ctx.chi_t, ctx.chi_r, ctx.p_t, ctx.p_r = postselect_transmitted_reflected(
            psi_final, sc.potential.interval
        )
    return ctx


@pytest.fixture(scope="session")
def barrier_ctx():
    """Catalog tunneling scenario with the region equal to the barrier."""
    return _build_context("barrier_dwell")


@pytest.fixture(scope="session")
def farside_ctx():
    """Same barrier with the region beyond it."""
    return _build_context("barrier_farside")


@pytest.fixture(scope="session")
def free_box_ctx():
    return _build_context("free_box")


@pytest.fixture(scope="session")
def well_ctx():
    return _build_context("well_halves")
