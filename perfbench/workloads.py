"""Seeded inputs for the three benchmark workloads.

Each workload is a list of (scenario, pipelines) pairs that one client runs
in sequence, pass after pass.  The same seed always gives the same list.
Parameter ranges are chosen so that every generated scenario passes
`validate_scenario` and the barrier-clearance budget, and every
`position_cell` index lands where the evolved packet has weight: a scenario
that fails the correctness gate points at a program defect, never at a bad
input.  `test_workloads.py` checks this over several seeds and at the
corners of the ranges.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import scipy.linalg

from weaktime import scenarios as S
from weaktime.hilbert import Grid, Region

WORKLOADS = ("catalog", "meter", "sweep")

# meter: barrier lattices whose size is the only thing that changes the
# cost per pointer mode, so N^3 scaling of the dense solves shows
METER_SIZES = (96, 128)
METER_DX = 1.0
METER_SIGMA = 3.5
METER_X0 = 5.0 * METER_SIGMA + 1.0
METER_WINDOW = 21.0
METER_K0 = (1.1, 1.3)
METER_ENERGY_RATIO = (0.4, 0.6)  # E / V0
METER_WIDTH = (1.2, 2.0)
METER_GAP_EXTRA = (0.0, 2.0)  # beyond the 5 sigma + 1 minimum gap

# sweep: barrier_dwell's grid and potential, so every input shares one
# Hamiltonian
SWEEP_COUNT = 24
SWEEP_WINDOWS = (45.0, 50.0, 55.0)
SWEEP_K0 = (0.95, 1.1)
SWEEP_REGION_KINDS = ("barrier", "farside", "nearside", "straddle")
SWEEP_SIDE_WIDTH = (6.0, 24.0)
SWEEP_STRADDLE = (2.0, 10.0)
CELL_WEIGHT_SHARE = 0.1  # a position cell holds at least this share of the peak density


def build(name: str, seed: int) -> list[tuple[S.Scenario, tuple[str, ...]]]:
    """Scenario list of workload `name` for `seed`."""
    if name == "catalog":
        return [(sc, ("sojourn", "clocks")) for sc in S.catalog().values()]
    rng = np.random.default_rng(seed)
    if name == "meter":
        items = [S.catalog()["well_halves"]]
        items += [meter_barrier(n, rng) for n in METER_SIZES]
        return [(sc, ("sojourn", "meter")) for sc in items]
    if name == "sweep":
        return [(sc, ("sojourn",)) for sc in sweep_scenarios(rng)]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _uniform(rng, bounds) -> float:
    return round(float(rng.uniform(*bounds)), 4)


def meter_barrier(n_points: int, rng) -> S.Scenario:
    """Tunnelling packet on an n_points lattice, region equal to the barrier,
    transmitted/reflected postselection."""
    grid = Grid(n_points, 0.0, METER_DX * (n_points - 1))
    k0 = _uniform(rng, METER_K0)
    v0 = round(k0**2 / _uniform(rng, METER_ENERGY_RATIO), 4)
    x_lo = METER_X0 + 5.0 * METER_SIGMA + 1.0 + _uniform(rng, METER_GAP_EXTRA)
    x_hi = x_lo + _uniform(rng, METER_WIDTH)
    return S.Scenario(
        name=f"meter_barrier_n{n_points}",
        grid=grid,
        potential=S.PotentialSpec(kind="barrier", v0=v0, x_lo=x_lo, x_hi=x_hi),
        packet=S.PacketSpec(x0=METER_X0, sigma=METER_SIGMA, k0=k0),
        window=(0.0, METER_WINDOW),
        region=Region(x_lo, x_hi),
        postselection="transmitted_reflected",
    )


def _sweep_region(kind: str, b_lo: float, b_hi: float, rng) -> Region:
    if kind == "barrier":
        return Region(b_lo, b_hi)
    if kind == "farside":
        return Region(b_hi, b_hi + _uniform(rng, SWEEP_SIDE_WIDTH))
    if kind == "nearside":
        return Region(b_lo - _uniform(rng, SWEEP_SIDE_WIDTH), b_lo)
    return Region(b_lo - _uniform(rng, SWEEP_STRADDLE), b_hi + _uniform(rng, SWEEP_STRADDLE))


def sweep_scenarios(rng) -> list[S.Scenario]:
    """SWEEP_COUNT variations of barrier_dwell: region, window length and k0
    vary; every third scenario postselects on one position cell."""
    base = S.catalog()["barrier_dwell"]
    b_lo, b_hi = base.potential.x_lo, base.potential.x_hi
    out = []
    for i in range(SWEEP_COUNT):
        kind = SWEEP_REGION_KINDS[int(rng.integers(len(SWEEP_REGION_KINDS)))]
        packet = S.PacketSpec(base.packet.x0, base.packet.sigma, _uniform(rng, SWEEP_K0))
        window = (0.0, SWEEP_WINDOWS[int(rng.integers(len(SWEEP_WINDOWS)))])
        sc = S.Scenario(
            name=f"sweep_{i:02d}",
            grid=base.grid,
            potential=base.potential,
            packet=packet,
            window=window,
            region=_sweep_region(kind, b_lo, b_hi, rng),
            postselection=base.postselection,
        )
        if i % 3 == 2:
            cells = weighted_cells(sc)
            sc = replace(sc, postselection="position_cell",
                         cell_index=int(rng.choice(cells)))
        out.append(sc)
    return out


def final_density(sc: S.Scenario) -> np.ndarray:
    """|psi(t_stop)|^2 dx of the scenario's packet, from a real tridiagonal
    eigensolve written here, independent of the program under test."""
    grid = sc.grid
    x = grid.points
    inv2 = 1.0 / grid.dx**2
    v = sc.potential.array(grid)
    diag = np.full(grid.n_points, 2.0 * inv2) + (0.0 if v is None else v)
    off = np.full(grid.n_points - 1, -inv2)
    vals, vecs = scipy.linalg.eigh_tridiagonal(diag, off)
    p = sc.packet
    psi = np.exp(-((x - p.x0) ** 2) / (4.0 * p.sigma**2) + 1j * p.k0 * x)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    amp = vecs @ (np.exp(-1j * vals * sc.duration()) * (vecs.T @ psi))
    return np.abs(amp) ** 2 * grid.dx


def weighted_cells(sc: S.Scenario) -> np.ndarray:
    """Indices of cells holding at least CELL_WEIGHT_SHARE of the peak
    density of the evolved packet."""
    dens = final_density(sc)
    return np.nonzero(dens >= CELL_WEIGHT_SHARE * dens.max())[0]
