"""Discretized Hilbert-space primitives.

Grids, factor spaces, states, regions, the discrete inner product, the
one postselection-overlap policy (`checked_overlap`) and the one check that a
state refers to a given time (`check_time`).  Every state lives on
one factor: a position grid or a spin-1/2.  There is no dense operator
type: the meter's observable is diagonal and is passed as its real 1-D
diagonal (a region indicator, or [1, -1] for sigma_z), and the sojourn
operator keeps its own eigenbasis form.  Everything here is immutable; this
module is the correctness layer on which the dynamics and measurement
machinery is built.

Units: hbar = 1 and particle mass m = 1/2 throughout, so the kinetic energy
operator is -d^2/dx^2 and a plane wave exp(i k x) has energy k^2 and group
velocity 2 k.  All lengths and times are dimensionless.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePostselectionError,
    EmptyRegionError,
    ParameterError,
    StructureError,
)

HBAR = 1.0

OVERLAP_FLOOR = 1e-8
# two instants closer than this are the same representation time
TIME_ATOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid with inclusive endpoints, x_j = x_min + j*dx."""

    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self):
        if self.n_points < 3:
            raise ParameterError("grid needs at least 3 points")
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ParameterError(
                f"grid endpoints must be finite, got x_min={self.x_min}, x_max={self.x_max}")
        if not self.x_max > self.x_min:
            raise ParameterError("x_max must exceed x_min")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)


@dataclass(frozen=True)
class FactorSpace:
    """The one factor a state lives on: a position grid or a spin-1/2."""

    kind: str  # "position" | "spin"
    grid: Grid | None = None

    def __post_init__(self):
        if self.kind == "position":
            if self.grid is None:
                raise StructureError(f"{self.kind} factor requires a grid")
        elif self.kind == "spin":
            if self.grid is not None:
                raise StructureError("spin factor carries no grid")
        else:
            raise StructureError(f"unknown factor kind {self.kind!r}")

    @property
    def dimension(self) -> int:
        return 2 if self.kind == "spin" else self.grid.n_points

    @property
    def weight(self) -> float:
        """Quadrature weight of one cell: dx on a position grid, 1 for spin."""
        return 1.0 if self.kind == "spin" else self.grid.dx


def position_space(grid: Grid) -> FactorSpace:
    return FactorSpace("position", grid)


def spin_space() -> FactorSpace:
    return FactorSpace("spin")


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Complex amplitude vector on one factor space.

    `representation_time` records the instant the amplitudes refer to;
    propagation returns new states with an updated time stamp.
    """

    space: FactorSpace
    amplitudes: np.ndarray
    representation_time: float = 0.0

    def __post_init__(self):
        if not isinstance(self.space, FactorSpace):
            raise StructureError("a state lives on exactly one FactorSpace")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size != self.space.dimension:
            raise StructureError(
                f"amplitude vector of length {amps.size} does not match "
                f"space dimension {self.space.dimension}"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def cell_weight(self) -> float:
        return self.space.weight

    def norm(self) -> float:
        return float(np.sqrt(self.cell_weight) * np.linalg.norm(self.amplitudes))

    def normalized(self) -> "QuantumState":
        n = self.norm()
        if n == 0.0:
            raise ParameterError("cannot normalize the zero state")
        return QuantumState(self.space, self.amplitudes / n, self.representation_time)

    def at_time(self, t: float) -> "QuantumState":
        return QuantumState(self.space, self.amplitudes, t)


@dataclass(frozen=True)
class Region:
    """Spatial interval [x_lo, x_hi); resolved on a grid by the half-open rule.

    A grid point x_j belongs to the region iff x_lo <= x_j < x_hi, so
    adjacent regions partition the grid without double counting.
    """

    x_lo: float
    x_hi: float

    def __post_init__(self):
        if not self.x_hi > self.x_lo:
            raise ParameterError("region needs x_lo < x_hi")

    def indices(self, grid: Grid) -> np.ndarray:
        x = grid.points
        idx = np.nonzero((x >= self.x_lo) & (x < self.x_hi))[0]
        if idx.size == 0:
            raise EmptyRegionError(
                f"region [{self.x_lo}, {self.x_hi}) contains no grid point"
            )
        return idx

    def indicator(self, grid: Grid) -> np.ndarray:
        ind = np.zeros(grid.n_points)
        ind[self.indices(grid)] = 1.0
        return ind


def check_time(state: QuantumState, t: float, instant: str) -> None:
    """Raise ParameterError unless `state` is referenced to time `t`, named
    `instant` in the message (the readouts' "window end", the meter's "run
    start")."""
    if not abs(state.representation_time - t) <= TIME_ATOL:
        raise ParameterError(
            f"state at t={state.representation_time} is not referenced to the "
            f"{instant} t={t}"
        )


def inner_product(a: QuantumState, b: QuantumState) -> complex:
    """Discrete inner product <a|b>, conjugate-linear in the first argument.

    A position grid contributes its cell width dx as quadrature weight.
    """
    if a.space != b.space:
        raise StructureError("inner product between states on different spaces")
    return complex(a.cell_weight * np.vdot(a.amplitudes, b.amplitudes))


def checked_overlap(chi: QuantumState, psi: QuantumState, overlap=None) -> complex:
    """The postselection overlap `overlap` (default <chi|psi>), or raise if
    it is degenerate or chi is referenced to another instant than psi.

    The one policy for every postselected ratio in the package: the
    postselection of psi on chi is degenerate, and DegeneratePostselectionError
    raised, when |<chi|psi>| <= OVERLAP_FLOOR * ||chi|| * ||psi||; a chi not
    referenced to psi's time raises ParameterError (`check_time`).  A caller
    that already holds the overlap passes it; for a meter run it is the norm
    of the postselected pointer amplitude <chi|psi(q)>.
    """
    check_time(chi, psi.representation_time, "postselection instant")
    if overlap is None:
        overlap = inner_product(chi, psi)
    if not abs(overlap) > OVERLAP_FLOOR * chi.norm() * psi.norm():
        raise DegeneratePostselectionError(
            f"postselection overlap {abs(overlap):.3e} is at most {OVERLAP_FLOOR} "
            "times the norms; the postselected value is undefined"
        )
    return overlap


def gaussian_packet(grid: Grid, x0: float, sigma: float, k0: float) -> QuantumState:
    """Normalized Gaussian wavepacket exp(-(x-x0)^2/(4 sigma^2)) exp(i k0 x).

    `sigma` is the position-space standard deviation.  Raises if the packet
    is unresolvable on the grid; warns if its tails come within 5 sigma of a
    boundary.
    """
    if not sigma > 0:
        raise ParameterError("sigma must be positive")
    if not sigma > 3 * grid.dx:
        raise ParameterError(
            f"sigma = {sigma} unresolvable: need sigma > 3 dx = {3 * grid.dx}"
        )
    if x0 - grid.x_min < 5 * sigma or grid.x_max - x0 < 5 * sigma:
        warnings.warn("packet support within 5 sigma of a grid boundary")
    x = grid.points
    amps = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2)) * np.exp(1j * k0 * x)
    state = QuantumState(position_space(grid), amps)
    return state.normalized()


def gaussian_pointer(grid: Grid, width: float) -> QuantumState:
    """Gaussian pointer profile centered at q = 0 with standard deviation `width`."""
    return gaussian_packet(grid, 0.0, width, 0.0)


def fourier_momentum_values(grid: Grid) -> np.ndarray:
    """Momentum eigenvalues of the DFT-periodic momentum operator on `grid`,
    in numpy FFT order: exp(-i p a) applied through the FFT translates a
    profile by a on the grid, which is what the meter's mode factorization
    rests on."""
    return 2.0 * np.pi * HBAR * np.fft.fftfreq(grid.n_points, d=grid.dx)


def basis_cell_state(grid: Grid, index: int, time: float) -> QuantumState:
    """Normalized indicator of a single grid cell (cell-averaged postselector)
    referenced to `time`."""
    if not 0 <= index < grid.n_points:
        raise ParameterError("cell index outside grid")
    amps = np.zeros(grid.n_points, dtype=complex)
    amps[index] = 1.0 / np.sqrt(grid.dx)
    return QuantumState(position_space(grid), amps, time)
