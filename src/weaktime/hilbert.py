"""Discretized Hilbert-space primitives.

Grids, factor spaces, states, dense operators, regions, the discrete inner
product and the one postselection-overlap policy (`checked_overlap`).
Everything here is dense and immutable; this module is the correctness
layer on which the dynamics and measurement machinery is built.

Units: hbar = 1 and particle mass m = 1/2 throughout, so the kinetic energy
operator is -d^2/dx^2 and a plane wave exp(i k x) has energy k^2 and group
velocity 2 k.  All lengths and times are dimensionless.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DegeneratePostselectionError,
    EmptyRegionError,
    ParameterError,
    StructureError,
)

HBAR = 1.0

HERMITICITY_TOL = 1e-10
OVERLAP_FLOOR = 1e-8

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid with inclusive endpoints, x_j = x_min + j*dx."""

    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self):
        if self.n_points < 3:
            raise ParameterError("grid needs at least 3 points")
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
    """One tensor factor: a position grid, a spin-1/2, or a pointer grid.

    A meter state lives on system (x) pointer, the pointer factor last.
    """

    kind: str  # "position" | "spin" | "pointer"
    grid: Grid | None = None

    def __post_init__(self):
        if self.kind in ("position", "pointer"):
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
        """Quadrature weight of one cell: dx for continuous factors, 1 for spin."""
        return 1.0 if self.kind == "spin" else self.grid.dx


def position_space(grid: Grid) -> FactorSpace:
    return FactorSpace("position", grid)


def spin_space() -> FactorSpace:
    return FactorSpace("spin")


def pointer_space(grid: Grid) -> FactorSpace:
    return FactorSpace("pointer", grid)


def space_dimension(space: tuple[FactorSpace, ...]) -> int:
    dim = 1
    for f in space:
        dim *= f.dimension
    return dim


def space_weight(space: tuple[FactorSpace, ...]) -> float:
    w = 1.0
    for f in space:
        w *= f.weight
    return w


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Complex amplitude vector on an ordered product of factor spaces.

    `representation_time` records the instant the amplitudes refer to;
    propagation returns new states with an updated time stamp.
    """

    space: tuple[FactorSpace, ...]
    amplitudes: np.ndarray
    representation_time: float = 0.0

    def __post_init__(self):
        space = tuple(self.space)
        object.__setattr__(self, "space", space)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size != space_dimension(space):
            raise StructureError(
                f"amplitude vector of length {amps.size} does not match "
                f"space dimension {space_dimension(space)}"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def cell_weight(self) -> float:
        return space_weight(self.space)

    def norm(self) -> float:
        return float(np.sqrt(self.cell_weight) * np.linalg.norm(self.amplitudes))

    def normalized(self) -> "QuantumState":
        n = self.norm()
        if n == 0.0:
            raise ParameterError("cannot normalize the zero state")
        return QuantumState(self.space, self.amplitudes / n, self.representation_time)

    def at_time(self, t: float) -> "QuantumState":
        return QuantumState(self.space, self.amplitudes, t)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense complex matrix on an ordered product of factor spaces."""

    space: tuple[FactorSpace, ...]
    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        space = tuple(self.space)
        object.__setattr__(self, "space", space)
        mat = np.asarray(self.matrix, dtype=complex)
        dim = space_dimension(space)
        if mat.shape != (dim, dim):
            raise StructureError(
                f"matrix shape {mat.shape} does not match space dimension {dim}"
            )
        if self.hermitian:
            defect = np.max(np.abs(mat - mat.conj().T)) if dim else 0.0
            if defect >= HERMITICITY_TOL:
                raise ContractError(
                    f"matrix declared hermitian but |M - M^dag| = {defect:.3e}"
                )
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


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


def inner_product(a: QuantumState, b: QuantumState) -> complex:
    """Discrete inner product <a|b>, conjugate-linear in the first argument.

    Continuous factors contribute their cell width dx as quadrature weight.
    """
    if tuple(a.space) != tuple(b.space):
        raise StructureError("inner product between states on different spaces")
    return complex(a.cell_weight * np.vdot(a.amplitudes, b.amplitudes))


def checked_overlap(chi: QuantumState, psi: QuantumState, overlap=None) -> complex:
    """The postselection overlap `overlap` (default <chi|psi>), or raise if
    it is degenerate.

    The one policy for every postselected ratio in the package: the
    postselection of psi on chi is degenerate, and DegeneratePostselectionError
    raised, when |<chi|psi>| <= OVERLAP_FLOOR * ||chi|| * ||psi||.  A caller
    that already holds the overlap passes it; for a system (x) pointer psi it
    is the norm of the postselected pointer amplitude <chi|psi(q)>.
    """
    if overlap is None:
        overlap = inner_product(chi, psi)
    if abs(overlap) <= OVERLAP_FLOOR * chi.norm() * psi.norm():
        raise DegeneratePostselectionError(
            f"postselection overlap {abs(overlap):.3e} is at most {OVERLAP_FLOOR} "
            "times the norms; the postselected value is undefined"
        )
    return overlap


def projector(region: Region, grid: Grid) -> OperatorMatrix:
    """Diagonal 0/1 projector onto the grid points inside `region`."""
    diag = region.indicator(grid)
    return OperatorMatrix(
        (position_space(grid),), np.diag(diag.astype(complex)), hermitian=True
    )


def identity_operator(space) -> OperatorMatrix:
    space = tuple(space) if isinstance(space, (tuple, list)) else (space,)
    return OperatorMatrix(space, np.eye(space_dimension(space)), hermitian=True)


def spin_operator(matrix: np.ndarray, hermitian: bool = True) -> OperatorMatrix:
    return OperatorMatrix((spin_space(),), matrix, hermitian=hermitian)


def gaussian_packet(grid: Grid, x0: float, sigma: float, k0: float) -> QuantumState:
    """Normalized Gaussian wavepacket exp(-(x-x0)^2/(4 sigma^2)) exp(i k0 x).

    `sigma` is the position-space standard deviation.  Raises if the packet
    is unresolvable on the grid; warns if its tails come within 5 sigma of a
    boundary.
    """
    if sigma <= 0:
        raise ParameterError("sigma must be positive")
    if sigma <= 3 * grid.dx:
        raise ParameterError(
            f"sigma = {sigma} unresolvable: need sigma > 3 dx = {3 * grid.dx}"
        )
    if x0 - grid.x_min < 5 * sigma or grid.x_max - x0 < 5 * sigma:
        warnings.warn("packet support within 5 sigma of a grid boundary")
    x = grid.points
    amps = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2)) * np.exp(1j * k0 * x)
    state = QuantumState((position_space(grid),), amps)
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


def basis_cell_state(grid: Grid, index: int, space=None, time: float = 0.0) -> QuantumState:
    """Normalized indicator of a single grid cell (cell-averaged postselector)."""
    if not 0 <= index < grid.n_points:
        raise ParameterError("cell index outside grid")
    amps = np.zeros(grid.n_points, dtype=complex)
    amps[index] = 1.0 / np.sqrt(grid.dx)
    return QuantumState(space or (position_space(grid),), amps, time)
