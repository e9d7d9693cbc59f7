"""Hamiltonian assembly and time evolution.

Two steppers share one interface: a dense matrix-exponential oracle
(`dense_exponential`) and a Cayley/Crank-Nicolson implicit scheme
(`implicit_step`).  Both support complex absorbing potentials, a spin
precession term confined to a region, and a meter interaction with a
time-dependent coupling profile.  Time-dependent Hamiltonians are frozen at
each step midpoint, which realizes the time-ordered exponential to O(dt^2).

Boundary conditions are hard walls (Dirichlet): the kinetic matrix is the
standard tridiagonal -d^2/dx^2 stencil with implicit zeros outside the box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import NumericalError, ParameterError, StructureError
from .hilbert import (
    HBAR,
    PAULI_Z,
    FactorSpace,
    Grid,
    OperatorMatrix,
    QuantumState,
    Region,
    space_dimension,
    spin_operator,
    tensor_extend,
)

_TIME_ATOL = 1e-9


@dataclass(frozen=True)
class CouplingProfile:
    """Normalized time profile h(t) of the meter coupling, area 1.

    Rectangular: h = 1/(t_stop - t_start) on [t_start, t_stop), else 0.
    An impulsive profile is realized as a rectangular profile one time step
    wide ending at the hit time.
    """

    t_start: float
    t_stop: float

    def __post_init__(self):
        if not self.t_stop > self.t_start:
            raise ParameterError("profile needs t_start < t_stop")

    @classmethod
    def rectangular(cls, t_start: float, t_stop: float) -> "CouplingProfile":
        return cls(t_start, t_stop)

    @classmethod
    def impulsive(cls, t_hit: float, dt: float) -> "CouplingProfile":
        return cls(t_hit - dt, t_hit)

    @property
    def duration(self) -> float:
        return self.t_stop - self.t_start

    def value(self, t: float) -> float:
        if self.t_start <= t < self.t_stop:
            return 1.0 / self.duration
        return 0.0


@dataclass(eq=False)
class InteractionTerm:
    """Meter coupling  coupling * h(t) * (pointer momentum) x (system operator).

    `system_operator` may be a fixed OperatorMatrix or a schedule, i.e. a
    callable t -> OperatorMatrix (used for the Schroedinger-picture sojourn
    operator).  With `pointer_momentum` None the term acts on the system
    alone with a scalar coupling.
    """

    coupling: float
    profile: CouplingProfile
    system_operator: OperatorMatrix | Callable[[float], OperatorMatrix]
    pointer_momentum: Optional[OperatorMatrix] = None

    @property
    def scheduled(self) -> bool:
        return callable(self.system_operator)

    def system_matrix_at(self, t: float) -> OperatorMatrix:
        if self.scheduled:
            return self.system_operator(t)
        return self.system_operator


@dataclass(eq=False)
class SpinCoupling:
    """Precession term  (hbar*omega/2) * P_region x sigma_z, on inside `window`."""

    omega: float
    region: Region
    window: Optional[tuple[float, float]] = None

    def active(self, t: float) -> bool:
        if self.window is None:
            return True
        return self.window[0] <= t < self.window[1]


@dataclass(eq=False)
class Hamiltonian:
    """Structured generator on a product of factor spaces.

    Treat instances as immutable after construction; derived Hamiltonians
    are produced by the `with_*` / `without_couplings` helpers.
    """

    space: tuple[FactorSpace, ...]
    kinetic: bool = True
    potential_real: Optional[np.ndarray] = None
    potential_imag: Optional[np.ndarray] = None  # -Gamma/2 convention, enters as +i*diag
    spin_coupling: Optional[SpinCoupling] = None
    interaction: Optional[InteractionTerm] = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.space = tuple(self.space)
        grid = self.position_grid
        for name in ("potential_real", "potential_imag"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=float)
                if grid is None or v.shape != (grid.n_points,):
                    raise StructureError(f"{name} does not match the position grid")
                setattr(self, name, v)
        if self.kinetic and grid is None:
            self.kinetic = False
        if self.spin_coupling is not None and self.spin_factor_index is None:
            raise StructureError("spin coupling requires a spin factor")

    @property
    def dimension(self) -> int:
        return space_dimension(self.space)

    @property
    def position_grid(self) -> Grid | None:
        for f in self.space:
            if f.kind == "position":
                return f.grid
        return None

    @property
    def spin_factor_index(self) -> int | None:
        for i, f in enumerate(self.space):
            if f.kind == "spin":
                return i
        return None

    # -- static part ------------------------------------------------------

    def _static_matrix(self) -> np.ndarray:
        cached = self._cache.get("static")
        if cached is not None:
            return cached
        dim = self.dimension
        grid = self.position_grid
        mat = np.zeros((dim, dim), dtype=complex)
        if grid is not None and (
            self.kinetic or self.potential_real is not None or self.potential_imag is not None
        ):
            n = grid.n_points
            hpos = np.zeros((n, n), dtype=complex)
            if self.kinetic:
                inv2 = 1.0 / grid.dx**2
                hpos += np.diag(np.full(n, 2.0 * inv2))
                hpos -= np.diag(np.full(n - 1, inv2), 1)
                hpos -= np.diag(np.full(n - 1, inv2), -1)
            if self.potential_real is not None:
                hpos += np.diag(self.potential_real.astype(complex))
            if self.potential_imag is not None:
                hpos += 1j * np.diag(self.potential_imag.astype(complex))
            op = OperatorMatrix((FactorSpace("position", grid),), hpos)
            mat += tensor_extend(op, self.space).matrix
        self._cache["static"] = mat
        return mat

    def _spin_term(self) -> np.ndarray:
        cached = self._cache.get("spin")
        if cached is not None:
            return cached
        sc = self.spin_coupling
        grid = self.position_grid
        proj = np.diag(sc.region.indicator(grid).astype(complex))
        pos_op = OperatorMatrix((FactorSpace("position", grid),), proj, hermitian=True)
        term = (
            0.5
            * HBAR
            * sc.omega
            * tensor_extend(pos_op, self.space).matrix
            @ tensor_extend(spin_operator(PAULI_Z), self.space).matrix
        )
        self._cache["spin"] = term
        return term

    def _interaction_matrix(self, t: float) -> np.ndarray:
        it = self.interaction
        h = it.profile.value(t)
        if h == 0.0:
            return np.zeros((self.dimension, self.dimension))
        sys_op = tensor_extend(it.system_matrix_at(t), self.space).matrix
        if it.pointer_momentum is not None:
            key = "pointer_ext"
            ptr = self._cache.get(key)
            if ptr is None:
                ptr = tensor_extend(it.pointer_momentum, self.space).matrix
                self._cache[key] = ptr
            sys_op = ptr @ sys_op
        return it.coupling * h * sys_op

    def matrix_at(self, t: float) -> np.ndarray:
        mat = self._static_matrix().copy()
        if self.spin_coupling is not None and self.spin_coupling.active(t):
            mat += self._spin_term()
        if self.interaction is not None:
            mat += self._interaction_matrix(t)
        return mat

    # -- structure queries -------------------------------------------------

    def regime_key(self, t: float):
        """Hashable tag identifying the Hamiltonian regime at time t.

        Steps with equal keys share one assembled matrix; a scheduled
        (continuously time-dependent) interaction makes every active step
        unique.
        """
        spin_on = self.spin_coupling is not None and self.spin_coupling.active(t)
        if self.interaction is None:
            return (spin_on, 0.0, None)
        h = self.interaction.profile.value(t)
        sched = t if (self.interaction.scheduled and h != 0.0) else None
        return (spin_on, h, sched)

    def is_hermitian(self) -> bool:
        return self.potential_imag is None or not np.any(self.potential_imag)

    def without_couplings(self) -> "Hamiltonian":
        key = "free"
        free = self._cache.get(key)
        if free is None:
            free = Hamiltonian(
                self.space,
                kinetic=self.kinetic,
                potential_real=self.potential_real,
                potential_imag=self.potential_imag,
            )
            self._cache[key] = free
        return free

    def with_potential_added(
        self, real: Optional[np.ndarray] = None, imag: Optional[np.ndarray] = None
    ) -> "Hamiltonian":
        def _add(a, b):
            if a is None:
                return None if b is None else np.asarray(b, dtype=float)
            return a if b is None else a + np.asarray(b, dtype=float)

        return Hamiltonian(
            self.space,
            kinetic=self.kinetic,
            potential_real=_add(self.potential_real, real),
            potential_imag=_add(self.potential_imag, imag),
            spin_coupling=self.spin_coupling,
            interaction=self.interaction,
        )

    def tridiagonal(self):
        """Real (diag, off) of the static matrix of a hermitian single-factor
        Hamiltonian without couplings: the kinetic stencil plus the real
        potential on the diagonal, zeros when there is neither."""
        if (
            len(self.space) != 1
            or not self.is_hermitian()
            or self.spin_coupling is not None
            or self.interaction is not None
        ):
            raise StructureError(
                "tridiagonal form needs a hermitian single-factor Hamiltonian "
                "without couplings"
            )
        n = self.dimension
        diag = np.zeros(n)
        off = np.zeros(n - 1)
        if self.kinetic:
            inv2 = 1.0 / self.position_grid.dx**2
            diag += 2.0 * inv2
            off -= inv2
        if self.potential_real is not None:
            diag += self.potential_real
        return diag, off

    def eigensystem(self):
        """Real eigenvalues and float64 orthonormal eigenvectors of the static
        part, from one tridiagonal solve (see `tridiagonal`); cached."""
        if not self.is_hermitian():
            raise ParameterError("eigensystem requires a hermitian Hamiltonian")
        cached = self._cache.get("eig")
        if cached is None:
            cached = scipy.linalg.eigh_tridiagonal(*self.tridiagonal())
            self._cache["eig"] = cached
        return cached


def evolve_eigenbasis(
    state: QuantumState, hamiltonian: Hamiltonian, t_to: float
) -> QuantumState:
    """Exact evolution of `state` from its representation time to t_to under
    the static hermitian Hamiltonian, as phases in its eigenbasis."""
    vals, vecs = hamiltonian.eigensystem()
    span = t_to - state.representation_time
    amp = vecs @ (np.exp(-1j * vals * span / HBAR) * (vecs.T @ state.amplitudes))
    return QuantumState(state.space, amp, t_to)


def assemble(hamiltonian: Hamiltonian, t: float) -> OperatorMatrix:
    """Dense matrix of the full Hamiltonian at time t."""
    mat = hamiltonian.matrix_at(t)
    hermitian = (
        hamiltonian.is_hermitian()
        and np.max(np.abs(mat - mat.conj().T), initial=0.0) < 1e-10
    )
    return OperatorMatrix(hamiltonian.space, mat, hermitian=hermitian)


@dataclass(eq=False)
class Propagator:
    """Stepping scheme bound to a Hamiltonian and a fixed time step."""

    method: str  # "dense_exponential" | "implicit_step"
    dt: float
    hamiltonian: Hamiltonian

    def __post_init__(self):
        if self.method not in ("dense_exponential", "implicit_step"):
            raise ParameterError(f"unknown propagator method {self.method!r}")
        if self.dt <= 0:
            raise ParameterError("dt must be positive")

    def free(self) -> "Propagator":
        return Propagator(self.method, self.dt, self.hamiltonian.without_couplings())


class _Stepper:
    """One-step applicator for a frozen Hamiltonian matrix."""

    def __init__(self, method: str, matrix: np.ndarray, dt: float):
        if method == "dense_exponential":
            self._u = scipy.linalg.expm(-1j * dt / HBAR * matrix)
            self._lu = None
        else:
            dim = matrix.shape[0]
            eye = scipy.sparse.identity(dim, format="csc", dtype=complex)
            half = 0.5j * dt / HBAR * scipy.sparse.csc_matrix(matrix)
            self._b = (eye - half).tocsr()
            try:
                self._lu = scipy.sparse.linalg.splu((eye + half).tocsc())
            except RuntimeError as exc:
                raise NumericalError(f"Cayley factorization failed: {exc}") from exc
            self._u = None

    def apply(self, vec: np.ndarray) -> np.ndarray:
        if self._u is not None:
            return self._u @ vec
        out = self._lu.solve(self._b @ vec)
        if not np.all(np.isfinite(out)):
            raise NumericalError("Cayley solve produced non-finite amplitudes")
        return out


def _check_steps(dt: float, t_from: float, t_to: float) -> int:
    span = t_to - t_from
    if span < -_TIME_ATOL:
        raise ParameterError("t_to must be >= t_from")
    n = int(round(span / dt))
    if abs(n * dt - span) > _TIME_ATOL * max(1.0, abs(span)):
        raise ParameterError(f"dt = {dt} does not divide the interval {span}")
    return n


def evolve(
    state: QuantumState, prop: Propagator, t_from: float, t_to: float
) -> QuantumState:
    """Propagate `state` from t_from to t_to in steps of prop.dt.

    The Hamiltonian is frozen at each step midpoint; steps sharing a
    constant regime reuse one assembled stepper.
    """
    if tuple(state.space) != prop.hamiltonian.space:
        raise StructureError("state and propagator live on different spaces")
    n = _check_steps(prop.dt, t_from, t_to)
    vec = state.amplitudes.copy()
    cache: dict = {}
    for j in range(n):
        t_mid = t_from + (j + 0.5) * prop.dt
        key = prop.hamiltonian.regime_key(t_mid)
        stepper = cache.get(key)
        if stepper is None:
            stepper = _Stepper(prop.method, prop.hamiltonian.matrix_at(t_mid), prop.dt)
            if key[2] is None:  # only cache time-independent regimes
                cache[key] = stepper
        vec = stepper.apply(vec)
    return QuantumState(state.space, vec, t_to)


def evolve_free(
    state: QuantumState, prop: Propagator, t_from: float, t_to: float
) -> QuantumState:
    """Propagate under the isolated-system Hamiltonian (couplings removed)."""
    return evolve(state, prop.free(), t_from, t_to)


def propagate_matrix(prop: Propagator, t_from: float, t_to: float) -> np.ndarray:
    """Dense evolution matrix U(t_to, t_from) of the propagator's stepping."""
    n = _check_steps(prop.dt, t_from, t_to)
    dim = prop.hamiltonian.dimension
    u = np.eye(dim, dtype=complex)
    cache: dict = {}
    for j in range(n):
        t_mid = t_from + (j + 0.5) * prop.dt
        key = prop.hamiltonian.regime_key(t_mid)
        step = cache.get(key)
        if step is None:
            mat = prop.hamiltonian.matrix_at(t_mid)
            if prop.method == "dense_exponential":
                step = scipy.linalg.expm(-1j * prop.dt / HBAR * mat)
            else:
                dim = mat.shape[0]
                half = 0.5j * prop.dt / HBAR * mat
                step = np.linalg.solve(np.eye(dim) + half, np.eye(dim) - half)
            if key[2] is None:
                cache[key] = step
        u = step @ u
    return u


def heisenberg_conjugate(
    op: OperatorMatrix, free_prop: Propagator, t_final: float, t: float
) -> OperatorMatrix:
    """U0(t_final, t) op U0(t_final, t)^dag  (Heisenberg picture at t_final)."""
    if not free_prop.hamiltonian.is_hermitian():
        raise ParameterError("heisenberg_conjugate requires hermitian free evolution")
    u = propagate_matrix(free_prop.free(), t, t_final)
    mat = u @ op.matrix @ u.conj().T
    if op.hermitian:
        mat = 0.5 * (mat + mat.conj().T)
    return OperatorMatrix(op.space, mat, hermitian=op.hermitian)
