"""Hamiltonians and time evolution.

A Hamiltonian is stored in its structure: the kinetic stencil plus diagonal
real and imaginary (absorbing) potentials on a position grid.  Static
hermitian Hamiltonians evolve exactly in their eigenbasis
(`evolve_eigenbasis`).  A family H + s_j diag(a) of Hamiltonians that
differ by multiples of one real diagonal evolves one start vector exactly
as one block (`evolve_shifted`): a Chebyshev expansion of exp(-iHt) over
the family's common spectral interval, applied by the three-term
recurrence to all columns at once, with no eigensolve.  The meter's
pointer modes are such a family with real s_j, the clocks' keys one with
complex s_j (an imaginary part is an absorber, and the series cut widens
for it).  No production path steps with Cayley/Crank-Nicolson (`evolve`).
Couplings to a spin or a pointer are not represented here: the Larmor
clock reduces to two position-only runs, and the meter factorizes over
pointer modes.

Boundary conditions are hard walls (Dirichlet): the kinetic matrix is the
standard tridiagonal -d^2/dx^2 stencil with implicit zeros outside the box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg.blas import daxpy

from .errors import NumericalError, ParameterError, StructureError
from .hilbert import HBAR, FactorSpace, Grid, QuantumState

_TIME_ATOL = 1e-9
# truncation of the Chebyshev series of exp(-i t H): the first Bessel
# coefficient past n = r t at or below this ends it
_CHEBYSHEV_TOL = 1e-15
# largest r t expanded, a bound on work: the series has about r t terms, each
# one sweep over the block, so a longer span should be split
_CHEBYSHEV_MAX_ARG = 1e5
# largest rho^K of one span with complex shifts, a bound on how far rounding
# in the recurrence can grow; a longer span is halved (see evolve_shifted)
_CHEBYSHEV_MAX_GROWTH = 1e3


@dataclass(eq=False)
class Hamiltonian:
    """Structured generator on one factor space: on a position grid, the
    hard-wall kinetic stencil plus diagonal real and imaginary potentials;
    on a spin, the zero matrix.

    Treat instances as immutable after construction.
    """

    space: FactorSpace
    potential_real: Optional[np.ndarray] = None
    potential_imag: Optional[np.ndarray] = None  # -Gamma/2 convention, enters as +i*diag
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not isinstance(self.space, FactorSpace):
            raise StructureError("a Hamiltonian acts on exactly one FactorSpace")
        grid = self.position_grid
        for name in ("potential_real", "potential_imag"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=float)
                if grid is None or v.shape != (grid.n_points,):
                    raise StructureError(f"{name} does not match the position grid")
                setattr(self, name, v)

    @property
    def dimension(self) -> int:
        return self.space.dimension

    @property
    def position_grid(self) -> Grid | None:
        return self.space.grid

    def _stencil(self):
        """Real (diag, off) of the kinetic stencil plus the real potential,
        zeros when there is neither."""
        n = self.dimension
        diag = np.zeros(n)
        off = np.zeros(n - 1)
        grid = self.position_grid
        if grid is not None:
            inv2 = 1.0 / grid.dx**2
            diag += 2.0 * inv2
            off -= inv2
        if self.potential_real is not None:
            diag += self.potential_real
        return diag, off

    def _diagonal(self) -> np.ndarray:
        """Main diagonal: the stencil's, plus i times an imaginary potential."""
        diag, _ = self._stencil()
        if self.potential_imag is None:
            return diag
        return diag + 1j * self.potential_imag

    def dense_matrix(self) -> np.ndarray:
        """Dense matrix (complex with an absorbing potential), meant as input
        to brute-force cross-checks on small grids."""
        _, off = self._stencil()
        return np.diag(self._diagonal()) + np.diag(off, 1) + np.diag(off, -1)

    def is_hermitian(self) -> bool:
        return self.potential_imag is None or not np.any(self.potential_imag)

    def tridiagonal(self):
        """Real (diag, off) of a hermitian Hamiltonian: the kinetic stencil
        plus the real potential on the diagonal, zeros when there is
        neither."""
        if not self.is_hermitian():
            raise StructureError("tridiagonal form needs a hermitian Hamiltonian")
        return self._stencil()

    def eigensystem(self):
        """Real eigenvalues and float64 orthonormal eigenvectors of a hermitian
        Hamiltonian, from one tridiagonal solve (see `tridiagonal`); cached."""
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
    phases = np.exp(-1j * vals * span / HBAR)
    amp = apply_real(vecs, phases * apply_real(vecs.T, state.amplitudes))
    return QuantumState(state.space, amp, t_to)


def apply_real(matrix: np.ndarray, z: np.ndarray) -> np.ndarray:
    """matrix @ z for a real matrix and complex z, applied to the real and
    imaginary parts separately so that the matrix is never upcast to
    complex."""
    return matrix @ z.real + 1j * (matrix @ z.imag)


def _bessel_coefficients(x: float, growth: float = 1.0) -> np.ndarray:
    """J_n(x) for n = 0 .. K-1, K the first n >= x with
    |J_n(x)| growth^n <= 1e-15.

    Miller's backward recurrence J_{n-1} = (2n/x) J_n - J_{n+1} from (1, 0)
    at n = x + 20 x^(1/3) + 60, far past the cut, where J is the growing
    solution; rescaled before overflow, normalized by J_0 + 2 sum J_2k = 1.
    Beyond n = x, J_n(x) is positive and falls faster than geometrically,
    so the first small term there bounds the whole tail (for a growth
    factor up to the one `evolve_shifted` admits); before it a small
    |J_n(x)| can be a zero of an oscillation and is no cut.  Below
    x = 2e-15, J_1(x) ~ x/2 is already under the cut.
    """
    if not 0.0 <= x <= _CHEBYSHEV_MAX_ARG:
        raise NumericalError(
            f"Chebyshev argument r t = {x:.3e} outside [0, {_CHEBYSHEV_MAX_ARG:g}]; "
            "split a long evolution into shorter spans"
        )
    if x <= 2.0 * _CHEBYSHEV_TOL:
        return np.ones(1)
    top = int(x + 20.0 * x ** (1.0 / 3.0) + 60.0)
    j = [0.0] * top + [1.0, 0.0]
    for n in range(top, 0, -1):
        j[n - 1] = (2.0 * n / x) * j[n] - j[n + 1]
        if abs(j[n - 1]) > 1e250:
            j[n - 1 :] = [v * 1e-250 for v in j[n - 1 :]]
    j = np.array(j[: top + 1])
    j /= j[0] + 2.0 * np.sum(j[2::2])
    start = int(np.ceil(x))
    # growth^-n underflows to 0 harmlessly where growth^n would overflow
    small = np.nonzero(
        np.abs(j[start:]) <= _CHEBYSHEV_TOL * growth ** -np.arange(start, top + 1.0)
    )[0]
    if small.size == 0:
        raise NumericalError(f"no Bessel cut at x = {x:.3e} below n = {top}")
    return j[: start + small[0]]


def _span_coefficients(x: float, growth: float):
    """`_bessel_coefficients(x, growth)`, or None where growth^K would pass
    _CHEBYSHEV_MAX_GROWTH; since K >= x, a long span is refused before its
    coefficients are computed."""
    limit = np.log(_CHEBYSHEV_MAX_GROWTH)
    if x * np.log(growth) > limit:
        return None
    bessel = _bessel_coefficients(x, growth)
    return bessel if bessel.size * np.log(growth) <= limit else None


def evolve_shifted(
    hamiltonian: Hamiltonian,
    a: np.ndarray,
    shifts: np.ndarray,
    v: np.ndarray,
    duration: float,
) -> tuple[np.ndarray, int]:
    """exp(-i duration (H + s_j diag(a)) / hbar) v for every shift s_j, as
    the columns of one (dimension, len(shifts)) block, and the number of
    Chebyshev terms used.

    H is hermitian (its real tridiagonal form), a a real diagonal.  All
    columns run through one Chebyshev expansion (Tal-Ezer and Kosloff):
    exp(-i t H_j) = exp(-i t c) sum_n (2 - delta_n0) (-i)^n J_n(r t)
    T_n((H_j - c) / r), T_n applied by the three-term recurrence in real
    arithmetic on the interleaved real and imaginary parts.

    Real s_j: [c - r, c + r] is the Gershgorin interval of every H_j, and
    the series is cut at the first n >= r t with |J_n(r t)| <= 1e-15.

    Complex s_j: the imaginary diagonal enters the recurrence as a second
    real term.  The numerical range of every H_j lies in [c - r0, c + r0] x
    i[-g, g], r0 the Gershgorin half-width of the real parts and g = max
    |Im(s_j) a|.  Padding the half-width to r = sqrt(r0^2 / (1 + b^2) +
    (g / b)^2), b = min(3 g / r0, 1/4), puts that rectangle, scaled, inside
    the Bernstein ellipse E_rho, rho = b + sqrt(1 + b^2).  There |T_n| <=
    rho^n, so ||T_n(.)|| <= (1 + sqrt 2) rho^n (Crouzeix-Palencia), and a
    column's truncation error is at most

        2 (1 + sqrt 2) ||v|| sum_{n >= K} |J_n(r t)| rho^n;

    the series is cut at the first n >= r t with |J_n(r t)| rho^n <= 1e-15.
    Rounding grows by at most (1 + sqrt 2) rho^K: where rho^K would pass
    1e3 the span is halved until it does not, and the pieces are applied
    in turn.  With b = 3 g / r0, rho^K ~ exp(sqrt(10) g t), so only g t >
    ~2 splits (the clock ladders reach g t = 0.075).  NumericalError is
    raised where the split series would take more than 1e5 terms.
    """
    diag, off = hamiltonian.tridiagonal()
    a = np.asarray(a, dtype=float)
    shifts = np.asarray(shifts)
    absorb = None
    if np.iscomplexobj(shifts):
        if np.any(shifts.imag):
            absorb = a[:, None] * shifts.imag
        shifts = shifts.real
    shifts = np.asarray(shifts, dtype=float)
    n, s = diag.size, shifts.size
    if s == 0:
        return np.empty((n, 0), dtype=complex), 0
    # the stencil's off-diagonal is uniform, so every Gershgorin radius is
    # at most 2 |hop|
    hop = abs(float(off[0]))
    cols = diag[:, None] + a[:, None] * shifts
    lo, hi = float(np.min(cols)) - 2.0 * hop, float(np.max(cols)) + 2.0 * hop
    center, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
    t = duration / HBAR
    growth = 1.0
    if absorb is not None:
        extent = float(np.max(np.abs(absorb)))
        minor = 0.25 if 12.0 * extent >= radius else 3.0 * extent / radius
        radius = float(np.sqrt(radius**2 / (1.0 + minor**2) + (extent / minor) ** 2))
        growth = minor + np.sqrt(1.0 + minor**2)
    spans, bessel = 1, _span_coefficients(radius * t, growth)
    while bessel is None and spans <= _CHEBYSHEV_MAX_ARG:
        spans *= 2
        bessel = _span_coefficients(radius * t / spans, growth)
    if bessel is None or (spans > 1 and spans * bessel.size > _CHEBYSHEV_MAX_ARG):
        raise NumericalError(
            f"imaginary extent {extent:.3e} over t = {t:.3e} needs more than "
            f"{_CHEBYSHEV_MAX_ARG:g} Chebyshev terms; weaken the absorber"
        )
    t /= spans
    # (2 - delta_n0) (-1)^floor(n/2) J_n: the even terms are real, the odd
    # ones carry the factor -i, so each sum accumulates with real weights
    signs = np.array([1.0, 1.0, -1.0, -1.0])[np.arange(bessel.size) % 4]
    weights = 2.0 * signs * bessel
    weights[0] = bessel[0]

    # T_{n+1} = 2 Hs T_n - T_{n-1} with Hs = (H_j - c) / r, on (n, 2s) real
    # views: a real operator acts on real and imaginary parts alike, and
    # i e (x + i y) = -e y + i e x swaps them
    scale = 2.0 / radius if radius > 0.0 else 0.0
    dh = np.repeat(scale * (cols - center), 2, axis=1)
    oh = scale * float(off[0])
    tmp = np.empty((n, 2 * s))
    if absorb is not None:
        # only the rows and columns that some absorber reaches
        rows = np.nonzero(np.any(absorb, axis=1))[0]
        lossy = np.nonzero(np.any(absorb, axis=0))[0]
        box = (slice(rows[0], rows[-1] + 1), slice(lossy[0], lossy[-1] + 1))
        swap = scale * absorb[box][:, :, None] * np.array([-1.0, 1.0])
        swapped = np.empty(swap.shape)
        tmp_box = tmp.reshape(n, s, 2)[box]

    def step(cur, prev):
        """prev <- 2 Hs cur - prev, in place (daxpy updates its
        contiguous float64 y argument in place)."""
        np.multiply(dh, cur, out=tmp)
        if absorb is not None:
            np.multiply(swap, cur.reshape(n, s, 2)[box][:, :, ::-1], out=swapped)
            np.add(tmp_box, swapped, out=tmp_box)
        np.subtract(tmp, prev, out=prev)
        daxpy(cur[1:].reshape(-1), prev[:-1].reshape(-1), a=oh)
        daxpy(cur[:-1].reshape(-1), prev[1:].reshape(-1), a=oh)

    out = np.empty((n, s), dtype=complex)
    out[:] = np.asarray(v)[:, None]
    for _ in range(spans):
        cur = out.view(float)
        even = weights[0] * cur
        odd = np.zeros_like(even)
        prev = np.zeros_like(even)
        step(cur, prev)
        prev *= 0.5  # T_1 = Hs T_0
        prev, cur = cur, prev
        for k in range(1, bessel.size):
            daxpy(cur.reshape(-1), (odd if k % 2 else even).reshape(-1), a=weights[k])
            if k + 1 < bessel.size:
                step(cur, prev)
                prev, cur = cur, prev
        out = np.exp(-1j * center * t) * (even.view(complex) - 1j * odd.view(complex))
    return out, spans * bessel.size


@dataclass(eq=False)
class Propagator:
    """Crank-Nicolson stepping bound to a Hamiltonian and a fixed time step.

    No production path steps: `evolve` stays for criterion 9's convergence
    checks and for the benchmark's trace hook on `clocks.evolve`."""

    dt: float
    hamiltonian: Hamiltonian

    def __post_init__(self):
        if self.dt <= 0:
            raise ParameterError("dt must be positive")


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

    Each step applies the Cayley form (1 + i H dt/2)^-1 (1 - i H dt/2) of the
    tridiagonal Hamiltonian: unitary for a hermitian H, norm-decreasing with
    an absorbing potential, second order in dt.  One sparse LU factorization
    serves every step.
    """
    ham = prop.hamiltonian
    if state.space != ham.space:
        raise StructureError("state and propagator live on different spaces")
    n = _check_steps(prop.dt, t_from, t_to)
    _, off = ham._stencil()
    half = (0.5j * prop.dt / HBAR) * scipy.sparse.diags(
        [off, ham._diagonal(), off], [-1, 0, 1], format="csc", dtype=complex
    )
    eye = scipy.sparse.identity(ham.dimension, format="csc", dtype=complex)
    rhs = (eye - half).tocsr()
    try:
        lu = scipy.sparse.linalg.splu((eye + half).tocsc())
    except RuntimeError as exc:
        raise NumericalError(f"Cayley factorization failed: {exc}") from exc
    vec = state.amplitudes.copy()
    for _ in range(n):
        vec = lu.solve(rhs @ vec)
    if not np.all(np.isfinite(vec)):
        raise NumericalError("Cayley solve produced non-finite amplitudes")
    return QuantumState(state.space, vec, t_to)
