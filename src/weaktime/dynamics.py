"""Hamiltonians and time evolution.

A Hamiltonian is hermitian and stored in its structure: the kinetic
stencil plus a diagonal real potential on a position grid, its real
tridiagonal form (`tridiagonal`).  Static Hamiltonians evolve exactly in
their eigenbasis (`evolve_eigenbasis`).  A family H + s_j diag(a) of
Hamiltonians that differ by multiples of one real diagonal evolves one
start vector exactly as one block (`evolve_shifted`): a Chebyshev expansion
of exp(-iHt) over the family's common spectral interval, applied by the
three-term recurrence to all columns at once, with no eigensolve.  A term
costs one complex multiply by the family's diagonals and two real updates
for the shared off-diagonal; the terms are summed eight at a time by one
matrix product.  The meter's Chebyshev nodes in the coupling shift are
such a family with real s_j, the clocks' keys one with complex s_j: an
imaginary part is an absorber, the one form absorbers take in the
package, and the series cut widens for it.  These two are the only
propagators: neither has a time step.  Couplings to a spin or a pointer
are not represented here: the Larmor clock reduces to two position-only
runs, and the meter factorizes over pointer modes.

Boundary conditions are hard walls (Dirichlet): the kinetic matrix is the
standard tridiagonal -d^2/dx^2 stencil with implicit zeros outside the box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg.blas import daxpy

from .errors import NumericalError, ParameterError, StructureError
from .hilbert import HBAR, FactorSpace, Grid, QuantumState

# truncation of the Chebyshev series of exp(-i t H): the first Bessel
# coefficient past n = r t at or below this ends it
_CHEBYSHEV_TOL = 1e-15
# largest r t expanded, a bound on work: the series has about r t terms, each
# one sweep over the block, so a longer span should be split
_CHEBYSHEV_MAX_ARG = 1e5
# largest rho^K of one span with complex shifts, a bound on how far rounding
# in the recurrence can grow; a longer span is halved (see evolve_shifted)
_CHEBYSHEV_MAX_GROWTH = 1e3
# Chebyshev terms kept before one matrix product adds them to the sums
_RING = 8


@dataclass(eq=False)
class Hamiltonian:
    """Hermitian generator on one factor space: on a position grid, the
    hard-wall kinetic stencil plus a diagonal real potential; on a spin,
    the zero matrix.

    Instances are shared, so the potential and the eigensystem cached on
    the instance are read-only.  `sojourn._filter_blocks` keeps the window
    filters per (Hamiltonian, window length) in its own LRU cache.
    """

    space: FactorSpace
    potential_real: Optional[np.ndarray] = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not isinstance(self.space, FactorSpace):
            raise StructureError("a Hamiltonian acts on exactly one FactorSpace")
        if self.potential_real is not None:
            v = np.array(self.potential_real, dtype=float)
            grid = self.position_grid
            if grid is None or v.shape != (grid.n_points,):
                raise StructureError("potential_real does not match the position grid")
            v.flags.writeable = False
            self.potential_real = v

    @property
    def dimension(self) -> int:
        return self.space.dimension

    @property
    def position_grid(self) -> Grid | None:
        return self.space.grid

    def tridiagonal(self):
        """Real (diag, off): the kinetic stencil plus the real potential on
        the diagonal, zeros when there is neither."""
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

    def eigensystem(self):
        """Real eigenvalues and float64 orthonormal eigenvectors, from one
        tridiagonal solve (see `tridiagonal`); cached."""
        cached = self._cache.get("eig")
        if cached is None:
            cached = scipy.linalg.eigh_tridiagonal(*self.tridiagonal())
            for arr in cached:
                arr.flags.writeable = False
            self._cache["eig"] = cached
        return cached


def evolve_eigenbasis(
    state: QuantumState, hamiltonian: Hamiltonian, t_to: float
) -> QuantumState:
    """Exact evolution of `state` from its representation time to t_to under
    the static Hamiltonian, as phases in its eigenbasis; a state on another
    space than the Hamiltonian's raises StructureError."""
    if state.space != hamiltonian.space:
        raise StructureError("state and Hamiltonian live on different spaces")
    vals, vecs = hamiltonian.eigensystem()
    span = t_to - state.representation_time
    phases = np.exp(-1j * vals * span / HBAR)
    amp = apply_real(vecs, phases * apply_real(vecs.T, state.amplitudes))
    return QuantumState(state.space, amp, t_to)


def apply_real(matrix: np.ndarray, z: np.ndarray) -> np.ndarray:
    """matrix @ z for a real matrix and a vector or block z, as one real
    product with the interleaved real and imaginary parts of z (its float
    view, (N, 2) or (N, 2s)), so that the matrix is read once and never
    upcast to complex.  A z that is not contiguous complex is copied."""
    z = np.ascontiguousarray(z, dtype=complex)
    out = (matrix @ (z.reshape(-1, 1) if z.ndim == 1 else z).view(float)).view(complex)
    return out[:, 0] if z.ndim == 1 else out


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

    H is the Hamiltonian's real tridiagonal form, a a real diagonal.  All
    columns run through one Chebyshev expansion (Tal-Ezer and Kosloff):
    exp(-i t H_j) = exp(-i t c) sum_n (2 - delta_n0) (-i)^n J_n(r t)
    T_n((H_j - c) / r).  T_n is applied by the three-term recurrence to
    the whole block: the diagonal of every 2 (H_j - c) / r, complex where
    an absorber makes it so, is one complex multiply, and the uniform
    off-diagonal two real updates of the row-shifted block.  The last
    _RING terms are kept in a ring and summed into the even and odd parts
    of the series by one matrix product per _RING terms.

    Real s_j: [c - r, c + r] is the Gershgorin interval of every H_j, and
    the series is cut at the first n >= r t with |J_n(r t)| <= 1e-15.

    Complex s_j whose absorber Im(s_j) a reaches some row: the numerical
    range of every H_j lies in [c - r0, c + r0] x i[-g, g], r0 the
    Gershgorin half-width of the real parts and g = max |Im(s_j) a|.
    Padding the half-width to r = sqrt(r0^2 / (1 + b^2) + (g / b)^2),
    b = min(3 g / r0, 1/4), puts that rectangle, scaled, inside the
    Bernstein ellipse E_rho, rho = b + sqrt(1 + b^2).  There |T_n| <=
    rho^n, so ||T_n(.)|| <= (1 + sqrt 2) rho^n (Crouzeix-Palencia), and a
    column's truncation error is at most

        2 (1 + sqrt 2) ||v|| sum_{n >= K} |J_n(r t)| rho^n;

    the series is cut at the first n >= r t with |J_n(r t)| rho^n <= 1e-15.
    Rounding grows by at most (1 + sqrt 2) rho^K: where rho^K would pass
    1e3 the span is halved until it does not, and the pieces are applied
    in turn.  With b = 3 g / r0, rho^K ~ exp(sqrt(10) g t), so only g t >
    ~2 splits (the clock ladders reach g t = 0.075).  Complex s_j whose
    absorbers reach no row give the block of their real parts, bit for
    bit.  NumericalError is raised where the split series would take more
    than 1e5 terms, and ParameterError for a negative duration, which has
    no forward series.
    """
    if not duration >= 0.0:
        raise ParameterError(f"evolve_shifted needs duration >= 0, got {duration!r}")
    diag, off = hamiltonian.tridiagonal()
    a = np.asarray(a, dtype=float)
    shifts = np.asarray(shifts)
    absorb = a[:, None] * shifts.imag
    shifts = np.asarray(shifts.real, dtype=float)
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
    extent = float(np.max(np.abs(absorb)))
    if extent > 0.0:
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
    terms = bessel.size
    # (2 - delta_n0) (-1)^floor(n/2) J_n: the even terms are real, the odd
    # ones carry the factor -i, so each sum accumulates with real weights,
    # term n's in row n % 2
    signs = np.array([1.0, 1.0, -1.0, -1.0])[np.arange(terms) % 4]
    weights = np.zeros((2, terms))
    weights[np.arange(terms) % 2, np.arange(terms)] = 2.0 * signs * bessel
    weights[0, 0] = bessel[0]

    # T_{k+1} = 2 Hs T_k - T_{k-1} with Hs = (H_j - c) / r, T_k in ring
    # slot k % _RING: a flat real row holding an (n, s) complex block, kept
    # with its complex view and its views without the first (tail) and the
    # last (head) block row, on which the real off-diagonal acts
    scale = 2.0 / radius if radius > 0.0 else 0.0
    twice = scale * (cols - center) + 1j * scale * absorb
    oh = scale * float(off[0])
    width = 2 * s
    ring = np.empty((_RING, n * width))
    slots = [(row.reshape(n, width).view(complex), row, row[width:], row[:-width])
             for row in ring]

    def step(k):
        """T_k from T_{k-1} and T_{k-2} (zero for k = 1) into its slot
        (daxpy updates its contiguous float64 y argument in place)."""
        cur, _, cur_tail, cur_head = slots[(k - 1) % _RING]
        nxt, nxt_flat, nxt_tail, nxt_head = slots[k % _RING]
        np.multiply(twice, cur, out=nxt)
        if k > 1:
            daxpy(slots[(k - 2) % _RING][1], nxt_flat, a=-1.0)
        daxpy(cur_tail, nxt_head, a=oh)
        daxpy(cur_head, nxt_tail, a=oh)
        if k == 1:
            nxt_flat *= 0.5  # T_1 = Hs T_0

    out = np.empty((n, s), dtype=complex)
    out[:] = np.asarray(v)[:, None]
    sums = np.empty((2, n * width))
    for _ in range(spans):
        slots[0][0][:] = out
        sums[:] = 0.0
        for k in range(1, terms):
            step(k)
            if k % _RING == _RING - 1:
                sums += weights[:, k + 1 - _RING : k + 1] @ ring
        done = terms - terms % _RING
        sums += weights[:, done:terms] @ ring[: terms - done]
        even, odd = (row.reshape(n, width).view(complex) for row in sums)
        out = np.exp(-1j * center * t) * (even - 1j * odd)
    return out, spans * terms
