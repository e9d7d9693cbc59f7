"""Hamiltonians and time evolution.

A Hamiltonian is hermitian and stored in its structure: the kinetic
stencil plus a diagonal real potential on a position grid, its real
tridiagonal form (`tridiagonal`).  Static Hamiltonians evolve exactly in
their eigenbasis (`evolve_eigenbasis`).  A family H + s_j diag(a) of
Hamiltonians that differ by real multiples of one real diagonal evolves one
start vector exactly as one block (`evolve_shifted`): a Chebyshev expansion
of exp(-iHt) over the family's common spectral interval, applied by the
three-term recurrence to all columns at once, with no eigensolve.  The
series is centred on the stencil's own diagonal, so the family's diagonal
is left only on the rows the potential or the observable reaches, and each
term is built in place over the one two before it: two real updates of the
block for the shared off-diagonal, one small multiply-add on those rows,
and one real update of the even or odd sum.

The coupled family psi(s) = exp(-iT(H + s diag(a)))psi0 is entire in the
shift s, so a `CoupledSystem` evolves it once, at Chebyshev nodes in s as
one such block, and reads every other shift off their interpolant: the
meter's pointer modes at real s, the clocks' keys also at complex s, whose
imaginary part is an absorber, the one form absorbers take in the package.
What the block serves is fixed when it is fitted, a Bernstein ellipse about
the node interval, so a read inside it only interpolates, and every reader
takes the same `read`: (K + 1)-sized forms off the fit's fixed basis.
Neither propagator has a time step.  The Larmor clock reduces to two
position-only runs, and the meter factorizes over pointer modes.

Boundary conditions are hard walls (Dirichlet): the kinetic matrix is the
standard tridiagonal -d^2/dx^2 stencil with implicit zeros outside the box.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg
from scipy.linalg.blas import daxpy

from .errors import NumericalError, ParameterError, StructureError
from .hilbert import HBAR, FactorSpace, Grid, QuantumState, check_time

# truncation of the Chebyshev series of exp(-i t H): the first Bessel
# coefficient past n = r t at or below this ends it
_CHEBYSHEV_TOL = 1e-15
# largest r t expanded, a bound on work: the series has about r t terms, each
# one sweep over the block, so a longer span should be split
_CHEBYSHEV_MAX_ARG = 1e5
# CoupledSystem's Chebyshev interpolant in the coupling shift: the bound on
# the series terms it drops, relative to ||psi0||; the largest degree n it
# may take; the largest |Im s| / S it continues to, S the half-width of its
# node interval; the largest rho0^n, about the factor by which continuing to
# a shift of Bernstein parameter rho0 amplifies the nodes' rounding; and the
# ratios rho / rho0 over which the bound is minimized
_NODE_TAIL = 1e-13
_MAX_DEGREE = 1024
_OFF_AXIS = 0.125
_MAX_GAIN = 1e3
_RHO_RATIOS = np.geomspace(1.0 + 1e-6, 1e4, 2048)


@dataclass(eq=False)
class Hamiltonian:
    """Hermitian generator on one factor space: on a position grid, the
    hard-wall kinetic stencil plus a diagonal real potential; on a spin,
    the zero matrix.

    Instances are shared, so the potential and the eigensystem cached on
    the instance are read-only.  `sojourn._filter_blocks` keeps the window
    filter's sinc per (Hamiltonian, window length) in its own LRU cache.
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
    coeffs = _eigen_coefficients(state, hamiltonian, t_to)
    return QuantumState(state.space, apply_real(hamiltonian.eigensystem()[1], coeffs), t_to)


def _eigen_coefficients(state: QuantumState, hamiltonian: Hamiltonian,
                        t_to: float) -> np.ndarray:
    """V^T psi(t_to): `state` evolved to t_to, in the real eigenbasis V of
    the static Hamiltonian, which `evolve_eigenbasis` transforms back."""
    if state.space != hamiltonian.space:
        raise StructureError("state and Hamiltonian live on different spaces")
    vals, vecs = hamiltonian.eigensystem()
    span = t_to - state.representation_time
    return np.exp(-1j * vals * span / HBAR) * apply_real(vecs.T, state.amplitudes)


def apply_real(matrix: np.ndarray, z: np.ndarray) -> np.ndarray:
    """matrix @ z for a real matrix and a vector or block z, as one real
    product with the interleaved real and imaginary parts of z (its float
    view, (N, 2) or (N, 2s)), so that the matrix is read once and never
    upcast to complex.  A z that is not contiguous complex is copied."""
    z = np.ascontiguousarray(z, dtype=complex)
    out = (matrix @ (z.reshape(-1, 1) if z.ndim == 1 else z).view(float)).view(complex)
    return out[:, 0] if z.ndim == 1 else out


@functools.lru_cache(maxsize=64)
def _bessel_coefficients(x: float) -> np.ndarray:
    """J_n(x) for n = 0 .. K-1, K the first n >= x with |J_n(x)| <= 1e-15,
    read-only and cached, since every pass of a scenario asks for the same x.

    Miller's backward recurrence J_{n-1} = (2n/x) J_n - J_{n+1} from (1, 0)
    at n = x + 20 x^(1/3) + 60, far past the cut, where J is the growing
    solution; rescaled before overflow, normalized by J_0 + 2 sum J_2k = 1.
    Beyond n = x, J_n(x) is positive and falls faster than geometrically,
    so the first small term there bounds the whole tail; before it a small
    |J_n(x)| can be a zero of an oscillation and is no cut.  Below
    x = 2e-15, J_1(x) ~ x/2 is already under the cut.
    """
    if not 0.0 <= x <= _CHEBYSHEV_MAX_ARG:
        raise NumericalError(
            f"Chebyshev argument r t = {x:.3e} outside [0, {_CHEBYSHEV_MAX_ARG:g}]; "
            "split a long evolution into shorter spans"
        )
    if x <= 2.0 * _CHEBYSHEV_TOL:
        j = np.ones(1)
    else:
        top = int(x + 20.0 * x ** (1.0 / 3.0) + 60.0)
        j = [0.0] * top + [1.0, 0.0]
        for n in range(top, 0, -1):
            j[n - 1] = (2.0 * n / x) * j[n] - j[n + 1]
            if abs(j[n - 1]) > 1e250:
                j[n - 1 :] = [v * 1e-250 for v in j[n - 1 :]]
        j = np.array(j[: top + 1])
        j /= j[0] + 2.0 * np.sum(j[2::2])
        start = int(np.ceil(x))
        small = np.nonzero(np.abs(j[start:]) <= _CHEBYSHEV_TOL)[0]
        if small.size == 0:
            raise NumericalError(f"no Bessel cut at x = {x:.3e} below n = {top}")
        j = j[: start + small[0]]
    j.flags.writeable = False
    return j


def evolve_shifted(
    hamiltonian: Hamiltonian,
    a: np.ndarray,
    shifts: np.ndarray,
    v: np.ndarray,
    duration: float,
) -> tuple[np.ndarray, int]:
    """exp(-i duration (H + s_j diag(a)) / hbar) v for every real shift s_j,
    as the columns of one (dimension, len(shifts)) block, and the number of
    Chebyshev terms used.

    H is the Hamiltonian's real tridiagonal form, a a real diagonal.  All
    columns run through one Chebyshev expansion (Tal-Ezer and Kosloff):
    exp(-i t H_j) = exp(-i t c) sum_n (2 - delta_n0) (-i)^n J_n(r t)
    T_n((H_j - c) / r), cut at the first n >= r t with |J_n(r t)| <= 1e-15.
    The interval [c - r, c + r] is centred on the stencil's diagonal, c =
    2 |hop| for the uniform off-diagonal hop, and r is a Gershgorin bound:
    2 |hop| plus the largest |diag - c + s_j a| over rows and shifts.  So
    (H_j - c) / r has a diagonal only on the rows [lo, hi) between the first
    and the last one the potential or the observable reaches (none on a free
    Hamiltonian with a zero observable).  The terms are taken with the
    Bessel signs folded in, S_n = (-1)^floor(n/2) T_n, which obey S_1 = Hs
    S_0 and S_{n+1} = +-2 Hs S_n + S_{n-1}, + for even n, Hs = (H_j - c) /
    r.  Each term is added in place onto the one two before it, in two
    (dimension, 2 len(shifts)) buffers of the interleaved real and imaginary
    parts: two real updates for the off-diagonal, one multiply-add of the
    per-column diagonal on [lo, hi), then one update of the even or the odd
    sum with weight (2 - delta_n0) J_n.  The block is exp(-i t c) (even - i
    odd).

    ParameterError is raised for a shift with a nonzero imaginary part (a
    `CoupledSystem` continues its real node block to complex shifts) and
    for a negative duration, which has no forward series; NumericalError
    where the series would take more than 1e5 terms.
    """
    if not duration >= 0.0:
        raise ParameterError(f"evolve_shifted needs duration >= 0, got {duration!r}")
    shifts = np.asarray(shifts)
    if np.any(shifts.imag):
        raise ParameterError(
            "evolve_shifted takes real shifts only; read complex ones off a CoupledSystem")
    shifts = np.asarray(shifts.real, dtype=float)
    diag, off = hamiltonian.tridiagonal()
    a = np.asarray(a, dtype=float)
    n, s = diag.size, shifts.size
    if s == 0:
        return np.empty((n, 0), dtype=complex), 0
    hop = float(off[0])
    center = 2.0 * abs(hop)
    dev = diag[:, None] + a[:, None] * shifts - center
    radius = 2.0 * abs(hop) + float(np.max(np.abs(dev)))
    rows = np.flatnonzero(np.any(dev, axis=1))
    lo, hi = (rows[0], rows[-1] + 1) if rows.size else (0, 0)
    t = duration / HBAR
    bessel = _bessel_coefficients(radius * t)
    terms = bessel.size

    # S_{k+1} = +-2 Hs S_k + S_{k-1} into S_{k-1}'s buffer, by parity of k:
    # the signed, scaled off-diagonal and rows' diagonal (repeated for both
    # parts), S_k's flat views without the first (tail) and the last (head)
    # block row, on which the off-diagonal acts, its rows [lo, hi), the same
    # views of the buffer updated, and the sum the new term joins.  daxpy
    # updates its contiguous float64 y argument in place.  S_1 = Hs S_0 is
    # the k = 0 update of a zero buffer, halved
    scale = 1.0 / radius if radius > 0.0 else 0.0
    width = 2 * s
    rows_diag = np.repeat((2.0 * scale) * dev[lo:hi], 2, axis=1)
    bufs = np.zeros((2, n, width))
    bufs[0].view(complex)[:] = np.asarray(v)[:, None]
    sums = np.zeros((2, n * width))
    np.multiply(bufs[0].reshape(-1), bessel[0], out=sums[0])
    flat = [buf.reshape(-1) for buf in bufs]
    views = [(sign * 2.0 * scale * hop, sign * rows_diag, flat[k][width:], flat[k][:-width],
              bufs[k][lo:hi], flat[1 - k], flat[1 - k][width:], flat[1 - k][:-width],
              bufs[1 - k][lo:hi], sums[1 - k])
             for k, sign in ((0, 1.0), (1, -1.0))]
    product = np.empty_like(rows_diag)
    weights = (2.0 * bessel[1:]).tolist()
    for k in range(terms - 1):
        (off_k, diag_k, cur_tail, cur_head, cur_rows,
         nxt, nxt_tail, nxt_head, nxt_rows, total) = views[k % 2]
        daxpy(cur_head, nxt_tail, a=off_k)
        daxpy(cur_tail, nxt_head, a=off_k)
        np.multiply(diag_k, cur_rows, out=product)
        nxt_rows += product
        if k == 0:
            nxt *= 0.5
        daxpy(nxt, total, a=weights[k])
    even, odd = (row.reshape(n, width).view(complex) for row in sums)
    return np.exp(-1j * center * t) * (even - 1j * odd), terms


def _lobatto_fit(n: int) -> np.ndarray:
    """DCT-I: the (n + 1, n + 1) real matrix taking values at the Lobatto
    nodes x_j = cos(j pi / n) to the coefficients c_k of their interpolant
    sum_k c_k T_k(x)."""
    jk = np.outer(np.arange(n + 1), np.arange(n + 1)) % (2 * n)
    fit = (2.0 / n) * np.cos(np.pi * jk / n)
    fit[:, [0, n]] *= 0.5
    fit[[0, n], :] *= 0.5
    return fit


def _bernstein(z: np.ndarray) -> float:
    """The largest rho of the Bernstein ellipses E_rho (foci -1 and 1, rho
    the sum of its semi-axes) through the points z; exactly 1 for real z in
    [-1, 1], where rounding would leave |w| a few ulps above 1, and with no
    complex arithmetic when every z is."""
    z = np.asarray(z)
    if not np.any(z.imag) and np.max(np.abs(z.real)) <= 1.0:
        return 1.0
    z = z.astype(complex)
    w = np.abs(z + np.sqrt(z - 1.0 + 0j) * np.sqrt(z + 1.0 + 0j))
    w = np.maximum(w, 1.0 / w)
    w[(z.imag == 0.0) & (np.abs(z.real) <= 1.0)] = 1.0
    return float(np.max(w))


@functools.lru_cache(maxsize=64)
def _node_tail(reach: float, rho0: float):
    """(n, bound): the least degree n with bound <= _NODE_TAIL of the
    Chebyshev interpolant of psi(S z) on [-1, 1], and the bound, relative
    to ||psi0||, on its series terms past n at any z of Bernstein parameter
    rho0: the minimum over rho = rho0 _RHO_RATIOS of

        2 exp(reach (rho - 1/rho) / 2) (rho0/rho)^(n+1) / (1 - rho0/rho),

    reach = T S max|a| / hbar.  On the ellipse E_rho, |Im z| <= (rho -
    1/rho) / 2 and ||exp(-iT(H + s diag(a)))|| <= exp(T |Im s| max|a| /
    hbar), which bounds the k-th coefficient by 2 exp(.) rho^-k; at z,
    |T_k(z)| <= rho0^k.  Cached, since every pass of a scenario asks for
    the same (reach, rho0).
    """
    q = _RHO_RATIOS
    rho = rho0 * q
    base = np.log(2.0) + 0.5 * reach * (rho - 1.0 / rho) - np.log1p(-1.0 / q)
    degree = int(np.min(np.ceil((base - np.log(_NODE_TAIL)) / np.log(q)))) - 1
    return degree, float(np.exp(np.min(base - (degree + 1) * np.log(q))))


class CoupledSystem:
    """psi0 coupled over the window (t_start, t_stop) of length T through
    the real diagonal observable a: psi(s) = exp(-iT(H + s diag(a)) / hbar)
    psi0 for any coupling shift s, complex ones (absorbers) included.

    psi(s) is entire in s, so its Chebyshev interpolant through the real
    Lobatto nodes S cos(j pi / n), j = 0..n, converges to it in the whole
    plane (Trefethen, Approximation Theory and Approximation Practice, ch.
    8).  A fit to a request takes S the largest |Re s|, widened to 8 |Im s|
    where that is larger, so that an absorber s / S lies within the
    Bernstein ellipse rho = 1.13 (real ones on [-1, 1], rho = 1); rho0 is
    the largest rho at the shifts asked for, and n the least degree whose
    a-priori bound on the dropped tail (`_node_tail`) is at most 1e-13
    ||psi0|| on E_rho0.  The n + 1 nodes are one `evolve_shifted` block.
    Both the bound and the rounding gain grow with rho, so the fit serves
    exactly the shifts s with s / S in E_rho0, and a later request with any
    shift outside it refits to that request (`serve`; every read serves
    its shifts first).  Off the real axis the interpolant amplifies the
    nodes' rounding by about rho0^n: a fit past 1e3 (an absorber with T
    |Im s| max|a| beyond about 2.5) raises ParameterError, one past n =
    1024 NumericalError.

    Every reader, the clocks and the meter alike, reads the family through
    one fixed basis, X = [psi_ref | c_0 .. c_{n-1}], N x (n + 1) for the
    interpolant psi(s) = sum_k T_k(s / S) c_k, so a set of K shifts enters
    only through the (n + 1) x (K + 1) Chebyshev matrix M with [psi_ref |
    psi(s_1) ..] = X M: a `read` of them is a `FixedRead`, whose Gram is
    M^H (X^H X) M and whose overlaps are chi^H X M, with X^H X and each
    postselector's chi^H X held once per fit and reference state, so that
    no read costs N.  The coupled system reports the one node block behind
    them: `nodes` columns evolved by a series of `chebyshev_terms` terms
    (nodes x terms is its work), and `node_tail`, the tail bound it was
    fitted to; all three are 0 until a nonzero shift is asked for.

    The constructor raises StructureError for an observable that is not a
    real array of shape (system.dimension,), and ParameterError unless
    t_start < t_stop and psi0 is referenced to t_start.
    """

    def __init__(self, system: Hamiltonian, psi0: QuantumState,
                 observable: np.ndarray, window: tuple[float, float]):
        a = np.asarray(observable)
        if a.shape != (system.dimension,) or np.iscomplexobj(a):
            raise StructureError(
                f"the meter needs a real diagonal of shape ({system.dimension},), "
                f"got a {a.dtype} array of shape {a.shape}"
            )
        t0, t1 = window
        if not t1 > t0:
            raise ParameterError("window needs t_start < t_stop")
        check_time(psi0, t0, "run start")
        if psi0.space != system.space:
            raise StructureError("state and Hamiltonian live on different spaces")
        self.system, self.psi0, self.observable = system, psi0, a
        self.window, self.duration = (t0, t1), t1 - t0
        self._interval = self._rho = 0.0
        self._coeffs = self._basis = None
        self.nodes = self.chebyshev_terms = 0
        self.node_tail = 0.0

    @functools.cached_property
    def reference_system_final(self) -> QuantumState:
        """psi0 evolved over the window with the coupling off, exactly."""
        return evolve_eigenbasis(self.psi0, self.system, self.window[1])

    def serve(self, shifts) -> None:
        """Make the interpolant serve every shift: refit it to them unless
        each lies in the Bernstein ellipse the one held was fitted on, or
        all are zero, which every read serves exactly."""
        shifts = np.asarray(shifts)
        if not np.any(shifts) or (self._coeffs is not None
                                  and _bernstein(shifts / self._interval) <= self._rho):
            return
        interval = max(float(np.max(np.abs(shifts.real))),
                       float(np.max(np.abs(shifts.imag))) / _OFF_AXIS)
        reach = self.duration * interval * float(np.max(np.abs(self.observable))) / HBAR
        rho0 = _bernstein(shifts / interval)
        degree, tail = _node_tail(reach, rho0)
        if rho0**degree > _MAX_GAIN:
            raise ParameterError(
                f"continuing {degree + 1} real nodes to |Im s| T = "
                f"{np.max(np.abs(shifts.imag)) * self.duration:.3e} amplifies their "
                f"rounding {rho0**degree:.1e}-fold (at most {_MAX_GAIN:g}); "
                "weaken the absorber")
        if degree > _MAX_DEGREE:
            raise NumericalError(
                f"coupling shifts up to {interval:.3e} need more than "
                f"{_MAX_DEGREE + 1} Chebyshev nodes ({degree + 1})"
            )
        nodes = interval * np.cos(np.arange(degree + 1) * np.pi / degree)
        block, terms = evolve_shifted(self.system, self.observable, nodes,
                                      self.psi0.amplitudes, self.duration)
        self._coeffs = apply_real(_lobatto_fit(degree), block.T)
        self._interval, self._rho = interval, rho0
        self.nodes, self.chebyshev_terms, self.node_tail = degree + 1, terms, tail

    def read(self, shifts) -> FixedRead:
        """B = [psi_ref | psi(s_1) .. psi(s_K)] as X M under the fit that
        serves the shifts (refitting first if the one held does not): M,
        (nodes + 1, K + 1), is e_0, then T_k(s / S) under a zero row for each
        shift, or e_0 again for all-zero shifts, which read the reference
        state with no fit.  X and X^H X are held once per fit and reference
        state."""
        shifts = np.asarray(shifts)
        self.serve(shifts)
        mix = np.zeros((self.nodes + 1, shifts.size + 1), np.result_type(shifts, float))
        mix[0, 0] = 1.0
        if np.any(shifts):
            mix[1:, 1:] = np.polynomial.chebyshev.chebvander(shifts / self._interval,
                                                             self.nodes - 1).T
        else:
            mix[0, 1:] = 1.0
        ref = self.reference_system_final.amplitudes
        if self._basis is None or self._basis[0] is not ref or self._basis[1] is not self._coeffs:
            x = ref[None] if self._coeffs is None else np.vstack([ref, self._coeffs])
            self._basis = (ref, self._coeffs, x, x.conj() @ x.T, {})
        return FixedRead(*self._basis[2:], mix)


class FixedRead(NamedTuple):
    """B = [psi_ref | psi(s_1) .. psi(s_K)] = X M as one fit of a
    `CoupledSystem` served it (`CoupledSystem.read`): X = [psi_ref | c_0 ..
    c_{n-1}] as rows, X^H X, each postselector's projection X^H chi (16 at
    most, shared by the fit's reads) and M.  A later refit or reference
    state builds new ones, so a read keeps what it was served."""

    rows: np.ndarray
    rows_gram: np.ndarray
    projections: dict
    mix: np.ndarray

    def gram(self) -> np.ndarray:
        """B^H B, (K + 1, K + 1): M^H (X^H X) M."""
        return self.mix.conj().T @ self.rows_gram @ self.mix

    def overlaps(self, chi: QuantumState) -> np.ndarray:
        """chi^H B, (K + 1,), with no cell weight: X^H chi times M."""
        proj = self.projections.get(chi)
        if proj is None:
            if len(self.projections) >= 16:
                self.projections.clear()
            proj = self.projections[chi] = self.rows @ chi.amplitudes.conj()
        return proj @ self.mix
