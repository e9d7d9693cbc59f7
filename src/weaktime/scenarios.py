"""Scenario catalog, postselection, execution and result emission.

A Scenario bundles a grid, a potential, an initial packet, a time window
and a region of interest.  Running one executes the requested pipelines
(sojourn-operator weak values, physical clock sweeps, meter experiments),
collects every reported number with its method, tolerance and residual
into a ResultBundle, and emits CSV/JSON deterministically: identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Optional

import numpy as np

from .clocks import (
    absorption_survival_dwell,
    clock_imaginary_potential,
    clock_larmor,
    clock_real_potential,
    clock_shifts,
)
from .dynamics import CoupledSystem, Hamiltonian, _eigen_coefficients, apply_real
from .errors import ParameterError, ValidationError
from .hilbert import (
    Grid,
    QuantumState,
    Region,
    basis_cell_state,
    gaussian_packet,
    inner_product,
    position_space,
)
from .meter import (
    PointerSpec,
    coupling_shifts,
    meter_moment_readout,
    # not called here: perfbench/tracing.py wraps it under this module's name
    pointer_distribution,  # noqa: F401
    run_meter,
)
from .sojourn import (
    conditional_dwell_time,
    dwell_time,
    moment,
    moment_sum,
    second_moment_position_integral,
    sojourn_matrix,
)

VERSION = "0.1.0"

BARRIER_CLEARANCE_BUDGET = 1e-3
EDGE_BUDGET = 1e-6
# an unconditioned dwell time is flagged out_of_range only beyond this
# margin of [0, T]; inside it the excursion is rounding (dwell_time is
# unclipped, and a whole-box region gives T plus a few ulps)
RANGE_MARGIN = 1e-9

# dimensionless strength * duration products; divided by the window length
# so that the worst-case perturbation (a state dwelling the whole window)
# stays small, in particular below the absorption guard of the Gamma clock
CLOCK_LADDERS = {
    "real_potential": (0.6, 0.3, 0.15),
    "imaginary_potential": (0.15, 0.075, 0.0375),
    "larmor": (0.6, 0.3, 0.15),
}
METER_LADDER = (0.3, 0.2, 0.1)
METER_POINTER = PointerSpec.auto(width=1.0, max_shift=max(METER_LADDER))


@dataclass(frozen=True)
class PacketSpec:
    x0: float
    sigma: float
    k0: float


@dataclass(frozen=True)
class PotentialSpec:
    """Rectangular barrier(s) or free space."""

    kind: str = "free"  # "free" | "barrier" | "double_barrier"
    v0: float = 0.0
    x_lo: float = 0.0
    x_hi: float = 0.0
    x2_lo: float = 0.0
    x2_hi: float = 0.0

    def __post_init__(self):
        if self.kind not in ("free", "barrier", "double_barrier"):
            raise ParameterError(f"unknown potential kind {self.kind!r}")
        if self.kind != "free" and not self.x_hi > self.x_lo:
            raise ParameterError("barrier needs x_lo < x_hi")
        if self.kind == "double_barrier" and not self.x2_hi > self.x2_lo:
            raise ParameterError("second barrier needs x2_lo < x2_hi")
        if self.kind == "double_barrier" and self.x2_lo < self.x_hi:
            raise ParameterError("second barrier must start where the first ends "
                                 "or beyond it (x_hi <= x2_lo)")

    @property
    def barriers(self) -> list[tuple[float, float]]:
        """The (x_lo, x_hi) interval of each barrier; none in free space."""
        pairs = [(self.x_lo, self.x_hi), (self.x2_lo, self.x2_hi)]
        return {"free": [], "barrier": pairs[:1], "double_barrier": pairs}[self.kind]

    def array(self, grid: Grid) -> Optional[np.ndarray]:
        if self.kind == "free":
            return None
        return sum(self.v0 * Region(*b).indicator(grid) for b in self.barriers)

    @property
    def interval(self) -> tuple[float, float]:
        if self.kind == "free":
            raise ParameterError("free potential has no barrier interval")
        return (self.x_lo, self.barriers[-1][1])


@dataclass(frozen=True)
class Scenario:
    """One reproducible experiment definition."""

    name: str
    grid: Grid
    potential: PotentialSpec
    packet: PacketSpec
    window: tuple[float, float]
    region: Region
    postselection: str = "none"  # "none" | "transmitted_reflected" | "position_cell"
    cell_index: int = 0
    initial_kind: str = "packet"  # "packet" | "eigenstate"
    eigenstate_index: int = 0

    def __post_init__(self):
        if not self.window[1] > self.window[0]:
            raise ParameterError("window needs t_start < t_stop")
        object.__setattr__(self, "window", (float(self.window[0]), float(self.window[1])))
        if self.postselection not in ("none", "transmitted_reflected", "position_cell"):
            raise ParameterError(f"unknown postselection mode {self.postselection!r}")
        if self.initial_kind not in ("packet", "eigenstate"):
            raise ParameterError(f"unknown initial kind {self.initial_kind!r}")
        for what, index in (("eigenstate", self.eigenstate_index),
                            ("postselection cell", self.cell_index)):
            if not 0 <= index < self.grid.n_points:
                raise ParameterError(f"{what} index {index} outside "
                                     f"[0, {self.grid.n_points})")

    def hamiltonian(self) -> Hamiltonian:
        """The shared, read-only Hamiltonian of this grid and potential."""
        return _hamiltonian(self.grid, self.potential)

    def initial_state(self) -> QuantumState:
        """The read-only state at the window start, built once per scenario
        (validation and run share it)."""
        return self._initial_state

    @functools.cached_property
    def _initial_state(self) -> QuantumState:
        if self.initial_kind == "eigenstate":
            vals, vecs = self.hamiltonian().eigensystem()
            amps = vecs[:, self.eigenstate_index] / np.sqrt(self.grid.dx)
            return QuantumState(position_space(self.grid), amps, self.window[0])
        state = gaussian_packet(
            self.grid, self.packet.x0, self.packet.sigma, self.packet.k0
        )
        return state.at_time(self.window[0])

    def duration(self) -> float:
        return self.window[1] - self.window[0]


@functools.lru_cache(maxsize=8)
def _hamiltonian(grid: Grid, potential: PotentialSpec) -> Hamiltonian:
    """One Hamiltonian per (grid, potential), so one eigensystem, and one
    sinc filter per window length in `sojourn._filter_blocks`, which is
    keyed by the Hamiltonian; a barrier scenario asks for two, its free one
    (validation) and its own.  Eight hold the catalog's four pairs, or the
    five of a run cycling through meter scenarios, with room to spare."""
    return Hamiltonian(position_space(grid), potential_real=potential.array(grid))


# -- catalog ---------------------------------------------------------------


def free_box() -> Scenario:
    """Free packet crossing the box with the region equal to the whole box:
    every method must report the full window length."""
    grid = Grid(256, 0.0, 160.0)
    return Scenario(
        name="free_box",
        grid=grid,
        potential=PotentialSpec(),
        packet=PacketSpec(x0=50.0, sigma=6.0, k0=1.0),
        window=(0.0, 30.0),
        region=Region(grid.x_min - grid.dx, grid.x_max + grid.dx),
    )


def well_halves() -> Scenario:
    """Box eigenstate with the region one half of the well: the mean time
    in the region is half the window by symmetry."""
    grid = Grid(128, 0.0, 80.0)
    return Scenario(
        name="well_halves",
        grid=grid,
        potential=PotentialSpec(),
        packet=PacketSpec(x0=40.0, sigma=6.0, k0=0.0),
        window=(0.0, 20.0),
        region=Region(grid.x_min - grid.dx, 40.0),
        initial_kind="eigenstate",
        eigenstate_index=2,
    )


def barrier_dwell() -> Scenario:
    """Tunneling packet with the region equal to the barrier (E/V0 = 0.5)."""
    grid = Grid(512, 0.0, 240.0)
    return Scenario(
        name="barrier_dwell",
        grid=grid,
        potential=PotentialSpec(kind="barrier", v0=2.0, x_lo=110.0, x_hi=112.0),
        packet=PacketSpec(x0=60.0, sigma=6.0, k0=1.0),
        window=(0.0, 50.0),
        region=Region(110.0, 112.0),
        postselection="transmitted_reflected",
    )


def barrier_farside() -> Scenario:
    """Same barrier with the region beyond it: the reflected-conditioned
    time comes out negative (anomalous but reported)."""
    base = barrier_dwell()
    return Scenario(
        name="barrier_farside",
        grid=base.grid,
        potential=base.potential,
        packet=base.packet,
        window=base.window,
        region=Region(112.0, 130.0),
        postselection="transmitted_reflected",
    )


def catalog() -> dict:
    scenarios = [free_box(), well_halves(), barrier_dwell(), barrier_farside()]
    return {s.name: s for s in scenarios}


# -- validation ------------------------------------------------------------


def validate_scenario(scenario: Scenario) -> list[str]:
    """Static and dynamic consistency checks; returns a list of warnings.

    Raises ValidationError when the configuration is unusable: packet
    center within 5 sigma of a barrier (or inside one), or boundary
    reflections above budget in a free pre-run over the window.
    """
    notes = []
    sc = scenario
    if sc.initial_kind == "packet":
        x0 = sc.packet.x0
        # distance from x0 to each barrier interval, negative inside it
        gap = min((max(lo - x0, x0 - hi) for lo, hi in sc.potential.barriers),
                  default=np.inf)
        if not gap >= 5.0 * sc.packet.sigma:
            raise ValidationError("packet starts within 5 sigma of a barrier")
        # free pre-run: evolve without the potential and inspect the edges,
        # transforming back only the 8 rows at each wall
        free = _hamiltonian(sc.grid, PotentialSpec())
        vecs = free.eigensystem()[1]
        edges = apply_real(np.vstack([vecs[:8], vecs[-8:]]),
                           _eigen_coefficients(sc.initial_state(), free, sc.window[1]))
        edge_mass = float(np.sum(np.abs(edges) ** 2) * sc.grid.dx)
        if not edge_mass <= EDGE_BUDGET:
            raise ValidationError(
                f"boundary reflection budget exceeded (edge mass {edge_mass:.3e})"
            )
        # reachability is advisory only: zero dwell time is legitimate
        x_final = sc.packet.x0 + 2.0 * sc.packet.k0 * sc.duration()
        lo, hi = sorted((sc.packet.x0, x_final))
        if hi < sc.region.x_lo or lo > sc.region.x_hi:
            notes.append("window too short for the packet to reach the region")
    if sc.postselection == "transmitted_reflected" and sc.potential.kind == "free":
        raise ValidationError("transmitted/reflected split needs a barrier")
    return notes


# -- postselection ---------------------------------------------------------


def postselect_transmitted_reflected(
    psi_final: QuantumState, barrier: tuple[float, float]
):
    """Split the evolved state into transmitted and reflected components.

    Returns (chi_T, chi_R, p_T, p_R) where the chi are the normalized
    restrictions of psi to the half-lines beyond and before the barrier and
    p_n their overlaps with psi.  Requires the packet to have cleared the
    barrier (occupancy below 1e-3).
    """
    space = psi_final.space
    if space.kind != "position":
        raise ParameterError("transmitted/reflected split needs a position state")
    grid = space.grid
    b_lo, b_hi = barrier
    x = grid.points
    inside = float(
        np.sum(np.abs(psi_final.amplitudes[(x >= b_lo) & (x < b_hi)]) ** 2) * grid.dx
    )
    if not inside <= BARRIER_CLEARANCE_BUDGET:
        raise ValidationError(
            f"barrier occupancy {inside:.3e} above budget; lengthen the window"
        )
    amps = psi_final.amplitudes
    t_amp = np.where(x >= b_hi, amps, 0.0)
    r_amp = np.where(x < b_lo, amps, 0.0)
    chi_t = QuantumState(space, t_amp, psi_final.representation_time).normalized()
    chi_r = QuantumState(space, r_amp, psi_final.representation_time).normalized()
    p_t = inner_product(chi_t, psi_final)
    p_r = inner_product(chi_r, psi_final)
    return chi_t, chi_r, p_t, p_r


def postselection_family(
    chi_t: QuantumState, chi_r: QuantumState, barrier: tuple[float, float]
) -> tuple[list[str], list[QuantumState]]:
    """Orthonormal family complete on the support of the state that
    `postselect_transmitted_reflected` split into chi_t and chi_r: those two
    plus one cell state per barrier cell, at their time."""
    grid = chi_t.space.grid
    labels = ["transmitted", "reflected"]
    states = [chi_t, chi_r]
    for idx in Region(*barrier).indices(grid):
        labels.append(f"cell_{idx}")
        states.append(basis_cell_state(grid, int(idx), time=chi_t.representation_time))
    return labels, states


# -- result bundle ---------------------------------------------------------


@dataclass(frozen=True)
class ResultRecord:
    scenario: str
    method: str
    postselection: str
    order: int
    value: float
    tolerance: float
    residual: float
    flags: str = ""


@dataclass
class ResultBundle:
    scenario: str
    records: list = field(default_factory=list)
    sweeps: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def add(self, **kwargs):
        self.records.append(ResultRecord(scenario=self.scenario, **kwargs))


def _add_sweep(bundle: ResultBundle, name: str, method: str, recs: dict, scale=1.0):
    """One swept route: its sweep payload per label under `name`, and one
    record per label; in both, readouts, value and residual are times
    `scale` (the meter's T, making them times), strengths stay couplings."""
    bundle.sweeps[name] = {
        lbl: {
            "strengths": list(rec.strengths),
            "readouts": [[scale * v.real, scale * v.imag] for v in rec.readouts],
            "value": [scale * rec.value.real, scale * rec.value.imag],
            "order": rec.order,
            "residual": scale * rec.residual,
            "flagged": rec.flagged,
        }
        for lbl, rec in recs.items()
    }
    for lbl, rec in recs.items():
        bundle.add(method=method, postselection=lbl, order=1,
                   value=scale * rec.time, tolerance=0.01, residual=scale * rec.residual,
                   flags="order_flagged" if rec.flagged else "")


# -- pipelines -------------------------------------------------------------


def _postselectors(sc: Scenario, psi_final: QuantumState) -> dict:
    chis = {"none": psi_final.normalized()}
    if sc.postselection == "transmitted_reflected":
        chi_t, chi_r, _, _ = postselect_transmitted_reflected(
            psi_final, sc.potential.interval
        )
        chis["transmitted"] = chi_t
        chis["reflected"] = chi_r
    elif sc.postselection == "position_cell":
        chis["cell"] = basis_cell_state(
            sc.grid, sc.cell_index, time=psi_final.representation_time
        )
    return chis


def _sojourn_pipeline(sc: Scenario, bundle: ResultBundle, psi_final, chis, op):
    duration = sc.duration()
    tau = dwell_time(op, psi_final)
    bundle.add(method="sojourn", postselection="none", order=1,
               value=tau, tolerance=0.0, residual=0.0,
               flags="" if -RANGE_MARGIN < tau < duration + RANGE_MARGIN
               else "out_of_range")
    for label, chi in chis.items():
        if label == "none":
            continue
        res = conditional_dwell_time(op, psi_final, chi)
        flags = []
        if res.anomalous:
            flags.append("anomalous")
        if res.value.real < 0.0:
            flags.append("negative")
        bundle.add(method="sojourn", postselection=label, order=1,
                   value=res.value.real, tolerance=0.0, residual=0.0,
                   flags=";".join(flags))
        m2 = moment(op, psi_final, chi, 2)
        bundle.add(method="sojourn", postselection=label, order=2,
                   value=m2, tolerance=0.0, residual=0.0)

    if sc.postselection == "transmitted_reflected":
        _, family = postselection_family(chis["transmitted"], chis["reflected"],
                                         sc.potential.interval)
        for l in (1, 2):
            lhs = moment_sum(op, psi_final, family, l)
            rhs = tau if l == 1 else second_moment_position_integral(op, psi_final)
            bundle.add(method="sum_rule", postselection="family", order=l,
                       value=lhs - rhs, tolerance=1e-8, residual=abs(lhs - rhs),
                       flags="" if abs(lhs - rhs) <= 1e-8 else "violated")


def _clock_pipeline(bundle: ResultBundle, coupled, chis, ladders):
    methods = {
        "real_potential": clock_real_potential,
        "imaginary_potential": clock_imaginary_potential,
        "larmor": clock_larmor,
    }
    for name, fn in methods.items():
        _add_sweep(bundle, name, f"clock_{name}", fn(ladders[name], coupled, chis))
    rec = absorption_survival_dwell(ladders["imaginary_potential"], coupled)
    _add_sweep(bundle, "imaginary_potential_norm", "clock_imaginary_norm", {"none": rec})


def _meter_pipeline(sc: Scenario, bundle: ResultBundle, coupled, chis):
    runs = [run_meter(METER_POINTER, coupled, g) for g in METER_LADDER]
    recs = {label: meter_moment_readout(runs, chi) for label, chi in chis.items()}
    _add_sweep(bundle, "meter", "meter", recs, scale=sc.duration())


def run_scenario(
    scenario: Scenario, pipelines: tuple[str, ...] = ("sojourn", "clocks")
) -> ResultBundle:
    """Execute the requested pipelines and assemble the result bundle; a
    name outside sojourn, clocks and meter raises ParameterError."""
    unknown = sorted(set(pipelines) - {"sojourn", "clocks", "meter"})
    if unknown:
        raise ParameterError(
            f"unknown pipelines {unknown}; choose from sojourn, clocks, meter")
    notes = validate_scenario(scenario)
    bundle = ResultBundle(
        scenario=scenario.name,
        provenance={
            "config_hash": config_hash(scenario_to_config(scenario)),
            "version": VERSION,
            "warnings": notes,
        },
    )
    ham = scenario.hamiltonian()
    psi0 = scenario.initial_state()
    # one forward transform feeds the final state and the sojourn ladder
    coeffs = _eigen_coefficients(psi0, ham, scenario.window[1])
    psi_final = QuantumState(psi0.space, apply_real(ham.eigensystem()[1], coeffs),
                             scenario.window[1])
    chis = _postselectors(scenario, psi_final)
    if "sojourn" in pipelines:
        op = sojourn_matrix(scenario.region, ham, scenario.window)
        op._start(psi_final.amplitudes, coeffs)
        _sojourn_pipeline(scenario, bundle, psi_final, chis, op)
    if "clocks" in pipelines or "meter" in pipelines:
        # one node block per scenario: the clocks and the meter read one
        # coupled system, fitted on the union of the shifts they read, so
        # that no readout refits it
        coupled = CoupledSystem(ham, psi0, scenario.region.indicator(scenario.grid),
                                scenario.window)
        # its reference state, the window end with no coupling, is psi_final
        coupled.reference_system_final = psi_final
        t = scenario.duration()
        ladders = {name: tuple(c / t for c in lad) for name, lad in CLOCK_LADDERS.items()}
        keys = [*clock_shifts(**ladders)] if "clocks" in pipelines else []
        if "meter" in pipelines:
            keys += [*coupling_shifts(METER_POINTER, max(METER_LADDER), t)]
        coupled.serve(keys)
    if "clocks" in pipelines:
        _clock_pipeline(bundle, coupled, chis, ladders)
    if "meter" in pipelines:
        _meter_pipeline(scenario, bundle, coupled, chis)
    return bundle


# -- configuration ---------------------------------------------------------


def parse_config(text: str) -> dict:
    """Flat key-path configuration: one `dotted.key = value` per line,
    order-insensitive; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValidationError(f"config line {lineno}: empty key or value")
        if key in out:
            raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def format_config(cfg: dict) -> str:
    return "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(format_config(cfg).encode()).hexdigest()


def scenario_to_config(sc: Scenario) -> dict:
    cfg = {
        "scenario.name": sc.name,
        "grid.n": str(sc.grid.n_points),
        "grid.x_min": repr(sc.grid.x_min),
        "grid.x_max": repr(sc.grid.x_max),
        "potential.kind": sc.potential.kind,
        "packet.x0": repr(sc.packet.x0),
        "packet.sigma": repr(sc.packet.sigma),
        "packet.k0": repr(sc.packet.k0),
        "window.t_start": repr(sc.window[0]),
        "window.t_stop": repr(sc.window[1]),
        "region.x_lo": repr(sc.region.x_lo),
        "region.x_hi": repr(sc.region.x_hi),
        "postselection.mode": sc.postselection,
        "initial.kind": sc.initial_kind,
    }
    if sc.potential.kind != "free":
        cfg["potential.v0"] = repr(sc.potential.v0)
        cfg["potential.x_lo"] = repr(sc.potential.x_lo)
        cfg["potential.x_hi"] = repr(sc.potential.x_hi)
    if sc.potential.kind == "double_barrier":
        cfg["potential.x2_lo"] = repr(sc.potential.x2_lo)
        cfg["potential.x2_hi"] = repr(sc.potential.x2_hi)
    if sc.postselection == "position_cell":
        cfg["postselection.cell"] = str(sc.cell_index)
    if sc.initial_kind == "eigenstate":
        cfg["initial.eigenstate"] = str(sc.eigenstate_index)
    return cfg


CONFIG_KEYS = frozenset({
    "scenario.name", "grid.n", "grid.x_min", "grid.x_max",
    "potential.kind", "potential.v0", "potential.x_lo", "potential.x_hi",
    "potential.x2_lo", "potential.x2_hi", "packet.x0", "packet.sigma", "packet.k0",
    "window.t_start", "window.t_stop", "region.x_lo", "region.x_hi",
    "postselection.mode", "postselection.cell", "initial.kind", "initial.eigenstate",
})


def scenario_from_config(cfg: dict) -> Scenario:
    """Scenario from a parsed config.  A key outside CONFIG_KEYS, for example
    a misspelling, raises ValidationError rather than being dropped, and so
    do a number that is not finite (nan, inf) and a known key that the
    chosen potential kind, postselection mode or initial kind does not read
    (one `scenario_to_config` omits, so that it could not enter
    `config_hash`)."""
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ValidationError(f"unknown config key {', '.join(map(repr, unknown))}")

    def num(key, default=None) -> float:
        x = float(cfg[key] if default is None else cfg.get(key, default))
        if not np.isfinite(x):
            raise ValueError(f"{key} = {x} is not finite")
        return x

    try:
        grid = Grid(int(cfg["grid.n"]), num("grid.x_min"), num("grid.x_max"))
        potential = PotentialSpec(
            kind=cfg.get("potential.kind", "free"),
            v0=num("potential.v0", 0.0),
            x_lo=num("potential.x_lo", 0.0),
            x_hi=num("potential.x_hi", 0.0),
            x2_lo=num("potential.x2_lo", 0.0),
            x2_hi=num("potential.x2_hi", 0.0),
        )
        sc = Scenario(
            name=cfg.get("scenario.name", "custom"),
            grid=grid,
            potential=potential,
            packet=PacketSpec(num("packet.x0"), num("packet.sigma"), num("packet.k0")),
            window=(num("window.t_start"), num("window.t_stop")),
            region=Region(num("region.x_lo"), num("region.x_hi")),
            postselection=cfg.get("postselection.mode", "none"),
            cell_index=int(cfg.get("postselection.cell", 0)),
            initial_kind=cfg.get("initial.kind", "packet"),
            eigenstate_index=int(cfg.get("initial.eigenstate", 0)),
        )
    except KeyError as exc:
        raise ValidationError(f"missing config key {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ValidationError(f"malformed config value: {exc}") from exc
    except ParameterError as exc:
        raise ValidationError(f"refused config value: {exc}") from exc
    inapplicable = sorted(set(cfg) - set(scenario_to_config(sc)))
    if inapplicable:
        raise ValidationError(
            f"config key {', '.join(map(repr, inapplicable))} does not apply to "
            "the chosen potential kind, postselection mode or initial kind"
        )
    return sc


# -- emission --------------------------------------------------------------

# the emitted record schema: ResultRecord's fields in order, `order` as `l`
COLUMNS = ("scenario", "method", "postselection", "l", "value", "tolerance",
           "residual", "flags")
# a record's values in that order (dataclasses.astuple, without its deep copy)
_row = attrgetter(*(f.name for f in fields(ResultRecord)))


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def bundle_to_csv(bundle: ResultBundle) -> str:
    lines = [",".join(COLUMNS)]
    lines += [",".join(map(_fmt, _row(r))) for r in bundle.records]
    return "\n".join(lines) + "\n"


def bundle_to_dict(bundle: ResultBundle) -> dict:
    return {
        "scenario": bundle.scenario,
        "records": [dict(zip(COLUMNS, _row(r))) for r in bundle.records],
        "sweeps": bundle.sweeps,
        "provenance": bundle.provenance,
    }


def bundle_from_dict(data: dict) -> ResultBundle:
    """Inverse of `bundle_to_dict`; a missing key raises ValidationError."""
    try:
        bundle = ResultBundle(
            scenario=data["scenario"],
            sweeps=data.get("sweeps", {}),
            provenance=data.get("provenance", {}),
        )
        for r in data.get("records", []):
            bundle.records.append(
                ResultRecord(*(r[c] for c in COLUMNS[:-1]), flags=r.get("flags", ""))
            )
    except KeyError as exc:
        raise ValidationError(f"bundle lacks key {exc}") from None
    return bundle


def bundle_to_json(bundle: ResultBundle) -> str:
    return json.dumps(bundle_to_dict(bundle), sort_keys=True) + "\n"


def emit(bundle: ResultBundle, fmt: str = "csv", out_dir: str = ".") -> list[str]:
    """Write the bundle to `out_dir` in the requested format(s); returns the
    written paths.  Output is deterministic for identical bundles."""
    if fmt not in ("csv", "json", "both"):
        raise ParameterError(f"unknown emit format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for ext, render in (("csv", bundle_to_csv), ("json", bundle_to_json)):
        if fmt in (ext, "both"):
            paths.append(os.path.join(out_dir, f"{bundle.scenario}.{ext}"))
            write_text(paths[-1], render(bundle))
    return paths


def write_text(path: str, text: str) -> None:
    """`text` as the whole file at `path`, written over it and cut to length:
    truncating first makes ext4 (auto_da_alloc) allocate the blocks at
    close, 110-380 us against 18 us for rewriting a 6 kB file."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text)
        fh.truncate()
