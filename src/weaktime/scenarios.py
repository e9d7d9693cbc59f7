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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .clocks import (
    ClockRuns,
    SweepRecord,
    absorption_survival_dwell,
    clock_imaginary_potential,
    clock_larmor,
    clock_real_potential,
    clock_shifts,
)
from .dynamics import Hamiltonian, evolve_eigenbasis
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

    def hamiltonian(self) -> Hamiltonian:
        return Hamiltonian(
            position_space(self.grid), potential_real=self.potential.array(self.grid)
        )

    def initial_state(self) -> QuantumState:
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


@functools.lru_cache(maxsize=1)
def _free_hamiltonian(grid: Grid) -> Hamiltonian:
    """The free Hamiltonian of the last grid validated: scenarios that share
    a grid share its eigensystem, which the Hamiltonian caches."""
    return Hamiltonian(position_space(grid))


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
        if gap < 5.0 * sc.packet.sigma:
            raise ValidationError("packet starts within 5 sigma of a barrier")
        # free pre-run: evolve without the potential and inspect the edges
        amp = evolve_eigenbasis(
            sc.initial_state(), _free_hamiltonian(sc.grid), sc.window[1]
        ).amplitudes
        band = 8
        edge_mass = float(
            (np.sum(np.abs(amp[:band]) ** 2) + np.sum(np.abs(amp[-band:]) ** 2))
            * sc.grid.dx
        )
        if edge_mass > EDGE_BUDGET:
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
    if inside > BARRIER_CLEARANCE_BUDGET:
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
    psi_final: QuantumState, barrier: tuple[float, float]
) -> tuple[list[str], list[QuantumState]]:
    """Orthonormal family complete on the support of psi: the transmitted
    and reflected states plus one cell state per barrier cell."""
    chi_t, chi_r, _, _ = postselect_transmitted_reflected(psi_final, barrier)
    grid = psi_final.space.grid
    labels = ["transmitted", "reflected"]
    states = [chi_t, chi_r]
    for idx in Region(*barrier).indices(grid):
        labels.append(f"cell_{idx}")
        states.append(
            basis_cell_state(grid, int(idx), time=psi_final.representation_time)
        )
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


def _sweep_payload(rec: SweepRecord) -> dict:
    return {
        "strengths": list(rec.strengths),
        "readouts": [[v.real, v.imag] for v in rec.readouts],
        "value": [rec.value.real, rec.value.imag],
        "order": rec.order,
        "residual": rec.residual,
        "flagged": rec.flagged,
    }


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
        _, family = postselection_family(psi_final, sc.potential.interval)
        for l in (1, 2):
            lhs = moment_sum(op, psi_final, family, l)
            if l == 1:
                amps = psi_final.amplitudes
                rhs = float(np.real(psi_final.cell_weight * np.vdot(amps, op.apply(amps))))
            else:
                rhs = second_moment_position_integral(op, psi_final)
            bundle.add(method="sum_rule", postselection="family", order=l,
                       value=lhs - rhs, tolerance=1e-8, residual=abs(lhs - rhs),
                       flags="" if abs(lhs - rhs) <= 1e-8 else "violated")


def _clock_pipeline(sc: Scenario, bundle: ResultBundle, ham, psi0, chis):
    duration = sc.duration()
    ladders = {name: tuple(c / duration for c in ladder) for name, ladder in CLOCK_LADDERS.items()}
    runs = ClockRuns(ham, psi0, sc.region, sc.window, clock_shifts(**ladders))
    methods = {
        "real_potential": clock_real_potential,
        "imaginary_potential": clock_imaginary_potential,
        "larmor": clock_larmor,
    }
    for name, fn in methods.items():
        recs = fn(ladders[name], runs, chis)
        bundle.sweeps[name] = {lbl: _sweep_payload(r) for lbl, r in recs.items()}
        for lbl, rec in recs.items():
            bundle.add(method=f"clock_{name}", postselection=lbl, order=1,
                       value=rec.time, tolerance=0.01, residual=rec.residual,
                       flags="order_flagged" if rec.flagged else "")
    rec = absorption_survival_dwell(ladders["imaginary_potential"], runs)
    bundle.sweeps["imaginary_potential_norm"] = {"none": _sweep_payload(rec)}
    bundle.add(method="clock_imaginary_norm", postselection="none", order=1,
               value=rec.time, tolerance=0.01, residual=rec.residual,
               flags="order_flagged" if rec.flagged else "")


def _meter_pipeline(sc: Scenario, bundle: ResultBundle, ham, psi0, chis):
    duration = sc.duration()
    indicator = sc.region.indicator(sc.grid)
    spec = PointerSpec.auto(width=1.0, max_shift=max(METER_LADDER))
    runs = [run_meter(spec, psi0, indicator, g, sc.window, ham) for g in METER_LADDER]
    bundle.sweeps["meter"] = {}
    for label, chi in chis.items():
        rec = meter_moment_readout(runs, chi)
        bundle.sweeps["meter"][label] = _sweep_payload(rec)
        bundle.add(method="meter", postselection=label, order=1,
                   value=duration * rec.time, tolerance=0.01,
                   residual=duration * rec.residual)


def run_scenario(
    scenario: Scenario, pipelines: tuple[str, ...] = ("sojourn", "clocks")
) -> ResultBundle:
    """Execute the requested pipelines and assemble the result bundle."""
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
    psi_final = evolve_eigenbasis(psi0, ham, scenario.window[1])
    chis = _postselectors(scenario, psi_final)
    if "sojourn" in pipelines:
        op = sojourn_matrix(scenario.region, ham, scenario.window)
        _sojourn_pipeline(scenario, bundle, psi_final, chis, op)
    if "clocks" in pipelines:
        _clock_pipeline(scenario, bundle, ham, psi0, chis)
    if "meter" in pipelines:
        _meter_pipeline(scenario, bundle, ham, psi0, chis)
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
    does a known key that the chosen potential kind, postselection mode or
    initial kind does not read (one `scenario_to_config` omits, so that it
    could not enter `config_hash`)."""
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise ValidationError(f"unknown config key {', '.join(map(repr, unknown))}")
    try:
        grid = Grid(
            int(cfg["grid.n"]), float(cfg["grid.x_min"]), float(cfg["grid.x_max"])
        )
        potential = PotentialSpec(
            kind=cfg.get("potential.kind", "free"),
            v0=float(cfg.get("potential.v0", 0.0)),
            x_lo=float(cfg.get("potential.x_lo", 0.0)),
            x_hi=float(cfg.get("potential.x_hi", 0.0)),
            x2_lo=float(cfg.get("potential.x2_lo", 0.0)),
            x2_hi=float(cfg.get("potential.x2_hi", 0.0)),
        )
        sc = Scenario(
            name=cfg.get("scenario.name", "custom"),
            grid=grid,
            potential=potential,
            packet=PacketSpec(
                float(cfg["packet.x0"]),
                float(cfg["packet.sigma"]),
                float(cfg["packet.k0"]),
            ),
            window=(float(cfg["window.t_start"]), float(cfg["window.t_stop"])),
            region=Region(float(cfg["region.x_lo"]), float(cfg["region.x_hi"])),
            postselection=cfg.get("postselection.mode", "none"),
            cell_index=int(cfg.get("postselection.cell", 0)),
            initial_kind=cfg.get("initial.kind", "packet"),
            eigenstate_index=int(cfg.get("initial.eigenstate", 0)),
        )
    except KeyError as exc:
        raise ValidationError(f"missing config key {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ValidationError(f"malformed config value: {exc}") from exc
    inapplicable = sorted(set(cfg) - set(scenario_to_config(sc)))
    if inapplicable:
        raise ValidationError(
            f"config key {', '.join(map(repr, inapplicable))} does not apply to "
            "the chosen potential kind, postselection mode or initial kind"
        )
    return sc


# -- emission --------------------------------------------------------------

CSV_HEADER = "scenario,method,postselection,l,value,tolerance,residual,flags"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def bundle_to_csv(bundle: ResultBundle) -> str:
    lines = [CSV_HEADER]
    for r in bundle.records:
        lines.append(
            ",".join(
                [
                    r.scenario,
                    r.method,
                    r.postselection,
                    str(r.order),
                    _fmt(r.value),
                    _fmt(r.tolerance),
                    _fmt(r.residual),
                    r.flags,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def bundle_to_dict(bundle: ResultBundle) -> dict:
    return {
        "scenario": bundle.scenario,
        "records": [
            {
                "scenario": r.scenario,
                "method": r.method,
                "postselection": r.postselection,
                "l": r.order,
                "value": r.value,
                "tolerance": r.tolerance,
                "residual": r.residual,
                "flags": r.flags,
            }
            for r in bundle.records
        ],
        "sweeps": bundle.sweeps,
        "provenance": bundle.provenance,
    }


def bundle_from_dict(data: dict) -> ResultBundle:
    bundle = ResultBundle(
        scenario=data["scenario"],
        sweeps=data.get("sweeps", {}),
        provenance=data.get("provenance", {}),
    )
    for r in data.get("records", []):
        bundle.records.append(
            ResultRecord(
                scenario=r["scenario"],
                method=r["method"],
                postselection=r["postselection"],
                order=r["l"],
                value=r["value"],
                tolerance=r["tolerance"],
                residual=r["residual"],
                flags=r.get("flags", ""),
            )
        )
    return bundle


def bundle_to_json(bundle: ResultBundle) -> str:
    return json.dumps(bundle_to_dict(bundle), sort_keys=True, indent=1) + "\n"


def emit(bundle: ResultBundle, fmt: str = "csv", out_dir: str = ".") -> list[str]:
    """Write the bundle to `out_dir` in the requested format(s); returns the
    written paths.  Output is deterministic for identical bundles."""
    if fmt not in ("csv", "json", "both"):
        raise ParameterError(f"unknown emit format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    if fmt in ("csv", "both"):
        path = os.path.join(out_dir, f"{bundle.scenario}.csv")
        with open(path, "w") as fh:
            fh.write(bundle_to_csv(bundle))
        paths.append(path)
    if fmt in ("json", "both"):
        path = os.path.join(out_dir, f"{bundle.scenario}.json")
        with open(path, "w") as fh:
            fh.write(bundle_to_json(bundle))
        paths.append(path)
    return paths
