import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import oracle
from weaktime import cli, dynamics, meter, scenarios, sojourn
from weaktime.errors import NumericalError, ParameterError, ValidationError
from weaktime.hilbert import Grid, QuantumState, Region, inner_product, spin_space
from weaktime.scenarios import (
    PacketSpec,
    PotentialSpec,
    ResultBundle,
    Scenario,
    bundle_from_dict,
    bundle_to_csv,
    bundle_to_json,
    catalog,
    config_hash,
    emit,
    format_config,
    parse_config,
    postselect_transmitted_reflected,
    postselection_family,
    run_scenario,
    scenario_from_config,
    scenario_to_config,
    validate_scenario,
)

# the resonant double barrier's config, as `format_config` writes it
DOUBLE_BARRIER = Path(__file__).parent / "data" / "double_barrier.cfg"

# -- configuration ------------------------------------------------------------


def test_parse_config_comments_and_whitespace():
    text = """
    # a comment
    grid.n = 64   # trailing comment
    packet.x0 = 10.0
    """
    cfg = parse_config(text)
    assert cfg == {"grid.n": "64", "packet.x0": "10.0"}


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ValidationError):
        parse_config("grid.n 64\n")
    with pytest.raises(ValidationError):
        parse_config("grid.n =\n")
    with pytest.raises(ValidationError):
        parse_config("a = 1\na = 2\n")


def test_config_hash_order_insensitive():
    a = parse_config("x = 1\ny = 2\n")
    b = parse_config("y = 2\nx = 1\n")
    assert config_hash(a) == config_hash(b)


@pytest.mark.parametrize("name", ["free_box", "well_halves", "barrier_dwell",
                                  "barrier_farside"])
def test_scenario_config_round_trip(name):
    sc = catalog()[name]
    back = scenario_from_config(parse_config(format_config(scenario_to_config(sc))))
    assert back == sc


def test_double_barrier_potential_array_and_interval():
    grid = Grid(21, 0.0, 20.0)
    pot = PotentialSpec(kind="double_barrier", v0=3.0, x_lo=5.0, x_hi=7.0,
                        x2_lo=12.0, x2_hi=14.0)
    expected = np.zeros(grid.n_points)
    expected[[5, 6, 12, 13]] = 3.0
    np.testing.assert_array_equal(pot.array(grid), expected)
    assert pot.interval == (5.0, 14.0)
    for x2_hi in (12.0, 10.0):
        with pytest.raises(ParameterError, match="second barrier needs x2_lo < x2_hi"):
            PotentialSpec(kind="double_barrier", v0=3.0, x_lo=5.0, x_hi=7.0,
                          x2_lo=12.0, x2_hi=x2_hi)
    for kind in ("barrier", "double_barrier"):
        with pytest.raises(ParameterError, match="barrier needs x_lo < x_hi"):
            PotentialSpec(kind=kind, v0=3.0, x_lo=7.0, x_hi=7.0, x2_lo=12.0, x2_hi=14.0)
    with pytest.raises(ParameterError, match="free potential has no barrier interval"):
        PotentialSpec().interval


@pytest.mark.parametrize("x_hi, second", [
    (231.0, (200.0, 201.0)),  # reversed: interval would be (230, 201)
    (236.0, (232.0, 234.0)),  # nested: interval (230, 234) would cut the first
])
def test_double_barrier_refuses_a_second_barrier_before_the_first_ends(x_hi, second):
    with pytest.raises(ParameterError, match="x_hi <= x2_lo"):
        PotentialSpec(kind="double_barrier", v0=1.5, x_lo=230.0, x_hi=x_hi,
                      x2_lo=second[0], x2_hi=second[1])
    cfg = scenario_to_config(catalog()["barrier_dwell"])
    cfg.update({"potential.kind": "double_barrier", "potential.x_lo": "230.0",
                "potential.x_hi": repr(x_hi), "potential.x2_lo": repr(second[0]),
                "potential.x2_hi": repr(second[1])})
    # from a config file the same refusal is a validation failure
    with pytest.raises(ValidationError, match="x_hi <= x2_lo"):
        scenario_from_config(cfg)


def test_double_barrier_scenario_config_round_trip(tmp_path, capsys):
    # the resonant double barrier of the ROADMAP: valid, with no warnings
    grid = Grid(1024, 0.0, 480.0)
    sc = Scenario(
        name="double_barrier",
        grid=grid,
        potential=PotentialSpec(kind="double_barrier", v0=1.5, x_lo=230.0,
                                x_hi=231.0, x2_lo=235.0, x2_hi=236.0),
        packet=PacketSpec(x0=150.0, sigma=12.0, k0=1.15),
        window=(0.0, 95.0),
        region=Region(230.0, 236.0),
        postselection="transmitted_reflected",
    )
    x = grid.points
    on_barriers = ((x >= 230.0) & (x < 231.0)) | ((x >= 235.0) & (x < 236.0))
    assert np.count_nonzero(on_barriers) > 2
    np.testing.assert_array_equal(sc.potential.array(grid),
                                  np.where(on_barriers, 1.5, 0.0))
    assert sc.potential.interval == (230.0, 236.0)
    cfg = scenario_to_config(sc)
    text = format_config(cfg)
    assert "potential.x2_lo = 235.0\n" in text and "potential.x2_hi = 236.0\n" in text
    assert DOUBLE_BARRIER.read_text() == text
    back = scenario_from_config(parse_config(text))
    assert back == sc
    assert config_hash(scenario_to_config(back)) == config_hash(cfg)
    single = replace(sc, potential=PotentialSpec(kind="barrier", v0=1.5, x_lo=230.0,
                                                 x_hi=231.0))
    assert config_hash(scenario_to_config(single)) != config_hash(cfg)
    path = tmp_path / "double_barrier.cfg"
    path.write_text(text)
    assert cli.main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out == "double_barrier: valid\n"


def test_scenario_from_config_reports_missing_keys():
    with pytest.raises(ValidationError, match="missing config key"):
        scenario_from_config({"grid.n": "64"})


@pytest.mark.parametrize("typo, replaces", [("potential.V0", None),
                                            ("pakcet.k0", "packet.k0")])
def test_scenario_from_config_rejects_unknown_keys(typo, replaces):
    # V0 next to v0 = 2.0 would otherwise run at 2.0; the misspelled packet
    # key would otherwise be reported only as a missing one
    cfg = scenario_to_config(catalog()["barrier_dwell"])
    cfg[typo] = cfg.pop(replaces) if replaces else "3.0"
    with pytest.raises(ValidationError, match=f"unknown config key '{typo}'"):
        scenario_from_config(cfg)


def test_scenario_from_config_rejects_n_slices():
    # the time average is exact, so a quadrature slice count is a key no
    # scenario reads; a config still setting it is refused, not ignored
    cfg = scenario_to_config(catalog()["well_halves"])
    assert "numerics.n_slices" not in cfg
    cfg["numerics.n_slices"] = "20000"
    with pytest.raises(ValidationError, match="unknown config key 'numerics.n_slices'"):
        scenario_from_config(cfg)


@pytest.mark.parametrize("name, key, value", [
    ("free_box", "potential.v0", "3.0"),
    ("free_box", "potential.x_lo", "60.0"),
    ("free_box", "potential.x_hi", "62.0"),
    ("barrier_dwell", "potential.x2_lo", "118.0"),
    ("barrier_dwell", "postselection.cell", "40"),
    ("free_box", "initial.eigenstate", "2"),
])
def test_scenario_from_config_rejects_inapplicable_keys(name, key, value):
    # a known key the chosen kind or mode never reads would be dropped, and
    # config_hash, taken of scenario_to_config, would not see it either
    cfg = scenario_to_config(catalog()[name])
    assert key not in cfg
    cfg[key] = value
    with pytest.raises(ValidationError, match=f"'{key}' does not apply"):
        scenario_from_config(cfg)


def test_scenario_from_config_reports_malformed_values():
    cfg = scenario_to_config(catalog()["free_box"])
    cfg["grid.n"] = "sixty four"
    with pytest.raises(ValidationError, match="malformed"):
        scenario_from_config(cfg)


@pytest.mark.parametrize("key, value", [("packet.sigma", "nan"), ("window.t_stop", "inf"),
                                        ("potential.v0", "nan")])
def test_scenario_from_config_refuses_non_finite_numbers(key, value):
    # float() reads both: a nan sigma emitted all-NaN sojourn records, an
    # infinite window validated, and a nan barrier height failed inside the
    # eigensolver with an error outside the package's types
    cfg = scenario_to_config(catalog()["barrier_dwell"])
    cfg[key] = value
    with pytest.raises(ValidationError, match=f"malformed config value: {key} = {value} "):
        scenario_from_config(cfg)


# -- validation ---------------------------------------------------------------


def test_validate_catalog_scenarios_clean():
    for sc in catalog().values():
        assert validate_scenario(sc) == []


def _on_fresh_grid(sc, n_points, **changes):
    # a grid no other test uses, so the Hamiltonian cache starts cold
    grid = Grid(n_points, sc.grid.x_min, sc.grid.x_max)
    if sc.name == "free_box":
        changes["region"] = Region(grid.x_min - grid.dx, grid.x_max + grid.dx)
    return replace(sc, grid=grid, **changes)


@pytest.mark.parametrize("case", ["free_box", "well_halves", "barrier_pair"])
def test_run_scenario_solves_each_hamiltonian_once(case, monkeypatch):
    # free_box: validation and the run share the free Hamiltonian;
    # well_halves: the eigenstate and the run share one; two barrier
    # scenarios that differ in window and region: one free, one barrier
    cat = catalog()
    runs, solves = {
        "free_box": ([_on_fresh_grid(cat["free_box"], 253)], 1),
        "well_halves": ([_on_fresh_grid(cat["well_halves"], 125)], 1),
        "barrier_pair": ([_on_fresh_grid(cat["barrier_dwell"], 509),
                          _on_fresh_grid(cat["barrier_farside"], 509, window=(0.0, 55.0))], 2),
    }[case]
    calls = []
    solve = scipy.linalg.eigh_tridiagonal

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
    for sc in runs:
        bundle = run_scenario(sc, pipelines=("sojourn",))
        assert bundle.provenance["warnings"] == []
    assert len(calls) == solves


def test_two_catalog_passes_solve_each_hamiltonian_once(monkeypatch):
    # the catalog cycles through more (grid, potential) pairs than a
    # two-entry cache holds; every pair must still be solved only once
    scenarios._hamiltonian.cache_clear()
    calls = []
    solve = scipy.linalg.eigh_tridiagonal

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
    cat = catalog().values()
    for _ in range(2):
        for sc in cat:
            run_scenario(sc, pipelines=("sojourn", "clocks"))
    pairs = {(sc.grid, p) for sc in cat for p in (sc.potential, PotentialSpec())}
    assert len(calls) == len(pairs) == 4


def test_shared_hamiltonian_is_read_only():
    ham = catalog()["barrier_dwell"].hamiltonian()
    assert catalog()["barrier_farside"].hamiltonian() is ham
    for arr in (ham.potential_real, *ham.eigensystem()):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_validate_rejects_packet_on_top_of_barrier():
    sc = catalog()["barrier_dwell"]
    bad = Scenario(
        name="bad", grid=sc.grid, potential=sc.potential,
        packet=PacketSpec(x0=105.0, sigma=6.0, k0=1.0),
        window=sc.window, region=sc.region,
    )
    with pytest.raises(ValidationError, match="5 sigma"):
        validate_scenario(bad)


@pytest.mark.parametrize("potential, x0", [
    # 1 sigma beyond the far edge of a barrier wider than 5 sigma
    (PotentialSpec(kind="barrier", v0=2.0, x_lo=110.0, x_hi=150.0), 156.0),
    # inside a barrier, more than 5 sigma from its near edge
    (PotentialSpec(kind="barrier", v0=2.0, x_lo=60.0, x_hi=150.0), 120.0),
    # between the barriers, 1 sigma before the second one
    (PotentialSpec(kind="double_barrier", v0=2.0, x_lo=110.0, x_hi=112.0,
                   x2_lo=150.0, x2_hi=152.0), 144.0),
])
def test_validate_measures_clearance_to_every_barrier(potential, x0):
    sc = catalog()["barrier_dwell"]
    bad = Scenario(
        name="bad", grid=sc.grid, potential=potential,
        packet=PacketSpec(x0=x0, sigma=6.0, k0=1.0),
        window=(0.0, 10.0), region=sc.region,
    )
    with pytest.raises(ValidationError, match="5 sigma"):
        validate_scenario(bad)


def test_validate_rejects_boundary_reflection():
    grid = Grid(256, 0.0, 160.0)
    bad = Scenario(
        name="bad", grid=grid, potential=PotentialSpec(),
        packet=PacketSpec(x0=80.0, sigma=6.0, k0=1.0),
        window=(0.0, 40.0),  # packet center arrives at the far wall
        region=Region(0.0, 160.0),
    )
    with pytest.raises(ValidationError, match="boundary"):
        validate_scenario(bad)


def test_validate_warns_on_unreachable_region(tmp_path, capsys):
    grid = Grid(256, 0.0, 160.0)
    sc = Scenario(
        name="slow", grid=grid, potential=PotentialSpec(),
        packet=PacketSpec(x0=50.0, sigma=6.0, k0=0.2),
        window=(0.0, 10.0),
        region=Region(120.0, 140.0),
    )
    notes = validate_scenario(sc)
    assert any("too short" in n for n in notes)
    # the command line prints the same note as a warning
    path = tmp_path / "slow.cfg"
    path.write_text(format_config(scenario_to_config(sc)))
    assert cli.main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out == (
        "slow: valid\n  warning: window too short for the packet to reach the region\n")


def test_validate_rejects_split_without_barrier():
    grid = Grid(256, 0.0, 160.0)
    sc = Scenario(
        name="bad", grid=grid, potential=PotentialSpec(),
        packet=PacketSpec(x0=50.0, sigma=6.0, k0=1.0),
        window=(0.0, 30.0), region=Region(60.0, 80.0),
        postselection="transmitted_reflected",
    )
    with pytest.raises(ValidationError, match="barrier"):
        validate_scenario(sc)


# -- postselection ------------------------------------------------------------


def test_free_packet_is_fully_transmitted(free_box_ctx):
    # split a free evolved packet at a point it has passed completely
    chi_t, chi_r, p_t, p_r = postselect_transmitted_reflected(
        free_box_ctx.psi_final, (70.0, 72.0)
    )
    assert abs(p_t) ** 2 == pytest.approx(1.0, abs=1e-5)
    assert abs(p_r) ** 2 < 1e-5


def test_split_probabilities_sum_to_one(barrier_ctx):
    assert abs(barrier_ctx.p_t) ** 2 + abs(barrier_ctx.p_r) ** 2 == pytest.approx(
        1.0, abs=1e-3
    )
    assert inner_product(barrier_ctx.chi_t, barrier_ctx.chi_r) == pytest.approx(
        0.0, abs=1e-12
    )


def test_transmission_matches_brute_force(barrier_ctx):
    sc = barrier_ctx.scenario
    hmat = oracle.dense_hamiltonian(sc.hamiltonian())
    psi = oracle.evolve_exact(hmat, barrier_ctx.psi0.amplitudes, sc.duration())
    x = sc.grid.points
    p_t_ref = float(np.sum(np.abs(psi[x >= 112.0]) ** 2) * sc.grid.dx)
    assert abs(barrier_ctx.p_t) ** 2 == pytest.approx(p_t_ref, abs=1e-6)


def test_split_requires_cleared_barrier(barrier_ctx):
    sc = barrier_ctx.scenario
    hmat = oracle.dense_hamiltonian(sc.hamiltonian())
    early = QuantumState(
        barrier_ctx.psi0.space,
        oracle.evolve_exact(hmat, barrier_ctx.psi0.amplitudes, 26.0),
        26.0,
    )
    with pytest.raises(ValidationError, match="occupancy"):
        postselect_transmitted_reflected(early, sc.potential.interval)
    spin = QuantumState(spin_space(), np.array([1.0, 0.0]), sc.window[1])
    with pytest.raises(ParameterError, match="needs a position state"):
        postselect_transmitted_reflected(spin, sc.potential.interval)


def test_postselection_family_is_orthonormal(barrier_ctx):
    interval = barrier_ctx.scenario.potential.interval
    chi_t, chi_r, _, _ = postselect_transmitted_reflected(barrier_ctx.psi_final, interval)
    labels, states = postselection_family(chi_t, chi_r, interval)
    assert labels[:2] == ["transmitted", "reflected"]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            expected = 1.0 if i == j else 0.0
            assert inner_product(a, b) == pytest.approx(expected, abs=1e-10)


# -- bundles and emission -------------------------------------------------------


def test_empty_bundle_gives_header_only_csv():
    bundle = ResultBundle(scenario="empty")
    text = bundle_to_csv(bundle)
    assert text == "scenario,method,postselection,l,value,tolerance,residual,flags\n"


def test_bundle_json_round_trip():
    bundle = ResultBundle(scenario="demo", provenance={"version": "x"})
    bundle.add(method="sojourn", postselection="none", order=1,
               value=1.25, tolerance=0.0, residual=0.0)
    back = bundle_from_dict(json.loads(bundle_to_json(bundle)))
    assert back.scenario == bundle.scenario
    assert back.records == bundle.records
    assert back.provenance == bundle.provenance
    assert bundle_to_csv(back).splitlines()[1] == "demo,sojourn,none,1,1.25,0,0,"


def test_emit_writes_requested_formats(tmp_path):
    bundle = ResultBundle(scenario="demo")
    bundle.add(method="sojourn", postselection="none", order=1,
               value=2.0, tolerance=0.0, residual=0.0)
    paths = emit(bundle, fmt="both", out_dir=str(tmp_path))
    assert [p.endswith("demo.csv") for p in paths] == [True, False]
    csv_text = (tmp_path / "demo.csv").read_text()
    rows = csv_text.strip().split("\n")
    assert len(rows) == 2
    assert len(rows[1].split(",")) == 8
    # a misspelled format writes nothing rather than falling back to one
    with pytest.raises(ParameterError, match="unknown emit format 'cvs'"):
        emit(bundle, fmt="cvs", out_dir=str(tmp_path / "none"))
    assert not (tmp_path / "none").exists()


def test_emit_rewrites_a_longer_file_to_exactly_the_new_bytes(tmp_path):
    # the files are rewritten in place and cut to the written length, never
    # truncated first: a fresh directory gets new files, and re-emitting
    # over longer ones leaves exactly the new bytes
    bundle = ResultBundle(scenario="demo")
    bundle.add(method="sojourn", postselection="none", order=1,
               value=2.0, tolerance=0.0, residual=0.0)
    expected = [bundle_to_csv(bundle).encode(), bundle_to_json(bundle).encode()]
    out = tmp_path / "fresh"
    paths = emit(bundle, fmt="both", out_dir=str(out))
    assert [open(p, "rb").read() for p in paths] == expected
    for path, data in zip(paths, expected):
        with open(path, "wb") as fh:
            fh.write(b"#" * (3 * len(data)))
    assert emit(bundle, fmt="both", out_dir=str(out)) == paths
    assert [open(p, "rb").read() for p in paths] == expected


def test_run_scenario_well_reports_half_window(well_ctx):
    bundle = run_scenario(well_ctx.scenario, pipelines=("sojourn",))
    rec = [r for r in bundle.records if r.method == "sojourn"][0]
    assert rec.value == pytest.approx(0.5 * well_ctx.scenario.duration(), abs=1e-8)
    assert bundle.provenance["config_hash"]


def test_run_scenario_refuses_an_unknown_pipeline():
    # a misspelled pipeline is refused, never run as an empty bundle
    for pipelines in (("sojurn",), ("sojourn", "meters")):
        with pytest.raises(ParameterError, match="unknown pipelines"):
            run_scenario(catalog()["free_box"], pipelines=pipelines)


@pytest.fixture(scope="module")
def well_meter():
    """The meter pipeline on well_halves, with the MeterRuns it made."""
    runs = []

    def recording_run_meter(*args, **kwargs):
        runs.append(meter.run_meter(*args, **kwargs))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "run_meter", recording_run_meter)
        bundle = run_scenario(catalog()["well_halves"], pipelines=("meter",))
    return bundle, runs


def test_clock_pipeline_alone_builds_no_sojourn_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sojourn operator built for a clocks-only run")

    monkeypatch.setattr(scenarios, "sojourn_matrix", refuse)
    bundle = run_scenario(catalog()["well_halves"], pipelines=("clocks",))
    assert {r.method for r in bundle.records} == {
        "clock_real_potential", "clock_imaginary_potential", "clock_larmor",
        "clock_imaginary_norm"}


def test_clock_pipeline_evolves_each_hamiltonian_once(monkeypatch):
    # one node block serves the 12 distinct keys: the unperturbed system,
    # +-v for three phase strengths, +-omega/2 for the one Larmor strength
    # the phase ladder does not already cover (9 real), and three absorbers
    # shared with the norm clock; T S = 0.6 and |Im u| / S = 0.125, with
    # the indicator's half range h = 1/2, ask for 10 nodes
    blocks, served, reads = [], [], []
    evolve_shifted = dynamics.evolve_shifted
    serve, read = dynamics.CoupledSystem.serve, dynamics.CoupledSystem.read
    monkeypatch.setattr(dynamics, "evolve_shifted",
                        lambda *args: blocks.append(args[2]) or evolve_shifted(*args))
    monkeypatch.setattr(dynamics.CoupledSystem, "serve",
                        lambda self, shifts: served.append(list(shifts)) or serve(self, shifts))
    monkeypatch.setattr(dynamics.CoupledSystem, "read",
                        lambda self, shifts: reads.append(list(shifts)) or read(self, shifts))
    run_scenario(catalog()["well_halves"], pipelines=("clocks",))
    [nodes] = blocks
    assert nodes.size == 10 and np.isrealobj(nodes)
    # the scenario serves every key before any readout; the four readouts
    # each take one read of keys inside that fit, so none refits it
    keys = served[0]
    assert len(keys) == len(set(keys)) == 12
    assert sum(u.imag == 0.0 for u in keys) == 9
    assert all(u.real == 0.0 and u.imag < 0.0 for u in keys if u.imag)
    assert np.max(np.abs(nodes)) == max(abs(u.real) for u in keys)
    assert len(reads) == 4 and all(set(shifts) <= set(keys) for shifts in reads)


def test_clock_readouts_reread_the_served_keys_with_no_ellipse_test(monkeypatch):
    # every clock readout reads keys the scenario served first: no
    # Bernstein test after the fit, and no full Gram, only its diagonal
    tests = []
    bernstein = dynamics._bernstein
    monkeypatch.setattr(dynamics, "_bernstein", lambda z: tests.append(z) or bernstein(z))

    def refuse(self):
        raise AssertionError("a clock readout formed the full Gram")

    monkeypatch.setattr(dynamics.FixedRead, "gram", refuse)
    serve, per_serve = dynamics.CoupledSystem.serve, []

    def counting_serve(self, shifts):
        before = len(tests)
        serve(self, shifts)
        per_serve.append(len(tests) - before)

    monkeypatch.setattr(dynamics.CoupledSystem, "serve", counting_serve)
    run_scenario(catalog()["well_halves"], pipelines=("clocks",))
    # the scenario's fit takes its rho0; the four readouts test nothing
    assert per_serve == [1, 0, 0, 0, 0]


@pytest.mark.parametrize("pipelines, nodes", [
    (("sojourn", "clocks", "meter"), 12), (("clocks",), 10), (("meter",), 12)])
def test_one_node_block_per_scenario(monkeypatch, pipelines, nodes):
    # the clocks and the meter read one coupled system, fitted once on the
    # union of the shifts they read: one block per scenario, whichever of
    # them run, with the clocks' 12 keys inside the meter's 12 nodes;
    # free_box observes the whole box, a constant, whose fit takes 4 nodes
    sizes = []
    evolve_shifted = dynamics.evolve_shifted
    monkeypatch.setattr(dynamics, "evolve_shifted",
                        lambda *args: sizes.append(len(args[2])) or evolve_shifted(*args))
    for name, sc in catalog().items():
        sizes.clear()
        run_scenario(sc, pipelines)
        assert sizes == [4 if name == "free_box" else nodes]


def test_meter_pipeline_runs_the_positive_ladder_once(well_meter):
    # the shift is odd in G, so the -G half of the ladder is never run
    _, runs = well_meter
    assert [run.coupling for run in runs] == list(scenarios.METER_LADDER)


def test_meter_pipeline_pointer_keeps_few_modes(well_meter):
    _, runs = well_meter
    assert runs
    for run in runs:
        assert run.spec.grid.n_points == 256
        assert run.modes_kept <= 32
        coeffs = np.abs(np.fft.fft(run.spec.initial_state().amplitudes))
        dropped = np.sort(coeffs)[: coeffs.size - run.modes_kept]
        assert np.all(dropped <= meter.DEFAULT_MODE_CUTOFF * coeffs.max())


def test_meter_pipeline_runs_share_one_node_block(monkeypatch):
    # the three runs read one coupled system and interpolate from its one
    # node block: T S = 1.29, with the indicator's half range h = 1/2, asks
    # for 12 nodes
    systems = []

    def recording_run_meter(spec, coupled, coupling):
        systems.append(coupled)
        return meter.run_meter(spec, coupled, coupling)

    monkeypatch.setattr(scenarios, "run_meter", recording_run_meter)
    run_scenario(catalog()["well_halves"], pipelines=("meter",))
    assert len(systems) == len(scenarios.METER_LADDER)
    assert all(coupled is systems[0] for coupled in systems)
    assert systems[0].nodes == 12
    assert 0.0 < systems[0].node_tail <= 1e-13


def test_meter_reads_the_window_end_state_the_scenario_evolved(monkeypatch):
    # psi0 reaches the window end once a scenario: every run's reference
    # state is the psi_final the postselectors were split from, bit for bit
    # the exact eigenbasis evolution, and nothing evolves psi0 again
    sc = catalog()["well_halves"]
    exact = dynamics.evolve_eigenbasis(sc.initial_state(), sc.hamiltonian(), sc.window[1])
    finals, runs = [], []
    postselectors = scenarios._postselectors
    monkeypatch.setattr(scenarios, "_postselectors",
                        lambda sc, psi: finals.append(psi) or postselectors(sc, psi))
    monkeypatch.setattr(scenarios, "run_meter",
                        lambda *args: runs.append(meter.run_meter(*args)) or runs[-1])

    def refuse(*args):
        raise AssertionError("psi0 evolved to the window end a second time")

    monkeypatch.setattr(dynamics, "evolve_eigenbasis", refuse)
    run_scenario(sc, pipelines=("meter",))
    [psi_final] = finals
    assert np.array_equal(psi_final.amplitudes, exact.amplitudes)
    assert len(runs) == len(scenarios.METER_LADDER)
    assert all(run.reference_system_final is psi_final for run in runs)


def test_meter_pipeline_well_reports_half_window(well_meter):
    bundle, _ = well_meter
    rec = [r for r in bundle.records if r.method == "meter"][0]
    half = 0.5 * catalog()["well_halves"].duration()
    assert rec.value == pytest.approx(half, abs=1e-9)


def test_meter_sweep_payload_is_in_time_units_like_every_sweep():
    # the meter's sweep readouts, value and residual are times, scaled by T
    # like its record and like the clock sweeps; its strengths stay couplings
    sc = catalog()["well_halves"]
    bundle = run_scenario(sc, pipelines=("clocks", "meter"))
    sweep = bundle.sweeps["meter"]["none"]
    [rec] = [r for r in bundle.records if r.method == "meter"]
    half = 0.5 * sc.duration()
    assert sweep["value"][0] == rec.value == pytest.approx(half, abs=1e-9)
    assert bundle.sweeps["larmor"]["none"]["value"][0] == pytest.approx(half, rel=1e-6)
    assert sweep["residual"] == rec.residual
    assert sweep["strengths"] == list(scenarios.METER_LADDER)
    assert all(re == pytest.approx(half, rel=1e-3) for re, _ in sweep["readouts"])


@pytest.mark.parametrize("name, pipelines", [
    ("barrier_dwell", ("sojourn", "meter")),
    ("well_halves", ("sojourn", "clocks", "meter")),
])
def test_shifted_window_gives_identical_records(name, pipelines):
    # the Hamiltonian is static, so only the window's length matters: every
    # route, the meter's coupled window included, starts at t_start
    sc = catalog()[name]
    shifted = replace(sc, window=(sc.window[0] + 5.0, sc.window[1] + 5.0))
    assert shifted.duration() == sc.duration()
    records = run_scenario(sc, pipelines).records
    assert {r.method for r in records} >= {"sojourn", "meter"}
    assert run_scenario(shifted, pipelines).records == records


# -- command line ---------------------------------------------------------------


@pytest.fixture()
def well_config(tmp_path):
    sc = catalog()["well_halves"]
    path = tmp_path / "well.cfg"
    path.write_text(format_config(scenario_to_config(sc)))
    return str(path)


def test_cli_validate_ok(well_config, capsys):
    assert cli.main(["validate", "--config", well_config]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_missing_file_is_io_error(tmp_path, capsys):
    code = cli.main(["validate", "--config", str(tmp_path / "nope.cfg")])
    assert code == 3


def test_cli_malformed_config_is_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("grid.n = not_a_number\n")
    assert cli.main(["validate", "--config", str(path)]) == 1


def test_cli_unknown_config_key_is_validation_error(well_config, capsys):
    with open(well_config, "a") as fh:
        fh.write("pakcet.k0 = 1.0\n")
    assert cli.main(["validate", "--config", well_config]) == 1
    assert "'pakcet.k0'" in capsys.readouterr().err


def test_cli_inapplicable_config_key_is_validation_error(well_config, capsys):
    # well_halves is free space: a barrier height in its file would be ignored
    with open(well_config, "a") as fh:
        fh.write("potential.v0 = 3.0\n")
    assert cli.main(["validate", "--config", well_config]) == 1
    assert "'potential.v0'" in capsys.readouterr().err


def _set_keys(path, values):
    cfg = parse_config(open(path).read())
    cfg.update(values)
    with open(path, "w") as fh:
        fh.write(format_config(cfg))


@pytest.mark.parametrize("values, message", [
    ({"window.t_stop": "-1.0"}, "t_start < t_stop"),
    ({"potential.kind": "bogus"}, "unknown potential kind"),
    ({"initial.eigenstate": "-1"}, "eigenstate index -1 outside [0, 128)"),
    ({"initial.eigenstate": "500"}, "eigenstate index 500 outside [0, 128)"),
    ({"packet.sigma": "nan"}, "packet.sigma = nan is not finite"),
    ({"postselection.mode": "bogus"}, "unknown postselection mode 'bogus'"),
    ({"initial.kind": "bogus"}, "unknown initial kind 'bogus'"),
])
def test_cli_refused_config_value_is_validation_error(well_config, values, message, capsys):
    # a value the scenario's own types refuse is a validation failure (exit
    # 1), not a numerical one, and is caught before anything runs
    _set_keys(well_config, values)
    assert cli.main(["validate", "--config", well_config]) == 1
    assert message in capsys.readouterr().err
    assert cli.main(["run", "--config", well_config]) == 1


@pytest.mark.parametrize("cell", ["-1", "128"])
def test_cli_postselection_cell_outside_the_grid_is_validation_error(
        well_cell_config, cell, capsys):
    _set_keys(well_cell_config, {"postselection.cell": cell})
    assert cli.main(["validate", "--config", well_cell_config]) == 1
    assert f"postselection cell index {cell} outside [0, 128)" in capsys.readouterr().err
    assert cli.main(["run", "--config", well_cell_config]) == 1


def test_cli_run_and_emit_round_trip(well_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", "--config", well_config,
                     "--out-dir", str(out), "--format", "both"])
    assert code == 0
    csv_path = out / "well_halves.csv"
    json_path = out / "well_halves.json"
    assert csv_path.exists() and json_path.exists()
    capsys.readouterr()

    redo = tmp_path / "redo"
    code = cli.main(["emit", "--config", str(json_path),
                     "--out-dir", str(redo), "--format", "csv"])
    assert code == 0
    assert (redo / "well_halves.csv").read_text() == csv_path.read_text()


def test_cli_emit_of_a_bundle_missing_a_record_key_is_validation_error(
        well_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", well_config, "--out-dir", str(out),
                     "--format", "json"]) == 0
    data = json.loads((out / "well_halves.json").read_text())
    del data["records"][0]["value"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.main(["emit", "--config", str(broken), "--out-dir", str(tmp_path / "redo")]) == 1
    assert "validation error: bundle lacks key 'value'" in capsys.readouterr().err


def test_cli_compare_agrees_on_well(well_config, capsys):
    code = cli.main(["compare", "--config", well_config])
    out = capsys.readouterr().out
    assert code == 0
    assert "agreement: ok" in out
    # every clock and the meter are compared, the norm-loss route against
    # the dwell time
    rows = {tuple(line.split(",")[:2]) for line in out.splitlines()[1:-1]}
    assert rows == {(f"clock_{name}", "none") for name in (
        "real_potential", "imaginary_potential", "larmor", "imaginary_norm")} | {
        ("meter", "none")}


def _compare_bundle(*records):
    """A bundle of (method, postselection, order, value, tolerance,
    residual) records, as `weaktime compare` receives it."""
    bundle = ResultBundle(scenario="well_halves")
    for method, label, order, value, tolerance, residual in records:
        bundle.add(method=method, postselection=label, order=order, value=value,
                   tolerance=tolerance, residual=residual)
    return bundle


def test_cli_compare_fails_a_record_past_its_allowance(well_config, monkeypatch, capsys):
    # 0.5 off a reference of 10 is five times the 0.01 |ref| allowance
    bundle = _compare_bundle(("sojourn", "none", 1, 10.0, 0.0, 0.0),
                             ("clock_larmor", "none", 1, 10.05, 0.01, 1e-6),
                             ("clock_real_potential", "none", 1, 10.5, 0.01, 1e-6))
    monkeypatch.setattr(cli, "run_scenario", lambda *args, **kwargs: bundle)
    code = cli.main(["compare", "--config", well_config])
    out = capsys.readouterr().out
    assert code == 2
    assert out.splitlines()[-1] == "agreement: FAILED (worst ratio 5.000)"


def test_cli_compare_fails_a_nan_record(well_config, monkeypatch, capsys):
    # a NaN deviation compares false with any allowance, and its ratio is
    # worse than any finite one before or after it: the summary reports it
    # and names its record, not the largest finite ratio.  A NaN residual
    # allows nothing: a value within its tolerance of the reference fails,
    # named the same way
    nan = float("nan")
    inputs = [
        [("sojourn", "none", 1, 10.0, 0.0, 0.0),
         ("clock_real_potential", "none", 1, 10.5, 0.01, 0.0),
         ("clock_larmor", "none", 1, nan, 0.01, 1e-6),
         ("clock_imaginary_potential", "none", 1, 9.0, 0.01, 0.0)],
        [("sojourn", "none", 1, 10.0, 0.0, 0.0),
         ("clock_larmor", "none", 1, 10.05, 0.01, nan)],
    ]
    for records in inputs:
        bundle = _compare_bundle(*records)
        monkeypatch.setattr(cli, "run_scenario", lambda *args, bundle=bundle, **kwargs: bundle)
        assert cli.main(["compare", "--config", well_config]) == 2
        assert capsys.readouterr().out.splitlines()[-1] == (
            "agreement: FAILED (worst ratio nan at clock_larmor,none,1)")


def test_cli_compare_skips_a_record_with_no_sojourn_reference(well_config, monkeypatch,
                                                              capsys):
    # no sojourn record at order 2, under the label or unconditioned: the
    # clock record is left out of the comparison, not failed
    bundle = _compare_bundle(("sojourn", "none", 1, 10.0, 0.0, 0.0),
                             ("clock_larmor", "transmitted", 2, 99.0, 0.01, 0.0))
    monkeypatch.setattr(cli, "run_scenario", lambda *args, **kwargs: bundle)
    code = cli.main(["compare", "--config", well_config])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["method,postselection,value,reference,deviation,allowed",
                                "agreement: ok (worst ratio 0.000)"]


@pytest.mark.parametrize("error, prefix", [
    (NumericalError("no Bessel cut"), "numerical error: no Bessel cut"),
    (ParameterError("shrink the sweep ladder"), "error: shrink the sweep ladder")])
def test_cli_numerical_and_other_package_errors_exit_2(well_config, monkeypatch, capsys,
                                                       error, prefix):
    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_scenario", refuse)
    code = cli.main(["run", "--config", well_config])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == prefix + "\n"


def test_cli_sweep_writes_every_clock_sweep(well_config, tmp_path, capsys):
    out = tmp_path / "sweeps"
    code = cli.main(["sweep", "--config", well_config, "--out-dir", str(out)])
    assert code == 0
    sweeps = json.loads((out / "well_halves_sweeps.json").read_text())
    assert set(sweeps) == {"real_potential", "imaginary_potential", "larmor",
                           "imaginary_potential_norm"}
    half = 0.5 * catalog()["well_halves"].duration()
    assert sweeps["larmor"]["none"]["value"][0] == pytest.approx(half, rel=0.01)


@pytest.mark.parametrize("factor, flags", [(10.0, "negative"), (1.0, "anomalous;negative")])
def test_anomalous_flag_reaches_the_emitted_row(monkeypatch, factor, flags):
    # barrier_farside postselected on the far-side cell 238 reads
    # |tau| / T = 1.009: inside the default anomaly factor, past a factor of
    # 1, where the emitted row carries the flag ahead of the sign
    monkeypatch.setattr(sojourn, "ANOMALY_FACTOR", factor)
    sc = replace(catalog()["barrier_farside"], postselection="position_cell", cell_index=238)
    rows = bundle_to_csv(run_scenario(sc, ("sojourn",))).splitlines()
    [row] = [r for r in rows if ",sojourn,cell,1," in r]
    assert row.startswith("barrier_farside,sojourn,cell,1,-50.43")
    assert row.endswith(f",0,0,{flags}")


def test_position_cell_config_round_trip_runs_and_emits(barrier_ctx, tmp_path):
    cell = int(np.argmax(np.abs(barrier_ctx.psi_final.amplitudes)))
    sc = replace(barrier_ctx.scenario, name="barrier_cell",
                 postselection="position_cell", cell_index=cell)
    text = format_config(scenario_to_config(sc))
    assert f"postselection.cell = {cell}\n" in text
    back = scenario_from_config(parse_config(text))
    assert back == sc
    emitted = []
    for run in ("a", "b"):
        bundle = run_scenario(back, pipelines=("sojourn",))
        paths = emit(bundle, fmt="both", out_dir=str(tmp_path / run))
        emitted.append([open(p, "rb").read() for p in paths])
    cell_records = [r for r in bundle.records if r.postselection == "cell"]
    assert sorted((r.method, r.order) for r in cell_records) == [
        ("sojourn", 1), ("sojourn", 2)]
    assert all(np.isfinite(r.value) for r in cell_records)
    assert emitted[0] == emitted[1]


@pytest.fixture()
def well_cell_config(tmp_path):
    sc = replace(catalog()["well_halves"], postselection="position_cell",
                 cell_index=110)
    path = tmp_path / "well_cell.cfg"
    path.write_text(format_config(scenario_to_config(sc)))
    return str(path)


def test_cli_position_cell_validates_and_runs(well_cell_config, tmp_path, capsys):
    assert cli.main(["validate", "--config", well_cell_config]) == 0
    out = tmp_path / "out"
    code = cli.main(["run", "--config", well_cell_config,
                     "--out-dir", str(out), "--format", "both"])
    assert code == 0
    rows = [line.split(",") for line in (out / "well_halves.csv").read_text().splitlines()]
    assert {r[1] for r in rows if r[2] == "cell"} == {
        "sojourn", "clock_real_potential", "clock_imaginary_potential", "clock_larmor"}
    records = json.loads((out / "well_halves.json").read_text())["records"]
    assert sum(r["postselection"] == "cell" for r in records) == 5


def test_config_window_reaches_the_operator_and_the_clock_runs(tmp_path, monkeypatch, capsys):
    # a config file's window is the one the sojourn operator is built over,
    # once, and the one the clocks' coupled system evolves over
    cfg = scenario_to_config(catalog()["well_halves"])
    cfg["window.t_stop"] = "18.0"
    path = tmp_path / "window.cfg"
    path.write_text(format_config(cfg))
    calls = []

    def recording_sojourn_matrix(region, ham, window):
        calls.append(("sojourn_matrix", window))
        return sojourn.sojourn_matrix(region, ham, window)

    def recording_coupled_system(*args):
        coupled = dynamics.CoupledSystem(*args)
        calls.append(("CoupledSystem", coupled.window))
        return coupled

    monkeypatch.setattr(scenarios, "sojourn_matrix", recording_sojourn_matrix)
    monkeypatch.setattr(scenarios, "CoupledSystem", recording_coupled_system)
    assert cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    window = (0.0, 18.0)
    assert calls == [("sojourn_matrix", window), ("CoupledSystem", window)]


def test_clock_block_holds_no_unread_column(monkeypatch):
    # the pipeline serves exactly the keys its readouts read: every served
    # key is read, off one coupled system, and nothing outside them
    served, systems, read_keys = [], [], []
    serve, read = dynamics.CoupledSystem.serve, dynamics.CoupledSystem.read

    def recording_serve(coupled, shifts):
        if not served:
            served.extend(complex(u) for u in shifts)
        return serve(coupled, shifts)

    def recording_read(coupled, shifts):
        systems.append(coupled)
        read_keys.extend(complex(u) for u in shifts)
        return read(coupled, shifts)

    monkeypatch.setattr(dynamics.CoupledSystem, "serve", recording_serve)
    monkeypatch.setattr(dynamics.CoupledSystem, "read", recording_read)
    run_scenario(catalog()["barrier_dwell"], ("clocks",))
    assert len(systems) == 4 and all(c is systems[0] for c in systems)
    assert len(set(served)) == 12
    assert set(read_keys) == set(served)


def test_config_has_no_time_step():
    # the clocks evolve exactly, so a config that still sets numerics.dt is
    # refused like any other unknown key
    cfg = scenario_to_config(catalog()["well_halves"])
    assert not any(key.startswith("numerics.") for key in cfg)
    cfg["numerics.dt"] = "0.05"
    with pytest.raises(ValidationError, match="unknown config key 'numerics.dt'"):
        scenario_from_config(cfg)


def test_cli_compare_position_cell_agrees(well_cell_config, capsys):
    assert cli.main(["compare", "--config", well_cell_config]) == 0


@pytest.mark.parametrize("name", ["barrier_dwell", "barrier_farside"])
def test_real_and_larmor_clocks_match_sojourn_on_the_barriers(name):
    # with exact evolution, the central-difference clocks agree with the
    # sojourn weak values to extrapolation and rounding error
    bundle = run_scenario(catalog()[name], pipelines=("sojourn", "clocks"))
    ref = {r.postselection: r.value for r in bundle.records
           if r.method == "sojourn" and r.order == 1}
    clocks_read = [r for r in bundle.records
                   if r.method in ("clock_real_potential", "clock_larmor")]
    assert len(clocks_read) == 6
    for rec in clocks_read:
        assert abs(rec.value - ref[rec.postselection]) <= 1e-10 * abs(ref[rec.postselection])


@pytest.mark.parametrize("name", list(catalog()))
def test_every_clock_and_meter_record_meets_sojourn_within_its_residual(name):
    # the three routes agree to each record's own residual, far inside the
    # emitted 1% tolerance: a propagator error of 1e-3 would show here
    bundle = run_scenario(catalog()[name], pipelines=("sojourn", "clocks", "meter"))
    ref = {(r.postselection, r.order): r.value for r in bundle.records
           if r.method == "sojourn"}
    routes = [r for r in bundle.records if r.method.startswith("clock_") or r.method == "meter"]
    assert {r.method for r in routes} == {
        "clock_real_potential", "clock_imaginary_potential", "clock_larmor",
        "clock_imaginary_norm", "meter"}
    for rec in routes:
        want = ref[(rec.postselection, rec.order)]
        assert abs(rec.value - want) <= max(rec.residual, 1e-9 * abs(want)), rec


def test_double_barrier_meets_sojourn_through_all_three_pipelines(monkeypatch):
    # the resonant double barrier from its checked-in config: every clock
    # and meter record within the gate's max(1% of sojourn, its residual),
    # both sum rules at 1e-8, off one node block of 12 nodes x 1003 terms
    blocks = []
    evolve_shifted = dynamics.evolve_shifted
    monkeypatch.setattr(dynamics, "evolve_shifted",
                        lambda *args: blocks.append(evolve_shifted(*args)) or blocks[-1])
    sc = scenario_from_config(parse_config(DOUBLE_BARRIER.read_text()))
    bundle = run_scenario(sc, pipelines=("sojourn", "clocks", "meter"))
    assert [(block.shape[1], terms) for block, terms in blocks] == [(12, 1003)]
    ref = {(r.postselection, r.order): r.value for r in bundle.records
           if r.method == "sojourn"}
    routes = [r for r in bundle.records if r.method.startswith("clock_") or r.method == "meter"]
    assert {r.method for r in routes} == {
        "clock_real_potential", "clock_imaginary_potential", "clock_larmor",
        "clock_imaginary_norm", "meter"}
    for rec in routes:
        want = ref[(rec.postselection, rec.order)]
        assert abs(rec.value - want) <= max(0.01 * abs(want), rec.residual), rec
    sums = [r for r in bundle.records if r.method == "sum_rule"]
    assert len(sums) == 2 and all(abs(r.value) <= 1e-8 for r in sums)


@pytest.mark.parametrize("offset, flagged", [
    (5e-10, False), (2e-9, True), (-5e-10, False), (-2e-9, True)])
def test_dwell_flagged_only_beyond_rounding_margin(monkeypatch, offset, flagged):
    sc = catalog()["well_halves"]
    edge = sc.duration() if offset > 0 else 0.0
    monkeypatch.setattr(scenarios, "dwell_time", lambda op, psi: edge + offset)
    bundle = run_scenario(sc, pipelines=("sojourn",))
    [rec] = [r for r in bundle.records if r.postselection == "none"]
    assert (rec.flags == "out_of_range") == flagged
