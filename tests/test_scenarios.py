import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import oracle
from weaktime import cli, clocks, meter, scenarios, sojourn
from weaktime.errors import ParameterError, ValidationError
from weaktime.hilbert import Grid, QuantumState, Region, inner_product, position_space
from weaktime.scenarios import (
    PacketSpec,
    PotentialSpec,
    ResultBundle,
    Scenario,
    bundle_from_dict,
    bundle_to_csv,
    bundle_to_dict,
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
        with pytest.raises(ParameterError):
            PotentialSpec(kind="double_barrier", v0=3.0, x_lo=5.0, x_hi=7.0,
                          x2_lo=12.0, x2_hi=x2_hi)


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
    with pytest.raises(ParameterError, match="x_hi <= x2_lo"):
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


# -- validation ---------------------------------------------------------------


def test_validate_catalog_scenarios_clean():
    for sc in catalog().values():
        assert validate_scenario(sc) == []


def test_validate_solves_the_free_hamiltonian_once_per_grid(monkeypatch):
    # two scenarios on one grid (a grid no other test uses, so the cache
    # starts cold) share one free eigensystem in their edge pre-runs
    base = catalog()["barrier_dwell"]
    grid = Grid(509, base.grid.x_min, base.grid.x_max)
    pair = [replace(base, grid=grid),
            replace(catalog()["barrier_farside"], grid=grid)]
    calls = []
    solve = scipy.linalg.eigh_tridiagonal

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
    for sc in pair:
        assert validate_scenario(sc) == []
    assert len(calls) == 1


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


def test_validate_warns_on_unreachable_region():
    grid = Grid(256, 0.0, 160.0)
    sc = Scenario(
        name="slow", grid=grid, potential=PotentialSpec(),
        packet=PacketSpec(x0=50.0, sigma=6.0, k0=0.2),
        window=(0.0, 10.0),
        region=Region(120.0, 140.0),
    )
    notes = validate_scenario(sc)
    assert any("too short" in n for n in notes)


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
    hmat = sc.hamiltonian().dense_matrix()
    psi = oracle.evolve_exact(hmat, barrier_ctx.psi0.amplitudes, sc.duration())
    x = sc.grid.points
    p_t_ref = float(np.sum(np.abs(psi[x >= 112.0]) ** 2) * sc.grid.dx)
    assert abs(barrier_ctx.p_t) ** 2 == pytest.approx(p_t_ref, abs=1e-6)


def test_split_requires_cleared_barrier(barrier_ctx):
    sc = barrier_ctx.scenario
    hmat = sc.hamiltonian().dense_matrix()
    early = QuantumState(
        barrier_ctx.psi0.space,
        oracle.evolve_exact(hmat, barrier_ctx.psi0.amplitudes, 26.0),
        26.0,
    )
    with pytest.raises(ValidationError, match="occupancy"):
        postselect_transmitted_reflected(early, sc.potential.interval)


def test_postselection_family_is_orthonormal(barrier_ctx):
    labels, states = postselection_family(
        barrier_ctx.psi_final, barrier_ctx.scenario.potential.interval
    )
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


def test_run_scenario_well_reports_half_window(well_ctx):
    bundle = run_scenario(well_ctx.scenario, pipelines=("sojourn",))
    rec = [r for r in bundle.records if r.method == "sojourn"][0]
    assert rec.value == pytest.approx(0.5 * well_ctx.scenario.duration(), abs=1e-8)
    assert bundle.provenance["config_hash"]


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
    # one block of 12 distinct keys: the unperturbed system, +-v for three
    # phase strengths, +-omega/2 for the one Larmor strength the phase ladder
    # does not already cover (9 real), and three absorbers shared with the
    # norm clock
    blocks = []
    evolve_shifted = clocks.evolve_shifted

    def counting_evolve_shifted(ham, a, shifts, v, duration):
        blocks.append(list(shifts))
        return evolve_shifted(ham, a, shifts, v, duration)

    monkeypatch.setattr(clocks, "evolve_shifted", counting_evolve_shifted)
    run_scenario(catalog()["well_halves"], pipelines=("clocks",))
    assert len(blocks) == 1
    [keys] = blocks
    assert len(keys) == len(set(keys)) == 12
    assert sum(u.imag == 0.0 for u in keys) == 9
    assert all(u.real == 0.0 and u.imag < 0.0 for u in keys if u.imag)


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
        coeffs = np.abs(np.fft.fft(run.pointer_initial.amplitudes))
        dropped = np.sort(coeffs)[: coeffs.size - run.modes_kept]
        assert np.all(dropped <= meter.DEFAULT_MODE_CUTOFF * coeffs.max())


def test_meter_pipeline_well_reports_half_window(well_meter):
    bundle, _ = well_meter
    rec = [r for r in bundle.records if r.method == "meter"][0]
    half = 0.5 * catalog()["well_halves"].duration()
    assert rec.value == pytest.approx(half, abs=1e-9)


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


def test_cli_compare_agrees_on_well(well_config, capsys):
    code = cli.main(["compare", "--config", well_config])
    out = capsys.readouterr().out
    assert code == 0
    assert "agreement: ok" in out


def test_cli_sweep_writes_every_clock_sweep(well_config, tmp_path, capsys):
    out = tmp_path / "sweeps"
    code = cli.main(["sweep", "--config", well_config, "--out-dir", str(out)])
    assert code == 0
    sweeps = json.loads((out / "well_halves_sweeps.json").read_text())
    assert set(sweeps) == {"real_potential", "imaginary_potential", "larmor",
                           "imaginary_potential_norm"}
    half = 0.5 * catalog()["well_halves"].duration()
    assert sweeps["larmor"]["none"]["value"][0] == pytest.approx(half, rel=0.01)


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
    # once, and the one the clock table evolves over
    cfg = scenario_to_config(catalog()["well_halves"])
    cfg["window.t_stop"] = "18.0"
    path = tmp_path / "window.cfg"
    path.write_text(format_config(cfg))
    calls = []

    def recording_sojourn_matrix(region, ham, window):
        calls.append(("sojourn_matrix", window))
        return sojourn.sojourn_matrix(region, ham, window)

    def recording_clock_runs(*args):
        runs = clocks.ClockRuns(*args)
        calls.append(("ClockRuns", runs.window))
        return runs

    monkeypatch.setattr(scenarios, "sojourn_matrix", recording_sojourn_matrix)
    monkeypatch.setattr(scenarios, "ClockRuns", recording_clock_runs)
    assert cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    window = (0.0, 18.0)
    assert calls == [("sojourn_matrix", window), ("ClockRuns", window)]


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


@pytest.mark.parametrize("offset, flagged", [
    (5e-10, False), (2e-9, True), (-5e-10, False), (-2e-9, True)])
def test_dwell_flagged_only_beyond_rounding_margin(monkeypatch, offset, flagged):
    sc = catalog()["well_halves"]
    edge = sc.duration() if offset > 0 else 0.0
    monkeypatch.setattr(scenarios, "dwell_time", lambda op, psi: edge + offset)
    bundle = run_scenario(sc, pipelines=("sojourn",))
    [rec] = [r for r in bundle.records if r.postselection == "none"]
    assert (rec.flags == "out_of_range") == flagged
