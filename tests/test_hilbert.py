import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaktime.errors import (
    DegeneratePostselectionError,
    EmptyRegionError,
    ParameterError,
    StructureError,
)
import oracle
from weaktime.hilbert import (
    FactorSpace,
    Grid,
    QuantumState,
    Region,
    basis_cell_state,
    check_time,
    checked_overlap,
    fourier_momentum_values,
    gaussian_packet,
    gaussian_pointer,
    inner_product,
    position_space,
    spin_space,
)


def test_grid_spacing_and_points():
    grid = Grid(5, 0.0, 4.0)
    assert grid.dx == 1.0
    np.testing.assert_allclose(grid.points, [0.0, 1.0, 2.0, 3.0, 4.0])


def test_grid_rejects_degenerate():
    with pytest.raises(ParameterError):
        Grid(2, 0.0, 1.0)
    with pytest.raises(ParameterError):
        Grid(8, 1.0, 1.0)
    # an infinite endpoint passes x_max > x_min but gives dx = inf
    for x_min, x_max in [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan)]:
        with pytest.raises(ParameterError, match="endpoints must be finite"):
            Grid(64, x_min, x_max)


def test_region_half_open_rule():
    grid = Grid(11, 0.0, 10.0)
    # x_hi itself is excluded, so adjacent regions tile without overlap
    left = Region(0.0, 5.0).indices(grid)
    right = Region(5.0, 10.0 + grid.dx).indices(grid)
    assert set(left) | set(right) == set(range(11))
    assert set(left) & set(right) == set()


def test_empty_region_raises():
    grid = Grid(11, 0.0, 10.0)
    with pytest.raises(EmptyRegionError):
        Region(4.2, 4.8).indices(grid)
    with pytest.raises(ParameterError, match="x_lo < x_hi"):
        Region(4.0, 4.0)


def test_state_shape_mismatch():
    grid = Grid(8, 0.0, 7.0)
    with pytest.raises(StructureError):
        QuantumState(position_space(grid), np.zeros(7))


def test_state_lives_on_one_factor():
    grid = Grid(8, 0.0, 7.0)
    with pytest.raises(StructureError):
        QuantumState((position_space(grid),), np.ones(8))
    with pytest.raises(StructureError):
        FactorSpace("pointer", grid)
    with pytest.raises(StructureError, match="requires a grid"):
        FactorSpace("position")
    with pytest.raises(StructureError, match="carries no grid"):
        FactorSpace("spin", grid)
    spin = QuantumState(spin_space(), np.ones(2))
    assert spin.cell_weight == 1.0
    assert spin.norm() == pytest.approx(np.sqrt(2.0))


def test_state_amplitudes_immutable():
    grid = Grid(8, 0.0, 7.0)
    state = QuantumState(position_space(grid), np.ones(8))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_inner_product_uses_cell_weight():
    grid = Grid(5, 0.0, 2.0)  # dx = 0.5
    psi = QuantumState(position_space(grid), np.ones(5))
    assert inner_product(psi, psi) == pytest.approx(5 * 0.5)
    assert psi.norm() == pytest.approx(np.sqrt(2.5))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_inner_product_conjugate_symmetry(seed):
    rng = np.random.default_rng(seed)
    grid = Grid(9, 0.0, 4.0)
    space = position_space(grid)
    a = QuantumState(space, rng.normal(size=9) + 1j * rng.normal(size=9))
    b = QuantumState(space, rng.normal(size=9) + 1j * rng.normal(size=9))
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_normalized_state_has_unit_norm(seed):
    rng = np.random.default_rng(seed)
    grid = Grid(13, -3.0, 3.0)
    amps = rng.normal(size=13) + 1j * rng.normal(size=13)
    state = QuantumState(position_space(grid), amps).normalized()
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_zero_state_cannot_be_normalized():
    with pytest.raises(ParameterError, match="zero state"):
        QuantumState(spin_space(), np.zeros(2)).normalized()


def test_inner_product_refuses_states_on_different_spaces():
    grid = Grid(8, 0.0, 7.0)
    with pytest.raises(StructureError, match="different spaces"):
        inner_product(QuantumState(position_space(grid), np.ones(8)),
                      QuantumState(position_space(Grid(8, 0.0, 14.0)), np.ones(8)))


def test_gaussian_packet_normalization_and_center():
    grid = Grid(256, 0.0, 100.0)
    psi = gaussian_packet(grid, 50.0, 4.0, 0.7)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    x = grid.points
    density = np.abs(psi.amplitudes) ** 2 * grid.dx
    assert np.sum(x * density) == pytest.approx(50.0, abs=1e-6)


def test_gaussian_packet_unresolvable_sigma():
    grid = Grid(16, 0.0, 15.0)
    with pytest.raises(ParameterError):
        gaussian_packet(grid, 7.5, 1.0, 0.0)  # sigma <= 3 dx


def test_gaussian_packet_refuses_a_nan_sigma():
    with pytest.raises(ParameterError, match="sigma must be positive"):
        gaussian_packet(Grid(16, 0.0, 15.0), 7.5, np.nan, 0.0)


def test_checked_overlap_refuses_a_nan_overlap():
    # a NaN overlap compares false with the floor, so the guard must fail it
    grid = Grid(16, 0.0, 15.0)
    chi = basis_cell_state(grid, 3, time=0.0)
    bad = QuantumState(position_space(grid), np.full(16, np.nan + 0j))
    with pytest.raises(DegeneratePostselectionError):
        checked_overlap(chi, bad)
    with pytest.raises(DegeneratePostselectionError):
        checked_overlap(chi, chi, complex(np.nan))


def test_check_time_refuses_a_nan_representation_time():
    # every readout's time check used to accept a state stamped t = NaN
    grid = Grid(16, 0.0, 15.0)
    state = QuantumState(position_space(grid), np.ones(16), float("nan"))
    with pytest.raises(ParameterError, match="not referenced to the window end"):
        check_time(state, 0.0, "window end")


def test_gaussian_packet_boundary_warning():
    grid = Grid(128, 0.0, 50.0)
    with pytest.warns(UserWarning):
        gaussian_packet(grid, 5.0, 4.0, 0.0)


def test_fourier_momentum_generates_translation():
    # the meter's mode factorization: exp(-i p a), applied mode by mode
    # through the FFT, translates the pointer profile by a
    grid = Grid(64, -8.0, 8.0 - 16.0 / 64)
    phi = gaussian_pointer(grid, 1.0)
    shift = 4 * grid.dx
    phase = np.exp(-1j * shift * fourier_momentum_values(grid))
    shifted = np.fft.ifft(phase * np.fft.fft(phi.amplitudes))
    np.testing.assert_allclose(
        shifted, np.roll(phi.amplitudes, 4), atol=1e-10
    )


def test_fourier_momentum_values_match_operator_spectrum():
    grid = Grid(32, -4.0, 4.0 - 8.0 / 32)
    p = oracle.dft_momentum(grid.n_points, grid.dx)
    vals = np.sort(np.linalg.eigvalsh(p))
    np.testing.assert_allclose(vals, np.sort(fourier_momentum_values(grid)), atol=1e-10)


def test_basis_cell_state_unit_norm():
    grid = Grid(10, 0.0, 4.5)
    cell = basis_cell_state(grid, 3, time=1.5)
    assert cell.norm() == pytest.approx(1.0)
    assert cell.representation_time == 1.5
    with pytest.raises(ParameterError):
        basis_cell_state(grid, 10, time=0.0)
    # a postselector's instant is always the caller's choice, never a default
    with pytest.raises(TypeError):
        basis_cell_state(grid, 3)
