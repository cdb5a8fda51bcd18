"""The alpha^2 grid kernel against the one-point path, bit for bit."""

import dataclasses
import math

import numpy as np
import pytest

from cvdisc import (
    CoefficientProfile,
    DomainError,
    EnsembleSpec,
    coefficient_grid,
    coefficients,
    info_columns,
    info_report,
    ir_columns,
    ir_report,
)
from cvdisc.analytic3 import KINK_PERIOD
from cvdisc.ensemble import GRID_BLOCK, MAX_ALPHA_SQ, _fold

# Every field of the record, and every property that has one value per row.
RECORD_FIELDS = (*(field.name for field in dataclasses.fields(CoefficientProfile)),
                 "failure_dim", "degenerate")


def grid_values(n):
    """Unsorted and sorted alpha^2 values: 0, a seeded draw, dense runs that
    share a Poisson mode (so folds split at GRID_BLOCK), [40, 160], two far
    points, and mode edges m and the double just below m."""
    rng = np.random.default_rng([20, n])
    edges = np.array([1.0, 6.0, 41.0, 1000.0])
    return np.concatenate([
        [0.0],
        edges,
        np.nextafter(edges, 0.0),
        rng.uniform(0.0, 30.0, 12),
        np.linspace(0.50, 0.55, 40),
        np.linspace(0.0, 0.99, 25),
        np.linspace(5.0, 5.99, 25),
        np.linspace(40.0, 160.0, 9),
        [1e4, 1e6],
    ])


def same_bits(x, y):
    """Equal bit patterns, NaN matching NaN whatever its payload."""
    x, y = np.asarray(x), np.asarray(y)
    if x.dtype.kind != "f":
        return x.shape == y.shape and np.array_equal(x, y)
    nan_x, nan_y = np.isnan(x), np.isnan(y)
    return (x.shape == y.shape and np.array_equal(nan_x, nan_y)
            and np.array_equal(np.where(nan_x, 0.0, x).view(np.uint64),
                               np.where(nan_y, 0.0, y).view(np.uint64)))


@pytest.mark.parametrize("n", [2, 3, 6, 16, 64, 1024])
def test_grid_rows_equal_the_one_point_path(n):
    values = grid_values(n)
    blocks = list(coefficient_grid(n, values))
    assert all(len(block.alpha_sq) <= max(1, GRID_BLOCK // n) for block in blocks)
    rows = []
    for block in blocks:
        assert isinstance(block, CoefficientProfile) and block.n_states == n
        ir_col, info_col = vars(ir_columns(block)), vars(info_columns(block))
        rows += [(block, r, ir_col, info_col) for r in range(len(block.alpha_sq))]
    assert len(rows) == len(values)
    for (block, r, ir_col, info_col), a2 in zip(rows, values):
        where = f"n={n} alpha_sq={a2!r}"
        assert block.alpha_sq[r] == a2, where
        spec = EnsembleSpec(n, float(a2))
        profile = coefficients(spec)
        for field in RECORD_FIELDS:
            assert same_bits(getattr(block, field)[r], getattr(profile, field)), (where, field)
        for name, value in vars(ir_report(spec)).items():
            assert same_bits(np.broadcast_to(ir_col[name], block.p_s.shape)[r], value), \
                (where, name)
        for name, value in vars(info_report(spec)).items():
            assert same_bits(info_col[name][r], value), (where, name)


@pytest.mark.parametrize("alpha_sq", [0.0, 1.0, 16.0, 45.0])
def test_views_are_python_scalars_for_a_point_and_columns_for_a_block(alpha_sq):
    # The vacuum, a non-empty failure branch and both empty-branch causes.
    spec = EnsembleSpec(3, alpha_sq)
    point = {**vars(ir_report(spec)), **vars(info_report(spec))}
    assert type(point.pop("full_separation")) is bool
    assert {name: type(value) for name, value in point.items()} == dict.fromkeys(point, float)
    (block,) = coefficient_grid(3, [alpha_sq, 1.0])
    columns = {**vars(ir_columns(block)), **vars(info_columns(block))}
    assert columns.pop("confidence_success") == 1.0
    assert all(type(value) is np.ndarray and value.shape == (2,)
               for value in columns.values()), columns


def wide_fold(a2, n, mode):
    """_fold's running products over a window twice as wide as _fold's."""
    half = 2 * (n + math.ceil(12.0 * math.sqrt(mode + 1)) + 40)
    low = max(0, mode - half) // n * n
    high = -(-(mode + half + 1) // n) * n
    up = np.cumprod(a2 / np.arange(mode + 1, high, dtype=np.longdouble))
    down = np.cumprod(np.arange(mode, low, -1, dtype=np.longdouble) / a2)
    weights = np.concatenate((down[::-1], [np.longdouble(1.0)], up))
    sums = weights.reshape(-1, n).sum(axis=0)
    return (sums / sums.sum()).astype(float)


@pytest.mark.parametrize("n", [2, 3, 8, 64, 1024])
def test_fold_window_holds_every_alpha_sq_of_its_mode(n):
    # One window per Poisson mode serves the whole of [mode, mode + 1):
    # doubling it changes no bit at either end of the interval.
    for mode in (0, 1, 5, 40, 1000, 10 ** 6):
        for a2 in (mode, mode + 0.5, np.nextafter(mode + 1.0, 0.0)):
            a2 = np.longdouble(a2)
            assert math.floor(a2) == mode
            assert same_bits(_fold(a2, n, mode), wide_fold(a2, n, mode)), (n, float(a2))


def test_grid_p_s_on_a_dense_draw():
    # p_s = N * c_min^2 squares with libm pow, as the one-point path's
    # float ** 2 does; x * x differs from it on ~0.1% of doubles, which only
    # a few thousand points reliably reach.
    values = np.random.default_rng(21).uniform(0.0, 12.0, 3000)
    p_s = np.concatenate([block.p_s for block in coefficient_grid(5, values)])
    expect = [coefficients(EnsembleSpec(5, float(a2))).p_s for a2 in values]
    assert same_bits(p_s, expect)


def test_grid_flags_at_the_vacuum_and_the_band_edge():
    # grid_values reach no band edge: 6e-8 past the N = 3 kink a c^2 gap
    # sits within a decade of the degeneracy band, 1e-6 past it not, and the
    # grid must classify both as the one-point path does.
    values = [0.0, KINK_PERIOD, KINK_PERIOD + 6e-8, KINK_PERIOD + 1e-6, 1.0]
    (block,) = coefficient_grid(3, values)
    assert block.degenerate.tolist() == [True, False, False, False, False]
    for r, a2 in enumerate(values):
        profile = coefficients(EnsembleSpec(3, a2))
        for field in ("degenerate", "failure_dim"):
            assert getattr(block, field)[r] == getattr(profile, field), (a2, field)


def test_grid_covers_empty_branches():
    # Both causes of an empty failure branch appear on the grid at N = 3.
    (block,) = coefficient_grid(3, [1.0, 16.0, 45.0])
    assert block.full_separation.tolist() == [False, True, True]
    assert not np.isnan(ir_columns(block).p_c_med_beta[0])
    assert ir_columns(block).p_c_ir[1:].tolist() == [1.0, 1.0]


@pytest.mark.parametrize("n", [2, 8])
def test_p_s_stays_at_most_one(n):
    # N * c_min^2 rounds to 1 + 2^-52 on full-separation rows (from alpha^2
    # ~ 18.7 at N = 2 and ~ 130 at N = 8); unclamped, i_ud exceeded log2 N
    # and gain turned negative there.
    for block in coefficient_grid(n, np.linspace(0.0, 400.0, 40001)):
        assert np.all(block.p_s <= 1.0)
        assert np.all(info_columns(block).gain[block.full_separation] >= 0.0)
    assert info_report(EnsembleSpec(n, 50.0 * n)).gain >= 0.0


def test_empty_grid_yields_nothing():
    assert list(coefficient_grid(3, [])) == []


NOT_NUMBERS = [[True], [np.True_], ["1.0"], [1 + 2j], [object()], [[1.0], 2.0], [None],
               np.array([1.0 + 0j])]


@pytest.mark.parametrize("values", [[1.0, -0.5], [np.nan], [np.inf], [MAX_ALPHA_SQ * 2],
                                    [[1.0, 2.0]], *NOT_NUMBERS])
def test_grid_rejects_values_spec_rejects(values):
    # A cell that is not a number is named as one, as EnsembleSpec names it.
    match = "^alpha_sq must be a real number" if any(values is v for v in NOT_NUMBERS) else None
    with pytest.raises(DomainError, match=match):
        next(coefficient_grid(3, values))


def test_grid_rejects_bad_n():
    with pytest.raises(DomainError):
        next(coefficient_grid(1, [1.0]))
