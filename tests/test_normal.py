"""The pure-Python normal tail and quantile against scipy.special, bit for bit.

``matmean.normal`` ports the Cephes routines that scipy evaluates, so
every p-value and cutoff must carry the same bits as scipy's.  If the
installed scipy changes its implementation, these tests fail loudly.
"""

import numpy as np
import pytest
from scipy import special

from matmean.engine import z_quantile
from matmean.normal import ndtr, ndtri


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _assert_bit_identical(port, reference, points):
    mine = np.array([port(v) for v in points.tolist()])
    ref = reference(points)
    differ = np.flatnonzero(_bits(mine) != _bits(ref))
    assert differ.size == 0, (
        f"{differ.size} of {points.size} points differ, first at "
        f"{points[differ[:5]].tolist()}: {mine[differ[:5]].tolist()} "
        f"against {ref[differ[:5]].tolist()}"
    )


def test_ndtr_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(20261018)
    points = np.concatenate([
        rng.normal(0.0, 3.0, 250_000),
        rng.normal(0.0, 0.5, 150_000),
        rng.uniform(-40.0, 40.0, 200_000),
        np.linspace(-40.0, 40.0, 300_001),
        10.0 * rng.standard_cauchy(100_000),
        # branch edges: |a| / sqrt(2) at 1/sqrt(2) and 1, erfc at 8, underflow
        np.nextafter(np.repeat([1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), 37.5, 38.5], 2),
                     np.tile([-np.inf, np.inf], 5)),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.0, -1.0,
         np.sqrt(2.0), -np.sqrt(2.0), 8.0 * np.sqrt(2.0), -8.0 * np.sqrt(2.0)],
    ])
    assert points.size >= 1_000_000
    _assert_bit_identical(ndtr, special.ndtr, points)


def test_ndtri_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(20261019)
    points = np.concatenate([
        rng.uniform(0.0, 1.0, 300_000),
        10.0 ** -rng.uniform(0.0, 300.0, 200_000),
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 200_000),
        # branch edges: exp(-2), 1 - exp(-2) and exp(-32)
        np.nextafter(np.repeat([np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0)], 2),
                     np.tile([-np.inf, np.inf], 3)),
        [0.0, 1.0, -0.0, -0.1, 1.1, -np.inf, np.inf, np.nan, 5e-324, 0.5,
         np.nextafter(1.0, 0.0), np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0)],
    ])
    _assert_bit_identical(ndtri, special.ndtri, points)


@pytest.mark.parametrize("alpha", [0.05, 0.01, 0.001, 0.1])
def test_z_quantile_matches_scipy_bit_for_bit(alpha):
    assert _bits(z_quantile(alpha)) == _bits(special.ndtri(1.0 - alpha))


def test_scalars_of_any_float_type():
    # numpy scalars come in from the engine's arithmetic; the result is a float
    for value in (np.float64(1.5), np.float32(1.5), 1.5, 2):
        assert type(ndtr(value)) is float
        assert _bits(ndtr(value)) == _bits(special.ndtr(float(value)))
    assert type(ndtri(np.float64(0.3))) is float
