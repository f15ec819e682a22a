"""The pure-Python normal distribution function against scipy.special, bit for bit.

``matmean.normal`` ports the Cephes routine that scipy evaluates, so
every p-value must carry the same bits as scipy's.  If the
installed scipy changes its implementation, these tests fail loudly.
"""

import numpy as np
from scipy import special

from matmean.normal import ndtr


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


def test_scalars_of_any_float_type():
    # numpy scalars come in from the engine's arithmetic; the result is a float
    for value in (np.float64(1.5), np.float32(1.5), 1.5, 2):
        assert type(ndtr(value)) is float
        assert _bits(ndtr(value)) == _bits(special.ndtr(float(value)))
