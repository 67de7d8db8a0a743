"""Manufacture against its step-by-step reference, bitwise.

A device's coordinates come from one cached read-only grid per
geometry, and its systematic trend is evaluated over that grid's cached
design matrix.  These tests rebuild every device the long way — fresh
coordinate vectors, ``Polynomial2D`` sums and a meshgrid evaluation —
and pin the two together: the same coordinates, trend coefficients,
process offsets, slopes and noise stream, over several seeds and
geometries, one device at a time and through ``PopulationSpec.build``.
"""

import hashlib

import numpy as np
import pytest

from repro._rng import ensure_rng, spawn
from repro.fleet.fleet import PopulationSpec
from repro.puf import ROArray, ROArrayParams
from repro.puf.variation import Polynomial2D

GEOMETRIES = [(4, 10), (8, 16), (1, 5), (3, 1), (16, 16)]


def reference_surface(rows, cols, amplitude, gen):
    """The systematic trend built from ``Polynomial2D`` objects."""
    span_x = max(cols - 1, 1)
    span_y = max(rows - 1, 1)
    direction = gen.normal(size=2)
    direction /= np.linalg.norm(direction)
    linear = Polynomial2D(1, [0.0, direction[0] / span_x,
                              direction[1] / span_y])
    bow = gen.normal(scale=0.25, size=3)
    quad = Polynomial2D(2, [0.0, 0.0, 0.0, bow[0] / span_x ** 2,
                            bow[1] / (span_x * span_y),
                            bow[2] / span_y ** 2])
    surface = linear + quad
    xs, ys = np.meshgrid(np.arange(cols, dtype=float),
                         np.arange(rows, dtype=float))
    values = surface(xs, ys)
    peak = np.max(np.abs(values - values.mean()))
    if peak == 0:
        return Polynomial2D.zero(2)
    return Polynomial2D(2, surface.coefficients * (amplitude / peak))


def reference_fingerprint(params, rng):
    """Digest of a device manufactured step by step from *rng*."""
    static, noise = ensure_rng(rng).spawn(2)
    cells = np.arange(params.n)
    x = (cells % params.cols).astype(float)
    y = (cells // params.cols).astype(float)
    surface = reference_surface(params.rows, params.cols,
                                params.systematic_amplitude, static)
    process = static.normal(scale=params.sigma_process, size=params.n)
    slopes = static.normal(loc=params.temp_slope_mean,
                           scale=params.temp_slope_sigma, size=params.n)
    return digest(x, y, surface.coefficients, process, slopes,
                  noise.normal(scale=params.sigma_noise,
                               size=(3, params.n)))


def fingerprint(array):
    return digest(array.x, array.y, array.systematic.coefficients,
                  array.process_variation, array._slopes,
                  array.measurement_noise(3))


def digest(*arrays):
    h = hashlib.sha256()
    for array in arrays:
        array = np.asarray(array)
        h.update(str((array.dtype, array.shape)).encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("rows,cols", GEOMETRIES)
def test_devices_equal_the_reference(rows, cols):
    params = ROArrayParams(rows=rows, cols=cols)
    for seed in range(4):
        assert fingerprint(ROArray(params, rng=seed)) \
            == reference_fingerprint(params, seed)


@pytest.mark.parametrize("rows,cols", GEOMETRIES[:3])
def test_population_build_equals_the_reference(rows, cols):
    params = ROArrayParams(rows=rows, cols=cols)
    for seed in (0, 7919):
        spec = PopulationSpec(params, 5, seed)
        got = [fingerprint(array) for array in spec.build()[0]]
        # A second build manufactures the same devices again.
        assert got == [fingerprint(array) for array in spec.build()[0]]
        manufacture, _ = spawn(seed, 2)
        assert got == [reference_fingerprint(params, child)
                       for child in manufacture.spawn(5)]


def test_coordinates_are_shared_and_read_only():
    params = ROArrayParams(rows=4, cols=10)
    first, second = ROArray(params, rng=1), ROArray(params, rng=2)
    assert first.x is second.x and first.y is second.y
    assert not first.x.flags.writeable and not first.y.flags.writeable
    with pytest.raises(ValueError):
        first.x[0] = 1.0
