"""Per-sample norms and maxima are column chains (seminorms._row_norms,
seminorms._row_maxima) and matrix_exp takes its infinity norms as row sums:
each must give the bits of the numpy call it replaces, down to the
optimizer's whole descent."""

import numpy as np
import pytest

from affsob import (AnalyticField, OptimizerOptions, QuadratureBundle,
                    RadialSpec, SmoothnessParams, matrix_exp, minimize)
from affsob import seminorms
from affsob.seminorms import _row_maxima, _row_norms


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("columns", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("rows", [1, 2, 9216])
def test_row_norms_are_numpy_norms_bit_for_bit(columns, rows):
    rng = np.random.default_rng(10 * columns + rows)
    v = rng.standard_normal((rows, columns)) * np.exp(
        rng.uniform(-20.0, 20.0, (rows, columns)))
    v[0] = 0.0
    _assert_same_bits(_row_norms(v), np.linalg.norm(v, axis=1))


@pytest.mark.parametrize("columns", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_row_norms_agree_where_squares_underflow_or_overflow(columns, scale):
    rng = np.random.default_rng(columns)
    v = rng.uniform(0.1, 10.0, (64, columns)) * scale
    v[::3] *= -1.0
    with np.errstate(over="ignore", under="ignore"):
        _assert_same_bits(_row_norms(v), np.linalg.norm(v, axis=1))


@pytest.mark.parametrize("columns", [1, 2, 3, 4, 5])
def test_row_norms_agree_on_infinities_and_nans(columns):
    rng = np.random.default_rng(columns)
    v = rng.standard_normal((6, columns))
    v[1, -1] = np.inf
    v[2, 0] = -np.inf
    v[3, -1] = np.nan
    v[4, :] = np.nan
    v[5, 0], v[5, -1] = np.inf, np.nan
    got, want = _row_norms(v), np.linalg.norm(v, axis=1)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.isnan(got), np.isnan(want))


@pytest.mark.parametrize("columns", [1, 2, 3, 4])
def test_row_maxima_are_numpy_maxima(columns):
    rng = np.random.default_rng(columns)
    a = np.abs(rng.standard_normal((7281, columns)))
    a[::7] = 0.0
    a[5, 0] = np.nan
    a[9, -1] = np.nan
    a[11] = np.nan
    a[13, 0] = a[13, -1] = np.inf
    got, want = _row_maxima(a), a.max(axis=1)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    _assert_same_bits(got[finite], want[finite])


def _reference_matrix_exp(a):
    """matrix_exp with its infinity norms taken by np.linalg.norm."""
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.5))))
    b = a / 2.0 ** squarings
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 40):
        term = term @ b / k
        result = result + term
        if np.linalg.norm(term, ord=np.inf) < 1e-18:
            break
    for _ in range(squarings):
        result = result @ result
    return result


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("scale", [1e-12, 1e-3, 1.0, 30.0, 1e3, 1e5])
def test_matrix_exp_keeps_the_bits_of_its_norm_wrapper(n, scale):
    # from scale 1e3 on exp overflows, as on _descend's rejected trials
    rng = np.random.default_rng(n)
    for _ in range(20):
        a = scale * rng.standard_normal((n, n))
        a -= np.trace(a) / n * np.eye(n)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = matrix_exp(a), _reference_matrix_exp(a)
        assert np.array_equal(got, want, equal_nan=True)
    if scale >= 1e3:
        assert not np.all(np.isfinite(got))


def _aniso3():
    shear = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.2], [0.0, 0.0, 1.0]])
    return AnalyticField.gaussian(3).affine_compose(
        np.diag([1.5, 1.0, 1.0 / 1.5]) @ shear)


def _descents(monkeypatch, field, params, quads):
    """minimize with the column-sum norms, then with np.linalg.norm in
    their place, and the row counts the reference was called with."""
    ours = minimize(field, params, OptimizerOptions(max_iters=20), quads)
    calls = []

    def reference(v):
        calls.append(v.shape)
        return np.linalg.norm(v, axis=1)

    monkeypatch.setattr(seminorms, "_row_norms", reference)
    theirs = minimize(field, params, OptimizerOptions(max_iters=20), quads)
    return ours, theirs, calls


@pytest.mark.parametrize("s,p,dimension", [
    (1.0, 1.5, 2), (1.0, 2.0, 2), (1.0, 3.0, 2),
    (1.0, 1.5, 3), (1.0, 2.0, 3), (1.0, 3.0, 3),
    (0.5, 3.0, 2)])
def test_descent_keeps_the_bits_of_numpy_norms(monkeypatch, family, s, p,
                                               dimension):
    if dimension == 3:
        field = _aniso3()
        quads = QuadratureBundle.default(3, box_nodes=24, sphere_resolution=12)
    else:
        field = family["twobump"]
        quads = QuadratureBundle.default(
            2, box_nodes=36, sphere_resolution=32,
            radial_spec=RadialSpec(panels=20))
    (t, value, trace), (t_ref, value_ref, trace_ref), calls = _descents(
        monkeypatch, field, SmoothnessParams(s, p), quads)
    assert calls and all(shape[1] == dimension for shape in calls)
    assert len(trace) > 2
    _assert_same_bits(t.matrix, t_ref.matrix)
    assert value == value_ref
    assert trace.objectives == trace_ref.objectives
    assert trace.grad_norms == trace_ref.grad_norms
    assert trace.step_sizes == trace_ref.step_sizes
    assert trace.transform_hashes == trace_ref.transform_hashes
    assert trace.terminal_reason == trace_ref.terminal_reason
