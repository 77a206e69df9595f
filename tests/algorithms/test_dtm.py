"""Tests for diffusion tensor model fitting."""

import numpy as np
import pytest

from repro.algorithms.dtm import (
    B0_THRESHOLD,
    GradientTable,
    design_matrix,
    fit_dtm,
    fractional_anisotropy,
    tensor_eigenvalues,
)
from repro.data.neuro import make_gradient_table


def _signals(gtab, diffusivity_matrix, s0=100.0):
    q = np.einsum("ni,ij,nj->n", gtab.bvecs, diffusivity_matrix, gtab.bvecs)
    return s0 * np.exp(-gtab.bvals * q)


@pytest.fixture(scope="module")
def gtab():
    return make_gradient_table(n_volumes=32)


def test_b0s_mask(gtab):
    assert gtab.b0s_mask.sum() >= 2
    assert np.all(gtab.bvals[gtab.b0s_mask] <= B0_THRESHOLD)


def test_gradient_table_validation():
    with pytest.raises(ValueError):
        GradientTable(np.array([0.0, 1000.0]), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        GradientTable(np.array([-1.0]), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        # Non-unit diffusion-weighted directions.
        GradientTable(np.array([1000.0]), np.array([[2.0, 0.0, 0.0]]))


def test_design_matrix_shape(gtab):
    X = design_matrix(gtab)
    assert X.shape == (len(gtab), 7)
    # b0 rows have zero diffusion coefficients and an intercept of 1.
    b0_rows = X[gtab.b0s_mask]
    assert np.allclose(b0_rows[:, :6], 0.0)
    assert np.allclose(b0_rows[:, 6], 1.0)


def test_isotropic_recovery(gtab):
    d = 0.7e-3
    signals = _signals(gtab, np.eye(3) * d)
    data = np.tile(signals, (2, 2, 2, 1))
    evals = fit_dtm(data, gtab)
    assert np.allclose(evals, d, atol=1e-6)
    assert np.allclose(fractional_anisotropy(evals), 0.0, atol=1e-4)


def test_anisotropic_recovery(gtab):
    diffusivities = np.diag([1.7e-3, 0.2e-3, 0.2e-3])
    signals = _signals(gtab, diffusivities)
    data = signals.reshape(1, 1, 1, -1)
    evals = fit_dtm(data, gtab)[0, 0, 0]
    assert evals[0] == pytest.approx(1.7e-3, rel=0.05)
    assert evals[1] == pytest.approx(0.2e-3, rel=0.15)
    fa = fractional_anisotropy(evals[None, :])[0]
    assert 0.75 < fa < 0.95


def test_rotation_changes_eigenvectors_not_eigenvalues(gtab):
    diffusivities = np.diag([1.5e-3, 0.3e-3, 0.3e-3])
    angle = 0.7
    rot = np.array(
        [
            [np.cos(angle), -np.sin(angle), 0],
            [np.sin(angle), np.cos(angle), 0],
            [0, 0, 1],
        ]
    )
    rotated = rot @ diffusivities @ rot.T
    evals_a = fit_dtm(_signals(gtab, diffusivities).reshape(1, 1, 1, -1), gtab)
    evals_b = fit_dtm(_signals(gtab, rotated).reshape(1, 1, 1, -1), gtab)
    assert np.allclose(evals_a, evals_b, atol=1e-6)


def test_mask_zeroes_outside(gtab):
    signals = _signals(gtab, np.eye(3) * 1e-3)
    data = np.tile(signals, (2, 2, 1, 1))
    mask = np.zeros((2, 2, 1), dtype=bool)
    mask[0, 0, 0] = True
    evals = fit_dtm(data, gtab, mask=mask)
    assert np.any(evals[0, 0, 0] > 0)
    assert np.allclose(evals[1, 1, 0], 0.0)


def test_fit_validates_shapes(gtab):
    with pytest.raises(ValueError):
        fit_dtm(np.zeros((2, 2, 2)), gtab)
    with pytest.raises(ValueError):
        fit_dtm(np.zeros((2, 2, 2, 7)), gtab)
    with pytest.raises(ValueError):
        fit_dtm(
            np.zeros((2, 2, 2, len(gtab))), gtab, mask=np.ones((3, 3, 3), bool)
        )


def test_empty_mask_returns_zeros(gtab):
    data = np.zeros((2, 2, 2, len(gtab)))
    evals = fit_dtm(data, gtab, mask=np.zeros((2, 2, 2), bool))
    assert np.allclose(evals, 0.0)


def test_tensor_eigenvalues_descending():
    elements = np.array([[3.0, 1.0, 2.0, 0.0, 0.0, 0.0]])
    evals = tensor_eigenvalues(elements)
    assert np.allclose(evals, [[3.0, 2.0, 1.0]])


def test_fa_range_and_extremes():
    iso = np.array([[1.0, 1.0, 1.0]])
    stick = np.array([[1.0, 0.0, 0.0]])
    assert fractional_anisotropy(iso)[0] == pytest.approx(0.0)
    assert fractional_anisotropy(stick)[0] == pytest.approx(1.0)
    zero = np.array([[0.0, 0.0, 0.0]])
    assert fractional_anisotropy(zero)[0] == 0.0


def test_fa_shape_validation():
    with pytest.raises(ValueError):
        fractional_anisotropy(np.zeros((3, 4)))


def test_noise_robustness(gtab, rng):
    diffusivities = np.diag([1.7e-3, 0.3e-3, 0.3e-3])
    signals = _signals(gtab, diffusivities)
    noisy = np.maximum(signals + rng.normal(0, 1.0, signals.shape), 1.0)
    evals = fit_dtm(noisy.reshape(1, 1, 1, -1), gtab)[0, 0, 0]
    fa = fractional_anisotropy(evals[None, :])[0]
    assert 0.6 < fa <= 1.0



@pytest.fixture(scope="module")
def singular_signals():
    """Denoised in-mask signals of a quick-profile subject in which one
    voxel's WLS system is exactly singular."""
    from repro.data import generate_subject
    from repro.pipelines.neuro.reference import compute_mask, denoise_subject

    subject = generate_subject("subj000", seed=1000, scale=20, n_volumes=24)
    mask = compute_mask(subject)
    return denoise_subject(subject, mask)[mask], subject.gtab


def test_singular_voxel_falls_back_alone(singular_signals, monkeypatch):
    """A singular voxel keeps its OLS fit without dragging the rest of
    its batch to OLS: every other voxel fits exactly as it does in a
    batch without the singular one."""
    from repro.algorithms.dtm import _wls_tensors

    signals, gtab = singular_signals
    raised = []
    solve = np.linalg.solve

    def spy(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            raised.append(a.shape)
            raise

    monkeypatch.setattr(np.linalg, "solve", spy)
    singular = []
    for v in range(len(signals)):
        before = len(raised)
        _wls_tensors(signals[v:v + 1], gtab)
        if len(raised) > before:
            singular.append(v)
    assert singular, "the subject has no singular voxel"
    healthy = np.setdiff1d(np.arange(len(signals)), singular)
    del raised[:]
    clean = _wls_tensors(signals[healthy], gtab)
    assert not raised
    assert np.array_equal(_wls_tensors(signals, gtab)[healthy], clean)
