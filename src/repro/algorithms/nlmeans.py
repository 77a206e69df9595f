"""Non-local means denoising (Step 2-N of the neuroscience pipeline).

"Denoising operates on a 3D sliding window of voxels using the
non-local means algorithm [7], where we use the mask from Step 1-N to
denoise only parts of the image volume containing the brain."
(Section 3.1.2.)

The implementation follows Coupe et al.'s blockwise scheme in its
simplest per-voxel form: for every masked voxel, candidate patches
within a search window are weighted by Gaussian-kernelized patch
distance and averaged.  It is vectorized over search offsets so that the
scaled-down test volumes denoise in milliseconds.  The kernel is pure,
so it is memoized by argument content (:mod:`repro.algorithms.memo`):
the engines denoise the same volumes, and each distinct one is computed
once per process.
"""

import numpy as np

from repro.algorithms.memo import pure_kernel


@pure_kernel
def nlmeans_3d(volume, sigma, mask=None, patch_radius=1, block_radius=2):
    """Denoise a 3-d volume with non-local means.

    Parameters
    ----------
    volume:
        3-d array of intensities.
    sigma:
        Noise standard deviation; controls the smoothing strength
        ``h = sqrt(2) * sigma`` per the classic formulation.
    mask:
        Optional boolean array; voxels outside the mask are passed
        through unchanged (and are still usable as patch content).
        This is exactly the masked evaluation TensorFlow could not
        express (Section 4.5: "without filtering with the mask as
        TensorFlow does not support element-wise data assignment").
    patch_radius:
        Half-width of the similarity patch.
    block_radius:
        Half-width of the search window around each voxel.
    """
    volume = np.asarray(volume, dtype=np.float64)
    if volume.ndim != 3:
        raise ValueError(f"nlmeans_3d expects a 3-d volume, got {volume.shape}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != volume.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match volume {volume.shape}"
            )

    pr, br = int(patch_radius), int(block_radius)
    pad = pr + br
    padded = np.pad(volume, pad, mode="reflect")

    h2 = 2.0 * (np.sqrt(2.0) * sigma) ** 2
    patch_size = (2 * pr + 1) ** 3

    weights_sum = np.zeros_like(volume)
    values_sum = np.zeros_like(volume)

    shape = volume.shape

    # For each search offset, compute per-voxel patch distances using a
    # box sum over the shifted squared-difference volume (the standard
    # O(offsets) NLM decomposition).
    center = padded[
        pad - pr: pad + pr + shape[0],
        pad - pr: pad + pr + shape[1],
        pad - pr: pad + pr + shape[2],
    ]
    for dz in range(-br, br + 1):
        for dy in range(-br, br + 1):
            for dx in range(-br, br + 1):
                shifted = padded[
                    pad + dz - pr: pad + dz + pr + shape[0],
                    pad + dy - pr: pad + dy + pr + shape[1],
                    pad + dx - pr: pad + dx + pr + shape[2],
                ]
                sq_diff = (shifted - center) ** 2
                dist = _box_sum_3d(sq_diff, 2 * pr + 1)
                weight = np.exp(-dist / (h2 * patch_size))
                neighbor = padded[
                    pad + dz: pad + dz + shape[0],
                    pad + dy: pad + dy + shape[1],
                    pad + dx: pad + dx + shape[2],
                ]
                weights_sum += weight
                values_sum += weight * neighbor

    denoised = values_sum / weights_sum
    if mask is not None:
        denoised = np.where(mask, denoised, volume)
    return denoised


def _box_sum_3d(volume, width):
    """Sum over all cubic windows of edge ``width`` (valid mode).

    Input of shape ``(a, b, c)`` produces output of shape
    ``(a - width + 1, ...)`` via separable cumulative sums.
    """
    out = volume
    for axis in range(3):
        cumsum = np.cumsum(out, axis=axis)
        zero_shape = list(cumsum.shape)
        zero_shape[axis] = 1
        padded = np.concatenate([np.zeros(zero_shape), cumsum], axis=axis)
        lead = (slice(None),) * axis
        upper = padded[lead + (slice(width, None),)]
        lower = padded[lead + (slice(0, padded.shape[axis] - width),)]
        out = upper - lower
    return out
