"""Spatial filters: separable Gaussian blur, box blur and gradients.

The FAST/ORB front end blurs frames before descriptor extraction (as the
OpenCV ORB implementation does), and the Harris response used for keypoint
ranking needs image gradients.
"""

from __future__ import annotations

import numpy as np

from repro.imaging.image import as_gray, saturate_cast_u8
from repro.perfmodel.cost import kernel_cost
from repro.runtime.context import ExecutionContext


def gaussian_kernel_1d(sigma: float, radius: int | None = None) -> np.ndarray:
    """Return a normalized 1-D Gaussian kernel."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if radius is None:
        radius = max(1, int(round(3.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    return kernel / kernel.sum()


def _convolve(data: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Convolve ``data`` along ``axis`` with ``kernel``, replicating edges.

    Every output element is ``((0 + k0*x0) + k1*x1) + ...`` with the taps
    in kernel order, whatever the axis.
    """
    radius = len(kernel) // 2
    n = data.shape[axis]
    padded = np.take(data, np.clip(np.arange(-radius, n + radius), 0, n - 1), axis=axis)
    index = [slice(None)] * data.ndim
    out = np.zeros_like(data)
    for offset, weight in enumerate(kernel):
        index[axis] = slice(offset, offset + n)
        out += weight * padded[tuple(index)]
    return out


def gaussian_blur(
    image: np.ndarray,
    sigma: float = 1.2,
    ctx: ExecutionContext | None = None,
) -> np.ndarray:
    """Separable Gaussian blur of a grayscale image."""
    arr = as_gray(image).astype(np.float64)
    kernel = gaussian_kernel_1d(sigma)
    if ctx is not None:
        with ctx.scope("imaging.filters.gaussian_blur"):
            ctx.tick(2 * kernel_cost("filter.blur_px") * arr.shape[0] * arr.shape[1])
    return saturate_cast_u8(_convolve(_convolve(arr, kernel, axis=1), kernel, axis=0))


def box_blur(image: np.ndarray, radius: int = 1) -> np.ndarray:
    """Simple box blur (used by the synthetic world renderer)."""
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    arr = as_gray(image).astype(np.float64)
    size = 2 * radius + 1
    kernel = np.full(size, 1.0 / size)
    return saturate_cast_u8(_convolve(_convolve(arr, kernel, axis=1), kernel, axis=0))


def sobel_gradients(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return float64 ``(gx, gy)`` Sobel gradients of a grayscale image."""
    arr = as_gray(image).astype(np.float64)
    padded = np.pad(arr, 1, mode="edge")

    def shifted(dy: int, dx: int) -> np.ndarray:
        return padded[1 + dy : 1 + dy + arr.shape[0], 1 + dx : 1 + dx + arr.shape[1]]

    gx = (
        (shifted(-1, 1) + 2.0 * shifted(0, 1) + shifted(1, 1))
        - (shifted(-1, -1) + 2.0 * shifted(0, -1) + shifted(1, -1))
    )
    gy = (
        (shifted(1, -1) + 2.0 * shifted(1, 0) + shifted(1, 1))
        - (shifted(-1, -1) + 2.0 * shifted(-1, 0) + shifted(-1, 1))
    )
    return gx, gy


def harris_response(image: np.ndarray, k: float = 0.04, window_radius: int = 2) -> np.ndarray:
    """Harris corner response map, used to rank FAST keypoints (as ORB does)."""
    gx, gy = sobel_gradients(image)
    size = 2 * window_radius + 1
    kernel = np.full(size, 1.0 / size)

    def window_sum(product: np.ndarray) -> np.ndarray:
        return _convolve(_convolve(product, kernel, axis=1), kernel, axis=0)

    # One product at a time: the same sums as smoothing the three
    # stacked, with a third of the temporaries.
    sxx = window_sum(gx * gx)
    syy = window_sum(gy * gy)
    sxy = window_sum(gx * gy)
    det = sxx * syy - sxy * sxy
    trace = sxx + syy
    return det - k * trace * trace
