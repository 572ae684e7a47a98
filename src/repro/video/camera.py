"""Moving-camera model: per-frame pose, optics and illumination.

A :class:`CameraState` fixes where one frame looks in the landscape; a
camera *path* is a list of states.  Two path generators mirror the two
VIRAT inputs the paper profiles (Section III-B):

* :func:`busy_path` — frequent large displacements, rotation and zoom
  drift, and abrupt segment cuts (Input 1: many scene changes, many
  mini-panoramas),
* :func:`steady_path` — one slow smooth sweep (Input 2: high
  inter-frame redundancy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.imaging.geometry import rotation, scaling, translation
from repro.imaging.image import saturate_cast_u8


@dataclass(frozen=True)
class CameraState:
    """Pose and imaging conditions of one frame."""

    center_x: float  # landscape coordinates the frame is centred on
    center_y: float
    angle: float  # camera roll in radians
    zoom: float  # landscape pixels per frame pixel
    gain: float  # illumination multiplier
    offset: float  # illumination bias
    segment: int  # scene-cut segment this frame belongs to

    def frame_to_world(self, frame_w: int, frame_h: int) -> np.ndarray:
        """3x3 transform from frame pixel coords to landscape coords."""
        to_center = translation(-(frame_w - 1) / 2.0, -(frame_h - 1) / 2.0)
        zoom_rot = rotation(self.angle) @ scaling(self.zoom)
        place = translation(self.center_x, self.center_y)
        return place @ zoom_rot @ to_center


def render_frame(
    landscape: np.ndarray,
    state: CameraState,
    frame_w: int,
    frame_h: int,
    noise_rng: np.random.Generator,
    noise_sigma: float = 1.0,
) -> np.ndarray:
    """Sample one camera frame from the landscape (bilinear, clamped).

    Only the gathered samples are converted to float64, never the whole
    landscape.
    """
    h, w = landscape.shape
    transform = state.frame_to_world(frame_w, frame_h)

    xs = np.arange(frame_w, dtype=np.float64)
    ys = np.arange(frame_h, dtype=np.float64)
    grid_x, grid_y = np.meshgrid(xs, ys)
    wx = transform[0, 0] * grid_x + transform[0, 1] * grid_y + transform[0, 2]
    wy = transform[1, 0] * grid_x + transform[1, 1] * grid_y + transform[1, 2]
    wx = np.clip(wx, 0.0, w - 1.0)
    wy = np.clip(wy, 0.0, h - 1.0)

    x0 = np.floor(wx).astype(np.intp)
    y0 = np.floor(wy).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = wx - x0
    fy = wy - y0
    c00, c01, c10, c11 = landscape[
        np.stack([y0, y0, y1, y1]), np.stack([x0, x1, x0, x1])
    ].astype(np.float64)
    top = c00 * (1 - fx) + c01 * fx
    bottom = c10 * (1 - fx) + c11 * fx
    sampled = top * (1 - fy) + bottom * fy

    lit = state.gain * sampled + state.offset
    lit += noise_rng.normal(0.0, noise_sigma, size=lit.shape)
    return saturate_cast_u8(lit)


def steady_path(
    n_frames: int,
    rng: np.random.Generator,
    landscape_shape: tuple[int, int],
    step: float = 5.0,
) -> list[CameraState]:
    """One smooth sweep across the landscape (the Input 2 profile)."""
    height, width = landscape_shape
    margin_x, margin_y = width * 0.22, height * 0.25
    x = float(rng.uniform(margin_x, margin_x * 1.3))
    y = float(rng.uniform(margin_y, height - margin_y))
    heading = float(rng.uniform(-0.25, 0.25))
    angle = 0.0
    zoom = 1.0
    states = []
    for index in range(n_frames):
        states.append(
            CameraState(
                center_x=x,
                center_y=y,
                angle=angle,
                zoom=zoom,
                gain=1.0 + 0.02 * np.sin(index / 40.0),
                offset=float(rng.normal(0.0, 0.5)),
                segment=0,
            )
        )
        x += step * float(np.cos(heading)) + float(rng.normal(0.0, 0.3))
        y += step * float(np.sin(heading)) + float(rng.normal(0.0, 0.3))
        heading += float(rng.normal(0.0, 0.004))
        angle += float(rng.normal(0.0, 0.002))
        zoom *= float(1.0 + rng.normal(0.0, 0.0015))
        if x < margin_x or x > width - margin_x:
            heading = float(np.pi - heading)
            x = float(np.clip(x, margin_x, width - margin_x))
        if y < margin_y or y > height - margin_y:
            heading = -heading
            y = float(np.clip(y, margin_y, height - margin_y))
    return states


def busy_path(
    n_frames: int,
    rng: np.random.Generator,
    landscape_shape: tuple[int, int],
    step: float = 32.0,
    segment_every: tuple[int, int] = (12, 22),
) -> list[CameraState]:
    """Fast flight with abrupt scene cuts (the Input 1 profile)."""
    height, width = landscape_shape
    margin_x, margin_y = width * 0.22, height * 0.25
    states: list[CameraState] = []
    segment = -1
    index = 0
    while index < n_frames:
        segment += 1
        segment_len = int(rng.integers(segment_every[0], segment_every[1]))
        x = float(rng.uniform(margin_x, width - margin_x))
        y = float(rng.uniform(margin_y, height - margin_y))
        heading = float(rng.uniform(0, 2 * np.pi))
        angle = float(rng.uniform(-0.3, 0.3))
        zoom = float(rng.uniform(0.9, 1.15))
        for _ in range(min(segment_len, n_frames - index)):
            states.append(
                CameraState(
                    center_x=x,
                    center_y=y,
                    angle=angle,
                    zoom=zoom,
                    gain=1.0 + float(rng.normal(0.0, 0.01)),
                    offset=float(rng.normal(0.0, 1.0)),
                    segment=segment,
                )
            )
            x += step * float(np.cos(heading)) + float(rng.normal(0.0, 0.8))
            y += step * float(np.sin(heading)) + float(rng.normal(0.0, 0.8))
            heading += float(rng.normal(0.0, 0.03))
            angle += float(rng.normal(0.0, 0.01))
            zoom *= float(1.0 + rng.normal(0.0, 0.002))
            # Bounce off the margins: clamping would freeze the camera and
            # make consecutive frames identical.
            if x < margin_x or x > width - margin_x:
                heading = float(np.pi - heading)
                x = float(np.clip(x, margin_x, width - margin_x))
            if y < margin_y or y > height - margin_y:
                heading = -heading
                y = float(np.clip(y, margin_y, height - margin_y))
            index += 1
    return states
