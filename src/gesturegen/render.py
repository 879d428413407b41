"""Stick-figure rendering to SVG files, one per frame.

SVG keeps the output byte-deterministic (no raster codecs) and diff-able.
The viewport is fixed so sweep galleries and track renders are directly
comparable.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import InvalidConfig, IoFailure
from .pose import HEAD, L_ELBOW, L_SHOULDER, L_WRIST, NECK, R_ELBOW, R_SHOULDER, R_WRIST, decode_pose

SEGMENTS = (
    (NECK, HEAD),
    (NECK, L_SHOULDER),
    (NECK, R_SHOULDER),
    (L_SHOULDER, L_ELBOW),
    (L_ELBOW, L_WRIST),
    (R_SHOULDER, R_ELBOW),
    (R_ELBOW, R_WRIST),
)

VIEWBOX = "-3.2 -2.6 6.4 6.4"  # normalized pose units, y down


def pose_svg(pose) -> str:
    """One (8, 2) normalized pose as a stick figure."""
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="256" height="256" '
        f'viewBox="{VIEWBOX}">',
        '<rect x="-3.2" y="-2.6" width="6.4" height="6.4" fill="white"/>',
    ]
    for a, b in SEGMENTS:
        parts.append(
            f'<line x1="{float(pose[a, 0])!r}" y1="{float(pose[a, 1])!r}" '
            f'x2="{float(pose[b, 0])!r}" y2="{float(pose[b, 1])!r}" '
            'stroke="black" stroke-width="0.08" stroke-linecap="round"/>'
        )
    for idx in range(8):
        radius = 0.28 if idx == HEAD else 0.1
        parts.append(f'<circle cx="{float(pose[idx, 0])!r}" cy="{float(pose[idx, 1])!r}" r="{radius}" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(frames, out_dir, pca=None, prefix: str = "frame") -> list:
    """Write one SVG per pose plus an index manifest.

    `frames` is (V, 8, 2) poses, or a TimedPoseTrack (requires the fitted
    pose basis to decode). Returns the written file names in order.
    """
    if hasattr(frames, "frames"):  # a track of gesture vectors
        if pca is None:
            raise InvalidConfig("rendering a gesture track requires the fitted pose model")
        poses = decode_pose(pca, frames.frames)
    else:
        poses = frames
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        names = []
        for i, pose in enumerate(poses):
            name = f"{prefix}_{i:05d}.svg"
            (out / name).write_text(pose_svg(pose), encoding="utf-8")
            names.append(name)
        manifest = {"count": len(names), "frames": names}
        (out / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise IoFailure(f"cannot write render output: {exc}") from exc
    return names
