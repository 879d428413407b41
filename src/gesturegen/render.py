"""Stick-figure rendering to SVG files, one per frame.

SVG keeps the output byte-deterministic (no raster codecs) and diff-able.
The viewport is fixed so sweep galleries and track renders are directly
comparable.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, IoFailure, open_for_write
from .pose import HEAD, L_ELBOW, L_SHOULDER, L_WRIST, NECK, R_ELBOW, R_SHOULDER, R_WRIST

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


def render(poses, out_dir, prefix: str = "frame") -> list:
    """Write one SVG per (8, 2) pose of ``poses`` plus an index manifest.

    Returns the written file names in order. A pose with a non-finite
    coordinate is refused before anything is written.
    """
    finite = np.isfinite(poses).all(axis=(1, 2))
    if not finite.all():
        raise InvalidConfig(f"pose {int(np.argmin(finite))} has non-finite values")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write render output: {exc}") from exc
    names = [f"{prefix}_{i:05d}.svg" for i in range(len(poses))]
    for name, pose in zip(names, poses):
        with open_for_write(out / name, "render output") as fh:
            fh.write(pose_svg(pose))
    with open_for_write(out / "manifest.json", "render output") as fh:
        fh.write(json.dumps({"count": len(names), "frames": names}, sort_keys=True, indent=2) + "\n")
    return names
