"""MSE benchmark harness comparing the inpainting algorithms.

Runs every (image, mask, algorithm) combination in a stable order and
reports per-run MSE, iteration count and wall time. Timing covers the
algorithm call only, never file I/O or mask construction.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, fields

import numpy as np

from .core import as_image, mse
from .diffusion import DiffusionConfig, diffuse
from .directional import inpaint_directional
from .kernels import diamond_kernel
from .masks import apply_damage

# id -> (damaged, mask, config) -> result with .image, .iterations, .converged.
# The entries look diffuse and inpaint_directional up at call time, so a
# wrapper set on this module's attributes sees every run.
ALGORITHMS = {
    "diffusion-diamond": lambda damaged, mask, config: diffuse(damaged, mask, diamond_kernel(), config),
    "directional-16": lambda damaged, mask, config: inpaint_directional(damaged, mask, 16, config),
    "directional-32": lambda damaged, mask, config: inpaint_directional(damaged, mask, 32, config),
}


@dataclass(frozen=True)
class BenchRecord:
    image_id: str
    mask_id: str
    algorithm: str
    mse: float
    iterations: int
    wall_seconds: float
    converged: bool  # False when the run stopped at max_iters


def _algorithm(name: str):
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; expected one of {tuple(ALGORITHMS)}")
    return ALGORITHMS[name]


def run_algorithm(name: str, damaged, mask, config: DiffusionConfig | None = None):
    """Run one algorithm by its benchmark id.

    Returns (reconstruction, iterations, converged).
    """
    res = _algorithm(name)(damaged, mask, config)
    return res.image, res.iterations, res.converged


def run_bench(images, masks, algorithms=ALGORITHMS, config: DiffusionConfig | None = None, progress=None) -> list[BenchRecord]:
    """Benchmark every image x mask x algorithm combination.

    Args:
        images: mapping of image_id -> image; runs in sorted id order.
        masks: mapping of mask_id -> builder(rows, cols) -> mask, kept in
            the given order.
        algorithms: algorithm ids, kept in the given order.
        config: diffusion settings shared by all runs.
        progress: optional hook called with each finished BenchRecord.

    Returns:
        Records in (image, mask, algorithm) nesting order.
    """
    if not images:
        raise ValueError("empty image set")
    for name in algorithms:
        _algorithm(name)
    records = []
    for image_id in sorted(images):
        original = as_image(images[image_id])
        for mask_id, build in masks.items():
            mask = build(*original.shape)
            damaged = apply_damage(original, mask)
            for name in algorithms:
                start = time.perf_counter()
                restored, iterations, converged = run_algorithm(name, damaged, mask, config)
                wall = time.perf_counter() - start
                rec = BenchRecord(image_id, mask_id, name, mse(original, restored), iterations, wall, converged)
                records.append(rec)
                if progress is not None:
                    progress(rec)
    return records


@dataclass(frozen=True)
class AggregateRow:
    mask_id: str
    algorithm: str
    n_images: int
    mse_mean: float
    mse_std: float
    wall_mean: float
    wall_std: float


def aggregate_records(records) -> list[AggregateRow]:
    """Mean and population standard deviation across images per (mask, algorithm)."""
    groups: dict[tuple, list[BenchRecord]] = {}
    for r in records:
        groups.setdefault((r.mask_id, r.algorithm), []).append(r)
    rows = []
    for (mask_id, algorithm), recs in groups.items():
        errs = np.array([r.mse for r in recs])
        walls = np.array([r.wall_seconds for r in recs])
        rows.append(
            AggregateRow(
                mask_id,
                algorithm,
                len(recs),
                float(errs.mean()),
                float(errs.std()),
                float(walls.mean()),
                float(walls.std()),
            )
        )
    return rows


def to_csv(rows, row_type) -> str:
    """Render dataclass rows as CSV text with LF line endings.

    The header is the field names of row_type; floats print as :.6g and
    every other value as str. A field holding a comma, a double quote or
    a line break is quoted, so an image id such as a file stem reads back
    whole.
    """
    names = [f.name for f in fields(row_type)]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        values = (getattr(row, name) for name in names)
        writer.writerow(f"{v:.6g}" if isinstance(v, float) else v for v in values)
    return text.getvalue()


def write_csv(rows, row_type, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(to_csv(rows, row_type))
