"""MSE benchmark harness comparing the inpainting algorithms.

Runs every (image, mask, algorithm) combination in a stable order and
reports per-run MSE, iteration count and wall time. Timing covers the
algorithm call only, never file I/O or mask construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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

CSV_HEADER = "image_id,mask_id,algorithm,mse,iterations,wall_seconds,converged"
AGGREGATE_HEADER = "mask_id,algorithm,n_images,mse_mean,mse_std,wall_mean,wall_std"


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


def run_bench(images, specs, algorithms=ALGORITHMS, config: DiffusionConfig | None = None, progress=None) -> list[BenchRecord]:
    """Benchmark every image x mask x algorithm combination.

    Args:
        images: mapping of image_id -> image; runs in sorted id order.
        specs: MaskSpec list, kept in the given order.
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
        for spec in specs:
            mask = spec.build(original.shape[0], original.shape[1])
            damaged = apply_damage(original, mask)
            for name in algorithms:
                start = time.perf_counter()
                restored, iterations, converged = run_algorithm(name, damaged, mask, config)
                wall = time.perf_counter() - start
                rec = BenchRecord(image_id, spec.mask_id, name, mse(original, restored), iterations, wall, converged)
                records.append(rec)
                if progress is not None:
                    progress(rec)
    return records


def records_to_csv(records) -> str:
    """Render records as CSV text with LF line endings."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.image_id},{r.mask_id},{r.algorithm},{r.mse:.6g},{r.iterations},{r.wall_seconds:.6g},{r.converged}"
        )
    return "\n".join(lines) + "\n"


def write_records_csv(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(records_to_csv(records))


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


def aggregate_to_csv(rows) -> str:
    lines = [AGGREGATE_HEADER]
    for a in rows:
        lines.append(
            f"{a.mask_id},{a.algorithm},{a.n_images},{a.mse_mean:.6g},{a.mse_std:.6g},"
            f"{a.wall_mean:.6g},{a.wall_std:.6g}"
        )
    return "\n".join(lines) + "\n"


def write_aggregate_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(aggregate_to_csv(rows))
