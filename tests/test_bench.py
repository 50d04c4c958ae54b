"""Tests for the benchmark harness and its CSV output."""

from __future__ import annotations

import numpy as np
import pytest

from inpaintkit.bench import (
    AGGREGATE_HEADER,
    ALGORITHMS,
    CSV_HEADER,
    BenchRecord,
    aggregate_records,
    aggregate_to_csv,
    records_to_csv,
    run_algorithm,
    run_bench,
    write_records_csv,
)
from inpaintkit.diffusion import DiffusionConfig
from inpaintkit.masks import MaskSpec, apply_damage, random_mask


def _tiny_images():
    rng = np.random.default_rng(41)
    return {
        "beta": rng.uniform(size=(16, 16)),
        "alpha": rng.uniform(size=(16, 16)),
    }


def _tiny_specs():
    return [
        MaskSpec(kind="text", text="ab"),
        MaskSpec(kind="random", missing_fraction=0.3, seed=42),
    ]


def test_run_algorithm_ids_cover_the_three_entries():
    rng = np.random.default_rng(40)
    img = rng.uniform(size=(16, 16))
    mask = random_mask(16, 16, 0.3, seed=1)
    damaged = apply_damage(img, mask)
    for name in ALGORITHMS:
        restored, iterations, converged = run_algorithm(name, damaged, mask)
        assert restored.shape == img.shape
        assert iterations > 0
        assert converged
    # a capped run says so
    assert run_algorithm("diffusion-diamond", damaged, mask, DiffusionConfig(max_iters=1))[1:] == (1, False)
    with pytest.raises(ValueError):
        run_algorithm("median-filter", damaged, mask)


def test_run_bench_record_count_and_stable_order():
    records = run_bench(_tiny_images(), _tiny_specs(), config=DiffusionConfig(max_iters=200))
    assert len(records) == 2 * 2 * 3
    # images sorted by id, masks and algorithms in given order
    assert [r.image_id for r in records[:6]] == ["alpha"] * 6
    assert [r.mask_id for r in records[:3]] == ["text-scale1"] * 3
    assert [r.algorithm for r in records[:3]] == list(ALGORITHMS)
    for r in records:
        assert r.mse >= 0.0
        assert r.wall_seconds >= 0.0
        assert r.iterations > 0
        assert r.converged


def test_run_bench_progress_hook_sees_every_record():
    seen = []
    records = run_bench(
        _tiny_images(),
        [MaskSpec(kind="random", missing_fraction=0.5, seed=0)],
        algorithms=("diffusion-diamond",),
        progress=seen.append,
    )
    assert seen == records


def test_run_bench_validation():
    with pytest.raises(ValueError):
        run_bench({}, _tiny_specs())
    with pytest.raises(ValueError):
        run_bench(_tiny_images(), _tiny_specs(), algorithms=("nope",))


def test_csv_format(tmp_path):
    records = [
        BenchRecord("img", "text-scale2", "diffusion-diamond", 0.000123456789, 42, 1.5, True),
        BenchRecord("img", "text-scale2", "directional-16", 0.25, 7, 0.0001234567, False),
    ]
    text = records_to_csv(records)
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "img,text-scale2,diffusion-diamond,0.000123457,42,1.5,True"
    assert lines[2] == "img,text-scale2,directional-16,0.25,7,0.000123457,False"
    assert text.endswith("\n")
    assert "\r" not in text

    path = tmp_path / "out.csv"
    write_records_csv(records, path)
    assert path.read_bytes().decode("utf-8") == text


def test_aggregate_mean_and_population_std():
    records = [
        BenchRecord("a", "m", "diffusion-diamond", 1.0, 5, 2.0, True),
        BenchRecord("b", "m", "diffusion-diamond", 3.0, 6, 4.0, True),
        BenchRecord("a", "m", "directional-16", 2.0, 7, 1.0, True),
    ]
    rows = aggregate_records(records)
    by_algo = {row.algorithm: row for row in rows}
    assert by_algo["diffusion-diamond"].n_images == 2
    assert by_algo["diffusion-diamond"].mse_mean == 2.0
    assert by_algo["diffusion-diamond"].mse_std == 1.0
    assert by_algo["diffusion-diamond"].wall_mean == 3.0
    assert by_algo["directional-16"].mse_std == 0.0

    text = aggregate_to_csv(rows)
    assert text.split("\n")[0] == AGGREGATE_HEADER
    assert "m,diffusion-diamond,2,2,1,3,1" in text
