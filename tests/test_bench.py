"""Tests for the benchmark harness and its CSV output."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from inpaintkit.bench import (
    ALGORITHMS,
    AggregateRow,
    BenchRecord,
    aggregate_records,
    run_algorithm,
    run_bench,
    to_csv,
    write_csv,
)
from inpaintkit.diffusion import DiffusionConfig
from inpaintkit.masks import apply_damage, random_mask, text_mask


def _tiny_images():
    rng = np.random.default_rng(41)
    return {
        "beta": rng.uniform(size=(16, 16)),
        "alpha": rng.uniform(size=(16, 16)),
    }


def _tiny_masks():
    return {
        "text-scale1": partial(text_mask, text="ab"),
        "random-0.3-seed42": partial(random_mask, missing_fraction=0.3, seed=42),
    }


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
    records = run_bench(_tiny_images(), _tiny_masks(), config=DiffusionConfig(max_iters=200))
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


def test_run_bench_builds_each_mask_at_the_image_size():
    # a builder is called as builder(rows, cols) once per image, and the
    # damage it applies is the mask it returns
    calls = []

    def builder(rows, cols):
        calls.append((rows, cols))
        return random_mask(rows, cols, 1.0, seed=0)

    images = {"wide": np.ones((3, 5)), "tall": np.ones((6, 2))}
    records = run_bench(images, {"all-missing": builder}, algorithms=("diffusion-diamond",))
    assert calls == [(6, 2), (3, 5)]
    # every pixel missing from an all-ones image: the fill is 0 everywhere
    assert [(r.image_id, r.mask_id, r.mse) for r in records] == [("tall", "all-missing", 1.0), ("wide", "all-missing", 1.0)]


def test_run_bench_progress_hook_sees_every_record():
    seen = []
    records = run_bench(
        _tiny_images(),
        {"random-0.5-seed0": partial(random_mask, missing_fraction=0.5, seed=0)},
        algorithms=("diffusion-diamond",),
        progress=seen.append,
    )
    assert seen == records


def test_run_bench_validation():
    with pytest.raises(ValueError):
        run_bench({}, _tiny_masks())
    with pytest.raises(ValueError):
        run_bench(_tiny_images(), _tiny_masks(), algorithms=("nope",))


def test_csv_format(tmp_path):
    records = [
        BenchRecord("img", "text-scale2", "diffusion-diamond", 0.000123456789, 42, 1.5, True),
        BenchRecord("img", "text-scale2", "directional-16", 0.25, 7, 0.0001234567, False),
    ]
    text = to_csv(records, BenchRecord)
    lines = text.split("\n")
    assert lines[0] == "image_id,mask_id,algorithm,mse,iterations,wall_seconds,converged"
    assert lines[1] == "img,text-scale2,diffusion-diamond,0.000123457,42,1.5,True"
    assert lines[2] == "img,text-scale2,directional-16,0.25,7,0.000123457,False"
    assert text.endswith("\n")
    assert "\r" not in text

    path = tmp_path / "out.csv"
    write_csv(records, BenchRecord, path)
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

    text = to_csv(rows, AggregateRow)
    assert text.split("\n")[0] == "mask_id,algorithm,n_images,mse_mean,mse_std,wall_mean,wall_std"
    assert "m,diffusion-diamond,2,2,1,3,1" in text
