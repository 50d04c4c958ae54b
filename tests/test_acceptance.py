"""Acceptance checks for the package-level contracts.

Each test prints one [PASS]/[FAIL] line with its headline numbers, so
`pytest -s tests/test_acceptance.py` doubles as the acceptance report.
The 512x512 benchmark runs are shared between the two ordering checks
through module-scoped fixtures to keep the whole file well inside a
ten-minute budget.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from inpaintkit.bench import ALGORITHMS, run_algorithm
from inpaintkit.core import mse
from inpaintkit.diffusion import DiffusionConfig, _solve_windows, diffuse
from inpaintkit.directional import build_patch_grid, diffuse_patches, inpaint_directional
from inpaintkit.directionality import patch_angles
from inpaintkit.image_io import read_image, write_image
from inpaintkit.kernels import diag_kernel, diamond_kernel, rotate_kernel
from inpaintkit.masks import apply_damage, mask_to_image, random_mask, text_mask
from inpaintkit.synth import standard_suite

from oracles import harmonic_fill, jacobi_loop, orientation_direct, quarter_turn

SIZE = 512
TEXT = "Lorem ipsum dolor sit amet"
RANDOM_FRACTIONS = (0.3, 0.5, 0.7)


def _report(ok: bool, label: str, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def suite():
    return standard_suite(SIZE)


@pytest.fixture(scope="module")
def text_bench(suite):
    """Per-image text-mask MSE for all three algorithms, plus wall time."""
    mask = text_mask(SIZE, SIZE, TEXT, scale=3)
    coverage = float((mask == 0).mean())
    results = {algo: {} for algo in ALGORITHMS}
    start = time.perf_counter()
    for name, img in suite.items():
        damaged = apply_damage(img, mask)
        for algo in ALGORITHMS:
            restored, *_ = run_algorithm(algo, damaged, mask)
            results[algo][name] = mse(img, restored)
    wall = time.perf_counter() - start
    return results, coverage, wall


@pytest.fixture(scope="module")
def random_bench(suite):
    """Mean MSE of diamond diffusion and directional-16 per missing fraction."""
    means = {}
    for fraction in RANDOM_FRACTIONS:
        mask = random_mask(SIZE, SIZE, fraction, seed=42)
        diamond_errs = []
        directional_errs = []
        for img in suite.values():
            damaged = apply_damage(img, mask)
            restored, *_ = run_algorithm("diffusion-diamond", damaged, mask)
            diamond_errs.append(mse(img, restored))
            restored, *_ = run_algorithm("directional-16", damaged, mask)
            directional_errs.append(mse(img, restored))
        means[fraction] = (float(np.mean(diamond_errs)), float(np.mean(directional_errs)))
    return means


def test_text_mask_ordering(suite, text_bench):
    results, coverage, wall = text_bench
    assert len(suite) >= 5
    assert 0.05 <= coverage <= 0.15

    mean_diamond = float(np.mean(list(results["diffusion-diamond"].values())))
    mean_16 = float(np.mean(list(results["directional-16"].values())))
    mean_32 = float(np.mean(list(results["directional-32"].values())))
    wins = sum(
        1
        for name in suite
        if results["directional-16"][name] < results["diffusion-diamond"][name]
    )
    ok = mean_16 <= mean_32 < mean_diamond and wins >= 4 and wall < 600.0
    _report(
        ok,
        "text-mask ordering",
        f"mean MSE dir16={mean_16:.4e} <= dir32={mean_32:.4e} < diamond={mean_diamond:.4e}, "
        f"dir16 wins {wins}/{len(suite)} images, coverage={coverage:.3f}, wall={wall:.1f}s",
    )


def test_random_mask_ordering(random_bench):
    details = []
    ok = True
    for fraction in RANDOM_FRACTIONS:
        mean_diamond, mean_16 = random_bench[fraction]
        ok = ok and mean_diamond <= mean_16
        details.append(f"f={fraction:g}: diamond={mean_diamond:.4e} <= dir16={mean_16:.4e}")
    _report(ok, "random-mask ordering", "; ".join(details))


def test_harmonic_oracle_agreement():
    rng = np.random.default_rng(2024)
    cfg = DiffusionConfig(epsilon=1e-10, max_iters=100_000)
    worst = 0.0
    cases = 100
    for i in range(cases):
        img = rng.uniform(size=(12, 12))
        mask = random_mask(12, 12, float(rng.uniform(0.2, 0.8)), seed=i)
        if not mask.any():
            mask[0, 0] = 1
        damaged = apply_damage(img, mask)
        res = diffuse(damaged, mask, diamond_kernel(), cfg)
        assert res.converged
        oracle = harmonic_fill(damaged, mask, diamond_kernel())
        worst = max(worst, float(np.max(np.abs(res.image - oracle))))
    _report(worst <= 1e-6, "harmonic oracle agreement", f"{cases} cases, worst |pixel error|={worst:.2e}")


def test_known_pixel_preservation():
    rng = np.random.default_rng(7)
    cfg = DiffusionConfig(max_iters=150)
    cases = 1000
    clean = 0
    for i in range(cases):
        rows = int(rng.integers(6, 19))
        cols = int(rng.integers(6, 19))
        img = rng.uniform(size=(rows, cols))
        mask = random_mask(rows, cols, float(rng.uniform(0.05, 0.95)), seed=i)
        damaged = apply_damage(img, mask)
        known = mask == 1
        plain = diffuse(damaged, mask, diamond_kernel(), cfg)
        directed = inpaint_directional(damaged, mask, patch_size=4, config=cfg)
        if np.array_equal(plain.image[known], damaged[known]) and np.array_equal(
            directed.image[known], damaged[known]
        ):
            clean += 1
    _report(clean == cases, "known-pixel preservation", f"{clean}/{cases} pairs exact for both algorithms")


def test_rotated_kernel_properties():
    worst_sum = 0.0
    min_weight = np.inf
    for k in range(720):
        theta = -180.0 + k * 0.5
        kernel = rotate_kernel(theta)
        worst_sum = max(worst_sum, abs(float(kernel.sum()) - 1.0))
        min_weight = min(min_weight, float(kernel.min()))
    right_angles_ok = all(
        np.allclose(rotate_kernel(theta), quarter_turn(diag_kernel(), turns), atol=1e-12)
        for theta, turns in ((-45.0, 0), (45.0, 1), (135.0, 2), (225.0, 3))
    )
    ok = worst_sum <= 1e-9 and min_weight >= 0.0 and right_angles_ok
    _report(
        ok,
        "rotated kernel properties",
        f"720 angles: worst |sum-1|={worst_sum:.1e}, min weight={min_weight:.1e}, "
        f"right angles match quarter turns={right_angles_ok}",
    )


def test_stripe_orientation_pipeline():
    i = np.arange(16)
    band = (i % 4 < 2).astype(np.float64)
    horizontal = np.repeat(band[:, None], 16, axis=1)
    vertical = horizontal.T

    def dominant_cells(patch):
        theta = patch_angles(patch[None])[0]
        kernel = rotate_kernel(theta)
        flat = np.argsort(kernel.ravel())[-2:]
        return theta, {(int(t) // 3, int(t) % 3) for t in flat}

    theta_h, cells_h = dominant_cells(horizontal)
    theta_v, cells_v = dominant_cells(vertical)
    separation = abs(theta_h - theta_v) % 180.0
    separation = min(separation, 180.0 - separation)
    ok = (
        cells_h == {(1, 0), (1, 2)}
        and cells_v == {(0, 1), (2, 1)}
        and 75.0 <= separation <= 105.0
    )
    _report(
        ok,
        "stripe orientation pipeline",
        f"horizontal theta={theta_h:.3f} -> {sorted(cells_h)}, "
        f"vertical theta={theta_v:.3f} -> {sorted(cells_v)}, separation={separation:.1f} deg",
    )


def test_orientation_formula_fidelity():
    i, j = np.indices((16, 16))

    constant = np.full((16, 16), 0.37)
    err_constant = abs(patch_angles(constant[None])[0] - 90.0)

    # bands of width 2 across the anti-diagonal: v = h = s, diag = 2s
    equal_structure = (((i + j) % 4) < 2).astype(np.float64)
    s, _, _, theta1, _ = orientation_direct(equal_structure)
    theta = patch_angles(equal_structure[None])[0]
    expected = 90.0 * (s + 1.0) / (2.0 * s + 1.0)
    err_equal = max(abs(theta - expected), abs(theta - theta1))

    checker = ((i + j) % 2).astype(np.float64)
    theta1_checker = orientation_direct(checker)[3]
    err_checker = abs(patch_angles(checker[None])[0] - (-theta1_checker))

    worst = max(err_constant, err_equal, err_checker)
    _report(
        worst <= 1e-12,
        "orientation formula fidelity",
        f"constant err={err_constant:.1e}, equal-structure err={err_equal:.1e}, "
        f"zero-diagonal err={err_checker:.1e}",
    )


def test_fixed_point_and_determinism():
    rng = np.random.default_rng(99)
    img = rng.uniform(size=(48, 48))
    mask = random_mask(48, 48, 0.45, seed=11)
    damaged = apply_damage(img, mask)
    cfg = DiffusionConfig()

    res_a = diffuse(damaged, mask, diamond_kernel(), cfg)
    res_b = diffuse(damaged, mask, diamond_kernel(), cfg)
    # diffuse would restart from the known mean; the oracle steps from the values it is given
    extra = jacobi_loop(res_a.image, mask, diamond_kernel(), cfg.epsilon, 1)[0]
    extra_move = np.linalg.norm(extra - res_a.image)

    dir_a = inpaint_directional(damaged, mask, patch_size=16, config=cfg)
    dir_b = inpaint_directional(damaged, mask, patch_size=16, config=cfg)

    grid = build_patch_grid(dir_a.estimate.image, 16)
    # a grid is always row-major, so the engine gets the permuted regions directly
    order = rng.permutation(len(grid))
    fwd = _solve_windows(dir_a.estimate.image, mask, grid.coords, grid.kernels, cfg)
    shuf = _solve_windows(dir_a.estimate.image, mask, grid.coords[order], grid.kernels[order], cfg)

    ok = (
        res_a.converged
        and extra_move <= cfg.epsilon
        and np.array_equal(res_a.image, res_b.image)
        and np.array_equal(dir_a.image, dir_b.image)
        and np.array_equal(fwd.image, shuf.image)
        and np.array_equal(shuf.region_iterations, fwd.region_iterations[order])
        and np.array_equal(diffuse_patches(dir_a.estimate.image, mask, grid, cfg).image, fwd.image)
    )
    _report(
        ok,
        "fixed point and determinism",
        f"extra step moved {extra_move:.2e} <= eps={cfg.epsilon:g}, reruns bit-identical, "
        f"patch order irrelevant over {len(grid)} patches",
    )


def test_cli_snapshot_convergence(tmp_path):
    from inpaintkit.cli import main

    n = 64
    i = np.arange(n)
    img = np.repeat((i % 4 < 2).astype(np.float64)[:, None], n, axis=1)
    mask = np.ones((n, n), dtype=np.uint8)
    mask[24:40, 24:40] = 0

    image_path = tmp_path / "stripes.pgm"
    mask_path = tmp_path / "mask.pgm"
    out_path = tmp_path / "restored.pgm"
    snap_dir = tmp_path / "snaps"
    write_image(img, image_path)
    write_image(mask_to_image(mask), mask_path)

    # the run starts from the mean of the known pixels, so its snapshots are
    # measured against its own restored.pgm, the iterate it converges to.
    # At epsilon 3e-3 the run takes 85 iterations, and every 10th is a
    # snapshot: 8 files, each at most 0.4 times the previous MSE away, the
    # last still 1.7e-7 from restored.pgm, so byte quantization does not tie
    # two of them
    code = main(
        [
            "inpaint",
            "--algo",
            "diffusion",
            "--in",
            str(image_path),
            "--mask",
            str(mask_path),
            "--out",
            str(out_path),
            "--snapshot-every",
            "10",
            "--snapshot-dir",
            str(snap_dir),
            "--epsilon",
            "3e-3",
        ]
    )
    assert code == 0
    restored = read_image(out_path)
    snaps = sorted(snap_dir.glob("iter*.pgm"))
    errors = [mse(restored, read_image(p)) for p in snaps]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    ok = len(errors) >= 5 and decreasing
    _report(
        ok,
        "snapshot convergence",
        f"{len(errors)} snapshots every 10 iterations, MSE to restored.pgm "
        f"{errors[0]:.4e} -> {errors[-1]:.4e}, strictly decreasing={decreasing}",
    )
