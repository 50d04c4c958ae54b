"""Property tests: the stacked-window engine against the plain reference loops.

Shapes run from 1xN strips and 2x2 up to 12x12, patch sizes from 2 to
15 (including sizes that do not divide the image and sizes larger than
it), masks all-known, all-missing or random, and the iteration cap is
small. Every case must match `oracles.jacobi_loop` / `oracles.patch_loop`
bit for bit, with the same iteration counts, and keep known pixels.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inpaintkit.core import split_into_patches
from inpaintkit.diffusion import DiffusionConfig, _solve_windows, diffuse
from inpaintkit.directional import PatchGrid, diffuse_patches
from inpaintkit.kernels import diag_kernel, diamond_kernel, rotate_kernel

from oracles import jacobi_loop, patch_loop

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def cases(draw):
    rows, cols = draw(
        st.one_of(
            st.tuples(st.just(1), st.integers(1, 30)),
            st.just((2, 2)),
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["known", "missing", "random"]))
    if kind == "random":
        mask = (rng.uniform(size=(rows, cols)) >= draw(st.floats(0.1, 0.9))).astype(np.uint8)
    else:
        mask = np.full((rows, cols), kind == "known", dtype=np.uint8)
    image = np.where(mask == 1, rng.uniform(size=(rows, cols)), 0.0)
    cfg = DiffusionConfig(epsilon=draw(st.sampled_from([1e-3, 1e-6, 0.0])), max_iters=draw(st.integers(1, 40)))
    return image, mask, cfg


# mixing plain and rotated kernels in one stack exercises taps that are
# zero in some windows only
KERNELS = st.one_of(
    st.just(diamond_kernel()),
    st.just(diag_kernel()),
    st.floats(-90.0, 90.0).map(rotate_kernel),
)


@SETTINGS
@given(cases(), KERNELS)
def test_diffuse_matches_reference_loop(case, kernel):
    image, mask, cfg = case
    res = diffuse(image, mask, kernel, cfg)
    # diffuse normalizes its kernel; the oracle uses it as given
    ref, iterations, delta = jacobi_loop(image, mask, kernel / kernel.sum(), cfg.epsilon, cfg.max_iters)
    assert np.array_equal(res.image, ref)
    assert res.iterations == iterations
    assert res.converged == (delta <= cfg.epsilon)
    assert np.array_equal(res.image[mask == 1], image[mask == 1])


@SETTINGS
@given(cases(), st.integers(2, 15), st.data())
def test_diffuse_patches_matches_reference_loop(case, patch_size, data):
    image, mask, cfg = case
    coords = split_into_patches(image.shape[0], image.shape[1], patch_size)
    p = len(coords)
    # arbitrary per-patch kernels go to the engine, which diffuse_patches calls
    kernels = np.array(data.draw(st.lists(KERNELS, min_size=p, max_size=p)))
    res, counts, deltas = _solve_windows(image, mask, coords, kernels, cfg)
    out = res.image
    ref, ref_counts, ref_deltas = patch_loop(image, mask, [(*pc, k) for pc, k in zip(coords, kernels)], cfg.epsilon, cfg.max_iters)
    assert np.array_equal(out, ref)
    assert counts.tolist() == ref_counts
    assert (deltas <= cfg.epsilon).tolist() == [d <= cfg.epsilon for d in ref_deltas]
    # the oracle's delta also spans the halo, which never moves, so only the summation order differs
    assert deltas.tolist() == pytest.approx(ref_deltas, rel=1e-12, abs=0.0)
    assert np.array_equal(out[mask == 1], image[mask == 1])
    # per-patch counts, one patch per engine call
    for i, count in enumerate(ref_counts):
        assert _solve_windows(image, mask, coords[i : i + 1], kernels[i : i + 1], cfg)[1][0] == count
    # a grid's kernels are its angles rotated
    grid = PatchGrid(image.shape, patch_size, data.draw(st.lists(st.floats(-90.0, 90.0), min_size=p, max_size=p)))
    res = diffuse_patches(image, mask, grid, cfg)
    ref, ref_counts, ref_deltas = patch_loop(image, mask, [(*pc, k) for pc, k in zip(coords, grid.kernels)], cfg.epsilon, cfg.max_iters)
    assert np.array_equal(res.image, ref)
    assert res.iterations == sum(ref_counts)
    assert res.converged == all(d <= cfg.epsilon for d in ref_deltas)
    assert res.final_delta == pytest.approx(max(ref_deltas), rel=1e-12, abs=0.0)
