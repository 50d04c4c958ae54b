"""End-to-end CLI tests, driven in-process through main(argv).

This file is the one place that pins CLI behaviour. One test runs the
module in a subprocess to pin the mapping from main's return value to
the process's exit status.
"""

from __future__ import annotations

import csv
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from inpaintkit import cli
from inpaintkit.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from inpaintkit.diffusion import DiffusionConfig, diffuse
from inpaintkit.directional import inpaint_directional
from inpaintkit.image_io import quantize, read_image, write_image
from inpaintkit.kernels import diamond_kernel
from inpaintkit.masks import apply_damage, mask_to_image, random_mask, text_mask
from inpaintkit.synth import stripes


@pytest.fixture
def workspace(tmp_path):
    """A gradient-stripe image plus a random mask, both on disk."""
    rng = np.random.default_rng(51)
    img = 0.5 * stripes(32, period=8.0, angle_deg=0.0) + 0.25 * rng.uniform(size=(32, 32))
    mask = random_mask(32, 32, 0.4, seed=3)
    image_path = tmp_path / "image.pgm"
    mask_path = tmp_path / "mask.pgm"
    write_image(img, image_path)
    write_image(mask_to_image(mask), mask_path)
    return tmp_path, image_path, mask_path, mask


def test_inpaint_diffusion_end_to_end(workspace, capsys):
    tmp_path, image_path, mask_path, mask = workspace
    out_path = tmp_path / "restored.pgm"
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
        ]
    )
    assert code == EXIT_OK
    assert "iterations=" in capsys.readouterr().out
    restored = read_image(out_path)
    original = read_image(image_path)
    known = mask == 1
    # known pixels survive the quantized write untouched
    assert np.array_equal(quantize(restored)[known], quantize(original)[known])


def test_inpaint_directional_with_overlay(workspace):
    tmp_path, image_path, mask_path, _ = workspace
    out_path = tmp_path / "restored.pgm"
    overlay_path = tmp_path / "overlay.pgm"
    code = main(
        [
            "inpaint",
            "--algo",
            "directional",
            "--patch",
            "8",
            "--in",
            str(image_path),
            "--mask",
            str(mask_path),
            "--out",
            str(out_path),
            "--overlay",
            str(overlay_path),
        ]
    )
    assert code == EXIT_OK
    assert out_path.exists()
    assert read_image(overlay_path).shape == (32, 32)


def test_inpaint_wall_seconds_cover_the_solve_only(workspace, capsys, monkeypatch):
    # the clock stops when the solve returns, before the overlay is rendered
    tmp_path, image_path, mask_path, _ = workspace
    render = cli.render_directionality_overlay

    def slow_render(image, grid):
        time.sleep(0.5)
        return render(image, grid)

    monkeypatch.setattr(cli, "render_directionality_overlay", slow_render)
    argv = ["inpaint", "--algo", "directional", "--patch", "8", "--in", str(image_path), "--mask", str(mask_path)]
    assert main(argv + ["--out", str(tmp_path / "out.pgm"), "--overlay", str(tmp_path / "overlay.pgm")]) == EXIT_OK
    wall = float(re.fullmatch(r"wrote \S+: iterations=\d+ converged=True wall_seconds=(\S+)\n", capsys.readouterr().out)[1])
    assert 0.0 < wall < 0.5


@pytest.mark.parametrize("algo", ["diffusion", "directional"])
def test_inpaint_snapshots_every_k_iterations(workspace, algo):
    tmp_path, image_path, mask_path, mask = workspace
    out_path = tmp_path / "restored.pgm"
    snap_dir = tmp_path / "snaps"
    patch_args = ["--patch", "8"] if algo == "directional" else []
    code = main(
        [
            "inpaint",
            "--algo",
            algo,
            *patch_args,
            "--in",
            str(image_path),
            "--mask",
            str(mask_path),
            "--out",
            str(out_path),
            "--snapshot-every",
            "5",
            "--snapshot-dir",
            str(snap_dir),
            "--epsilon",
            "1e-5",
        ]
    )
    assert code == EXIT_OK
    snaps = sorted(snap_dir.glob("iter*.pgm"))
    assert snaps
    assert snaps[0].name == "iter000005.pgm"
    # names advance in steps of five
    numbers = [int(p.stem[4:]) for p in snaps]
    assert numbers == list(range(5, 5 * len(numbers) + 1, 5))
    if algo == "directional":
        # the CLI runs the library pipeline itself; snapshots track its estimate pass
        damaged = apply_damage(read_image(image_path), mask)
        res = inpaint_directional(damaged, mask, 8, DiffusionConfig(epsilon=1e-5))
        expected_path = tmp_path / "expected.pgm"
        write_image(res.image, expected_path)
        assert out_path.read_bytes() == expected_path.read_bytes()
        assert len(snaps) == res.estimate.iterations // 5


@pytest.mark.parametrize("missing", ["text", "none", "all"])
@pytest.mark.parametrize("algo", ["diffusion", "directional"])
def test_each_snapshot_is_the_library_iterate_written_whole(tmp_path, algo, missing):
    # the CLI quantizes the known pixels once and rewrites only the missing ones per snapshot;
    # every file must still equal write_image of the iterate that a library callback sees
    rows, cols = 21, 30
    mask = {"text": text_mask(rows, cols, "Hi", 2), "none": np.ones((rows, cols), np.uint8), "all": np.zeros((rows, cols), np.uint8)}[missing]
    image_path, mask_path = tmp_path / "image.pgm", tmp_path / "mask.pgm"
    write_image(np.random.default_rng(43).uniform(size=(rows, cols)), image_path)
    write_image(mask_to_image(mask), mask_path)
    config = DiffusionConfig(epsilon=1e-4, max_iters=40)
    argv = ["inpaint", "--algo", algo, "--in", str(image_path), "--mask", str(mask_path), "--out", str(tmp_path / "out.pgm")]
    argv += ["--epsilon", "1e-4", "--max-iters", "40", "--snapshot-every", "1", "--snapshot-dir", str(tmp_path / "snaps")]
    assert main(argv) == EXIT_OK

    expected = tmp_path / "expected"
    expected.mkdir()

    def keep(iteration, current):
        write_image(current.copy(), expected / f"iter{iteration:06d}.pgm")

    damaged = apply_damage(read_image(image_path), mask)
    if algo == "diffusion":
        diffuse(damaged, mask, diamond_kernel(), config, callback=keep)
    else:
        inpaint_directional(damaged, mask, config=config, callback=keep)
    names = sorted(p.name for p in expected.iterdir())
    assert sorted(p.name for p in (tmp_path / "snaps").iterdir()) == names
    # the text mask runs to the cap, a run without a missing pixel takes no step, and an
    # all-zero, all-missing start converges on its first step, which moves nothing
    assert len(names) == {"text": 40, "none": 0, "all": 1}[missing]
    for name in names:
        assert (tmp_path / "snaps" / name).read_bytes() == (expected / name).read_bytes(), name


def _traced_inpaint_peak(tmp_path, mask) -> float:
    """Traced peak, in float64 images of the mask's size, of a directional CLI run with its overlay and a snapshot every 2 iterations."""
    image_path, mask_path = tmp_path / "image.pgm", tmp_path / "mask.pgm"
    write_image(np.random.default_rng(57).uniform(size=mask.shape), image_path)
    write_image(mask_to_image(mask), mask_path)
    argv = ["inpaint", "--algo", "directional", "--patch", "16", "--in", str(image_path), "--mask", str(mask_path)]
    argv += ["--out", str(tmp_path / "out.pgm"), "--overlay", str(tmp_path / "overlay.pgm")]
    argv += ["--snapshot-every", "2", "--snapshot-dir", str(tmp_path / "snaps")]
    assert main(argv) == EXIT_OK  # warm-up, so one-off allocations are not counted
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (mask.size * 8)


@pytest.mark.parametrize("shape", [(256, 256), (250, 243)], ids=["256x256", "250x243"])
def test_inpaint_traced_peak_stays_within_five_and_a_half_images(tmp_path, capsys, shape):
    # once the solve returns, the run's input and the snapshot frame are dropped
    # before the overlay and the output are built; 250x243 tiles into four patch shapes.
    # Measured with CPython 3.11: 4.81 images at 256x256, 4.74 at 250x243
    assert _traced_inpaint_peak(tmp_path, text_mask(*shape, "Lorem ipsum dolor sit amet", scale=3)) <= 5.5


def test_inpaint_traced_peak_under_a_dense_mask_stays_within_seven_point_two_images(tmp_path, capsys):
    # the snapshot writer holds the missing pixels as one flat index, 1 word each:
    # measured with CPython 3.11 at 6.69 images, 0.51 under the bound; a (row, col)
    # pair plus a flat copy, 3 words each, measured 7.69, 0.49 over it
    assert _traced_inpaint_peak(tmp_path, random_mask(256, 256, 0.5, seed=3)) <= 7.2


@pytest.mark.parametrize("algo", ["diffusion", "directional"])
def test_inpaint_warns_when_max_iters_stops_it(workspace, capsys, algo):
    tmp_path, image_path, mask_path, _ = workspace
    out_path = tmp_path / "restored.pgm"
    argv = ["inpaint", "--algo", algo, "--in", str(image_path), "--mask", str(mask_path), "--out", str(out_path)]
    code = main(argv + ["--max-iters", "1"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert re.fullmatch(rf"wrote {re.escape(str(out_path))}: iterations=\d+ converged=False wall_seconds=\S+\n", captured.out)
    assert re.fullmatch(
        r"inpaintkit: warning: stopped at max-iters 1 without converging \(delta=\S+\)\n", captured.err
    )
    # a converged run stays silent on stderr
    assert main(argv) == EXIT_OK
    assert "converged=True" in capsys.readouterr().out
    assert capsys.readouterr().err == ""


def test_usage_errors_exit_1(workspace, capsys):
    tmp_path, image_path, mask_path, _ = workspace
    out = str(tmp_path / "o.pgm")
    base = ["inpaint", "--in", str(image_path), "--mask", str(mask_path), "--out", out]
    # unknown subcommand, bad choice, missing required flag
    assert main(["paint"]) == EXIT_USAGE
    assert main(base + ["--algo", "cubist"]) == EXIT_USAGE
    assert main(["inpaint", "--algo", "diffusion"]) == EXIT_USAGE
    # flag/algorithm mismatches, reported by the subcommand's parser
    capsys.readouterr()
    assert main(base + ["--algo", "diffusion", "--patch", "8"]) == EXIT_USAGE
    assert capsys.readouterr().err.endswith("inpaintkit inpaint: error: --patch applies to --algo directional only\n")
    assert main(base + ["--algo", "diffusion", "--overlay", out]) == EXIT_USAGE
    assert main(base + ["--algo", "directional", "--kernel", "diag"]) == EXIT_USAGE
    assert main(base + ["--algo", "directional", "--patch", "1"]) == EXIT_USAGE
    # snapshot flags must come as a pair
    assert main(base + ["--algo", "diffusion", "--snapshot-every", "5"]) == EXIT_USAGE
    assert main(base + ["--algo", "diffusion", "--epsilon", "-1"]) == EXIT_USAGE
    # out-of-range settings are usage errors that name the flag and its value
    capsys.readouterr()
    for flag, value, bound in (("--patch", "1", "2"), ("--snapshot-every", "0", "1")):
        assert main(base + ["--algo", "directional", flag, value]) == EXIT_USAGE
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: must be >= {bound}, got {value}\n")
    # an infinite epsilon would skip the solve; 1e400 parses to inf as well
    for value in ("inf", "1e400"):
        assert main(base + ["--algo", "diffusion", "--epsilon", value]) == EXIT_USAGE
        assert capsys.readouterr().err.endswith(f"error: argument --epsilon: must be finite, got {value}\n")
    assert not (tmp_path / "o.pgm").exists()


def test_io_errors_exit_2(workspace, tmp_path):
    _, image_path, mask_path, _ = workspace
    out = str(tmp_path / "o.pgm")
    missing = str(tmp_path / "nope.pgm")
    assert main(["inpaint", "--algo", "diffusion", "--in", missing, "--mask", str(mask_path), "--out", out]) == EXIT_IO

    junk = tmp_path / "junk.pgm"
    junk.write_bytes(b"not an image")
    assert main(["inpaint", "--algo", "diffusion", "--in", str(junk), "--mask", str(mask_path), "--out", out]) == EXIT_IO

    over = tmp_path / "over.pgm"
    over.write_bytes(b"P5\n2 2\n100\n" + bytes([0, 50, 100, 200]))
    assert main(["inpaint", "--algo", "diffusion", "--in", str(over), "--mask", str(over), "--out", out]) == EXIT_IO
    assert not (tmp_path / "o.pgm").exists()


def test_main_called_twice_in_one_process_keeps_no_parsed_state(workspace):
    tmp_path, image_path, mask_path, mask = workspace
    argv = ["inpaint", "--algo", "diffusion", "--in", str(image_path), "--mask", str(mask_path)]
    assert main(argv + ["--out", str(tmp_path / "diag.pgm"), "--kernel", "diag"]) == EXIT_OK
    assert main(argv + ["--out", str(tmp_path / "default.pgm")]) == EXIT_OK
    assert cli.build_parser() is cli.build_parser()  # one parser served both calls
    # the second call runs the default diamond kernel, not the first call's --kernel diag
    expected = tmp_path / "diamond.pgm"
    write_image(diffuse(apply_damage(read_image(image_path), mask), mask, diamond_kernel()).image, expected)
    assert (tmp_path / "default.pgm").read_bytes() == expected.read_bytes()
    assert (tmp_path / "diag.pgm").read_bytes() != expected.read_bytes()


def test_inpaint_checks_its_outputs_before_reading_any_input(workspace, capsys, monkeypatch):
    tmp_path, image_path, mask_path, _ = workspace
    monkeypatch.setitem(sys.modules, "PIL", None)  # no Pillow, whether or not it is installed
    overlay = tmp_path / "ov.pgm"
    snaps = tmp_path / "snaps"
    base = ["inpaint", "--algo", "directional", "--patch", "8", "--mask", str(mask_path)]
    base += ["--snapshot-every", "5", "--snapshot-dir", str(snaps)]
    no_pillow = "PNG support needs Pillow"
    snapfile = tmp_path / "snapfile"
    snapfile.write_bytes(b"")
    # the input does not exist either: the output check must come first
    for args, message in (
        (["--out", str(tmp_path / "r.jpg"), "--overlay", str(overlay)], "unsupported image extension '.jpg'"),
        (["--out", str(tmp_path / "r.pgm"), "--overlay", str(tmp_path / "ov.jpg")], "unsupported image extension '.jpg'"),
        (["--out", str(tmp_path / "nodir" / "r.pgm"), "--overlay", str(overlay)], f"cannot write {tmp_path / 'nodir' / 'r.pgm'}"),
        (["--out", str(tmp_path / "r.png"), "--overlay", str(overlay)], no_pillow),
        (["--out", str(tmp_path / "r.pgm"), "--snapshot-dir", str(snapfile)], f"cannot make snapshot directory {snapfile}: {snapfile} is not"),
        (["--out", str(tmp_path / "r.pgm"), "--snapshot-dir", str(snapfile / "s")], f"directory {snapfile / 's'}: {snapfile} is not"),
        (["--out", str(tmp_path / "iter000005.pgm"), "--snapshot-dir", str(tmp_path)], f"cannot write {tmp_path / 'iter000005.pgm'}: the snapshot of iteration 5 names"),
        (["--out", str(tmp_path / "r.pgm"), "--overlay", str(tmp_path / "iter000010.pgm"), "--snapshot-dir", str(tmp_path)], "the snapshot of iteration 10 names"),
    ):
        assert main(base + ["--in", str(tmp_path / "nope.pgm"), *args]) == EXIT_IO
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
    # with a readable input, nothing is solved or written either
    for out, message in (("r.jpg", "unsupported image extension '.jpg'"), ("r.png", no_pillow)):
        assert main(base + ["--in", str(image_path), "--out", str(tmp_path / out), "--overlay", str(overlay)]) == EXIT_IO
        assert message in capsys.readouterr().err
        assert not overlay.exists() and not snaps.exists() and not (tmp_path / out).exists()
    # an output that is a file the run's snapshots write (iter{n:06d}.pgm, n a positive multiple of K up to
    # --max-iters, in the snapshot directory, however spelled) would overwrite that snapshot: refused
    snaps.mkdir()
    for name, dir_arg in (("iter000005.pgm", snaps), ("iter000995.pgm", snaps), ("iter000005.pgm", snaps / ".." / "snaps")):
        for out_args in (["--out", str(snaps / name)], ["--out", str(tmp_path / "r.pgm"), "--overlay", str(snaps / name)]):
            assert main(base + ["--in", str(image_path), "--snapshot-dir", str(dir_arg), "--max-iters", "995", *out_args]) == EXIT_IO
            assert f"the snapshot of iteration {int(name[4:10])} names the same file" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*.pgm")) == sorted([image_path, mask_path])


def test_an_output_beside_the_snapshots_that_no_snapshot_writes_is_allowed(workspace):
    tmp_path, image_path, mask_path, _ = workspace
    snaps = tmp_path / "snaps"
    argv = ["inpaint", "--algo", "diffusion", "--in", str(image_path), "--mask", str(mask_path)]
    argv += ["--snapshot-every", "5", "--snapshot-dir", str(snaps), "--max-iters", "12"]
    snaps.mkdir()
    # not a multiple of 5, iteration 0, seven digits for 5, past --max-iters, and snapshot 5's name in another directory
    for out in (snaps / "iter000004.pgm", snaps / "iter000000.pgm", snaps / "iter0000005.pgm", snaps / "iter000015.pgm", tmp_path / "iter000005.pgm"):
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert out.exists()


def test_genmask_checks_its_output_before_building_the_mask(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "PIL", None)  # no Pillow, whether or not it is installed
    for builder in ("random_mask", "text_mask"):
        monkeypatch.setattr(cli, builder, lambda *a, **k: pytest.fail("the mask was built before --out was checked"))
    missing = tmp_path / "nodir" / "m.pgm"
    for out, message in (
        (missing, f"cannot write {missing}: directory {missing.parent} does not exist"),
        (tmp_path / "m.jpg", "unsupported image extension '.jpg'"),
        (tmp_path / "m.png", "PNG support needs Pillow"),
    ):
        for kind in (["--random", "0.5"], ["--text", "Hi"]):
            assert main(["genmask", "--size", "8x8", "--out", str(out), *kind]) == EXIT_IO
            captured = capsys.readouterr()
            assert captured.err.startswith(f"inpaintkit: I/O error: {message}") and captured.out == ""
    assert not list(tmp_path.iterdir())


def test_bench_checks_its_output_paths_before_any_run(tmp_path, capsys):
    img_dir = tmp_path / "images"
    img_dir.mkdir()
    write_image(np.random.default_rng(56).uniform(size=(16, 16)), img_dir / "one.pgm")
    csv_path = tmp_path / "r.csv"
    missing = tmp_path / "nodir"
    base = ["bench", "--images", str(img_dir), "--text", "Hi", "--algos", "diffusion-diamond"]
    for args, named in (
        (["--out", str(missing / "r.csv")], missing / "r.csv"),
        (["--out", str(csv_path), "--aggregate-out", str(missing / "a.csv")], missing / "a.csv"),
    ):
        assert main(base + args) == EXIT_IO
        captured = capsys.readouterr()
        assert f"cannot write {named}" in captured.err and captured.out == ""
        assert not csv_path.exists() and not missing.exists()


def test_numeric_errors_exit_3(workspace, tmp_path):
    tmp_path_ws, image_path, _, _ = workspace
    small_mask = tmp_path / "small_mask.pgm"
    write_image(mask_to_image(random_mask(8, 8, 0.5, seed=1)), small_mask)
    out = str(tmp_path / "o.pgm")
    code = main(["inpaint", "--algo", "diffusion", "--in", str(image_path), "--mask", str(small_mask), "--out", out])
    assert code == EXIT_NUMERIC


def test_a_size_past_the_image_is_clamped_and_one_too_large_to_index_exits_3(workspace, capsys):
    tmp_path, image_path, mask_path, _ = workspace
    # a --scale past the mask reads the first glyph cell's corner, as --scale 8 does on 8x8
    for name, scale in (("huge.pgm", "1" + "0" * 30), ("side.pgm", "8")):
        assert main(["genmask", "--size", "8x8", "--out", str(tmp_path / name), "--text", "hi", "--scale", scale]) == EXIT_OK
    assert (tmp_path / "huge.pgm").read_bytes() == (tmp_path / "side.pgm").read_bytes()
    # a --patch past the image is the one patch that covers it
    base = ["inpaint", "--algo", "directional", "--in", str(image_path), "--mask", str(mask_path)]
    for name, patch in (("huge", "1" + "0" * 29), ("side", "32")):
        out, overlay = str(tmp_path / f"{name}-r.pgm"), str(tmp_path / f"{name}-o.pgm")
        assert main(base + ["--patch", patch, "--out", out, "--overlay", overlay]) == EXIT_OK
    for kind in ("r", "o"):
        assert (tmp_path / f"huge-{kind}.pgm").read_bytes() == (tmp_path / f"side-{kind}.pgm").read_bytes()
    # a mask too large for numpy to index is a numeric error, with nothing written
    capsys.readouterr()
    out = tmp_path / "m.pgm"
    assert main(["genmask", "--size", "8x1" + "0" * 29, "--out", str(out), "--text", "hi"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.err.startswith("inpaintkit: numeric error: ") and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 58.2 TiB")])
def test_a_failed_allocation_exits_3(tmp_path, capsys, monkeypatch, error):
    # the real `genmask --size 8x999999999999 --random 0.5` fails the same way, but must never run here
    def allocate(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "random_mask", allocate)
    out = tmp_path / "m.pgm"
    assert main(["genmask", "--size", "8x999999999999", "--out", str(out), "--random", "0.5"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.err == f"inpaintkit: numeric error: {str(error) or 'MemoryError'}\n" and captured.out == ""
    assert not out.exists()


def test_inpaint_rejects_two_outputs_naming_one_file(workspace, capsys, monkeypatch):
    tmp_path, image_path, mask_path, _ = workspace
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "read_image", lambda path: pytest.fail("an input was read before the outputs were checked"))
    argv = ["inpaint", "--algo", "directional", "--in", str(image_path), "--mask", str(mask_path)]
    assert main(argv + ["--out", "o.pgm", "--overlay", "./o.pgm"]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err == "inpaintkit: I/O error: cannot write ./o.pgm: o.pgm names the same file\n" and captured.out == ""
    assert not (tmp_path / "o.pgm").exists()


def test_bench_rejects_two_outputs_naming_one_file(tmp_path, capsys, monkeypatch):
    img_dir = tmp_path / "images"
    img_dir.mkdir()
    write_image(np.random.default_rng(57).uniform(size=(16, 16)), img_dir / "one.pgm")
    monkeypatch.chdir(tmp_path)
    argv = ["bench", "--images", "images", "--text", "Hi", "--algos", "diffusion-diamond"]
    assert main(argv + ["--out", "r.csv", "--aggregate-out", "./r.csv"]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err == "inpaintkit: I/O error: cannot write ./r.csv: r.csv names the same file\n" and captured.out == ""
    assert not (tmp_path / "r.csv").exists()


def test_genmask_random_fraction(tmp_path, capsys):
    out_path = tmp_path / "mask.pgm"
    code = main(["genmask", "--size", "32x48", "--out", str(out_path), "--random", "0.25", "--seed", "7"])
    assert code == EXIT_OK
    mask = read_image(out_path)
    assert mask.shape == (32, 48)
    missing = int((mask == 0).sum())
    assert missing == round(0.25 * 32 * 48)
    assert f"{missing} missing" in capsys.readouterr().out


def test_genmask_text_matches_library(tmp_path):
    out_path = tmp_path / "mask.pgm"
    code = main(["genmask", "--size", "64x64", "--out", str(out_path), "--text", "Hi", "--scale", "2"])
    assert code == EXIT_OK
    mask = read_image(out_path)
    assert np.array_equal(mask > 0, text_mask(64, 64, "Hi", scale=2) == 1)


def test_genmask_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "m.pgm")
    # every usage error exits 1 and names its flag
    for args, message in (
        ([], "one of the arguments --random --text is required"),
        (["--random", "0.2", "--text", "x"], "argument --text: not allowed with argument --random"),
        (["--random", "1.5"], "argument --random: must be in [0, 1], got 1.5"),
        (["--random", "half"], "argument --random: invalid float value: 'half'"),
        (["--text", ""], "argument --text: must be non-empty"),
    ):
        assert main(["genmask", "--size", "32x32", "--out", out, *args]) == EXIT_USAGE
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
    for size, message in (("32", "must look like ROWSxCOLS"), ("32x32x2", "must look like ROWSxCOLS"), ("0x32", "must be positive")):
        assert main(["genmask", "--size", size, "--out", out, "--random", "0.2"]) == EXIT_USAGE
        assert capsys.readouterr().err.endswith(f"error: argument --size: {message}, got {size}\n")
    for flag, value, bound in (("--scale", "0", "1"), ("--scale", "-3", "1"), ("--seed", "-1", "0")):
        assert main(["genmask", "--size", "32x32", "--out", out, "--text", "x", flag, value]) == EXIT_USAGE
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: must be >= {bound}, got {value}\n")
    # seed 0 is a valid seed
    assert main(["genmask", "--size", "8x8", "--out", out, "--random", "0.5", "--seed", "0"]) == EXIT_OK


def test_bench_end_to_end(tmp_path, capsys):
    img_dir = tmp_path / "images"
    img_dir.mkdir()
    rng = np.random.default_rng(52)
    for name in ("one", "two"):
        write_image(rng.uniform(size=(16, 16)), img_dir / f"{name}.pgm")
    csv_path = tmp_path / "results.csv"
    agg_path = tmp_path / "agg.csv"
    code = main(
        [
            "bench",
            "--images",
            str(img_dir),
            "--out",
            str(csv_path),
            "--algos",
            "diffusion-diamond",
            "--random-fractions",
            "0.3,0.5",
            "--aggregate-out",
            str(agg_path),
        ]
    )
    assert code == EXIT_OK
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "image_id,mask_id,algorithm,mse,iterations,wall_seconds,converged"
    assert len(lines) == 1 + 2 * 2 * 1
    assert lines[1].startswith("one,random-0.3-seed42,diffusion-diamond,")
    agg_lines = agg_path.read_text().strip().split("\n")
    assert len(agg_lines) == 1 + 2
    assert lines[1].endswith(",True")
    assert "wrote" in capsys.readouterr().out


def test_bench_quotes_an_image_id_holding_a_comma_and_a_quote(tmp_path):
    img_dir = tmp_path / "images"
    img_dir.mkdir()
    write_image(np.random.default_rng(56).uniform(size=(16, 16)), img_dir / 'a,"b.pgm')
    csv_path = tmp_path / "results.csv"
    assert main(["bench", "--images", str(img_dir), "--out", str(csv_path), "--algos", "diffusion-diamond", "--text", "x"]) == EXIT_OK
    with open(csv_path, newline="", encoding="utf-8") as fh:
        header, row = csv.reader(fh)
    assert len(header) == len(row) == 7
    assert row[:3] == ['a,"b', "text-scale2", "diffusion-diamond"]


def test_bench_mask_ids_order_and_repeated_fractions(tmp_path, capsys):
    img_dir = tmp_path / "images"
    img_dir.mkdir()
    rng = np.random.default_rng(54)
    for name in ("one", "two"):
        write_image(rng.uniform(size=(16, 16)), img_dir / f"{name}.pgm")
    csv_path = tmp_path / "results.csv"
    agg_path = tmp_path / "agg.csv"
    argv = ["bench", "--images", str(img_dir), "--out", str(csv_path), "--algos", "diffusion-diamond,diffusion-diamond", "--aggregate-out", str(agg_path)]
    # the text mask comes first whatever the flag order; a repeated fraction is one mask and a repeated algorithm one run
    code = main(argv + ["--random-fractions", "0.3,0.3", "--seed", "7", "--text", "ab", "--scale", "3"])
    assert code == EXIT_OK
    rows = [line.split(",") for line in csv_path.read_text().strip().split("\n")[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("one", "text-scale3"),
        ("one", "random-0.3-seed7"),
        ("two", "text-scale3"),
        ("two", "random-0.3-seed7"),
    ]
    assert f"wrote {csv_path}: 4 records" in capsys.readouterr().out
    agg = [line.split(",") for line in agg_path.read_text().strip().split("\n")[1:]]
    assert [(a[0], a[2]) for a in agg] == [("text-scale3", "2"), ("random-0.3-seed7", "2")]


def test_bench_warns_when_max_iters_stops_a_run(tmp_path, capsys):
    img_dir = tmp_path / "images"
    img_dir.mkdir()
    write_image(np.random.default_rng(53).uniform(size=(16, 16)), img_dir / "one.pgm")
    csv_path = tmp_path / "results.csv"
    argv = ["bench", "--images", str(img_dir), "--out", str(csv_path), "--algos", "diffusion-diamond", "--random-fractions", "0.5"]
    assert main(argv + ["--max-iters", "1"]) == EXIT_OK
    row = csv_path.read_text().strip().split("\n")[1].split(",")
    assert (row[4], row[6]) == ("1", "False")
    assert capsys.readouterr().err == (
        "inpaintkit: warning: stopped at max-iters 1 without converging (one random-0.5-seed42 diffusion-diamond)\n"
    )
    # a converged run stays silent on stderr
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert csv_path.read_text().strip().split("\n")[1].endswith(",True")


def test_bench_usage_and_io_errors(tmp_path, capsys):
    img_dir = tmp_path / "images"
    img_dir.mkdir()
    csv_path = str(tmp_path / "r.csv")
    # unknown algorithm, bad lists and no masks requested are usage errors that name the flag
    for args, message in (
        (["--algos", "nope", "--text", "x"], "argument --algos: unknown algorithm 'nope'"),
        (["--algos", ",", "--text", "x"], "argument --algos: must list at least one value, got ','"),
        (["--text", ""], "argument --text: must be non-empty"),
        (["--random-fractions", "0.3,1.5"], "argument --random-fractions: must be in [0, 1], got 1.5"),
        (["--random-fractions", "0.3,x"], "argument --random-fractions: invalid float list value: '0.3,x'"),
        ([], "no masks requested; give --text and/or --random-fractions"),
    ):
        assert main(["bench", "--images", str(img_dir), "--out", csv_path, *args]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {message}" in err and err.endswith("\n")
    # out-of-range settings are usage errors that name the flag and its value
    base = ["bench", "--images", str(img_dir), "--out", csv_path, "--text", "x"]
    for flag, value, bound in (
        ("--epsilon", "-0.5", "0"),
        ("--epsilon", "nan", "0"),
        ("--max-iters", "0", "1"),
        ("--scale", "0", "1"),
        ("--seed", "-1", "0"),
    ):
        assert main(base + [flag, value]) == EXIT_USAGE
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: must be >= {bound}, got {value}\n")
    assert main(base + ["--epsilon", "inf"]) == EXIT_USAGE
    assert capsys.readouterr().err.endswith("error: argument --epsilon: must be finite, got inf\n")
    # an empty image directory is an I/O error
    assert main(["bench", "--images", str(img_dir), "--out", csv_path, "--text", "x"]) == EXIT_IO
    assert main(["bench", "--images", str(tmp_path / "missing"), "--out", csv_path, "--text", "x"]) == EXIT_IO
    # image ids are file stems: a.pgm and a.pnm would share one, so nothing is read or run
    for name in ("a.pgm", "a.pnm", "b.pgm"):
        write_image(np.full((8, 8), 0.5), img_dir / name)
    capsys.readouterr()
    assert main(["bench", "--images", str(img_dir), "--out", csv_path, "--text", "x"]) == EXIT_IO
    captured = capsys.readouterr()
    assert "image ids are file stems and must be unique" in captured.err and "repeated: a\n" in captured.err
    assert captured.out == "" and not (tmp_path / "r.csv").exists()


def test_bench_rejects_a_bad_mask_request_before_any_run(tmp_path, capsys):
    img_dir = tmp_path / "images"
    img_dir.mkdir()
    write_image(np.random.default_rng(55).uniform(size=(16, 16)), img_dir / "one.pgm")
    csv_path = tmp_path / "r.csv"
    base = ["bench", "--images", str(img_dir), "--out", str(csv_path), "--algos", "diffusion-diamond"]
    # an empty text and no mask kind at all are refused with a readable image on hand, and nothing is written
    for args, message in (
        (["--text", ""], "argument --text: must be non-empty"),
        (["--text", "", "--random-fractions", "0.3"], "argument --text: must be non-empty"),
        ([], "no masks requested; give --text and/or --random-fractions"),
    ):
        assert main(base + args) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.endswith(f"error: {message}\n") and captured.out == ""
        assert not csv_path.exists()
    # the same image benches once a mask is given
    assert main(base + ["--text", "x"]) == EXIT_OK
    assert csv_path.read_text().strip().split("\n")[1].startswith("one,text-scale2,diffusion-diamond,")


def test_module_run_exits_with_the_status_main_returns(tmp_path):
    # `python -m inpaintkit.cli` ends in sys.exit(main()), as the installed script's wrapper does
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "inpaintkit.cli", *args], env=env, capture_output=True, text=True, timeout=120)

    helped = run("--help")
    assert helped.returncode == EXIT_OK and "inpaint" in helped.stdout
    usage = run("genmask", "--size", "8x8", "--random", "0.5")
    assert usage.returncode == EXIT_USAGE and "--out" in usage.stderr
    missing = tmp_path / "nodir" / "m.pgm"
    io = run("genmask", "--size", "8x8", "--out", str(missing), "--random", "0.5")
    assert io.returncode == EXIT_IO and io.stderr.startswith(f"inpaintkit: I/O error: cannot write {missing}")
    assert not list(tmp_path.iterdir())


def test_help_exits_zero(capsys):
    # argparse's SystemExit is absorbed and surfaced as a return code
    assert main(["--help"]) == EXIT_OK
    assert "inpaint" in capsys.readouterr().out
