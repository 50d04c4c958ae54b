"""Command line interface: inpaint, genmask and bench subcommands.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numeric failure or a failed allocation.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
from collections import Counter
from functools import cache, partial
from inspect import signature
from pathlib import Path

import numpy as np

from .bench import ALGORITHMS, AggregateRow, BenchRecord, aggregate_records, run_bench, write_csv
from .diffusion import DiffusionConfig, diffuse
from .directional import inpaint_directional, render_directionality_overlay
from .image_io import CODECS, ImageFormatError, codec, quantize, read_image, write_image, write_pgm
from .kernels import diag_kernel, diamond_kernel
from .masks import apply_damage, mask_from_image, mask_to_image, random_mask, text_mask

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

# --kernel choices for --algo diffusion (default diamond)
KERNELS = {"diamond": diamond_kernel, "diag": diag_kernel}

# the file name of the snapshot of iteration n, in --snapshot-dir
SNAPSHOT_NAME = "iter{:06d}.pgm"


def _bounded(low, cast, high=math.inf):
    """argparse type for a bounded option: cast, then reject values outside [low, high]."""

    def parse(text):
        value = cast(text)
        if not low <= value <= high:
            bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        if value == math.inf:  # "inf", or a float literal too large for a double, such as 1e400
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        return value

    parse.__name__ = cast.__name__  # keeps argparse's "invalid float value" wording
    return parse


def _comma_list(item):
    """argparse type for a comma list of at least one distinct entry, each parsed by item."""

    def parse(text):
        # a repeated entry counts once, in first-seen order
        values = list(dict.fromkeys(item(tok.strip()) for tok in text.split(",") if tok.strip()))
        if not values:
            raise argparse.ArgumentTypeError(f"must list at least one value, got {text!r}")
        return values

    parse.__name__ = f"{item.__name__} list"
    return parse


def _algorithm_id(text):
    """argparse type for one bench algorithm id."""
    if text not in ALGORITHMS:
        raise argparse.ArgumentTypeError(f"unknown algorithm {text!r}; choose from {', '.join(ALGORITHMS)}")
    return text


def _size(text):
    """argparse type for ROWSxCOLS, both at least 1."""
    rows, _, cols = text.lower().partition("x")
    try:
        size = int(rows), int(cols)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must look like ROWSxCOLS, got {text}") from None
    if min(size) < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return size


def _non_empty(text):
    """argparse type for a non-empty string."""
    if not text:
        raise argparse.ArgumentTypeError("must be non-empty")
    return text


def _solver_flags(parser) -> None:
    """Add --epsilon and --max-iters to a subcommand, with DiffusionConfig's defaults."""
    parser.add_argument("--epsilon", type=_bounded(0, float), default=DiffusionConfig.epsilon)
    parser.add_argument("--max-iters", type=_bounded(1, int), default=DiffusionConfig.max_iters)


@cache  # built once per process: parse_args keeps no state in the parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="inpaintkit", description="Grayscale image inpainting by masked kernel diffusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_in = sub.add_parser("inpaint", help="reconstruct the missing pixels of one image")
    p_in.add_argument("--algo", choices=("diffusion", "directional"), required=True)
    p_in.add_argument("--kernel", choices=tuple(KERNELS), default=None, help="diffusion only (default diamond)")
    p_in.add_argument(
        "--patch",
        type=_bounded(2, int),
        default=None,
        help=f"directional only: patch side length (default {signature(inpaint_directional).parameters['patch_size'].default})",
    )
    p_in.add_argument("--in", dest="input", required=True, metavar="PATH")
    p_in.add_argument("--mask", required=True, metavar="PATH", help="image file; > 0 = known, any other value = missing")
    p_in.add_argument("--out", required=True, metavar="PATH")
    p_in.add_argument("--overlay", default=None, metavar="PATH", help="directional only: write an orientation overlay image")
    _solver_flags(p_in)
    p_in.add_argument("--snapshot-every", type=_bounded(1, int), default=None, metavar="K", help="write the iterate every K iterations")
    p_in.add_argument("--snapshot-dir", default=None, metavar="DIR")
    p_in.set_defaults(func=partial(cmd_inpaint, p_in))

    p_gen = sub.add_parser("genmask", help="generate a mask image")
    p_gen.add_argument("--size", type=_size, required=True, metavar="ROWSxCOLS")
    p_gen.add_argument("--out", required=True, metavar="PATH")
    kind = p_gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--random", type=_bounded(0, float, 1), metavar="FRACTION", help="missing pixel fraction in [0, 1]")
    kind.add_argument("--text", type=_non_empty)
    p_gen.add_argument("--seed", type=_bounded(0, int), default=42)
    p_gen.add_argument("--scale", type=_bounded(1, int), default=1)
    p_gen.set_defaults(func=cmd_genmask)

    p_bench = sub.add_parser("bench", help="benchmark algorithms over an image directory")
    p_bench.add_argument("--images", required=True, metavar="DIR", help="directory of .pgm/.png grayscale images")
    p_bench.add_argument("--out", required=True, metavar="CSV")
    p_bench.add_argument("--algos", type=_comma_list(_algorithm_id), default=tuple(ALGORITHMS), help="comma list of algorithm ids")
    p_bench.add_argument("--text", type=_non_empty, default=None, help="add a text mask with this text")
    p_bench.add_argument("--scale", type=_bounded(1, int), default=2, help="text mask scale")
    p_bench.add_argument(
        "--random-fractions", type=_comma_list(_bounded(0, float, 1)), default=(), metavar="F1,F2,...", help="add random masks at these missing fractions"
    )
    p_bench.add_argument("--seed", type=_bounded(0, int), default=42)
    p_bench.add_argument("--aggregate-out", default=None, metavar="CSV", help="also write per-mask aggregate stats")
    _solver_flags(p_bench)
    p_bench.set_defaults(func=partial(cmd_bench, p_bench))
    return parser


def _warn_capped(max_iters: int, detail: str) -> None:
    print(f"inpaintkit: warning: stopped at max-iters {max_iters} without converging ({detail})", file=sys.stderr)


def _snapshot_iteration(target: Path, snapshots) -> int | None:
    """n if the resolved path target is the snapshot file of iteration n that snapshots = (dir, every K, max iterations) may write, else None."""
    snapshot_dir, every, max_iters = snapshots
    found = re.fullmatch(r"iter(\d+)\.pgm", target.name)
    if found is None or target.parent != Path(snapshot_dir).resolve():
        return None
    n = int(found[1])
    return n if SNAPSHOT_NAME.format(n) == target.name and 0 < n <= max_iters and n % every == 0 else None


def _check_outputs(*paths, images: bool, snapshots=None) -> None:
    """Fail before any input is read if an output's directory is missing, an image output has no codec usable here, two outputs name one file, the snapshot directory cannot be made, or an output is a file a snapshot writes.

    snapshots is None or (snapshot directory, every K iterations, max iterations).
    """
    if snapshots is not None:
        snapshot_dir = snapshots[0]
        existing = next(p for p in (Path(snapshot_dir), *Path(snapshot_dir).parents) if p.exists())
        if not existing.is_dir():
            raise NotADirectoryError(f"cannot make snapshot directory {snapshot_dir}: {existing} is not a directory")
    written = {}
    for path in paths:
        if path is None:
            continue
        if images:
            codec(path)  # an unsupported extension, or .png without Pillow, raises here
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"cannot write {path}: directory {Path(path).parent} does not exist")
        target = Path(path).resolve()
        if target in written:
            raise OSError(f"cannot write {path}: {written[target]} names the same file")
        iteration = None if snapshots is None else _snapshot_iteration(target, snapshots)
        if iteration is not None:
            raise OSError(f"cannot write {path}: the snapshot of iteration {iteration} names the same file")
        written[target] = path


def _snapshot_writer(damaged, mask, every: int, snap_dir: Path):
    """Make snap_dir and return the solve callback that writes every K-th iterate into it as a PGM."""
    snap_dir.mkdir(parents=True, exist_ok=True)
    # known pixels never change, so they are quantized once, into this frame;
    # one flat index reads the missing pixels from the strided iterate through
    # np.take and writes them into the contiguous frame
    frame = quantize(damaged)
    missing = np.flatnonzero(mask == 0)

    def callback(iteration, current):
        if iteration % every == 0:
            frame.reshape(-1)[missing] = quantize(np.take(current, missing))
            write_pgm(frame, snap_dir / SNAPSHOT_NAME.format(iteration))

    return callback


def cmd_inpaint(parser, args) -> int:
    for flag, algo in (("patch", "directional"), ("overlay", "directional"), ("kernel", "diffusion")):
        if getattr(args, flag) is not None and args.algo != algo:
            parser.error(f"--{flag} applies to --algo {algo} only")
    if (args.snapshot_every is None) != (args.snapshot_dir is None):
        parser.error("--snapshot-every and --snapshot-dir go together")

    snapshots = None if args.snapshot_dir is None else (args.snapshot_dir, args.snapshot_every, args.max_iters)
    _check_outputs(args.out, args.overlay, images=True, snapshots=snapshots)
    image = read_image(args.input)
    mask = mask_from_image(read_image(args.mask))
    config = DiffusionConfig(epsilon=args.epsilon, max_iters=args.max_iters)
    damaged = apply_damage(image, mask)
    del image  # the run reads only damaged; dropping the input lowers its peak memory by one float image

    callback = None if args.snapshot_every is None else _snapshot_writer(damaged, mask, args.snapshot_every, Path(args.snapshot_dir))

    start = time.perf_counter()
    if args.algo == "diffusion":
        res = diffuse(damaged, mask, KERNELS[args.kernel or "diamond"](), config, callback=callback)
    else:
        patch = {} if args.patch is None else {"patch_size": args.patch}
        # snapshots track the estimate pass of the directional pipeline
        res = inpaint_directional(damaged, mask, config=config, callback=callback, **patch)
    wall = time.perf_counter() - start  # the solve only, as bench times it: no output is rendered or written
    del damaged, mask, callback  # the outputs need only res: the input and the snapshot frame go before any is built
    if args.overlay is not None:  # --algo directional only
        write_image(render_directionality_overlay(res.image, res.grid), args.overlay)
    write_image(res.image, args.out)
    print(f"wrote {args.out}: iterations={res.iterations} converged={res.converged} wall_seconds={wall:.6g}")
    if not res.converged:
        _warn_capped(args.max_iters, f"delta={res.final_delta:.6g}")
    return EXIT_OK


def cmd_genmask(args) -> int:
    _check_outputs(args.out, images=True)
    rows, cols = args.size
    if args.random is not None:
        mask = random_mask(rows, cols, args.random, args.seed)
    else:
        mask = text_mask(rows, cols, args.text, args.scale)
    write_image(mask_to_image(mask), args.out)
    missing = int((mask == 0).sum())
    print(f"wrote {args.out}: {rows}x{cols}, {missing} missing pixels ({missing / (rows * cols):.4g})")
    return EXIT_OK


def cmd_bench(parser, args) -> int:
    # mask_id -> builder(rows, cols), text first
    masks = {}
    if args.text is not None:
        masks[f"text-scale{args.scale}"] = partial(text_mask, text=args.text, scale=args.scale)
    for f in args.random_fractions:
        masks[f"random-{f:g}-seed{args.seed}"] = partial(random_mask, missing_fraction=f, seed=args.seed)
    if not masks:
        parser.error("no masks requested; give --text and/or --random-fractions")

    _check_outputs(args.out, args.aggregate_out, images=False)
    image_dir = Path(args.images)
    if not image_dir.is_dir():
        raise ImageFormatError(f"{image_dir} is not a directory")
    paths = sorted(p for p in image_dir.iterdir() if p.suffix.lower() in CODECS)
    if not paths:
        raise ImageFormatError(f"no .pgm/.png images in {image_dir}")
    repeated = sorted(i for i, n in Counter(p.stem for p in paths).items() if n > 1)
    if repeated:
        raise ImageFormatError(f"image ids are file stems and must be unique in {image_dir}; repeated: {', '.join(repeated)}")
    images = {p.stem: read_image(p) for p in paths}

    config = DiffusionConfig(epsilon=args.epsilon, max_iters=args.max_iters)

    def progress(rec):
        print(
            f"{rec.image_id} {rec.mask_id} {rec.algorithm}: "
            f"mse={rec.mse:.6g} iters={rec.iterations} wall={rec.wall_seconds:.3g}s"
        )
        if not rec.converged:
            _warn_capped(args.max_iters, f"{rec.image_id} {rec.mask_id} {rec.algorithm}")

    records = run_bench(images, masks, args.algos, config, progress=progress)
    write_csv(records, BenchRecord, args.out)
    print(f"wrote {args.out}: {len(records)} records")
    if args.aggregate_out is not None:
        write_csv(aggregate_records(records), AggregateRow, args.aggregate_out)
        print(f"wrote {args.aggregate_out}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error, every parser.error() included
        return EXIT_USAGE if exc.code else EXIT_OK
    except (ImageFormatError, OSError) as exc:
        print(f"inpaintkit: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, MemoryError) as exc:
        # a bare MemoryError() has no message of its own
        print(f"inpaintkit: numeric error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
