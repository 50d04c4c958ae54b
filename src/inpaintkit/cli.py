"""Command line interface: inpaint, genmask and bench subcommands.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .bench import ALGORITHMS, aggregate_records, run_bench, write_aggregate_csv, write_records_csv
from .diffusion import DiffusionConfig, diffuse
from .directional import inpaint_directional, render_directionality_overlay
from .image_io import CODECS, ImageFormatError, read_image, write_image
from .kernels import diag_kernel, diamond_kernel
from .masks import MaskSpec, apply_damage, mask_from_image, mask_to_image, random_mask, text_mask

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

# --kernel choices for --algo diffusion (default diamond)
KERNELS = {"diamond": diamond_kernel, "diag": diag_kernel}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags by default; the interface reserves
    # 2 for I/O problems, so usage errors remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _usage_error(parser: argparse.ArgumentParser, message: str) -> int:
    print(f"{parser.prog}: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _parse_size(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"size must look like ROWSxCOLS, got {text!r}")
    rows, cols = int(parts[0]), int(parts[1])
    if rows < 1 or cols < 1:
        raise ValueError(f"size must be positive, got {text!r}")
    return rows, cols


def _at_least(low, cast):
    """argparse type for a bounded option: cast, then reject values below low."""

    def parse(text):
        value = cast(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value

    parse.__name__ = cast.__name__  # keeps argparse's "invalid float value" wording
    return parse


def build_parser() -> _Parser:
    parser = _Parser(prog="inpaintkit", description="Grayscale image inpainting by masked kernel diffusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_in = sub.add_parser("inpaint", parents=[], help="reconstruct the missing pixels of one image")
    p_in.add_argument("--algo", choices=("diffusion", "directional"), required=True)
    p_in.add_argument("--kernel", choices=tuple(KERNELS), default=None, help="diffusion only (default diamond)")
    p_in.add_argument("--patch", type=_at_least(2, int), default=None, help="directional only: patch side length (default 16)")
    p_in.add_argument("--in", dest="input", required=True, metavar="PATH")
    p_in.add_argument("--mask", required=True, metavar="PATH", help="image file; 0 = missing, nonzero = known")
    p_in.add_argument("--out", required=True, metavar="PATH")
    p_in.add_argument("--overlay", default=None, metavar="PATH", help="directional only: write an orientation overlay image")
    p_in.add_argument("--epsilon", type=_at_least(0, float), default=1e-3)
    p_in.add_argument("--max-iters", type=_at_least(1, int), default=10_000)
    p_in.add_argument("--snapshot-every", type=_at_least(1, int), default=None, metavar="K", help="write the iterate every K iterations")
    p_in.add_argument("--snapshot-dir", default=None, metavar="DIR")
    p_in.set_defaults(func=cmd_inpaint)

    p_gen = sub.add_parser("genmask", help="generate a mask image")
    p_gen.add_argument("--size", required=True, metavar="ROWSxCOLS")
    p_gen.add_argument("--out", required=True, metavar="PATH")
    p_gen.add_argument("--random", type=float, default=None, metavar="FRACTION", help="missing pixel fraction in [0, 1]")
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.add_argument("--text", default=None)
    p_gen.add_argument("--scale", type=_at_least(1, int), default=1)
    p_gen.set_defaults(func=cmd_genmask)

    p_bench = sub.add_parser("bench", help="benchmark algorithms over an image directory")
    p_bench.add_argument("--images", required=True, metavar="DIR", help="directory of .pgm/.png grayscale images")
    p_bench.add_argument("--out", required=True, metavar="CSV")
    p_bench.add_argument("--algos", default=",".join(ALGORITHMS), help="comma list of algorithm ids")
    p_bench.add_argument("--text", default=None, help="add a text mask with this text")
    p_bench.add_argument("--scale", type=_at_least(1, int), default=2, help="text mask scale")
    p_bench.add_argument("--random-fractions", default=None, metavar="F1,F2,...", help="add random masks at these missing fractions")
    p_bench.add_argument("--seed", type=int, default=42)
    p_bench.add_argument("--aggregate-out", default=None, metavar="CSV", help="also write per-mask aggregate stats")
    p_bench.add_argument("--epsilon", type=_at_least(0, float), default=1e-3)
    p_bench.add_argument("--max-iters", type=_at_least(1, int), default=10_000)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def _warn_capped(max_iters: int, detail: str) -> None:
    print(f"inpaintkit: warning: stopped at max-iters {max_iters} without converging ({detail})", file=sys.stderr)


def _load_mask(path):
    return mask_from_image(read_image(path))


def cmd_inpaint(parser, args) -> int:
    if args.algo == "diffusion":
        if args.patch is not None:
            return _usage_error(parser, "--patch applies to --algo directional only")
        if args.overlay is not None:
            return _usage_error(parser, "--overlay applies to --algo directional only")
    else:
        if args.kernel is not None:
            return _usage_error(parser, "--kernel applies to --algo diffusion only")
    if (args.snapshot_every is None) != (args.snapshot_dir is None):
        return _usage_error(parser, "--snapshot-every and --snapshot-dir go together")

    image = read_image(args.input)
    mask = _load_mask(args.mask)
    config = DiffusionConfig(epsilon=args.epsilon, max_iters=args.max_iters)
    damaged = apply_damage(image, mask)

    callback = None
    if args.snapshot_every is not None:
        every = args.snapshot_every
        snap_dir = Path(args.snapshot_dir)
        snap_dir.mkdir(parents=True, exist_ok=True)

        def callback(iteration, current):
            if iteration % every == 0:
                write_image(current, snap_dir / f"iter{iteration:06d}.pgm")

    start = time.perf_counter()
    if args.algo == "diffusion":
        res = diffuse(damaged, mask, KERNELS[args.kernel or "diamond"](), config, callback=callback)
    else:
        patch = 16 if args.patch is None else args.patch
        # snapshots track the estimate pass of the directional pipeline
        res = inpaint_directional(damaged, mask, patch, config, callback=callback)
        if args.overlay is not None:
            write_image(render_directionality_overlay(res.image, res.grid), args.overlay)
    wall = time.perf_counter() - start

    write_image(res.image, args.out)
    print(f"wrote {args.out}: iterations={res.iterations} converged={res.converged} wall_seconds={wall:.6g}")
    if not res.converged:
        _warn_capped(args.max_iters, f"delta={res.final_delta:.6g}")
    return EXIT_OK


def cmd_genmask(parser, args) -> int:
    if (args.random is None) == (args.text is None):
        return _usage_error(parser, "give exactly one of --random or --text")
    try:
        rows, cols = _parse_size(args.size)
    except ValueError as exc:
        return _usage_error(parser, str(exc))
    if args.random is not None:
        if not (0.0 <= args.random <= 1.0):
            return _usage_error(parser, f"--random must be in [0, 1], got {args.random:g}")
        mask = random_mask(rows, cols, args.random, args.seed)
    else:
        if not args.text:
            return _usage_error(parser, "--text must be non-empty")
        mask = text_mask(rows, cols, args.text, args.scale)
    write_image(mask_to_image(mask), args.out)
    missing = int((mask == 0).sum())
    print(f"wrote {args.out}: {rows}x{cols}, {missing} missing pixels ({missing / (rows * cols):.4g})")
    return EXIT_OK


def cmd_bench(parser, args) -> int:
    algorithms = tuple(name.strip() for name in args.algos.split(",") if name.strip())
    for name in algorithms:
        if name not in ALGORITHMS:
            return _usage_error(parser, f"unknown algorithm {name!r}; choose from {', '.join(ALGORITHMS)}")
    if not algorithms:
        return _usage_error(parser, "--algos must name at least one algorithm")

    specs = []
    if args.text is not None:
        specs.append(MaskSpec(kind="text", text=args.text, scale=args.scale))
    if args.random_fractions is not None:
        try:
            fractions = [float(tok) for tok in args.random_fractions.split(",") if tok.strip()]
        except ValueError:
            return _usage_error(parser, f"bad --random-fractions {args.random_fractions!r}")
        for f in fractions:
            if not (0.0 <= f <= 1.0):
                return _usage_error(parser, f"random fraction must be in [0, 1], got {f:g}")
            specs.append(MaskSpec(kind="random", missing_fraction=f, seed=args.seed))
    if not specs:
        return _usage_error(parser, "no masks requested; give --text and/or --random-fractions")

    image_dir = Path(args.images)
    if not image_dir.is_dir():
        raise ImageFormatError(f"{image_dir} is not a directory")
    paths = sorted(p for p in image_dir.iterdir() if p.suffix.lower() in CODECS)
    if not paths:
        raise ImageFormatError(f"no .pgm/.png images in {image_dir}")
    images = {p.stem: read_image(p) for p in paths}

    config = DiffusionConfig(epsilon=args.epsilon, max_iters=args.max_iters)

    def progress(rec):
        print(
            f"{rec.image_id} {rec.mask_id} {rec.algorithm}: "
            f"mse={rec.mse:.6g} iters={rec.iterations} wall={rec.wall_seconds:.3g}s"
        )
        if not rec.converged:
            _warn_capped(args.max_iters, f"{rec.image_id} {rec.mask_id} {rec.algorithm}")

    records = run_bench(images, specs, algorithms, config, progress=progress)
    write_records_csv(records, args.out)
    print(f"wrote {args.out}: {len(records)} records")
    if args.aggregate_out is not None:
        write_aggregate_csv(aggregate_records(records), args.aggregate_out)
        print(f"wrote {args.aggregate_out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(parser, args)
    except (ImageFormatError, OSError) as exc:
        print(f"inpaintkit: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        print(f"inpaintkit: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
