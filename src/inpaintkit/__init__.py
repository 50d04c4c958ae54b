"""Grayscale image inpainting by masked kernel diffusion.

Two reconstruction algorithms share one iteration engine: regular
diffusion with a fixed kernel, and a directional variant that infers a
per-patch orientation angle and re-diffuses each patch with a kernel
rotated to match. Masks mark known pixels with 1 and missing ones with 0.
"""

from .core import mse, split_into_patches
from .diffusion import DiffusionConfig, DiffusionResult, diffuse
from .directional import (
    DirectionalResult,
    PatchGrid,
    build_patch_grid,
    diffuse_patches,
    inpaint_directional,
    render_directionality_overlay,
)
from .directionality import patch_angles
from .image_io import ImageFormatError, read_image, write_image
from .kernels import diag_kernel, diamond_kernel, normalize, rotate_kernel
from .masks import apply_damage, mask_from_image, mask_to_image, random_mask, text_mask

__version__ = "0.1.0"

__all__ = [
    "mse",
    "split_into_patches",
    "DiffusionConfig",
    "DiffusionResult",
    "diffuse",
    "DirectionalResult",
    "PatchGrid",
    "build_patch_grid",
    "diffuse_patches",
    "inpaint_directional",
    "render_directionality_overlay",
    "patch_angles",
    "ImageFormatError",
    "read_image",
    "write_image",
    "diag_kernel",
    "diamond_kernel",
    "normalize",
    "rotate_kernel",
    "apply_damage",
    "mask_from_image",
    "mask_to_image",
    "random_mask",
    "text_mask",
    "__version__",
]
