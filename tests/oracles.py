"""Independent reference implementations the tests check the package against.

Nothing here shares code with the package. The iterative solver is
checked against a dense linear solve of its fixed-point system and, bit
for bit, against a plain per-patch loop; kernel rotation at right
angles against plain array quarter turns, and at every angle against a
separate polynomial-form bicubic evaluator; the orientation angle
against the one-patch formula in plain floats; the orientation overlay
against a per-sample drawing loop; the text mask against a per-glyph
stamping loop that decodes each glyph's column bytes bit by bit.
"""

from __future__ import annotations

import numpy as np


def harmonic_fill(damaged, mask, kernel) -> np.ndarray:
    """Exact fixed point of masked kernel averaging, by dense linear solve.

    Every unknown pixel p must satisfy
        I[p] = sum_q w[q] * I[clamp(p + q)]
    with known pixels held at their input values and out-of-range
    neighbours clamped to the border (replicate padding). That is a
    linear system in the unknown pixels; build it and solve it directly.
    Needs at least one known pixel, otherwise the system is singular.
    """
    img = np.asarray(damaged, dtype=np.float64)
    m = np.asarray(mask)
    k = np.asarray(kernel, dtype=np.float64)
    k = k / k.sum()
    rows, cols = img.shape
    unknown = [(int(r), int(c)) for r, c in np.argwhere(m == 0)]
    if not unknown:
        return img.copy()
    index = {rc: i for i, rc in enumerate(unknown)}
    a = np.eye(len(unknown))
    b = np.zeros(len(unknown))
    for i, (r, c) in enumerate(unknown):
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                w = k[dr + 1, dc + 1]
                if w == 0.0:
                    continue
                rr = min(max(r + dr, 0), rows - 1)
                cc = min(max(c + dc, 0), cols - 1)
                if m[rr, cc] == 1:
                    b[i] += w * img[rr, cc]
                else:
                    a[i, index[(rr, cc)]] -= w
    values = np.linalg.solve(a, b)
    out = img.copy()
    for (r, c), value in zip(unknown, values):
        out[r, c] = value
    return out


def cubic_weight_direct(t: float, a: float = -0.5) -> float:
    """Cubic convolution weight, straight from the piecewise polynomials."""
    at = abs(float(t))
    if at <= 1.0:
        return float(np.polyval([a + 2.0, -(a + 3.0), 0.0, 1.0], at))
    if at < 2.0:
        return float(np.polyval([a, -5.0 * a, 8.0 * a, -4.0 * a], at))
    return 0.0


def bicubic_direct(grid, x: float, y: float) -> float:
    """Separable cubic convolution sample with edge-clamped taps."""
    g = np.asarray(grid, dtype=np.float64)
    bx = int(np.floor(x))
    by = int(np.floor(y))
    total = 0.0
    for j in range(-1, 3):
        wy = cubic_weight_direct(y - (by + j))
        for i in range(-1, 3):
            wx = cubic_weight_direct(x - (bx + i))
            r = min(max(by + j, 0), g.shape[0] - 1)
            c = min(max(bx + i, 0), g.shape[1] - 1)
            total += wy * wx * g[r, c]
    return total


def quarter_turn(kernel, turns: int) -> np.ndarray:
    """Visually clockwise quarter turns, row axis pointing down."""
    return np.rot90(np.asarray(kernel, dtype=np.float64), -turns)


def rotate_kernel_direct(theta_deg: float) -> np.ndarray:
    """Diagonal kernel turned by theta + 45 degrees, sampled with bicubic_direct."""
    diag = np.array([[0.38, 0.04, 0.04], [0.04, 0.00, 0.04], [0.04, 0.04, 0.38]])
    angle = np.radians(theta_deg + 45.0)
    cos_a, sin_a = np.cos(-angle), np.sin(-angle)
    out = np.empty((3, 3))
    for r in range(3):
        for c in range(3):
            x, y = c - 1.0, r - 1.0
            out[r, c] = max(bicubic_direct(diag, 1.0 + x * cos_a - y * sin_a, 1.0 + x * sin_a + y * cos_a), 0.0)
    return out / out.sum()


def shift_diff_direct(patch, dx: int, dy: int) -> float:
    """Sum of |P(r, c) - P((r + dy) mod H, (c + dx) mod W)| over the patch, by modular indexing."""
    p = np.asarray(patch, dtype=np.float64)
    r, c = np.indices(p.shape)
    return float(np.sum(np.abs(p - p[(r + dy) % p.shape[0], (c + dx) % p.shape[1]])))


def orientation_direct(patch):
    """(v, h, d, theta1, theta) of one patch, the orientation formula in Python floats.

    v, h and diag are the column, row and diagonal shift differences;
    theta1 = 90 (h + 1) / (h + v + 1), d = (1 + diag) / (1 + v + h), and
    theta = -90 + 90 d + theta1 when d > 0.6, else -90 + 90 - theta1,
    reduced into (-90, 90].
    """
    v = shift_diff_direct(patch, 1, 0)
    h = shift_diff_direct(patch, 0, 1)
    diag = shift_diff_direct(patch, 1, 1)
    theta1 = 90.0 * (h + 1.0) / (h + v + 1.0)
    d = (1.0 + diag) / (1.0 + v + h)
    theta = -90.0 + (90.0 * d + theta1) if d > 0.6 else -90.0 + (90.0 - theta1)
    if theta > 90.0:
        theta -= 180.0
    elif theta <= -90.0:
        theta += 180.0
    return v, h, d, theta1, theta


def jacobi_loop(damaged, mask, kernel, epsilon: float, max_iters: int):
    """Whole-array masked Jacobi iteration under replicate padding.

    Repeats: pad the iterate by edge replication, sum the kernel-weighted
    shifted copies tap by tap in row-major order (zero taps skipped), put
    the known pixels back. Stops when the Frobenius distance between
    consecutive iterates is at most epsilon or after max_iters steps, so
    an image with a missing pixel takes at least one step. An image
    without a missing pixel takes no step, with delta 0. Returns (image,
    iterations, delta).
    """
    original = np.asarray(damaged, dtype=np.float64)
    known = np.asarray(mask) == 1
    k = np.asarray(kernel, dtype=np.float64)
    k = k / k.sum()
    rows, cols = original.shape
    cur = original.copy()
    delta = 0.0 if known.all() else np.inf
    iterations = 0
    while delta > epsilon and iterations < max_iters:
        padded = np.pad(cur, 1, mode="edge")
        step = np.zeros_like(cur)
        for r in range(3):
            for c in range(3):
                if k[r, c] != 0.0:
                    step += k[r, c] * padded[r : r + rows, c : c + cols]
        prev, cur = cur, np.where(known, original, step)
        iterations += 1
        delta = float(np.sqrt(np.sum((cur - prev) ** 2)))
    return cur, iterations, delta


def patch_loop(base, mask, patches, epsilon: float, max_iters: int):
    """Re-diffuse patches one at a time, each inside a fixed 1-pixel halo.

    patches is a sequence of (top, left, height, width, kernel). Each
    patch runs jacobi_loop on its window extended by one pixel on every
    side that lies inside the image; the halo pixels count as known. Only
    patch interiors are written back, into a copy of base. Returns
    (image, per-patch iteration counts, per-patch final deltas).
    """
    base = np.asarray(base, dtype=np.float64)
    mask = np.asarray(mask)
    rows, cols = base.shape
    out = base.copy()
    counts = []
    deltas = []
    for top, left, height, width, kernel in patches:
        t, lft = max(top - 1, 0), max(left - 1, 0)
        b, rgt = min(top + height + 1, rows), min(left + width + 1, cols)
        held = np.ones((b - t, rgt - lft), dtype=np.uint8)
        held[top - t : top - t + height, left - lft : left - lft + width] = mask[top : top + height, left : left + width]
        image, iterations, delta = jacobi_loop(base[t:b, lft:rgt], held, kernel, epsilon, max_iters)
        out[top : top + height, left : left + width] = image[top - t : top - t + height, left - lft : left - lft + width]
        counts.append(iterations)
        deltas.append(delta)
    return out, counts, deltas


def overlay_loop(img, patches) -> np.ndarray:
    """Draw each patch's orientation segment one sample at a time.

    patches is a sequence of (top, left, height, width, theta). The
    segment passes through the patch centre at angle theta, with
    4 * half samples evenly spaced over [-half, half], half = 0.4 times
    the shorter side; each sample is rounded to the nearest pixel and
    painted 1.0 when it lies inside the image.
    """
    out = np.array(img, dtype=np.float64)
    rows, cols = out.shape
    for top, left, height, width, theta in patches:
        cy = top + (height - 1) / 2.0
        cx = left + (width - 1) / 2.0
        half = 0.4 * min(height, width)
        t = np.radians(theta)
        dx, dy = -np.sin(t), np.cos(t)
        steps = max(int(np.ceil(4.0 * half)), 1)
        for s in np.linspace(-half, half, steps):
            r = int(round(cy + s * dy))
            c = int(round(cx + s * dx))
            if 0 <= r < rows and 0 <= c < cols:
                out[r, c] = 1.0
    return out


def glyph_bits(columns) -> np.ndarray:
    """7x5 uint8 bitmap of five column bytes: bit r of byte c inks row r of column c."""
    out = np.zeros((7, 5), dtype=np.uint8)
    for c, byte in enumerate(columns):
        for r in range(7):
            if byte >> r & 1:
                out[r, c] = 1
    return out


def text_mask_loop(rows: int, cols: int, text: str, scale: int, font) -> np.ndarray:
    """Stamp the text one glyph at a time; 0 marks ink, 1 everything else.

    font maps a character to its five column bytes. Glyph cells are
    6 * scale columns wide and 12 * scale rows tall, filled row by row
    from the origin with the character stream cycling through text.
    Each glyph is scaled by pixel replication, put at the top left of
    its cell and clipped at the image edge; a character missing from
    font leaves its cell blank.
    """
    bits = np.ones((rows, cols), dtype=np.uint8)
    block = np.ones((scale, scale), dtype=np.uint8)
    k = 0
    for top in range(0, rows, 12 * scale):
        for left in range(0, cols, 6 * scale):
            ch = text[k % len(text)]
            k += 1
            if ch not in font:
                continue
            ink = np.kron(glyph_bits(font[ch]), block)
            h = min(ink.shape[0], rows - top)
            w = min(ink.shape[1], cols - left)
            region = bits[top : top + h, left : left + w]
            region[ink[:h, :w] == 1] = 0
    return bits
