"""Seeded inputs for the benchmark workloads.

Everything the program reads in a timed call is generated here from the
workload seed and written into a work directory: IDX image/label pairs and
config files.  The same seed gives the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Class prototypes of the 28x28 stand-in are drawn once from this fixed seed,
# so every workload seed poses the same ten-class task and only the examples
# (jitter, flipped blocks, noise) change with the seed.
PROTOTYPE_SEED = 20170306
STANDIN_CLASSES = 10
STANDIN_SIDE = 28
STANDIN_BLOCK = 4  # 28 = 7 blocks of 4 px: one block is one cell at 7x7


def standin_prototypes() -> np.ndarray:
    """Ten distinct 7x7 binary block patterns, shape ``(10, 7, 7)``."""
    cells = STANDIN_SIDE // STANDIN_BLOCK
    rng = np.random.default_rng(PROTOTYPE_SEED)
    while True:
        protos = rng.random((STANDIN_CLASSES, cells, cells)) < 0.5
        flat = protos.reshape(STANDIN_CLASSES, -1)
        dist = (flat[:, None, :] != flat[None, :, :]).sum(axis=-1)
        if dist[~np.eye(STANDIN_CLASSES, dtype=bool)].min() >= 15:
            return protos.astype(np.float64)


def standin_images(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` 28x28 uint8 images of the ten-class stand-in and their labels.

    Each image is a class prototype on 4x4-pixel blocks with 5% of its
    blocks flipped, a jittered background and contrast, and pixel noise.
    Because the class content sits on whole 4x4 blocks, two 2x coarsenings
    (28 -> 14 -> 7) keep one cell per block, so the classes stay apart on
    every pyramid level.
    """
    protos = standin_prototypes()
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % STANDIN_CLASSES).astype(np.uint8)
    pattern = protos[labels]
    flips = rng.random(pattern.shape) < 0.05
    pattern = np.where(flips, 1.0 - pattern, pattern)
    pixels = np.kron(pattern, np.ones((STANDIN_BLOCK, STANDIN_BLOCK)))
    base = rng.uniform(0.15, 0.35, (n, 1, 1))
    contrast = rng.uniform(0.35, 0.55, (n, 1, 1))
    values = base + contrast * pixels + 0.08 * rng.standard_normal(pixels.shape)
    images = np.rint(255.0 * np.clip(values, 0.0, 1.0)).astype(np.uint8)
    return images, labels


def to_bytes(images: np.ndarray) -> np.ndarray:
    """Quantize ``[0, 1]`` images to the IDX pixel bytes (value * 255)."""
    return np.rint(255.0 * np.clip(images, 0.0, 1.0)).astype(np.uint8)


def write_idx(images: np.ndarray, labels: np.ndarray, stem: Path) -> tuple[Path, Path]:
    """Write an IDX pair (magic 0x803 images, 0x801 labels, big-endian dims)."""
    n, rows, cols = images.shape
    image_path = stem.with_name(stem.name + "-images-idx3-ubyte")
    label_path = stem.with_name(stem.name + "-labels-idx1-ubyte")
    header = np.array([0x803, n, rows, cols], dtype=">u4").tobytes()
    image_path.write_bytes(header + images.astype(np.uint8).tobytes())
    header = np.array([0x801, n], dtype=">u4").tobytes()
    label_path.write_bytes(header + labels.astype(np.uint8).tobytes())
    return image_path, label_path


def write_config(path: Path, settings: dict) -> Path:
    """Write ``key = value`` lines, the format the CLI reads."""
    path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    return path
