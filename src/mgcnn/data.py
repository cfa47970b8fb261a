"""Datasets and model persistence.

Input images are grayscale in ``[0, 1]`` on one shared grid.  Three sources
are supported: IDX files (the classic big-endian MNIST container), and two
deterministic synthetic families small enough for fast experiments:

``bars``
    Two-pixel-wide bars repeating across the whole image, horizontal for
    class 0 and vertical for class 1.  The background level and the bar
    contrast vary per image, so global brightness separates nothing.  The
    stripes are aligned with 2x2 cell blocks, so coarsening by two keeps
    them at full contrast while halving their period, which makes this set
    the workhorse of the cross-resolution experiments.  At zero noise the
    classes are linearly separable by one fixed weight field (see the
    generator).

``blobs``
    A Gaussian bump near one of two class-dependent positions plus noise.

Models are saved in a small versioned binary container: magic, format
version, then tagged blocks whose payloads are little-endian IEEE-754
doubles (or UTF-8 JSON for the provenance record), and last a checksum
block holding the CRC-32 of every byte before it.  Writing is fully
deterministic, so identical models produce identical bytes.  Reading
refuses any other format version, a missing or wrong checksum, and any
unknown, repeated or trailing block.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    BadMagicError,
    CountMismatchError,
    DataFormatError,
    DimensionError,
    TruncatedFileError,
    VersionMismatchError,
)
from .grid import Grid2D
from .network import Activation, Classifier, NetworkParams
from .stencils import StencilBank

__all__ = [
    "LabeledDataset",
    "ModelFile",
    "MODEL_VERSION",
    "SyntheticKind",
    "load_idx",
    "load_model",
    "make_synthetic",
    "save_model",
    "split",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

MODEL_MAGIC = b"MGCN"
MODEL_VERSION = 2
_MODEL_TAGS = ("GRID", "HYPR", "BANK", "BIAS", "EMBD", "CLSW", "CLSB", "PROV")
_GRID = struct.Struct("<IId")  # nx, ny, h
# depth, channels, kernel, dt, T, activation code, gain, embedding learnable
_HYPR = struct.Struct("<IIIddBdB")


@dataclass
class LabeledDataset:
    """Images ``(m, ny, nx)`` in ``[0, 1]`` with integer labels ``(m,)``."""

    grid: Grid2D
    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if self.images.ndim != 3 or self.images.shape[-2:] != self.grid.shape:
            raise DimensionError(
                f"images of shape {self.images.shape} do not fit grid {self.grid.shape}"
            )
        if self.images.shape[0] != self.labels.size:
            raise CountMismatchError(
                f"{self.images.shape[0]} images but {self.labels.size} labels"
            )
        if self.images.size and not (self.images.min() >= 0.0 and self.images.max() <= 1.0):
            raise ValueError("image values must lie in [0, 1]")  # NaN fails both tests
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self) -> int:
        return self.labels.size

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(
            self.grid, self.images[indices], self.labels[indices], self.num_classes
        )


def _read_exact(data: bytes, offset: int, count: int, path: str) -> bytes:
    if offset + count > len(data):
        raise TruncatedFileError(
            f"{path}: expected {count} bytes at offset {offset}, file has {len(data)}"
        )
    return data[offset : offset + count]


def _parse_idx(path: str, magic: int, ndim: int) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    header = _read_exact(data, 0, 4 * (1 + ndim), path)
    fields = struct.unpack(f">{1 + ndim}i", header)
    if fields[0] != magic:
        raise BadMagicError(f"{path}: magic {fields[0]:#010x}, expected {magic:#010x}")
    shape = fields[1:]
    if min(shape) < 0:
        raise DataFormatError(f"{path}: negative dimension in the IDX shape {shape}")
    count = math.prod(shape)
    payload = _read_exact(data, 4 * (1 + ndim), count, path)
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape)


def load_idx(image_path: str, label_path: str, h: float = 1.0) -> LabeledDataset:
    """Load an IDX image/label file pair; pixels are scaled to ``[0, 1]``."""
    raw_images = _parse_idx(image_path, IDX_IMAGE_MAGIC, 3)
    if 0 in raw_images.shape[1:]:
        raise DataFormatError(f"{image_path}: images of shape {raw_images.shape[1:]}, "
                              "need at least one row and one column")
    raw_labels = _parse_idx(label_path, IDX_LABEL_MAGIC, 1)
    if raw_images.shape[0] != raw_labels.shape[0]:
        raise CountMismatchError(
            f"{image_path} holds {raw_images.shape[0]} images but "
            f"{label_path} holds {raw_labels.shape[0]} labels"
        )
    grid = Grid2D(nx=raw_images.shape[2], ny=raw_images.shape[1], h=h)
    labels = raw_labels.astype(np.int64)
    num_classes = int(labels.max()) + 1 if labels.size else 0
    return LabeledDataset(grid, raw_images.astype(np.float64) / 255.0, labels, num_classes)


class SyntheticKind(Enum):
    BLOBS = "blobs"
    BARS = "bars"


def make_synthetic(
    kind: SyntheticKind,
    n: int,
    grid: Grid2D,
    seed: int = 0,
    noise: float = 0.05,
) -> LabeledDataset:
    """Deterministic two-class toy set; classes alternate, balance within 1."""
    if n < 2:
        raise ValueError(f"need at least two examples, got {n}")
    rng = np.random.default_rng(seed)
    ny, nx = grid.shape
    labels = np.arange(n, dtype=np.int64) % 2

    if kind is SyntheticKind.BARS:
        # Repeating two-pixel-wide bars filling the image: class 0 stripes
        # the rows, class 1 stripes the columns.  The background level and
        # the stripe contrast are jittered per image, so mean brightness
        # carries no class signal.  Stripes start on even indices, so a
        # block of 2x2 cells is constant and coarsening by two keeps full
        # contrast while halving the stripe period; the class content of an
        # image therefore survives grid transfer but moves to a different
        # spatial frequency, which is what the cross-resolution experiments
        # exercise.  Zero-noise separability: the fixed field
        # colsign - rowsign has zero mean, is orthogonal to the opposite
        # orientation, and correlates with the matching stripes at full
        # strength, so the sign of that inner product is the class.
        rowsign = np.where((np.arange(ny) // 2) % 2 == 0, 1.0, -1.0)[:, None]
        colsign = np.where((np.arange(nx) // 2) % 2 == 0, 1.0, -1.0)[None, :]
        # one (base, contrast) pair per image, drawn in image order
        base, t = rng.uniform([-0.15, 0.1], [0.15, 0.2], (n, 2)).T[:, :, None, None]
        images = 0.5 + base + t * np.where(labels[:, None, None] == 0, rowsign, colsign)
    elif kind is SyntheticKind.BLOBS:
        centers = np.array([[0.3 * ny, 0.3 * nx], [0.7 * ny, 0.7 * nx]])
        rows = np.arange(ny)[:, None]
        cols = np.arange(nx)[None, :]
        width = 0.12 * min(ny, nx)
        cy, cx = (centers[labels] + rng.uniform(-1.0, 1.0, (n, 2))).T[:, :, None, None]
        images = np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / (2.0 * width**2))
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")

    if noise:
        images += noise * rng.standard_normal(images.shape)
        np.clip(images, 0.0, 1.0, out=images)
    return LabeledDataset(grid, images, labels, num_classes=2)


def split(
    dataset: LabeledDataset, train_fraction: float, seed: int = 0
) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded shuffle, then a train/validation cut at ``train_fraction``."""
    m = len(dataset)
    n_train = int(round(train_fraction * m))
    if n_train < 1 or n_train >= m:
        raise ValueError(
            f"split of {m} examples at fraction {train_fraction} leaves an empty part"
        )
    perm = np.random.default_rng(seed).permutation(m)
    return dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])


@dataclass
class ModelFile:
    """A trained model plus its provenance (config hash, seed, schedule)."""

    params: NetworkParams
    classifier: Classifier
    provenance: dict = field(default_factory=dict)


_ACT_CODES = {Activation.TANH: 0, Activation.IDENTITY: 1}
_ACT_FROM_CODE = {v: k for k, v in _ACT_CODES.items()}


def _block(tag: bytes, payload: bytes) -> bytes:
    return tag + struct.pack("<Q", len(payload)) + payload


def _crc(data: bytes) -> bytes:
    return struct.pack("<I", zlib.crc32(data))


def save_model(path: str, model: ModelFile) -> None:
    """Write the versioned binary container; byte output is deterministic."""
    p, clf = model.params, model.classifier
    n, c, k = p.num_layers, p.channels, p.kernel_size
    banks = np.stack([b.weights for b in p.banks]) if n else np.zeros((0, c, c, k, k))

    blocks = [
        _block(b"GRID", _GRID.pack(clf.grid.nx, clf.grid.ny, clf.grid.h)),
        _block(b"HYPR", _HYPR.pack(n, c, k, p.dt, p.final_time, _ACT_CODES[p.activation],
                                   p.act_gain, 1 if p.embed_learnable else 0)),
        _block(b"BANK", banks.astype("<f8").tobytes()),
        _block(b"BIAS", p.biases.astype("<f8").tobytes()),
        _block(b"EMBD", p.embed.weights.astype("<f8").tobytes()),
        _block(
            b"CLSW",
            struct.pack("<I", clf.num_classes) + clf.weights.astype("<f8").tobytes(),
        ),
        _block(b"CLSB", clf.mu.astype("<f8").tobytes()),
        _block(
            b"PROV",
            json.dumps(model.provenance, sort_keys=True, ensure_ascii=True).encode("ascii"),
        ),
    ]
    body = MODEL_MAGIC + struct.pack("<I", MODEL_VERSION) + b"".join(blocks)
    with open(path, "wb") as fh:
        fh.write(body + _block(b"CSUM", _crc(body)))


def _doubles(payload: bytes, shape: tuple[int, ...], tag: str, path: str) -> np.ndarray:
    expect = math.prod(shape) * 8
    if len(payload) != expect:
        raise DataFormatError(
            f"{path}: block {tag} holds {len(payload)} bytes, expected {expect}"
        )
    values = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise DataFormatError(f"{path}: block {tag} holds a non-finite value")
    return values


def load_model(path: str) -> ModelFile:
    """Read a container written by :func:`save_model`; round-trips bit-exactly.

    A file it cannot parse or decode raises :class:`~mgcnn.errors.DataFormatError`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header = _read_exact(data, 0, 8, path)
    if header[:4] != MODEL_MAGIC:
        raise BadMagicError(f"{path}: not a model container (magic {header[:4]!r})")
    version = struct.unpack("<I", header[4:8])[0]
    if version != MODEL_VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version}, this build reads {MODEL_VERSION}"
        )

    blocks: dict[str, bytes] = {}
    checked = False
    offset = 8
    while offset < len(data):
        if checked:
            raise DataFormatError(f"{path}: data follows the checksum block")
        tag = _read_exact(data, offset, 4, path).decode("ascii", errors="replace")
        (length,) = struct.unpack("<Q", _read_exact(data, offset + 4, 8, path))
        payload = _read_exact(data, offset + 12, length, path)
        if tag == "CSUM":
            if payload != _crc(data[:offset]):
                raise DataFormatError(f"{path}: checksum mismatch, the file was altered")
            checked = True
        elif tag not in _MODEL_TAGS:
            raise DataFormatError(f"{path}: unknown block {tag!r}")
        elif tag in blocks:
            raise DataFormatError(f"{path}: duplicate block {tag}")
        blocks[tag] = payload
        offset += 12 + length
    if not checked:
        raise DataFormatError(f"{path}: no checksum block")
    for tag in _MODEL_TAGS:
        if tag not in blocks:
            raise DataFormatError(f"{path}: missing block {tag}")
    try:
        return _decode_model(blocks, path)
    except DataFormatError:
        raise
    except (struct.error, ValueError) as exc:  # also bad JSON or ASCII in PROV
        raise DataFormatError(f"{path}: malformed model: {exc}") from exc


def _decode_model(blocks: dict[str, bytes], path: str) -> ModelFile:
    nx, ny, h = _GRID.unpack(blocks["GRID"])
    n, c, k, dt, final_time, act_code, act_gain, embed_learnable = _HYPR.unpack(blocks["HYPR"])
    if act_code not in _ACT_FROM_CODE:
        raise DataFormatError(f"{path}: unknown activation code {act_code}")
    if not np.all(np.isfinite([dt, final_time, act_gain])):
        raise DataFormatError(f"{path}: block HYPR holds a non-finite value")
    grid = Grid2D(nx=nx, ny=ny, h=h)
    banks_arr = _doubles(blocks["BANK"], (n, c, c, k, k), "BANK", path)
    num_classes = struct.unpack("<I", blocks["CLSW"][:4])[0]
    params = NetworkParams(
        dt=dt,
        final_time=final_time,
        banks=[StencilBank(banks_arr[i]) for i in range(n)],
        biases=_doubles(blocks["BIAS"], (n, c), "BIAS", path),
        embed=StencilBank(_doubles(blocks["EMBD"], (c, 1, k, k), "EMBD", path)),
        embed_learnable=bool(embed_learnable),
        activation=_ACT_FROM_CODE[act_code],
        act_gain=act_gain,
    )
    classifier = Classifier(
        grid,
        _doubles(blocks["CLSW"][4:], (num_classes, c, ny, nx), "CLSW", path),
        _doubles(blocks["CLSB"], (num_classes,), "CLSB", path),
    )
    provenance = json.loads(blocks["PROV"].decode("ascii"))
    if not isinstance(provenance, dict):
        raise DataFormatError(f"{path}: provenance block is not a JSON object")
    return ModelFile(params=params, classifier=classifier, provenance=provenance)
