"""IDX ingestion, synthetic datasets, splitting, and the model container."""

import struct
import zlib

import numpy as np
import pytest

from mgcnn.cli import main
from mgcnn.data import (
    MODEL_VERSION,
    LabeledDataset,
    ModelFile,
    SyntheticKind,
    load_idx,
    load_model,
    make_synthetic,
    save_model,
    split,
)
from mgcnn.errors import (
    BadMagicError,
    CountMismatchError,
    DataFormatError,
    DimensionError,
    TruncatedFileError,
    VersionMismatchError,
)
from mgcnn.grid import Grid2D
from mgcnn.network import Classifier, random_network_params, zero_classifier
from mgcnn.training import BcdConfig, RegConfig, bcd_train, evaluate

from oracles import naive_synthetic, write_idx_images, write_idx_labels


def idx_pair(tmp_path, images, labels):
    ip, lp = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
    write_idx_images(ip, np.asarray(images, dtype=np.uint8))
    write_idx_labels(lp, np.asarray(labels, dtype=np.uint8))
    return ip, lp


class TestLabeledDataset:
    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            LabeledDataset(Grid2D(3, 2), np.zeros((1, 3, 3)), [0], num_classes=2)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(Grid2D(2, 2), np.array([[[1.0, np.nan], [0.0, 0.0]]]), [0],
                           num_classes=2)


class TestLoadIdx:
    def test_exact_bytes_to_floats(self, tmp_path):
        ip, lp = idx_pair(
            tmp_path,
            [[[0, 255], [128, 51]], [[1, 2], [3, 4]]],
            [0, 1],
        )
        ds = load_idx(ip, lp)
        assert len(ds) == 2
        assert ds.grid.shape == (2, 2)
        assert ds.num_classes == 2
        np.testing.assert_array_equal(
            ds.images[0], [[0.0, 1.0], [128 / 255, 0.2]]
        )
        np.testing.assert_array_equal(ds.images[1], np.array([[1, 2], [3, 4]]) / 255)
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_truncated_image_file(self, tmp_path):
        ip, lp = idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        raw = open(ip, "rb").read()
        open(ip, "wb").write(raw[:-3])
        with pytest.raises(TruncatedFileError):
            load_idx(ip, lp)

    def test_truncated_label_header(self, tmp_path):
        ip, lp = idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        open(lp, "wb").write(open(lp, "rb").read()[:6])
        with pytest.raises(TruncatedFileError):
            load_idx(ip, lp)

    def test_bad_magic(self, tmp_path):
        ip, lp = idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        raw = bytearray(open(ip, "rb").read())
        raw[3] = 0x99
        open(ip, "wb").write(bytes(raw))
        with pytest.raises(BadMagicError):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, lp = idx_pair(tmp_path, np.zeros((3, 2, 2)), [0, 1])
        with pytest.raises(CountMismatchError):
            load_idx(ip, lp)

    def test_values_in_unit_interval(self, tmp_path):
        rng = np.random.default_rng(0)
        ip, lp = idx_pair(tmp_path, rng.integers(0, 256, (5, 3, 3)), rng.integers(0, 2, 5))
        ds = load_idx(ip, lp)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


class TestMakeSynthetic:
    def test_deterministic_per_seed(self):
        g = Grid2D(8, 8, 1.0)
        for kind in SyntheticKind:
            a = make_synthetic(kind, 20, g, seed=7)
            b = make_synthetic(kind, 20, g, seed=7)
            np.testing.assert_array_equal(a.images, b.images)
            np.testing.assert_array_equal(a.labels, b.labels)
            c = make_synthetic(kind, 20, g, seed=8)
            assert not np.array_equal(a.images, c.images)

    def test_class_balance(self):
        g = Grid2D(8, 8, 1.0)
        for n in (10, 11, 25):
            ds = make_synthetic(SyntheticKind.BLOBS, n, g, seed=1)
            counts = np.bincount(ds.labels, minlength=2)
            assert abs(counts[0] - n / 2) <= 1 and abs(counts[1] - n / 2) <= 1

    def test_zero_noise_bars_linear_classifier(self):
        # The stripe fields themselves form a separating direction: project
        # on (column stripes - row stripes) and take the sign.
        g = Grid2D(12, 12, 1.0)
        ds = make_synthetic(SyntheticKind.BARS, 40, g, seed=3, noise=0.0)
        rowsign = np.where((np.arange(12) // 2) % 2 == 0, 1.0, -1.0)[:, None]
        colsign = np.where((np.arange(12) // 2) % 2 == 0, 1.0, -1.0)[None, :]
        template = colsign - rowsign
        pred = (np.tensordot(ds.images, template, axes=2) > 0).astype(int)
        np.testing.assert_array_equal(pred, ds.labels)

    def test_zero_noise_blobs_linear_classifier(self):
        # Class signal is the bump location: project on the difference of
        # the two nominal bumps and take the sign.
        g = Grid2D(8, 8, 1.0)
        ds = make_synthetic(SyntheticKind.BLOBS, 40, g, seed=4, noise=0.0)
        rows, cols = np.arange(8)[:, None], np.arange(8)[None, :]
        w = 0.12 * 8
        bump0 = np.exp(-((rows - 2.4) ** 2 + (cols - 2.4) ** 2) / (2 * w * w))
        bump1 = np.exp(-((rows - 5.6) ** 2 + (cols - 5.6) ** 2) / (2 * w * w))
        pred = (np.tensordot(ds.images, bump1 - bump0, axes=2) > 0).astype(int)
        np.testing.assert_array_equal(pred, ds.labels)

    def test_values_clipped_to_unit_interval(self):
        g = Grid2D(8, 8, 1.0)
        for kind in SyntheticKind:
            ds = make_synthetic(kind, 30, g, seed=5, noise=0.5)
            assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_too_few_examples(self):
        with pytest.raises(ValueError):
            make_synthetic(SyntheticKind.BARS, 1, Grid2D(8, 8, 1.0))

    @pytest.mark.parametrize("kind", list(SyntheticKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("shape", [(8, 8), (12, 12), (6, 10), (7, 5), (28, 28)])
    def test_matches_the_per_image_reference(self, kind, shape):
        # The generators draw every image's jitter in one call and build the
        # images by broadcasting: same draws, same formula, same bytes.
        ny, nx = shape
        for seed in (0, 1, 7):
            for noise in (0.0, 0.05, 0.4):
                ds = make_synthetic(kind, 11, Grid2D(nx, ny, 1.0), seed=seed, noise=noise)
                ref = naive_synthetic(kind.value, 11, ny, nx, seed, noise)
                assert ds.images.tobytes() == ref.tobytes()


class TestSplit:
    def test_five_sixths_of_sixty(self):
        g = Grid2D(4, 4, 1.0)
        ds = make_synthetic(SyntheticKind.BARS, 60, g, seed=0)
        tr, va = split(ds, 5 / 6, seed=0)
        assert (len(tr), len(va)) == (50, 10)

    def test_same_seed_identical(self):
        ds = make_synthetic(SyntheticKind.BLOBS, 30, Grid2D(4, 4, 1.0), seed=0)
        a_tr, a_va = split(ds, 0.8, seed=5)
        b_tr, b_va = split(ds, 0.8, seed=5)
        np.testing.assert_array_equal(a_tr.images, b_tr.images)
        np.testing.assert_array_equal(a_va.labels, b_va.labels)

    def test_disjoint_and_exhaustive(self):
        # Tag every image with a unique corner value so rows are identifiable.
        g = Grid2D(4, 4, 1.0)
        images = np.zeros((24, 4, 4))
        images[:, 0, 0] = (np.arange(24) + 1) / 100.0
        ds = LabeledDataset(g, images, np.arange(24) % 2, 2)
        tr, va = split(ds, 0.75, seed=9)
        tags = np.concatenate([tr.images[:, 0, 0], va.images[:, 0, 0]])
        assert sorted(tags) == sorted(images[:, 0, 0])

    def test_degenerate_fractions(self):
        ds = make_synthetic(SyntheticKind.BARS, 10, Grid2D(4, 4, 1.0), seed=0)
        for frac in (0.01, 0.999):
            with pytest.raises(ValueError):
                split(ds, frac)


def random_model(seed=0, num_layers=3):
    rng = np.random.default_rng(seed)
    params = random_network_params(
        channels=2, num_layers=num_layers, final_time=1.5, seed=seed, init_scale=0.4
    )
    for b in params.banks:
        b.weights[:] = rng.normal(size=b.weights.shape)
    params.biases[:] = rng.normal(size=params.biases.shape)
    grid = Grid2D(6, 6, 1.0)
    clf = Classifier(grid, rng.normal(size=(3, 2, 6, 6)), rng.normal(size=3))
    prov = {"config_sha256": "ab" * 32, "seed": seed, "levels": [1, 0]}
    return ModelFile(params, clf, prov)


def container_blocks(raw):
    """``(tag, payload)`` of every block after the 8-byte header."""
    blocks, offset = [], 8
    while offset < len(raw):
        (length,) = struct.unpack("<Q", raw[offset + 4 : offset + 12])
        blocks.append((raw[offset : offset + 4], raw[offset + 12 : offset + 12 + length]))
        offset += 12 + length
    return blocks


def build_container(version, blocks, checksum=True):
    """A container of ``blocks``, ended by a checksum block when asked."""
    raw = b"MGCN" + struct.pack("<I", version)
    raw += b"".join(tag + struct.pack("<Q", len(payload)) + payload for tag, payload in blocks)
    if checksum:
        raw += b"CSUM" + struct.pack("<Q", 4) + struct.pack("<I", zlib.crc32(raw))
    return raw


def saved_blocks(tmp_path):
    """The blocks of a freshly saved model, checksum block excluded."""
    path = tmp_path / "saved.bin"
    save_model(str(path), random_model())
    blocks = container_blocks(path.read_bytes())
    assert blocks[-1][0] == b"CSUM"
    return blocks[:-1]


class TestModelContainer:
    def test_round_trip_bit_identical(self, tmp_path):
        path = str(tmp_path / "m.bin")
        model = random_model(11)
        save_model(path, model)
        back = load_model(path)
        assert back.provenance == model.provenance
        p0, p1 = model.params, back.params
        assert (p1.dt, p1.final_time, p1.activation, p1.act_gain) == (
            p0.dt, p0.final_time, p0.activation, p0.act_gain)
        assert p1.embed_learnable == p0.embed_learnable
        for b0, b1 in zip(p0.banks, p1.banks):
            np.testing.assert_array_equal(b0.weights, b1.weights)
        np.testing.assert_array_equal(p0.biases, p1.biases)
        np.testing.assert_array_equal(p0.embed.weights, p1.embed.weights)
        np.testing.assert_array_equal(model.classifier.weights, back.classifier.weights)
        np.testing.assert_array_equal(model.classifier.mu, back.classifier.mu)
        assert (back.classifier.grid.nx, back.classifier.grid.ny,
                back.classifier.grid.h) == (6, 6, 1.0)

    def test_saved_bytes_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_model(a, random_model(3))
        save_model(b, random_model(3))
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_flipped_magic_byte(self, tmp_path):
        path = str(tmp_path / "m.bin")
        save_model(path, random_model())
        raw = bytearray(open(path, "rb").read())
        raw[0] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(BadMagicError):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        path = str(tmp_path / "m.bin")
        save_model(path, random_model())
        raw = bytearray(open(path, "rb").read())
        raw[4] = 0xFE  # bump the little-endian version field
        open(path, "wb").write(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_model(path)

    def test_truncated_container(self, tmp_path):
        path = str(tmp_path / "m.bin")
        save_model(path, random_model())
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) // 2])
        with pytest.raises((DataFormatError, TruncatedFileError)):
            load_model(path)

    def test_zero_depth_model_round_trip(self, tmp_path):
        path = str(tmp_path / "m.bin")
        params = random_network_params(channels=2, num_layers=0, final_time=1.0)
        clf = zero_classifier(Grid2D(4, 4, 1.0), 2, 2)
        save_model(path, ModelFile(params, clf))
        back = load_model(path)
        assert back.params.num_layers == 0

    def test_trained_model_evaluates_identically_after_reload(self, tmp_path):
        ds = make_synthetic(SyntheticKind.BLOBS, 40, Grid2D(6, 6, 1.0), seed=2)
        params = random_network_params(channels=2, num_layers=2, final_time=0.5, seed=0)
        clf = zero_classifier(ds.grid, 2, 2)
        res = bcd_train(ds, params, clf, RegConfig(0.01, 0.01),
                        BcdConfig(outer_iters=2, newton_steps=2))
        before = evaluate(ds, res.params, res.classifier)
        path = str(tmp_path / "m.bin")
        save_model(path, ModelFile(res.params, res.classifier))
        back = load_model(path)
        after = evaluate(ds, back.params, back.classifier)
        assert before.accuracy == after.accuracy
        assert before.mean_loss == after.mean_loss

    def test_saved_file_ends_with_its_checksum(self, tmp_path):
        path = tmp_path / "m.bin"
        save_model(str(path), random_model())
        raw = path.read_bytes()
        assert struct.unpack("<I", raw[4:8])[0] == MODEL_VERSION == 2
        assert build_container(MODEL_VERSION, saved_blocks(tmp_path)) == raw

    def test_flipped_bank_bit_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        save_model(str(path), random_model())
        raw = bytearray(path.read_bytes())
        offset = 8
        for tag, payload in container_blocks(bytes(raw)):
            if tag == b"BANK":
                break
            offset += 12 + len(payload)
        raw[offset + 12] ^= 1  # lowest mantissa bit of the first weight
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="checksum mismatch"):
            load_model(str(path))

    @pytest.mark.parametrize("tag", [b"JUNK", b"PROV"])
    def test_block_after_checksum_rejected(self, tmp_path, tag):
        path = tmp_path / "m.bin"
        save_model(str(path), random_model())
        raw = path.read_bytes()
        path.write_bytes(raw + tag + struct.pack("<Q", 4) + bytes(4))
        with pytest.raises(DataFormatError, match="follows the checksum block"):
            load_model(str(path))

    def test_unknown_block_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        blocks = saved_blocks(tmp_path) + [(b"JUNK", bytes(4))]
        path.write_bytes(build_container(MODEL_VERSION, blocks))
        with pytest.raises(DataFormatError, match="unknown block 'JUNK'"):
            load_model(str(path))

    def test_duplicate_block_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        blocks = saved_blocks(tmp_path)
        bias = next(b for b in blocks if b[0] == b"BIAS")
        path.write_bytes(build_container(MODEL_VERSION, blocks + [bias]))
        with pytest.raises(DataFormatError, match="duplicate block BIAS"):
            load_model(str(path))

    def test_version_2_without_checksum_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(build_container(2, saved_blocks(tmp_path), checksum=False))
        with pytest.raises(DataFormatError, match="no checksum block"):
            load_model(str(path))

    def test_version_1_file_refused(self, tmp_path):
        # version 1 was this container without the checksum block
        path = tmp_path / "m.bin"
        path.write_bytes(build_container(1, saved_blocks(tmp_path), checksum=False))
        with pytest.raises(VersionMismatchError, match="format version 1"):
            load_model(str(path))

    def test_downgrade_edit_refused(self, tmp_path):
        # altered weights must not load by posing as a file without checksum
        path = tmp_path / "m.bin"
        blocks = saved_blocks(tmp_path)
        i = next(i for i, (tag, _) in enumerate(blocks) if tag == b"BANK")
        bank = bytearray(blocks[i][1])
        bank[0] ^= 1
        blocks[i] = (b"BANK", bytes(bank))
        path.write_bytes(build_container(1, blocks, checksum=False))
        with pytest.raises(DataFormatError):
            load_model(str(path))
        assert main(["inspect", "--model", str(path)]) == 3

    @pytest.mark.parametrize("tag, edit", [
        (b"GRID", lambda p: p[:-1]),
        (b"HYPR", lambda p: p[:-1]),
        (b"CLSW", lambda p: b""),
        (b"GRID", lambda p: struct.pack("<I", 0) + p[4:]),  # nx = 0
        (b"HYPR", lambda p: p[:20] + struct.pack("<d", 9.0) + p[28:]),  # T = 9 != N * dt
        (b"PROV", lambda p: b"[1]"),
    ], ids=["short-GRID", "short-HYPR", "empty-CLSW", "zero-cell-grid", "N-dt-not-T",
            "PROV-not-object"])
    def test_malformed_block_with_valid_checksum(self, tmp_path, tag, edit):
        path = tmp_path / "m.bin"
        blocks = [(t, edit(p) if t == tag else p) for t, p in saved_blocks(tmp_path)]
        path.write_bytes(build_container(MODEL_VERSION, blocks))
        with pytest.raises(DataFormatError):
            load_model(str(path))
        assert main(["inspect", "--model", str(path)]) == 3

    # HYPR is "<IIIddBdB": T at bytes 20..28, act_gain at 29..37; CLSW starts
    # with the class count, then its doubles
    @pytest.mark.parametrize("tag, edit", [
        (b"BIAS", lambda p: struct.pack("<d", np.nan) + p[8:]),
        (b"CLSW", lambda p: p[:4] + struct.pack("<d", np.nan) + p[12:]),
        (b"CLSB", lambda p: struct.pack("<d", np.nan) + p[8:]),
        (b"HYPR", lambda p: p[:29] + struct.pack("<d", np.inf) + p[37:]),
        (b"HYPR", lambda p: p[:20] + struct.pack("<d", np.nan) + p[28:]),
    ], ids=["nan-BIAS", "nan-CLSW", "nan-CLSB", "inf-act_gain", "nan-T"])
    def test_non_finite_value_with_valid_checksum(self, tmp_path, tag, edit):
        path = tmp_path / "m.bin"
        blocks = [(t, edit(p) if t == tag else p) for t, p in saved_blocks(tmp_path)]
        path.write_bytes(build_container(MODEL_VERSION, blocks))
        with pytest.raises(DataFormatError, match="non-finite"):
            load_model(str(path))
        assert main(["inspect", "--model", str(path)]) == 3
