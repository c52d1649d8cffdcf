"""Blob generator determinism and bit-exact IDX parsing."""

import os
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gradtamper.data import (
    Dataset,
    IdxFormatError,
    load_idx,
    read_idx_images,
    read_idx_labels,
    synth_blobs,
    write_idx_images,
    write_idx_labels,
)

# hand-assembled IDX pair: 2 images of 2x2 uint8 pixels 0..7, labels [0, 1]
GOLDEN_IMAGES = (
    b"\x00\x00\x08\x03"
    b"\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00\x02"
    b"\x00\x01\x02\x03\x04\x05\x06\x07"
)
GOLDEN_LABELS = b"\x00\x00\x08\x01\x00\x00\x00\x02" b"\x00\x01"


class TestBlobs:
    def test_split_sizes_stratified(self):
        train, test = synth_blobs(10, 100, 20, 1.0, seed=7)
        assert len(train) == 800 and len(test) == 200
        assert_array_equal(np.bincount(train.labels), np.full(10, 80))
        assert_array_equal(np.bincount(test.labels), np.full(10, 20))
        assert train.inputs.shape == (800, 20)

    def test_tiny_per_class_keeps_a_test_point(self):
        train, test = synth_blobs(3, 2, 4, 0.5, seed=0)
        assert_array_equal(np.bincount(train.labels), [1, 1, 1])
        assert_array_equal(np.bincount(test.labels), [1, 1, 1])

    def test_deterministic_in_seed(self):
        a_tr, a_te = synth_blobs(5, 20, 8, 1.5, seed=42)
        b_tr, b_te = synth_blobs(5, 20, 8, 1.5, seed=42)
        assert_array_equal(a_tr.inputs, b_tr.inputs)
        assert_array_equal(a_te.inputs, b_te.inputs)
        c_tr, _ = synth_blobs(5, 20, 8, 1.5, seed=43)
        assert not np.array_equal(a_tr.inputs, c_tr.inputs)

    def test_spread_scales_dispersion(self):
        tight, _ = synth_blobs(2, 50, 3, 0.01, seed=1)
        loose, _ = synth_blobs(2, 50, 3, 10.0, seed=1)
        d_tight = tight.inputs[tight.labels == 0].std(axis=0).mean()
        d_loose = loose.inputs[loose.labels == 0].std(axis=0).mean()
        assert d_loose > 100 * d_tight

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            synth_blobs(1, 10, 4, 1.0, seed=0)
        with pytest.raises(ValueError):
            synth_blobs(3, 1, 4, 1.0, seed=0)
        with pytest.raises(ValueError, match="spread"):
            synth_blobs(3, 10, 4, 0.0, seed=0)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ((3, 4.5, 2), "blob per_class must be an integer >= 2, got 4.5"),
            ((3.0, 10, 2), "blob classes must be an integer >= 2, got 3.0"),
            ((3, 10, True), "blob features must be an integer >= 1, got True"),
        ],
        ids=["per_class", "classes", "bool"],
    )
    def test_rejects_counts_that_are_not_integers(self, counts, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            synth_blobs(*counts, 1.0, 0)


class TestDatasetValidation:
    def test_label_range_checked(self):
        with pytest.raises(ValueError, match=r"labels outside"):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), num_classes=3)
        with pytest.raises(ValueError, match=r"labels outside"):
            Dataset(np.zeros((2, 2)), np.array([-1, 0]), num_classes=3)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(4), np.zeros(4, dtype=int), num_classes=2)
        with pytest.raises(ValueError, match="length"):
            Dataset(np.zeros((3, 2)), np.array([0, 1]), num_classes=2)

    def test_rejects_non_finite(self):
        x = np.zeros((2, 2))
        x[1, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            Dataset(x, np.array([0, 1]), num_classes=2)

    # Dataset is the package's one check of labels: integers only, never
    # cast (0.5 and 1.7 would become 0 and 1).
    def test_float_labels_rejected(self):
        with pytest.raises(ValueError, match="labels must be integers, got dtype float64"):
            Dataset(np.zeros((2, 2)), np.array([0.5, 1.7]), num_classes=2)

    def test_bool_labels_rejected(self):
        with pytest.raises(ValueError, match="labels must be integers, got dtype bool"):
            Dataset(np.zeros((2, 2)), np.array([False, True]), num_classes=2)

    # num_classes is a count, checked by the package's one rule.
    def test_fractional_num_classes_rejected(self):
        with pytest.raises(ValueError, match=r"num_classes must be an integer >= 1, got 2\.5"):
            Dataset(np.zeros((2, 2)), np.array([0, 1]), num_classes=2.5)

    def test_string_num_classes_rejected(self):
        with pytest.raises(ValueError, match="num_classes must be an integer >= 1, got '3'"):
            Dataset(np.zeros((2, 2)), np.array([0, 1]), num_classes="3")

    def test_none_num_classes_rejected(self):
        with pytest.raises(ValueError, match="num_classes must be an integer >= 1, got None"):
            Dataset(np.zeros((2, 2)), np.array([0, 1]), num_classes=None)

    def test_integer_labels_of_any_width_kept(self):
        for dtype in (np.uint8, np.int32, np.int64):
            ds = Dataset(np.zeros((2, 2)), np.array([1, 0], dtype=dtype), np.int64(2))
            assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]

    # A label written after the check would skip it: -1 would read class C-1
    # through the smoothing table's negative indexing.
    def test_labels_are_a_read_only_copy(self):
        mine = np.array([0, 1, 2])
        ds = Dataset(np.zeros((3, 2)), mine, num_classes=3)
        for labels in (ds.labels, synth_blobs(3, 4, 2, 1.0, 0)[0].labels):
            with pytest.raises(ValueError, match="read-only"):
                labels[0] = -1
        mine[0] = 2  # the caller's array stays writable, and is not the dataset's
        assert ds.labels.tolist() == [0, 1, 2]

    # A float written after the finiteness check would skip it: a NaN would
    # reach training and be blamed on it as divergence.
    def test_float_inputs_are_a_read_only_copy(self):
        mine = np.array([[0.5, 1.0], [2.0, 3.0]])
        ds = Dataset(mine, np.array([0, 1]), num_classes=2)
        for inputs in (ds.inputs, synth_blobs(3, 4, 2, 1.0, 0)[0].inputs):
            with pytest.raises(ValueError, match="read-only"):
                inputs[0, 0] = np.nan
        mine[0, 0] = np.nan  # the caller's array stays writable, and is not the dataset's
        assert np.isfinite(ds.inputs).all() and not np.shares_memory(ds.inputs, mine)

    # uint8 holds no value the check could miss, so pixels are not copied.
    def test_uint8_inputs_are_a_read_only_view(self):
        mine = np.arange(6, dtype=np.uint8).reshape(3, 2)
        ds = Dataset(mine, np.array([0, 1, 0]), num_classes=2)
        assert np.shares_memory(ds.inputs, mine)
        with pytest.raises(ValueError, match="read-only"):
            ds.inputs[0, 0] = 7
        mine[0, 0] = 7  # the caller's array stays writable
        assert mine.flags.writeable and ds.inputs[0, 0] == 7


class TestDatasetDtypes:
    """uint8 inputs are 8-bit pixels, read as / 255; every other dtype is float64."""

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_other_dtypes_become_float64_unscaled(self, dtype):
        x = np.array([[0, 3], [255, 7]], dtype=dtype)
        ds = Dataset(x, np.array([0, 1]), num_classes=2)
        assert ds.inputs.dtype == np.float64 and not ds.pixels
        assert_array_equal(ds.features(slice(None)), x.astype(np.float64))

    def test_uint8_stays_uint8(self):
        ds = Dataset(np.arange(12, dtype=np.uint8).reshape(3, 4), np.array([0, 2, 1]), 3)
        assert ds.inputs.dtype == np.uint8 and ds.pixels
        assert len(ds) == 3 and ds.num_classes == 3 and ds.num_features == 4

    def test_float_nan_still_rejected(self):
        x = np.zeros((2, 2), dtype=np.float32)
        x[0, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            Dataset(x, np.array([0, 1]), num_classes=2)

    def test_uint8_features_keep_every_bit(self):
        rng = np.random.default_rng(8)
        pixels = rng.integers(0, 256, size=(50, 9), dtype=np.uint8)
        ds = Dataset(pixels, rng.integers(0, 3, 50), 3)
        widened = pixels.astype(np.float64) / 255.0
        index = rng.integers(0, 50, size=(4, 6))  # (S, B), as a stacked batch
        for where in (slice(7, 31), index):
            got = ds.features(where)
            assert got.dtype == np.float64
            assert_array_equal(got.view(np.int64), widened[where].view(np.int64))
            # Widened into a reused buffer, the bits are the same.
            out = np.full(got.shape, np.nan)
            assert ds.features(where, out=out) is out
            assert_array_equal(out.view(np.int64), widened[where].view(np.int64))

    def test_float64_features_of_a_slice_are_a_view(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]), 2)
        assert np.shares_memory(ds.features(slice(1, 3)), ds.inputs)
        out = np.full((2, 2), np.nan)
        assert np.shares_memory(ds.features(slice(1, 3), out=out), ds.inputs)
        assert np.isnan(out).all()  # a float64 read leaves the buffer alone


class TestIdxFiles:
    def test_write_images_matches_golden_bytes(self, tmp_path):
        p = tmp_path / "img.idx"
        write_idx_images(p, np.arange(8, dtype=np.uint8).reshape(2, 2, 2))
        assert p.read_bytes() == GOLDEN_IMAGES

    def test_write_labels_matches_golden_bytes(self, tmp_path):
        p = tmp_path / "lab.idx"
        write_idx_labels(p, np.array([0, 1], dtype=np.uint8))
        assert p.read_bytes() == GOLDEN_LABELS

    def test_read_golden_images(self, tmp_path):
        p = tmp_path / "img.idx"
        p.write_bytes(GOLDEN_IMAGES)
        got = read_idx_images(p)
        assert got.dtype == np.uint8
        assert_array_equal(got, np.arange(8, dtype=np.uint8).reshape(2, 2, 2))

    def test_round_trip_is_byte_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        images = rng.integers(0, 256, size=(7, 5, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, size=7, dtype=np.uint8)
        ip, lp, ip2 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        write_idx_images(ip, images)
        write_idx_labels(lp, labels)
        assert_array_equal(read_idx_images(ip), images)
        assert_array_equal(read_idx_labels(lp), labels)
        write_idx_images(ip2, read_idx_images(ip))
        assert ip.read_bytes() == ip2.read_bytes()

    def test_bad_image_magic_names_byte_zero(self, tmp_path):
        p = tmp_path / "img.idx"
        p.write_bytes(b"\x00\x00\x08\x01" + GOLDEN_IMAGES[4:])
        with pytest.raises(IdxFormatError, match=r"bad magic 0x00000801 at byte 0"):
            read_idx_images(p)

    def test_bad_label_magic(self, tmp_path):
        p = tmp_path / "lab.idx"
        p.write_bytes(b"\xff\xff\xff\xff" + GOLDEN_LABELS[4:])
        with pytest.raises(IdxFormatError, match="bad magic"):
            read_idx_labels(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "img.idx"
        p.write_bytes(GOLDEN_IMAGES[:3])
        with pytest.raises(IdxFormatError, match=r"need 16 header bytes, file has 3"):
            read_idx_images(p)

    def test_payload_size_mismatch(self, tmp_path):
        p = tmp_path / "img.idx"
        p.write_bytes(GOLDEN_IMAGES[:-1])  # one pixel short
        with pytest.raises(IdxFormatError, match=r"holds 7 bytes.*2 x 2 x 2 = 8"):
            read_idx_images(p)
        q = tmp_path / "lab.idx"
        q.write_bytes(GOLDEN_LABELS + b"\x00")  # one label long
        with pytest.raises(IdxFormatError, match=r"holds 3 bytes, header promises 2"):
            read_idx_labels(q)

    def test_image_payload_longer_than_promised(self, tmp_path):
        p = tmp_path / "img.idx"
        p.write_bytes(GOLDEN_IMAGES + b"\x08")
        with pytest.raises(IdxFormatError, match=r"holds 9 bytes.*2 x 2 x 2 = 8"):
            read_idx_images(p)

    def test_images_are_read_without_a_second_copy(self, tmp_path):
        p = tmp_path / "img.idx"
        images = np.random.default_rng(5).integers(0, 256, size=(3000, 28, 28), dtype=np.uint8)
        write_idx_images(p, images)
        tracemalloc.start()
        try:
            got = read_idx_images(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_array_equal(got, images)
        assert peak < 1.5 * images.nbytes

    def test_write_rejects_wrong_rank(self, tmp_path):
        with pytest.raises(ValueError):
            write_idx_images(tmp_path / "x", np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            write_idx_labels(tmp_path / "y", np.zeros((2, 2), dtype=np.uint8))

    @pytest.mark.parametrize(
        "values",
        [[300, 0, 2], [-1, 0, 2], [300.0, -1.0, 2.7], [1.0, 0.0, 2.0], [True, False, True]],
        ids=["above-255", "negative", "floats-out-of-range", "integral-floats", "bool"],
    )
    def test_write_rejects_what_uint8_would_change(self, tmp_path, values):
        # uint8 would wrap 300 to 44 and -1 to 255, and truncate 2.7 to 2.
        values = np.array(values)
        with pytest.raises(ValueError, match=r"integers in \[0, 255\]"):
            write_idx_images(tmp_path / "x", values.reshape(3, 1, 1))
        with pytest.raises(ValueError, match=r"integers in \[0, 255\]"):
            write_idx_labels(tmp_path / "y", values)
        assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()

    def test_write_takes_in_range_integers_of_any_width(self, tmp_path):
        for dtype in (np.int64, np.uint16, np.int8):
            write_idx_images(tmp_path / "x", np.arange(8, dtype=dtype).reshape(2, 2, 2))
            write_idx_labels(tmp_path / "y", np.array([0, 1], dtype=dtype))
            assert (tmp_path / "x").read_bytes() == GOLDEN_IMAGES
            assert (tmp_path / "y").read_bytes() == GOLDEN_LABELS
        write_idx_labels(tmp_path / "y", np.array([0, 255]))
        assert_array_equal(read_idx_labels(tmp_path / "y"), [0, 255])
        write_idx_labels(tmp_path / "y", np.zeros(0, dtype=np.int64))
        assert read_idx_labels(tmp_path / "y").shape == (0,)


class TestLoadIdx:
    def test_scales_and_flattens(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        ip.write_bytes(GOLDEN_IMAGES)
        lp.write_bytes(GOLDEN_LABELS)
        ds = load_idx(ip, lp)
        assert ds.inputs.shape == (2, 4)
        assert ds.inputs.dtype == np.uint8
        assert ds.num_classes == 2
        assert_array_equal(ds.features(slice(None)), np.arange(8).reshape(2, 4) / 255.0)
        assert_array_equal(ds.labels, [0, 1])

    @pytest.mark.parametrize("shape", [(0, 2, 2), (3, 0, 2), (3, 2, 0)])
    def test_images_without_pixels_named(self, tmp_path, shape):
        # A 0-image pair once failed in numpy's reshape, and 0-pixel images
        # loaded as a 0-feature Dataset; both name the image file.
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_images(ip, np.zeros(shape, dtype=np.uint8))
        write_idx_labels(lp, np.zeros(shape[0], dtype=np.uint8))
        message = f"{ip}: holds no pixels, shape {shape}"
        with pytest.raises(IdxFormatError, match=re.escape(message)):
            load_idx(ip, lp)

    def test_a_descriptor_is_not_a_path(self, tmp_path):
        # open() would read through the descriptor and then close it.
        ip, lp = tmp_path / "img", tmp_path / "lab"
        ip.write_bytes(GOLDEN_IMAGES)
        lp.write_bytes(GOLDEN_LABELS)
        fd = os.open(ip, os.O_RDONLY)
        try:
            for bad in (fd, str(ip).encode()):
                with pytest.raises(ValueError, match="IDX file must be a path"):
                    load_idx(bad, lp)
                with pytest.raises(ValueError, match="IDX file must be a path"):
                    read_idx_labels(bad)
            assert os.read(fd, 4) == GOLDEN_IMAGES[:4]  # still open, never read
        finally:
            os.close(fd)

    def test_count_mismatch(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        ip.write_bytes(GOLDEN_IMAGES)
        write_idx_labels(lp, np.array([0, 1, 1], dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="count mismatch"):
            load_idx(ip, lp)
