"""Tests for dataset loading, splitting, synthesis, and batching."""

import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthojac.data import (
    Dataset,
    batches,
    load_idx,
    synthetic_blobs,
    train_val_split,
)
from orthojac.errors import DataFormatError, DimensionError, InvalidFractionError
from orthojac.rng import SplitMix64
from orthojac.serial import dump_arrays, load_arrays, parse_arrays, save_arrays


def write_idx_pair(tmp_path, pixels: np.ndarray, labels: np.ndarray,
                   image_magic=2051, label_magic=2049, side=28,
                   image_count=None, label_count=None,
                   clip_pixels=0, clip_labels=0):
    """Write a (possibly deliberately corrupt) IDX image/label pair."""
    n = pixels.shape[0]
    img = struct.pack(">iiii", image_magic, image_count if image_count is not None else n,
                      side, side)
    img += pixels.astype(np.uint8).tobytes()
    if clip_pixels:
        img = img[:-clip_pixels]
    lab = struct.pack(">ii", label_magic, label_count if label_count is not None else n)
    lab += labels.astype(np.uint8).tobytes()
    if clip_labels:
        lab = lab[:-clip_labels]
    img_path = tmp_path / "images-idx3-ubyte"
    lab_path = tmp_path / "labels-idx1-ubyte"
    img_path.write_bytes(img)
    lab_path.write_bytes(lab)
    return img_path, lab_path


def small_idx_fixture(tmp_path, n=6):
    gen = SplitMix64(1234)
    pixels = (gen.uniform(n * 784) * 255).astype(np.uint8).reshape(n, 784)
    labels = np.arange(n) % 3
    return write_idx_pair(tmp_path, pixels, labels), pixels, labels


# ---------------------------------------------------------------------------
# IDX loading
# ---------------------------------------------------------------------------


def test_load_idx_roundtrip_values(tmp_path):
    (img_path, lab_path), pixels, labels = small_idx_fixture(tmp_path)
    ds = load_idx(img_path, lab_path)
    assert ds.features.shape == (6, 784)
    assert np.array_equal(ds.features, pixels / 255.0)
    assert np.array_equal(ds.labels, labels)
    assert ds.class_count == 3
    assert 0.0 <= ds.features.min() and ds.features.max() <= 1.0


def test_load_idx_extreme_pixels_scale_exactly(tmp_path):
    pixels = np.zeros((2, 784), dtype=np.uint8)
    pixels[0, 0] = 255
    pixels[1, 1] = 51
    paths = write_idx_pair(tmp_path, pixels, np.array([0, 1]))
    ds = load_idx(*paths)
    assert ds.features[0, 0] == 1.0
    assert ds.features[1, 1] == 51 / 255
    assert ds.features[0, 1] == 0.0


def test_load_idx_rejects_bad_image_magic(tmp_path):
    paths = write_idx_pair(tmp_path, np.zeros((2, 784)), np.zeros(2),
                           image_magic=2052)
    with pytest.raises(DataFormatError, match="magic 2052 at byte offset 0"):
        load_idx(*paths)


def test_load_idx_rejects_bad_label_magic(tmp_path):
    paths = write_idx_pair(tmp_path, np.zeros((2, 784)), np.zeros(2),
                           label_magic=2051)
    with pytest.raises(DataFormatError, match="label magic"):
        load_idx(*paths)


def test_load_idx_rejects_wrong_image_size(tmp_path):
    n = 2
    img = struct.pack(">iiii", 2051, n, 14, 14) + bytes(n * 14 * 14)
    lab = struct.pack(">ii", 2049, n) + bytes(n)
    ip = tmp_path / "i"
    lp = tmp_path / "l"
    ip.write_bytes(img)
    lp.write_bytes(lab)
    with pytest.raises(DataFormatError, match="14x14 at byte offset 8"):
        load_idx(ip, lp)


def test_load_idx_rejects_truncated_pixels(tmp_path):
    paths = write_idx_pair(tmp_path, np.zeros((2, 784)), np.zeros(2),
                           clip_pixels=10)
    with pytest.raises(DataFormatError, match="truncated pixel data"):
        load_idx(*paths)


def test_load_idx_rejects_truncated_labels(tmp_path):
    paths = write_idx_pair(tmp_path, np.zeros((2, 784)), np.zeros(2),
                           clip_labels=1)
    with pytest.raises(DataFormatError, match="truncated label data"):
        load_idx(*paths)


def test_load_idx_rejects_count_mismatch(tmp_path):
    pixels = np.zeros((3, 784), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    img = struct.pack(">iiii", 2051, 3, 28, 28) + pixels.tobytes()
    lab = struct.pack(">ii", 2049, 2) + labels.tobytes()
    ip = tmp_path / "i"
    lp = tmp_path / "l"
    ip.write_bytes(img)
    lp.write_bytes(lab)
    with pytest.raises(DataFormatError, match="count mismatch"):
        load_idx(ip, lp)


# (file, byte offset) of each IDX header field: the image magic, count, rows and
# columns, then the label magic and count
IDX_FIELDS = ((0, 0), (0, 4), (0, 8), (0, 12), (1, 0), (1, 4))


@st.composite
def mutated_idx_pairs(draw):
    """A valid IDX pair of up to 3 images with 1 to 3 mutations: a header field
    set to another int32, a file cut short, or bytes appended."""
    n = draw(st.integers(0, 3))
    files = [bytearray(struct.pack(">iiii", 2051, n, 28, 28)
                       + bytes(i * 7 % 256 for i in range(n * 784))),
             bytearray(struct.pack(">ii", 2049, n) + bytes(i % 3 for i in range(n)))]
    mutations = draw(st.lists(st.one_of(
        st.tuples(st.just("field"), st.sampled_from(IDX_FIELDS),
                  st.one_of(st.integers(-3, 30), st.integers(-2**31, 2**31 - 1))),
        st.tuples(st.just("cut"), st.integers(0, 1), st.integers(0, 2400)),
        st.tuples(st.just("append"), st.integers(0, 1), st.binary(min_size=1, max_size=8)),
    ), min_size=1, max_size=3))
    for kind, where, value in mutations:
        if kind == "field":
            (f, offset) = where
            if len(files[f]) >= offset + 4:
                struct.pack_into(">i", files[f], offset, value)
        elif kind == "cut":
            del files[where][value:]
        else:
            files[where] += value
    return bytes(files[0]), bytes(files[1])


@settings(deadline=None, max_examples=200)
@given(pair=mutated_idx_pairs())
def test_load_idx_fuzz_raises_only_data_format_error(pair):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "images", Path(tmp) / "labels"]
        for path, raw in zip(paths, pair):
            path.write_bytes(raw)
        try:
            ds = load_idx(*paths)
        except DataFormatError:
            return
    assert ds.features.shape == (ds.size, 784)
    assert np.all((0.0 <= ds.features) & (ds.features <= 1.0))


def test_load_idx_rejects_short_header(tmp_path):
    ip = tmp_path / "i"
    lp = tmp_path / "l"
    ip.write_bytes(b"\x00\x00")
    lp.write_bytes(struct.pack(">ii", 2049, 0))
    with pytest.raises(DataFormatError, match="truncated header"):
        load_idx(ip, lp)


DATA_DIR = os.environ.get("ORTHOJAC_DATA", "")
_REAL_TRAIN = os.path.join(DATA_DIR, "train-images-idx3-ubyte")


@pytest.mark.skipif(
    not (DATA_DIR and os.path.exists(_REAL_TRAIN)),
    reason="real dataset not present (set ORTHOJAC_DATA to the IDX directory)",
)
def test_real_train_set_label_histogram():
    ds = load_idx(
        os.path.join(DATA_DIR, "train-images-idx3-ubyte"),
        os.path.join(DATA_DIR, "train-labels-idx1-ubyte"),
    )
    assert ds.size == 60000
    counts = np.bincount(ds.labels, minlength=10)
    assert np.array_equal(counts, np.full(10, 6000))


# ---------------------------------------------------------------------------
# dataset invariants
# ---------------------------------------------------------------------------


def test_dataset_rejects_length_mismatch():
    with pytest.raises(DimensionError):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), 2)


def test_dataset_rejects_out_of_range_labels():
    with pytest.raises(DimensionError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 3)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def blob_fixture(n_per_class=25, seed=7):
    return synthetic_blobs(4, 8, n_per_class, 0.3, seed)


def test_split_sizes_and_class_count():
    ds = blob_fixture()
    train, val = train_val_split(ds, 0.2, seed=3)
    assert (train.size, val.size) == (80, 20)
    assert train.class_count == val.class_count == 4


def test_split_ten_samples_point_two():
    ds = synthetic_blobs(2, 3, 5, 0.1, 11)
    train, val = train_val_split(ds, 0.2, seed=5)
    assert (train.size, val.size) == (8, 2)


def test_split_deterministic():
    ds = blob_fixture()
    a_train, a_val = train_val_split(ds, 0.25, seed=9)
    b_train, b_val = train_val_split(ds, 0.25, seed=9)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_val.labels, b_val.labels)


def test_split_partitions_original():
    ds = blob_fixture()
    train, val = train_val_split(ds, 0.3, seed=13)
    merged = np.concatenate([train.features, val.features])
    assert merged.shape == ds.features.shape
    # every original row appears exactly once across the two splits
    original = {tuple(row) for row in ds.features}
    recovered = [tuple(row) for row in merged]
    assert len(recovered) == len(set(recovered))
    assert set(recovered) == original


def test_split_rejects_bad_fraction():
    ds = blob_fixture()
    for frac in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(InvalidFractionError):
            train_val_split(ds, frac, seed=1)


def test_split_rejects_empty_side():
    ds = synthetic_blobs(2, 2, 5, 0.1, 3)  # 10 samples
    with pytest.raises(InvalidFractionError):
        train_val_split(ds, 0.01, seed=1)


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 60), st.floats(0.05, 0.95), st.integers(0, 2**32))
def test_split_union_property(n, frac, seed):
    ds = Dataset(np.arange(n, dtype=np.float64)[:, None], np.zeros(n, np.int64), 1)
    n_val = int(round(n * frac))
    if n_val in (0, n):
        with pytest.raises(InvalidFractionError):
            train_val_split(ds, frac, seed)
        return
    train, val = train_val_split(ds, frac, seed)
    merged = np.sort(np.concatenate([train.features[:, 0], val.features[:, 0]]))
    assert np.array_equal(merged, np.arange(n, dtype=np.float64))
    assert val.size == n_val


# ---------------------------------------------------------------------------
# synthetic blobs
# ---------------------------------------------------------------------------


def test_blobs_deterministic():
    a = synthetic_blobs(3, 5, 10, 0.2, seed=21)
    b = synthetic_blobs(3, 5, 10, 0.2, seed=21)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_blobs_zero_spread_collapses_to_unit_centers():
    ds = synthetic_blobs(3, 6, 4, 0.0, seed=23)
    for cls in range(3):
        block = ds.features[ds.labels == cls]
        assert np.all(block == block[0])
        assert np.linalg.norm(block[0]) == pytest.approx(1.0, abs=1e-12)
    # centers distinct, so a nearest-center rule is exact
    centers = np.stack([ds.features[ds.labels == c][0] for c in range(3)])
    d2 = np.sum((ds.features[:, None, :] - centers[None]) ** 2, axis=2)
    assert np.array_equal(np.argmin(d2, axis=1), ds.labels)


def test_blobs_two_classes_usually_separable():
    hits = 0
    for seed in range(100):
        ds = synthetic_blobs(2, 2, 20, 0.1, seed=seed)
        mean0 = ds.features[ds.labels == 0].mean(axis=0)
        mean1 = ds.features[ds.labels == 1].mean(axis=0)
        w = mean1 - mean0
        scores = ds.features @ w - w @ (mean0 + mean1) / 2.0
        signs = np.where(ds.labels == 1, 1.0, -1.0)
        if np.min(scores * signs) > 0.0:
            hits += 1
    assert hits >= 99


def test_blobs_rejects_bad_counts():
    with pytest.raises(DimensionError):
        synthetic_blobs(0, 2, 3, 0.1, 1)
    with pytest.raises(DimensionError):
        synthetic_blobs(2, 2, 0, 0.1, 1)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def test_batches_sizes_with_partial_tail():
    ds = Dataset(np.zeros((1000, 3)), np.zeros(1000, np.int64), 1)
    sizes = [X.shape[0] for X, _ in batches(ds, 512, epoch_seed=1)]
    assert sizes == [512, 488]


def test_batches_cover_every_sample_once():
    n = 103
    ds = Dataset(np.arange(n, dtype=np.float64)[:, None], np.zeros(n, np.int64), 1)
    seen = np.concatenate([X[:, 0] for X, _ in batches(ds, 16, epoch_seed=2)])
    assert np.array_equal(np.sort(seen), np.arange(n, dtype=np.float64))


def test_batches_deterministic_and_seed_sensitive():
    ds = blob_fixture()
    a = [X for X, _ in batches(ds, 17, epoch_seed=5)]
    b = [X for X, _ in batches(ds, 17, epoch_seed=5)]
    c = [X for X, _ in batches(ds, 17, epoch_seed=6)]
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_batches_align_features_and_labels():
    n = 40
    feats = np.arange(n, dtype=np.float64)[:, None]
    labels = (np.arange(n) % 2).astype(np.int64)
    ds = Dataset(feats, labels, 2)
    for X, y in batches(ds, 7, epoch_seed=9):
        assert np.array_equal(labels[X[:, 0].astype(np.int64)], y)


def test_batches_rejects_zero_size():
    ds = blob_fixture()
    with pytest.raises(DimensionError):
        list(batches(ds, 0, epoch_seed=1))


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 200), st.integers(1, 64), st.integers(0, 2**32))
def test_batches_cover_property(n, batch_size, seed):
    ds = Dataset(np.arange(n, dtype=np.float64)[:, None], np.zeros(n, np.int64), 1)
    chunks = [X[:, 0] for X, _ in batches(ds, batch_size, epoch_seed=seed)]
    assert all(len(c) == batch_size for c in chunks[:-1])
    assert np.array_equal(np.sort(np.concatenate(chunks)), np.arange(n, dtype=np.float64))


# ---------------------------------------------------------------------------
# dataset container round-trip
# ---------------------------------------------------------------------------


def test_container_byte_identical():
    arrays = {"w": np.arange(6, dtype=np.float64).reshape(2, 3), "b": np.ones(2)}
    assert dump_arrays(arrays) == dump_arrays(arrays)


def test_container_roundtrip_with_meta(tmp_path):
    path = tmp_path / "c.bin"
    save_arrays(path, {"x": np.array([1.5, -2.5])}, meta={"k": 3})
    arrays, meta = load_arrays(path)
    assert np.array_equal(arrays["x"], [1.5, -2.5])
    assert meta == {"k": 3}


def test_container_rejects_truncated_payload():
    blob = dump_arrays({"x": np.ones(4)})
    with pytest.raises(DataFormatError, match="truncated payload.*byte offset"):
        parse_arrays(blob[:-8])


def test_container_rejects_bad_header():
    with pytest.raises(DataFormatError, match="byte offset 0"):
        parse_arrays(b"\x01")
    bad = (5).to_bytes(4, "little") + b"not-j"
    with pytest.raises(DataFormatError, match="bad JSON header"):
        parse_arrays(bad)
    wrong = json.dumps({"format": "other"}).encode()
    blob = len(wrong).to_bytes(4, "little") + wrong
    with pytest.raises(DataFormatError, match="unknown container format"):
        parse_arrays(blob)


def container(header, payload=b""):
    """A container with a hand-written header and payload."""
    blob = json.dumps(header).encode()
    return len(blob).to_bytes(4, "little") + blob + payload


def entry(name="x", shape=(2,)):
    return {"name": name, "shape": list(shape)}


def header_of(*entries, **fields):
    return {"format": "orthojac-arrays", "version": 1, "arrays": list(entries), **fields}


@pytest.mark.parametrize("header", [[], "x", 3, None])
def test_container_rejects_a_header_that_is_not_an_object(header):
    with pytest.raises(DataFormatError, match="header at byte offset 4 must be a JSON object"):
        parse_arrays(container(header))


@pytest.mark.parametrize("bad", [{"shape": [2]}, {"name": "x"}, "x", {"name": 3, "shape": [2]}])
def test_container_rejects_an_entry_without_name_or_shape(bad):
    with pytest.raises(DataFormatError, match="entry 0 needs"):
        parse_arrays(container(header_of(bad), bytes(16)))


@pytest.mark.parametrize("shape", [(-1,), (2, -1), (2.0,), (1.5,), ("2",), (True,)])
def test_container_rejects_negative_or_non_integer_dimensions(shape):
    with pytest.raises(DataFormatError, match="invalid shape"):
        parse_arrays(container(header_of(entry(shape=shape)), bytes(16)))


@pytest.mark.parametrize("version", [2, 0, "1", None])
def test_container_rejects_an_unknown_version(version):
    with pytest.raises(DataFormatError, match="unknown container version"):
        parse_arrays(container(header_of(entry(), version=version), bytes(16)))


def test_container_rejects_duplicate_array_names():
    blob = container(header_of(entry(), entry()), bytes(32))
    with pytest.raises(DataFormatError, match="duplicate array name 'x'"):
        parse_arrays(blob)


@pytest.mark.parametrize("extra", [b"\x00", bytes(8)])
def test_container_rejects_trailing_bytes(extra):
    blob = dump_arrays({"x": np.ones(4)})
    parse_arrays(blob)
    with pytest.raises(DataFormatError, match="trailing bytes"):
        parse_arrays(blob + extra)


def test_container_huge_shape_is_a_truncated_payload():
    # the element count overflows int64; it must still read as too long
    blob = container(header_of(entry(shape=(2**62, 2**62))), bytes(16))
    with pytest.raises(DataFormatError, match="truncated payload"):
        parse_arrays(blob)


@pytest.mark.parametrize("shape", [(2**62, 0), (0, 2**63 - 1), (1,) * 65, (0,) * 70])
def test_container_rejects_a_shape_numpy_cannot_hold(shape):
    # zero elements, so the payload is empty (or one element for the ones)
    payload = bytes(8) if 0 not in shape else b""
    with pytest.raises(DataFormatError, match="unsupported shape"):
        parse_arrays(container(header_of(entry(shape=shape)), payload))


@pytest.mark.parametrize("meta", [[1], "x", 3, None, True])
def test_container_rejects_meta_that_is_not_an_object(meta):
    with pytest.raises(DataFormatError, match="'meta' at byte offset 4 must be a JSON object"):
        parse_arrays(container(header_of(entry(), meta=meta), bytes(16)))


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000 + "]" * 100_000],
                         ids=["huge_integer", "deep_nesting"])
def test_container_rejects_a_header_json_cannot_decode(text):
    # an integer over the digit limit and nesting past the recursion limit
    blob = len(text).to_bytes(4, "little") + text.encode()
    with pytest.raises(DataFormatError, match="bad JSON header"):
        parse_arrays(blob)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# shapes whose element count is zero, one or far past any payload
_SHAPES = st.lists(st.sampled_from([0, 1, 2, 3, 2**31, 2**62, 2**64]), max_size=70)
_BASES = [
    dump_arrays({"w": np.arange(6.0).reshape(2, 3), "x": np.ones(4)}, meta={"k": 3}),
    dump_arrays({"e": np.zeros((0, 3)), "s": np.array(2.5)}),
    dump_arrays({}),
]


@st.composite
def mutated_containers(draw):
    """A valid container with its header fields or its bytes mutated."""
    blob = draw(st.sampled_from(_BASES))
    header_len = int.from_bytes(blob[:4], "little")
    header = json.loads(blob[4:4 + header_len])
    payload = blob[4 + header_len:]
    field = draw(st.sampled_from(["format", "version", "arrays", "meta", "entry",
                                  "name", "shape", "bytes"]))
    value = draw(_SHAPES if field == "shape" else _JSON_VALUES)
    if field == "bytes":
        raw = bytearray(blob)
        for pos, byte in draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                                 st.integers(0, 255)), max_size=4)):
            raw[pos] = byte
        cut = draw(st.integers(0, len(raw)))
        return bytes(raw[:cut]) + draw(st.binary(max_size=12))
    if field in ("entry", "name", "shape"):
        if not header["arrays"]:
            header["arrays"].append({"name": "x", "shape": [1]})
        target = header["arrays"][draw(st.integers(0, len(header["arrays"]) - 1))]
        if field == "entry":
            header["arrays"][0] = value
        else:
            target[field] = value
    else:
        header[field] = value
    if draw(st.booleans()):
        payload = draw(st.binary(max_size=64))
    text = json.dumps(header).encode()
    return len(text).to_bytes(4, "little") + text + payload


@settings(max_examples=300, deadline=None)
@given(blob=mutated_containers())
def test_container_fuzz_only_data_format_errors_escape(blob):
    try:
        arrays, meta = parse_arrays(blob)
    except DataFormatError:
        return
    assert isinstance(meta, dict)
    for arr in arrays.values():
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
