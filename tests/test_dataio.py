import dataclasses
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xattn.dataio import (
    FEATURE_MAGIC,
    GROUND_TRUTH_NAME,
    MANIFEST_NAME,
    TAGS_NAME,
    FeatureMapFormatError,
    ManifestError,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_feature_map,
    load_ground_truth,
    load_manifest,
    load_tag_vocab,
    write_feature_map,
)

from xattn.attention import TagVector

from mutations import corrupted, non_finite

TINY = SyntheticSpec(
    products=3,
    holdout_products=0,
    user_per_product=2,
    shop_per_product=1,
    locations=2,
    channels=2,
    tag_count=3,
    raw_dim=2,
    signal_locations=1,
)


@pytest.fixture
def train_dir(tmp_path):
    generate_synthetic(TINY, tmp_path)
    return tmp_path / "train"


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def feature_header(locations, dim):
    return FEATURE_MAGIC + struct.pack("<III", 1, locations, dim)


class TestGenerator:
    def test_same_spec_and_seed_give_identical_files(self, tmp_path):
        spec = SyntheticSpec(products=4, holdout_products=2, seed=5)
        generate_synthetic(spec, tmp_path / "a")
        generate_synthetic(spec, tmp_path / "b")
        first = tree_bytes(tmp_path / "a")
        assert any(name.startswith("holdout/features/") for name in first)
        assert tree_bytes(tmp_path / "b") == first

    def test_another_seed_gives_other_features(self, tmp_path):
        for seed in (5, 6):
            generate_synthetic(SyntheticSpec(products=4, holdout_products=2, seed=seed), tmp_path / str(seed))
        a, b = tree_bytes(tmp_path / "5"), tree_bytes(tmp_path / "6")
        assert a.keys() == b.keys()
        features = [name for name in a if "/features/" in name]
        assert all(a[name] != b[name] for name in features)

    def test_loads_back(self, train_dir):
        dataset = load_dataset(train_dir)
        assert len(dataset.user_records()) == 6 and len(dataset.shop_records()) == 3
        assert dataset.feature_dims() == (TINY.locations, TINY.raw_dim)
        assert set(dataset.ground_truth) == {r.item_id for r in dataset.user_records()}

    def test_root_as_str_path_or_with_a_trailing_separator(self, train_dir):
        want = load_dataset(train_dir)
        for root in (str(train_dir), str(train_dir) + os.sep):
            got = load_dataset(root)
            assert got.root == want.root and got.manifest == want.manifest
            assert got.ground_truth == want.ground_truth
            assert got.features.keys() == want.features.keys()
            for item_id, fmap in want.features.items():
                assert got.features[item_id].tobytes() == fmap.tobytes()


class TestTagVectors:
    def test_built_once_per_record(self, tmp_path):
        spec = SyntheticSpec(products=4, holdout_products=2, shop_per_product=2, tag_count=3, seed=5)
        generate_synthetic(spec, tmp_path)
        for split in ("train", "holdout"):
            dataset = load_dataset(tmp_path / split)
            for record in dataset.manifest.records:
                tags = dataset.tag_vector(record)
                assert isinstance(tags, TagVector)
                np.testing.assert_array_equal(tags.bits, TagVector.from_ids(record.tag_ids, 3).bits)
                assert dataset.tag_vector(record) is tags
                # Records with one tag set share the vector, so no caller
                # may write to it.
                assert not tags.bits.flags.writeable


class TestTextFiles:
    @pytest.mark.parametrize("name", [TAGS_NAME, MANIFEST_NAME, GROUND_TRUTH_NAME])
    @pytest.mark.parametrize("line, column", [(1, 0), (2, 0), (3, 2)])
    def test_non_utf8_byte_names_file_and_line(self, train_dir, name, line, column):
        path = train_dir / name
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1][:column] + b"\xff" + lines[line - 1][column:]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ManifestError, match=f"{name} line {line}: not valid UTF-8"):
            load_dataset(train_dir)

    def test_missing_feature_file(self, train_dir):
        second = load_manifest(train_dir / MANIFEST_NAME).records[1].path
        (train_dir / second).unlink()
        with pytest.raises(ManifestError, match=f"line 2: feature file missing: {second}"):
            load_dataset(train_dir)

    def test_feature_path_naming_a_directory(self, train_dir):
        first = load_manifest(train_dir / MANIFEST_NAME).records[0].path
        (train_dir / first).unlink()
        (train_dir / first).mkdir()
        with pytest.raises(ManifestError, match="line 1: feature file missing"):
            load_dataset(train_dir)

    def test_feature_path_too_long_for_the_os(self, train_dir):
        path = train_dir / MANIFEST_NAME
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[1].split("\t")
        fields[3] = "features/" + "x" * 300
        lines[1] = "\t".join(fields)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ManifestError, match="line 2: feature file missing"):
            load_dataset(train_dir)

    @pytest.mark.parametrize("outside", ["absolute", "parent"])
    def test_feature_path_leaving_the_dataset_directory(self, tmp_path, outside):
        generate_synthetic(dataclasses.replace(TINY, holdout_products=2), tmp_path)
        train_dir = tmp_path / "train"
        elsewhere = load_manifest(tmp_path / "holdout" / MANIFEST_NAME).records[0].path
        target = tmp_path / "holdout" / elsewhere
        named = str(target) if outside == "absolute" else f"../holdout/{elsewhere}"
        path = train_dir / MANIFEST_NAME
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[2].split("\t")
        fields[3] = named
        lines[2] = "\t".join(fields)
        path.write_text("\n".join(lines), encoding="utf-8")
        assert target.is_file() and (train_dir / named).is_file()
        with pytest.raises(ManifestError, match="line 3: feature path must stay inside the dataset directory"):
            load_dataset(train_dir)

    @pytest.mark.parametrize("name", [MANIFEST_NAME, TAGS_NAME])
    def test_missing_or_directory(self, train_dir, name):
        (train_dir / name).unlink()
        with pytest.raises(ManifestError, match="not found"):
            load_dataset(train_dir)
        (train_dir / name).mkdir()
        with pytest.raises(ManifestError, match="not a file"):
            load_dataset(train_dir)

    def test_ground_truth_contradicting_the_manifest(self, train_dir):
        user = load_manifest(train_dir / MANIFEST_NAME).user_records()[0]
        path = train_dir / GROUND_TRUTH_NAME
        lines = path.read_text(encoding="utf-8").splitlines()
        lines = [f"{user.item_id}\t{user.product_id + 1}" if l.split("\t")[0] == str(user.item_id) else l for l in lines]
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ManifestError, match=f"item {user.item_id} contradicts"):
            load_dataset(train_dir)


class TestFeatureMaps:
    def test_round_trip(self, tmp_path):
        values = np.array([[0.5, -0.0], [1e-40, 3.0e38]])
        write_feature_map(tmp_path / "a.xfmp", values)
        got = load_feature_map(tmp_path / "a.xfmp")
        np.testing.assert_array_equal(got, values.astype(np.float32))
        assert got.dtype == np.float64 and np.signbit(got[0, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload(self, tmp_path, bad):
        path = tmp_path / "bad.xfmp"
        write_feature_map(path, np.array([[1.0, bad], [0.0, 2.0]]))
        with pytest.raises(FeatureMapFormatError, match="NaN or infinite"):
            load_feature_map(path)

    @pytest.mark.parametrize("locations, dim", [(0, 2), (2, 0), (0, 0)])
    def test_empty_map(self, tmp_path, locations, dim):
        path = tmp_path / "empty.xfmp"
        path.write_bytes(feature_header(locations, dim))
        with pytest.raises(FeatureMapFormatError, match="must be positive"):
            load_feature_map(path)

    @pytest.mark.parametrize("fault", ["version", "truncated"])
    def test_dataset_with_a_corrupt_map(self, train_dir, fault):
        path = train_dir / load_manifest(train_dir / MANIFEST_NAME).records[1].path
        data = path.read_bytes()
        if fault == "version":
            path.write_bytes(data[:4] + struct.pack("<I", 2) + data[8:])
            message, offset = "unsupported version 2", 4
        else:
            path.write_bytes(data[:-3])  # the last float32 is incomplete
            message, offset = "truncated", len(data) - 4
        with pytest.raises(FeatureMapFormatError, match=message) as err:
            load_dataset(train_dir)
        assert str(path) in str(err.value) and err.value.offset == offset

    def test_dataset_with_a_non_finite_map(self, train_dir):
        first = load_manifest(train_dir / MANIFEST_NAME).records[0].path
        write_feature_map(train_dir / first, np.full((TINY.locations, TINY.raw_dim), np.nan))
        with pytest.raises(FeatureMapFormatError, match="NaN"):
            load_dataset(train_dir)


# ---------------------------------------------------------------------------
# fuzzing: a parser returns what re-serializes to its input, or raises its
# own format error
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    generate_synthetic(TINY, root)
    return root / "train"


def tags_text(names):
    return "".join(f"{i}\t{name}\n" for i, name in enumerate(names))


def truth_text(truth):
    return "".join(f"{user}\t{product}\n" for user, product in truth.items())


def manifest_text(records):
    return "".join(
        f"{r.item_id}\t{r.domain}\t{r.product_id}\t{r.path}\t{','.join(map(str, r.tag_ids))}\n"
        for r in records
    )


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_corrupted_feature_map_loads_or_raises_format_error(fuzz_dir, data):
    path = fuzz_dir / "fuzz.xfmp"
    write_feature_map(path, np.array([[0.5, -0.0, 7.0], [1e-40, -3.0e38, 1.0]]))
    damaged = data.draw(corrupted(path.read_bytes()))
    path.write_bytes(damaged)
    try:
        loaded = load_feature_map(path)
    except FeatureMapFormatError:
        return
    write_feature_map(path, loaded)
    assert path.read_bytes() == damaged


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_non_finite_feature_map_value_is_reported_at_its_offset(fuzz_dir, data):
    path = fuzz_dir / "fuzz.xfmp"
    write_feature_map(path, np.arange(6.0).reshape(2, 3))
    original = path.read_bytes()
    offsets = range(16, len(original), 4)
    damaged = data.draw(non_finite(original, offsets, width=4))
    path.write_bytes(damaged)
    at = next(o for o in offsets if damaged[o : o + 4] != original[o : o + 4])
    with pytest.raises(FeatureMapFormatError, match="NaN or infinite") as err:
        load_feature_map(path)
    assert err.value.offset == at


@pytest.mark.parametrize(
    "name, load, text",
    [
        (TAGS_NAME, load_tag_vocab, tags_text),
        (GROUND_TRUTH_NAME, load_ground_truth, truth_text),
    ],
)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_corrupted_table_loads_or_raises_manifest_error(fuzz_dir, name, load, text, data):
    path = fuzz_dir / f"fuzz_{name}"
    path.write_bytes(data.draw(corrupted((fuzz_dir / name).read_bytes())))
    try:
        loaded = load(path)
    except ManifestError:
        return
    path.write_text(text(loaded), encoding="utf-8")
    assert load(path) == loaded


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_corrupted_manifest_loads_or_raises_manifest_error(fuzz_dir, data):
    # The copy sits next to the real manifest, so its paths and tags.tsv
    # resolve as the real one's do.
    path = fuzz_dir / "fuzz_manifest.tsv"
    path.write_bytes(data.draw(corrupted((fuzz_dir / MANIFEST_NAME).read_bytes())))
    try:
        loaded = load_manifest(path)
    except ManifestError:
        return
    path.write_text(manifest_text(loaded.records), encoding="utf-8")
    assert load_manifest(path) == loaded
