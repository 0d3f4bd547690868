import dataclasses
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xattn import dataio
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
from oracles import reference_load_ground_truth, reference_load_manifest, reference_load_tag_vocab

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


# The line breaks of str.splitlines other than the line feed, carriage
# return and their pair.
SPLITLINES_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


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

    @pytest.mark.parametrize(
        "seed, identity, oracle", [(0, 0.4625, 1.0), (1, 0.4375, 0.975), (2, 0.5, 1.0)]
    )
    def test_default_holdout_references(self, tmp_path, seed, identity, oracle):
        # What the default spec's holdout split gives without any model,
        # the bounds a trained model is scored against. Identity ranks the
        # shops by the L2-normalised mean of their raw cells, nearest
        # first, ties by item id; the oracle is the generator's own.
        summary = generate_synthetic(SyntheticSpec(seed=seed), tmp_path)
        assert summary.oracle_accuracy_holdout == oracle
        dataset = load_dataset(tmp_path / "holdout")
        users, shops = dataset.user_records(), dataset.shop_records()

        def pooled(records):
            rows = np.array([dataset.features[r.item_id].mean(axis=0, dtype=np.float64) for r in records])
            return rows / np.linalg.norm(rows, axis=1, keepdims=True)

        dists = np.sum((pooled(users)[:, None] - pooled(shops)[None]) ** 2, axis=-1)
        shop_ids = [r.item_id for r in shops]
        nearest = [shops[np.lexsort((shop_ids, row))[0]] for row in dists]
        hits = sum(s.product_id == dataset.ground_truth[u.item_id] for u, s in zip(users, nearest))
        assert (len(users), len(shops)) == (80, 40)
        assert hits / len(users) == identity

    @pytest.mark.parametrize(
        "field, value",
        [
            ("locations", 2.5),
            ("products", 3.0),
            ("products", 1),
            ("holdout_products", -1),
            ("holdout_products", 1),
            ("signal_locations", 1.5),
            ("signal_locations", 10),
            ("channels", 0),
            ("noise_sigma", float("nan")),
            ("noise_sigma", float("inf")),
            ("noise_sigma", -0.1),
            ("noise_sigma", "0.3"),
            ("seed", -1),
            ("seed", 1.0),
        ],
    )
    def test_spec_rejects_what_it_cannot_generate(self, field, value):
        # Each is refused at its field, before generate_synthetic sizes an
        # array with it or seeds the generator.
        with pytest.raises(ValueError, match=rf"^{field} must be .*, got {value!r}$"):
            SyntheticSpec(**{field: value})

    def test_loads_back(self, train_dir):
        dataset = load_dataset(train_dir)
        assert len(dataset.user_records()) == 6 and len(dataset.shop_records()) == 3
        assert {fmap.shape for fmap in dataset.features.values()} == {(TINY.locations, TINY.raw_dim)}
        assert set(dataset.ground_truth) == {r.item_id for r in dataset.user_records()}

    def test_root_as_str_path_or_with_a_trailing_separator(self, train_dir):
        want = load_dataset(train_dir)
        for root in (str(train_dir), str(train_dir) + os.sep):
            got = load_dataset(root)
            assert got.manifest == want.manifest
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
            by_tag_set: dict[tuple[int, ...], list[TagVector]] = {}
            for record in dataset.manifest.records:
                tags = dataset.tag_vector(record)
                assert isinstance(tags, TagVector)
                np.testing.assert_array_equal(tags.bits, TagVector.from_ids(record.tag_ids, 3).bits)
                assert dataset.tag_vector(record) is tags
                # Records with one tag set share the vector, so no caller
                # may write to it.
                assert not tags.bits.flags.writeable
                by_tag_set.setdefault(record.tag_ids, []).append(tags)
            # One object per tag set, shared by every record that has it.
            assert len(by_tag_set) > 1 and max(map(len, by_tag_set.values())) > 1
            for vectors in by_tag_set.values():
                assert all(vector is vectors[0] for vector in vectors)
            assert len({id(vectors[0]) for vectors in by_tag_set.values()}) == len(by_tag_set)

    def test_a_shop_record_with_an_empty_tag_field_has_no_tags(self, train_dir):
        # The record follows a shop record with tags, so it cannot take
        # that record's tags either.
        path = train_dir / MANIFEST_NAME
        lines = path.read_text(encoding="utf-8").split("\n")
        first, second = [n for n, line in enumerate(lines) if "\tshop\t" in line][:2]
        fields = lines.pop(second).split("\t")
        assert fields[4] and lines[first].split("\t")[4]
        number = first + 1
        lines.insert(number, "\t".join(fields[:4] + [""]))
        path.write_text("\n".join(lines), encoding="utf-8")
        record = load_manifest(path).records[number]
        assert record.domain == "shop" and record.tag_ids == ()
        dataset = load_dataset(train_dir)
        assert dataset.manifest.records[number] == record
        np.testing.assert_array_equal(dataset.tag_vector(record).bits, np.zeros(TINY.tag_count))


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

    @pytest.mark.parametrize("mark", SPLITLINES_BREAKS)
    def test_only_a_line_feed_ends_a_line(self, train_dir, mark):
        # str.splitlines would end a line at each of these characters.
        path = train_dir / TAGS_NAME
        path.write_text(f"0\ta{mark}b\n1\tother\n2\tlast", encoding="utf-8")
        assert load_tag_vocab(path) == (f"a{mark}b", "other", "last")
        # A fault after the character is counted on the line it is on.
        path.write_bytes(f"0\ta{mark}b\n1\tot".encode() + b"\xff\n")
        with pytest.raises(ManifestError, match=f"{TAGS_NAME} line 2: not valid UTF-8"):
            load_tag_vocab(path)

    @pytest.mark.parametrize("mark", SPLITLINES_BREAKS)
    def test_feature_path_holding_a_line_break_of_splitlines(self, train_dir, mark):
        path = train_dir / MANIFEST_NAME
        lines = path.read_text(encoding="utf-8").split("\n")
        fields = lines[0].split("\t")
        renamed = fields[3].replace(".xfmp", f"{mark}.xfmp")
        os.rename(train_dir / fields[3], train_dir / renamed)
        fields[3] = renamed
        lines[0] = "\t".join(fields)
        missing = lines[2].split("\t")[3]
        path.write_text("\n".join(lines), encoding="utf-8")
        assert load_dataset(train_dir).manifest.records[0].path == renamed
        (train_dir / missing).unlink()
        with pytest.raises(ManifestError, match=f"line 3: feature file missing: {missing}"):
            load_dataset(train_dir)

    def test_crlf_files_load_as_their_line_feed_copies(self, train_dir):
        want = load_dataset(train_dir)
        for name in (MANIFEST_NAME, TAGS_NAME, GROUND_TRUTH_NAME):
            path = train_dir / name
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        got = load_dataset(train_dir)
        assert got.manifest == want.manifest and got.ground_truth == want.ground_truth

    @pytest.mark.parametrize("mark", ["\u2028", "\x85", "\x1c", "\x0b", "\xa0", "\u3000"])
    @pytest.mark.parametrize(
        "name, fields", [(TAGS_NAME, 2), (MANIFEST_NAME, 5), (GROUND_TRUTH_NAME, 2)]
    )
    def test_a_line_of_other_whitespace_is_a_record(self, train_dir, name, fields, mark):
        # str.strip would strip these; a line holding one is no blank line
        # but a record with one field, as a line "zz" is.
        path = train_dir / name
        lines = path.read_text(encoding="utf-8").split("\n")
        for line in (mark, "zz"):
            path.write_text("\n".join([lines[0], line, *lines[1:]]), encoding="utf-8")
            with pytest.raises(ManifestError, match=f"line 2: expected {fields} fields, got 1"):
                load_dataset(train_dir)

    def test_a_line_of_spaces_and_tabs_is_skipped(self, train_dir):
        want = load_dataset(train_dir)
        for name in (MANIFEST_NAME, TAGS_NAME, GROUND_TRUTH_NAME):
            path = train_dir / name
            lines = path.read_text(encoding="utf-8").split("\n")
            path.write_text("\n".join([lines[0], " \t \t", "", *lines[1:]]), encoding="utf-8")
        got = load_dataset(train_dir)
        assert got.manifest == want.manifest and got.ground_truth == want.ground_truth
        # A record after them is reported at its own line.
        (train_dir / want.manifest.records[1].path).unlink()
        with pytest.raises(ManifestError, match="line 4: feature file missing"):
            load_dataset(train_dir)

    @pytest.mark.parametrize(
        "name, lineno, text, message",
        [
            pytest.param(
                MANIFEST_NAME, 5, "1\tuser\t1\tfeatures/000004.xfmp\t",
                "line 5: duplicate item id 1", id="manifest-duplicate-id",
            ),
            pytest.param(
                MANIFEST_NAME, 3, "2\tstore\t0\tfeatures/000002.xfmp\t0",
                "line 3: unknown domain 'store'", id="manifest-unknown-domain",
            ),
            pytest.param(
                MANIFEST_NAME, 4, "3\tuser\t1\t\t",
                "line 4: empty feature path", id="manifest-empty-path",
            ),
            pytest.param(
                MANIFEST_NAME, 1, "0\tuser\t0\tfeatures/000000.xfmp\t1",
                "line 1: user records must not carry tags", id="manifest-user-tags",
            ),
            pytest.param(
                MANIFEST_NAME, 6, "5\tshop\t1\tfeatures/000005.xfmp\t1;2",
                "line 6: bad tag list '1;2'", id="manifest-bad-tag-list",
            ),
            pytest.param(
                MANIFEST_NAME, 9, "8\tshop\t2\tfeatures/000008.xfmp\t0,3",
                "line 9: tag id 3 outside vocabulary of 3", id="manifest-tag-outside-vocabulary",
            ),
            pytest.param(MANIFEST_NAME, None, "", "no records", id="manifest-no-records"),
            pytest.param(
                TAGS_NAME, 2, "one\tattr-1", f"{TAGS_NAME} line 2: bad tag id 'one'", id="tags-bad-id"
            ),
            pytest.param(
                TAGS_NAME, 3, "1\tattr-2", f"{TAGS_NAME} line 3: duplicate tag id 1", id="tags-duplicate-id"
            ),
            pytest.param(
                TAGS_NAME, 3, "5\tattr-2", f"{TAGS_NAME}: tag ids must be contiguous from 0",
                id="tags-not-contiguous",
            ),
            pytest.param(TAGS_NAME, None, " \t", f"{TAGS_NAME}: no tags", id="tags-none"),
            pytest.param(
                GROUND_TRUTH_NAME, 4, "1\t1", f"{GROUND_TRUTH_NAME} line 4: duplicate user id 1",
                id="ground-truth-duplicate-user",
            ),
        ],
    )
    def test_each_fault_names_its_line(self, train_dir, name, lineno, text, message):
        # One line replaced, or every line when there is no line to name.
        path = train_dir / name
        lines = path.read_text(encoding="utf-8").split("\n")
        for number in range(1, len(lines) + 1) if lineno is None else (lineno,):
            lines[number - 1] = text
        path.write_text("\n".join(lines), encoding="utf-8")
        load = {MANIFEST_NAME: load_manifest, TAGS_NAME: load_tag_vocab, GROUND_TRUTH_NAME: load_ground_truth}
        with pytest.raises(ManifestError) as err:
            load[name](path)
        assert type(err.value) is ManifestError and str(err.value) == message

    def test_every_table_loader_takes_a_str_path(self, train_dir):
        for name, load in (
            (MANIFEST_NAME, load_manifest),
            (TAGS_NAME, load_tag_vocab),
            (GROUND_TRUTH_NAME, load_ground_truth),
        ):
            assert load(str(train_dir / name)) == load(train_dir / name)

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

    def test_feature_path_with_a_nul_byte(self, train_dir):
        path = train_dir / MANIFEST_NAME
        # Blank lines before the record: the error counts manifest lines.
        lines = ["", "  "] + path.read_text(encoding="utf-8").splitlines()
        fields = lines[3].split("\t")
        fields[3] = "features/a\0b.xfmp"
        lines[3] = "\t".join(fields)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ManifestError, match="line 4: feature file missing: features/a\0b.xfmp"):
            load_dataset(train_dir)

    def test_manifest_alone_accepts_a_missing_feature_file(self, train_dir):
        before = load_manifest(train_dir / MANIFEST_NAME)
        (train_dir / before.records[0].path).unlink()
        assert load_manifest(train_dir / MANIFEST_NAME) == before

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
        user = load_dataset(train_dir).user_records()[0]
        path = train_dir / GROUND_TRUTH_NAME
        lines = path.read_text(encoding="utf-8").splitlines()
        lines = [f"{user.item_id}\t{user.product_id + 1}" if l.split("\t")[0] == str(user.item_id) else l for l in lines]
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ManifestError, match=f"item {user.item_id} contradicts"):
            load_dataset(train_dir)

    @pytest.mark.parametrize("value", ["-1", str(2**63), str(2**64)])
    @pytest.mark.parametrize(
        "name, column",
        [(MANIFEST_NAME, 0), (MANIFEST_NAME, 2), (GROUND_TRUTH_NAME, 0), (GROUND_TRUTH_NAME, 1)],
    )
    def test_an_id_outside_the_index_range_names_its_line(self, train_dir, name, column, value):
        # An index holds the ids as int64 and stores them as u64.
        path = train_dir / name
        lines = path.read_text(encoding="utf-8").split("\n")
        fields = lines[1].split("\t")
        fields[column] = value
        lines[1] = "\t".join(fields)
        path.write_text("\n".join(lines), encoding="utf-8")
        where = "line 2" if name == MANIFEST_NAME else f"{name} line 2"
        with pytest.raises(ManifestError, match=rf"^{where}: id {value} outside \[0, 2\*\*63\)$"):
            load_dataset(train_dir)

    def test_the_largest_id_loads(self, train_dir):
        user = load_dataset(train_dir).user_records()[0]
        for name in (MANIFEST_NAME, GROUND_TRUTH_NAME):
            path = train_dir / name
            lines = path.read_text(encoding="utf-8").split("\n")
            for number, line in enumerate(lines):
                fields = line.split("\t")
                if fields[0] == str(user.item_id):
                    lines[number] = "\t".join([str(2**63 - 1), *fields[1:]])
            path.write_text("\n".join(lines), encoding="utf-8")
        dataset = load_dataset(train_dir)
        assert dataset.ground_truth[2**63 - 1] == user.product_id
        assert 2**63 - 1 in {r.item_id for r in dataset.user_records()}


class TestFeatureMaps:
    def test_round_trip(self, tmp_path):
        values = np.array([[0.5, -0.0], [1e-40, 3.0e38]])
        write_feature_map(tmp_path / "a.xfmp", values)
        got = load_feature_map(tmp_path / "a.xfmp")
        np.testing.assert_array_equal(got, values.astype(np.float32))
        assert got.dtype == np.float32 and np.signbit(got[0, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
    def test_non_finite_payload(self, tmp_path, bad):
        # 1e39 is a finite float64 beyond float32's range: inf when stored.
        values = np.array([[1.0, bad], [0.0, 2.0]])
        path = tmp_path / "bad.xfmp"
        with np.errstate(over="ignore"):
            path.write_bytes(feature_header(2, 2) + values.astype("<f4").tobytes())
        with pytest.raises(FeatureMapFormatError, match="NaN or infinite") as loaded:
            load_feature_map(path)
        assert loaded.value.offset == 20
        # The writer refuses such a map with the parser's error and leaves
        # nothing behind.
        path.unlink()
        with pytest.raises(FeatureMapFormatError) as written:
            write_feature_map(path, values)
        assert (str(written.value), written.value.offset) == (str(loaded.value), 20)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("locations, dim", [(0, 2), (2, 0), (0, 0)])
    def test_empty_map(self, tmp_path, locations, dim):
        path = tmp_path / "empty.xfmp"
        path.write_bytes(feature_header(locations, dim))
        message = f"has {locations} locations of dim {dim}; both must be positive"
        with pytest.raises(FeatureMapFormatError, match=message) as loaded:
            load_feature_map(path)
        # The writer refuses such a map with the parser's error and leaves
        # nothing behind.
        path.unlink()
        with pytest.raises(FeatureMapFormatError) as written:
            write_feature_map(path, np.zeros((locations, dim)))
        assert (str(written.value), written.value.offset) == (str(loaded.value), loaded.value.offset)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 1), (1, 1, 1, 1)])
    def test_a_map_that_is_not_2d_is_refused(self, tmp_path, shape):
        # The header holds two dimensions, so there is nothing to parse.
        message = rf"^feature map must be 2-D, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            write_feature_map(tmp_path / "a.xfmp", np.ones(shape))
        assert list(tmp_path.iterdir()) == []

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
        nan = np.full((TINY.locations, TINY.raw_dim), np.nan, dtype="<f4")
        (train_dir / first).write_bytes(feature_header(TINY.locations, TINY.raw_dim) + nan.tobytes())
        with pytest.raises(FeatureMapFormatError, match="NaN"):
            load_dataset(train_dir)


# ---------------------------------------------------------------------------
# the block loader: load_dataset reads every map into one float32 block and
# falls back to load_feature_map for a record it cannot take there, so each
# fault raises what the per-file parser raises
# ---------------------------------------------------------------------------

FAULTS = ["missing", "directory", "truncated", "trailing", "magic", "version", "zero_dim", "shape", "nan_last"]


def damage(path, fault):
    data = path.read_bytes()
    if fault in ("missing", "directory"):
        path.unlink()
        if fault == "directory":
            path.mkdir()
    elif fault == "truncated":
        path.write_bytes(data[:-3])
    elif fault == "trailing":
        path.write_bytes(data + b"\0")
    elif fault == "magic":
        path.write_bytes(b"XFMQ" + data[4:])
    elif fault == "version":
        path.write_bytes(data[:4] + struct.pack("<I", 2) + data[8:])
    elif fault == "zero_dim":
        path.write_bytes(data[:12] + struct.pack("<I", 0) + data[16:])
    elif fault == "shape":
        write_feature_map(path, np.ones((TINY.locations + 1, TINY.raw_dim)))
    else:
        path.write_bytes(data[:-4] + struct.pack("<f", np.nan))


def expect_load_error(train_dir, number):
    """What ``load_dataset`` must raise when record ``number`` (from 0, one
    per manifest line) is the first faulty one: the ``ManifestError`` of a
    file that does not read, the shape error, or ``load_feature_map``'s own
    error for that file. The first record sets the shape, so when it loads
    with another one, the clean second record is reported."""
    records = load_manifest(train_dir / MANIFEST_NAME).records
    record = records[number]
    try:
        fmap = load_feature_map(train_dir / record.path)
    except FeatureMapFormatError as exc:
        return type(exc), str(exc), exc.offset
    except OSError:
        return ManifestError, f"line {number + 1}: feature file missing: {record.path}", None
    dims = (TINY.locations, TINY.raw_dim)
    assert fmap.shape != dims, "the record is not faulty"
    if number == 0:
        record, fmap, dims = records[1], np.empty(dims), fmap.shape
    return FeatureMapFormatError, f"{record.path}: shape {fmap.shape} differs from {dims}", None


def raised(train_dir):
    with pytest.raises(ValueError) as err:
        load_dataset(train_dir)
    return type(err.value), str(err.value), getattr(err.value, "offset", None)


def record_number(where, count):
    return {"first": 0, "middle": count // 2, "last": count - 1}[where]


def open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestBlockLoader:
    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_fault_raises_what_the_per_file_path_raises(self, train_dir, fault, where):
        records = load_manifest(train_dir / MANIFEST_NAME).records
        number = record_number(where, len(records))
        damage(train_dir / records[number].path, fault)
        want = expect_load_error(train_dir, number)
        assert raised(train_dir) == want
        if fault not in ("missing", "directory", "shape"):
            assert want[0] is FeatureMapFormatError and want[2] is not None

    def test_first_faulty_record_in_manifest_order_wins(self, train_dir):
        # Record 2 fails only the finiteness pass, which runs after every
        # file is read, and record 5 already fails to open.
        records = load_manifest(train_dir / MANIFEST_NAME).records
        damage(train_dir / records[2].path, "nan_last")
        damage(train_dir / records[5].path, "missing")
        assert raised(train_dir) == expect_load_error(train_dir, 2)

    @pytest.mark.parametrize("sign", [1.0, -1.0, 0.0])
    def test_finite_values_at_the_float32_limits_load_unchanged(self, train_dir, sign):
        # Every value is +-3.4e38: the record's float64 sum is large, or
        # exactly 0 with both signs, but finite.
        records = load_manifest(train_dir / MANIFEST_NAME).records
        top = np.finfo(np.float32).max
        values = np.full((TINY.locations, TINY.raw_dim), top, dtype=np.float32)
        values *= sign or np.where(np.arange(TINY.raw_dim) % 2, 1, -1).astype(np.float32)
        write_feature_map(train_dir / records[1].path, values)
        row = load_dataset(train_dir).features[records[1].item_id]
        assert row.tobytes() == values.tobytes()

    @pytest.mark.parametrize("bad", [(np.inf,), (-np.inf,), (np.inf, -np.inf), (np.nan, np.inf)])
    def test_infinities_that_sum_to_nan_are_found(self, train_dir, bad):
        records = load_manifest(train_dir / MANIFEST_NAME).records
        path = train_dir / records[3].path
        values = load_feature_map(path)
        values.flat[: len(bad)] = bad
        path.write_bytes(feature_header(TINY.locations, TINY.raw_dim) + values.tobytes())
        assert raised(train_dir) == expect_load_error(train_dir, 3)

    def test_a_short_read_of_a_valid_file_reads_it_again(self, train_dir, monkeypatch):
        # The middle record's one readv fills its header alone, and its row
        # of the block gets values that are finite but not the file's.
        want = load_dataset(train_dir)
        records = want.manifest.records
        number = len(records) // 2
        readv, calls, loaded = os.readv, [], []

        def short_readv(fd, buffers):
            calls.append(fd)
            if len(calls) != number:  # the first record takes no readv
                return readv(fd, buffers)
            buffers[1][...] = 7.0
            return readv(fd, buffers[:1])

        def spy(path):
            loaded.append(os.fspath(path))
            return load_feature_map(path)

        monkeypatch.setattr(dataio.os, "readv", short_readv)
        monkeypatch.setattr(dataio, "load_feature_map", spy)
        got = load_dataset(train_dir)
        assert len(calls) == len(records) - 1
        assert loaded == [os.path.join(train_dir, records[r].path) for r in (0, number)]
        block = got.features[records[0].item_id].base
        assert block.tobytes() == want.features[records[0].item_id].base.tobytes()

    def test_rows_are_views_of_one_float32_block(self, train_dir):
        dataset = load_dataset(train_dir)
        records = dataset.manifest.records
        block = dataset.features[records[0].item_id].base
        assert block.shape == (len(records), TINY.locations, TINY.raw_dim)
        assert block.dtype == np.dtype("<f4")
        for number, record in enumerate(records):
            row = dataset.features[record.item_id]
            assert row.base is block and row.dtype == np.float32
            assert row.tobytes() == load_feature_map(train_dir / record.path).tobytes()
            np.testing.assert_array_equal(row, block[number])

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("fault", [None] + FAULTS)
    def test_no_file_descriptor_leaks(self, train_dir, fault):
        records = load_manifest(train_dir / MANIFEST_NAME).records
        if fault is not None:
            damage(train_dir / records[len(records) // 2].path, fault)
        before = open_fds()
        try:
            load_dataset(train_dir)
        except ValueError:
            assert fault is not None
        else:
            assert fault is None
        assert open_fds() == before


@pytest.fixture(scope="module")
def block_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("block")
    generate_synthetic(TINY, root)
    return root / "train"


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_dataset_with_one_corrupted_record_loads_or_raises_the_per_file_error(block_dir, data):
    records = load_manifest(block_dir / MANIFEST_NAME).records
    number = data.draw(st.integers(0, len(records) - 1))
    path = block_dir / records[number].path
    original = path.read_bytes()
    try:
        path.write_bytes(data.draw(corrupted(original)))
        try:
            fmap = load_feature_map(path)
        except FeatureMapFormatError:
            faulty = True
        else:
            faulty = fmap.shape != (TINY.locations, TINY.raw_dim)
        if faulty:
            assert raised(block_dir) == expect_load_error(block_dir, number)
            return
        dataset = load_dataset(block_dir)
        for record in records:
            row = dataset.features[record.item_id]
            want = load_feature_map(block_dir / record.path)
            assert row.dtype == want.dtype == np.float32
            assert row.tobytes() == want.tobytes()
    finally:
        path.write_bytes(original)


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


REFERENCE = {
    load_tag_vocab: reference_load_tag_vocab,
    load_ground_truth: reference_load_ground_truth,
}


def outcome(load, path):
    """What ``load(path)`` returns, or the class and message of the
    ``ManifestError`` it raises."""
    try:
        return "loaded", load(path)
    except ManifestError as exc:
        return "raised", type(exc), str(exc)


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
    # The reference's value, or its error: the first faulty line, named with
    # the file's own name.
    got = outcome(load, path)
    assert got == outcome(REFERENCE[load], path)
    if got[0] == "raised":
        return
    loaded = got[1]
    path.write_text(text(loaded), encoding="utf-8")
    assert load(path) == loaded


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_corrupted_manifest_loads_or_raises_manifest_error(fuzz_dir, data):
    # The copy sits next to the real manifest, so its paths and tags.tsv
    # resolve as the real one's do.
    path = fuzz_dir / "fuzz_manifest.tsv"
    path.write_bytes(data.draw(corrupted((fuzz_dir / MANIFEST_NAME).read_bytes())))
    # The reference's value, or its error: the first faulty line, named as
    # "line N" whatever the file is called.
    got = outcome(load_manifest, path)
    assert got == outcome(reference_load_manifest, path)
    if got[0] == "raised":
        return
    loaded = got[1]
    path.write_text(manifest_text(loaded.records), encoding="utf-8")
    assert load_manifest(path) == loaded
