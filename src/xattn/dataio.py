"""Dataset ingestion and the synthetic benchmark generator.

On-disk layout of a dataset directory:

    manifest.tsv       one record per line:
                       id<TAB>domain<TAB>product<TAB>path<TAB>tag,tag,...
                       (domain is "user" or "shop"; the tag field is empty
                       for user records; paths are relative to the manifest,
                       neither absolute nor with a ".." component)
    tags.tsv           tag vocabulary, one ``tag_id<TAB>name`` per line
    ground_truth.tsv   ``user_id<TAB>product_id`` per query image
    features/*.xfmp    binary feature maps

Item, user and product ids are integers in [0, 2**63).

Feature-map file format (little endian): magic ``XFMP``, version u32,
location count u32, feature dim u32, then float32 payload row-major.
Values are held in memory as stored, float32, and widened to float64,
which is exact, where the model takes them: in ``model._trunk``, per
``retrieval.build_index`` block, and in ``model.forward_triple``, which
stacks a training triple's three maps.
``load_dataset`` reads a split's maps into one N x L x R block.
``fileio`` says how faults are reported.

The text files are read by one row reader, ``_rows``, which holds their
rules. They are UTF-8, and a line ends at a line feed (U+000A) alone.
Carriage returns at the end of a line are dropped, so CRLF files load; a
line cannot end in one. The other characters ``str.splitlines`` breaks at
(U+000B, U+000C, U+001C to U+001E, U+0085, U+2028 and U+2029) are data,
and may appear in a tag name or a feature path. A blank line, empty or of
spaces and tabs only, is skipped; any other line is a record whose fields
are split at tabs. Other whitespace, such as U+2028 or U+0085, which
``str.strip`` would also remove, makes a record line like any text.
"""

from __future__ import annotations

import json
import logging
import math
import os
import struct
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import islice
from numbers import Integral, Real
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .attention import TagVector
from .fileio import FormatError, Reader, write_atomic
from .model import DOMAINS

logger = logging.getLogger(__name__)

FEATURE_MAGIC = b"XFMP"
FEATURE_VERSION = 1

# Magic, version, location count, feature dim: the 16 bytes before the payload.
_HEADER = struct.Struct("<4sIII")

MANIFEST_NAME = "manifest.tsv"
TAGS_NAME = "tags.tsv"
GROUND_TRUTH_NAME = "ground_truth.tsv"
FEATURES_DIR = "features"
SUMMARY_NAME = "dataset.json"


class ManifestError(ValueError):
    """Manifest or vocabulary file failed validation."""


class FeatureMapFormatError(FormatError):
    """Feature-map file is malformed or inconsistent with expectations."""


class ManifestRecord(NamedTuple):
    item_id: int
    domain: str
    product_id: int
    path: str
    tag_ids: tuple[int, ...]


@dataclass(frozen=True)
class Manifest:
    records: tuple[ManifestRecord, ...]
    tag_names: tuple[str, ...]
    root: Path

    @property
    def tag_count(self) -> int:
        return len(self.tag_names)

    def user_records(self) -> tuple[ManifestRecord, ...]:
        return tuple(r for r in self.records if r.domain == "user")

    def shop_records(self) -> tuple[ManifestRecord, ...]:
        return tuple(r for r in self.records if r.domain == "shop")


def _rows(path: Path, what: str, fields: int, where: str) -> Iterator[tuple[int, list[str]]]:
    """The records of a UTF-8 table as (line number, fields), lazily and in
    line order: the text is split at line feeds, and each line loses its
    trailing carriage returns, is skipped when blank and is split at tabs
    into exactly ``fields`` fields.

    The file is read and decoded before this returns: a missing file is a
    ``ManifestError`` naming the file as ``what``, and a byte that is not
    UTF-8 one naming the file and its line. A line with another field count
    is one naming the line, after the prefix ``where``, when it is reached.
    """
    if not path.is_file():
        raise ManifestError(f"{what} not found or not a file: {path}")
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ManifestError(f"{path.name} line {lineno}: not valid UTF-8") from None

    def rows() -> Iterator[tuple[int, list[str]]]:
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.rstrip("\r")
            if not line.strip(" \t"):
                continue
            parts = line.split("\t")
            if len(parts) != fields:
                raise ManifestError(f"{where}line {lineno}: expected {fields} fields, got {len(parts)}")
            yield lineno, parts

    return rows()


def _ids(first: str, second: str, where: str, lineno: int) -> tuple[int, int]:
    """The two ids of a record line. An index holds ids as int64 and stores
    them as u64, so each must be an integer in [0, 2**63)."""
    try:
        ids = int(first), int(second)
    except ValueError:
        raise ManifestError(f"{where}line {lineno}: ids must be integers") from None
    for value in ids:
        if not 0 <= value < 2**63:
            raise ManifestError(f"{where}line {lineno}: id {value} outside [0, 2**63)")
    return ids


def load_tag_vocab(path: "Path | str") -> tuple[str, ...]:
    path = Path(path)
    names: dict[int, str] = {}
    for lineno, (raw_id, name) in _rows(path, "tag vocabulary", 2, f"{path.name} "):
        try:
            tag_id = int(raw_id)
        except ValueError:
            raise ManifestError(f"{path.name} line {lineno}: bad tag id {raw_id!r}") from None
        if tag_id in names:
            raise ManifestError(f"{path.name} line {lineno}: duplicate tag id {tag_id}")
        names[tag_id] = name
    if not names:
        raise ManifestError(f"{path.name}: no tags")
    if sorted(names) != list(range(len(names))):
        raise ManifestError(f"{path.name}: tag ids must be contiguous from 0")
    return tuple(names[i] for i in range(len(names)))


def load_manifest(path: "Path | str") -> Manifest:
    """Parse and validate a manifest; the vocabulary is read from the
    sibling ``tags.tsv``. Every error names the offending line.

    Feature files are not opened here, so a manifest naming a missing file
    parses; ``load_dataset`` reports the file when it fails to open it.
    """
    path = Path(path)
    rows = _rows(path, "manifest", 5, "")
    root = path.parent
    tag_names = load_tag_vocab(root / TAGS_NAME)
    tag_count = len(tag_names)

    records: list[ManifestRecord] = []
    seen_ids: set[int] = set()
    for lineno, (raw_id, domain, raw_product, rel_path, raw_tags) in rows:
        item_id, product_id = _ids(raw_id, raw_product, "", lineno)
        if item_id in seen_ids:
            raise ManifestError(f"line {lineno}: duplicate item id {item_id}")
        seen_ids.add(item_id)
        if domain not in DOMAINS:
            raise ManifestError(f"line {lineno}: unknown domain {domain!r}")
        if not rel_path:
            raise ManifestError(f"line {lineno}: empty feature path")
        # A lexical check, with no realpath or Path per record (a set-up can
        # load thousands): a feature path stays inside the dataset
        # directory unless a symlink there leads out.
        if os.path.isabs(rel_path) or ".." in rel_path.replace(os.sep, "/").split("/"):
            raise ManifestError(
                f"line {lineno}: feature path must stay inside the dataset directory: {rel_path}"
            )
        if domain == "user":
            if raw_tags:
                raise ManifestError(f"line {lineno}: user records must not carry tags")
            tag_ids: tuple[int, ...] = ()
        elif raw_tags:
            try:
                tag_ids = tuple(int(t) for t in raw_tags.split(","))
            except ValueError:
                raise ManifestError(f"line {lineno}: bad tag list {raw_tags!r}") from None
            for t in tag_ids:
                if not 0 <= t < tag_count:
                    raise ManifestError(
                        f"line {lineno}: tag id {t} outside vocabulary of {tag_count}"
                    )
        else:
            tag_ids = ()
        records.append(ManifestRecord(item_id, domain, product_id, rel_path, tag_ids))
    if not records:
        raise ManifestError("no records")
    return Manifest(records=tuple(records), tag_names=tag_names, root=root)


def write_feature_map(path: "Path | str", array: np.ndarray) -> None:
    """Write the map atomically: a temporary file, then a rename.

    The bytes are parsed as ``load_feature_map`` parses them before any is
    written, so a map it would refuse, with a zero dimension or a value
    that is not finite as float32 (a float64 beyond float32's range, say),
    raises its ``FeatureMapFormatError`` and writes nothing. A map that is
    not 2-D, which has no header, raises a ValueError.
    """
    # Values beyond float32's range become inf here; the parse refuses them.
    with np.errstate(over="ignore"):
        arr = np.ascontiguousarray(array, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError(f"feature map must be 2-D, got shape {arr.shape}")
    data = _HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, *arr.shape) + arr.tobytes()
    _parse_feature_map(data, path)
    write_atomic(path, [data])


def _parse_feature_map(data: bytes, source: object) -> np.ndarray:
    """The L x raw_dim ``<f4`` map in a feature-map file's bytes, a
    read-only view of them; ``source`` names the file in a fault."""
    reader = Reader(data, FeatureMapFormatError, source)
    magic, version, locations, dim = reader.unpack(_HEADER, "header")
    if magic != FEATURE_MAGIC:
        reader.fail(f"bad magic {magic!r}", 0)
    if version != FEATURE_VERSION:
        reader.fail(f"unsupported version {version}", 4)
    if locations < 1 or dim < 1:
        reader.fail(
            f"has {locations} locations of dim {dim}; both must be positive",
            8 if locations < 1 else 12,
        )
    values = reader.array("<f4", locations * dim, "payload", finite=True)
    reader.end()
    return values.reshape(locations, dim)


def load_feature_map(path: "Path | str") -> np.ndarray:
    """Read an XFMP file into an L x raw_dim float32 (``<f4``) matrix, the
    values as stored. ``load_dataset`` holds the same values as rows of one
    N x L x raw_dim block; it reads the first file, and any file it cannot
    read into the block, through this function.

    Both dimensions must be positive and every value finite, so data that
    passes here is what the model's layers accept.
    """
    with open(path, "rb") as fh:
        return _parse_feature_map(fh.read(), path).copy()


class Anchoring(NamedTuple):
    """What a training triple is drawn from, by manifest row."""

    shop_rows: list[int]  # manifest rows of the shop images, in order
    own_by_product: dict[int, list[int]]  # product -> ascending indices into shop_rows
    anchors: list[tuple[int, int]]  # (manifest row, product) of each user image that can anchor


@dataclass(frozen=True)
class Dataset:
    """A manifest with all feature maps loaded, plus optional ground truth.

    ``features`` maps each item id to its L x R row, a view of one
    N x L x R float32 block with the records in manifest order.
    """

    manifest: Manifest
    features: dict[int, np.ndarray]
    ground_truth: dict[int, int] | None
    root: Path

    @property
    def tag_count(self) -> int:
        return self.manifest.tag_count

    def user_records(self) -> tuple[ManifestRecord, ...]:
        return self.manifest.user_records()

    def shop_records(self) -> tuple[ManifestRecord, ...]:
        return self.manifest.shop_records()

    @cached_property
    def _tags(self) -> dict[int, TagVector]:
        """Item id -> tag vector of every record. Records with one tag set
        share one read-only vector."""
        shared = {
            ids: TagVector.from_ids(ids, self.tag_count)
            for ids in {r.tag_ids for r in self.manifest.records}
        }
        for tags in shared.values():
            tags.bits.flags.writeable = False
        return {r.item_id: shared[r.tag_ids] for r in self.manifest.records}

    def tag_vector(self, record: ManifestRecord) -> TagVector:
        """The tag vector of one of this dataset's records, built once."""
        return self._tags[record.item_id]

    @cached_property
    def anchoring(self) -> Anchoring:
        """The shop-row, per-product and anchor tables that
        ``training.sample_triples`` draws from, built once per dataset.

        A user image whose product has no shop image cannot anchor; the
        build warns of them once. A ValueError, raised again on every call,
        says when there is nothing to draw from: shop images of fewer than
        two products, or no user image that can anchor.
        """
        shop_rows: list[int] = []
        own_by_product: dict[int, list[int]] = {}
        users: list[tuple[int, int]] = []
        for row, record in enumerate(self.manifest.records):
            if record.domain == "shop":
                own_by_product.setdefault(record.product_id, []).append(len(shop_rows))
                shop_rows.append(row)
            else:
                users.append((row, record.product_id))
        if len(own_by_product) < 2:
            raise ValueError("need shop images from at least 2 distinct products")
        anchors = [user for user in users if user[1] in own_by_product]
        excluded = len(users) - len(anchors)
        if excluded:
            logger.warning(
                "%d user images excluded from anchoring (product has no shop image)",
                excluded,
            )
        if not anchors:
            raise ValueError("no user image has a product with shop images")
        return Anchoring(shop_rows, own_by_product, anchors)


def load_ground_truth(path: "Path | str") -> dict[int, int]:
    path = Path(path)
    truth: dict[int, int] = {}
    where = f"{path.name} "
    for lineno, (raw_user, raw_product) in _rows(path, "ground truth", 2, where):
        user_id, product_id = _ids(raw_user, raw_product, where, lineno)
        if user_id in truth:
            raise ManifestError(f"{where}line {lineno}: duplicate user id {user_id}")
        truth[user_id] = product_id
    return truth


def _record_map(manifest_path: str, number: int, record: ManifestRecord, path: str) -> np.ndarray:
    """``load_feature_map`` of record ``number`` at ``path``; a file that
    cannot be opened or read is a ``ManifestError`` naming its line."""
    try:
        return load_feature_map(path)
    except FeatureMapFormatError:  # a ValueError, but about the bytes
        raise
    except (OSError, ValueError):
        # open() raises OSError for a missing file, a directory or a name
        # the OS rejects, and ValueError for a NUL byte in the path.
        # Records are the manifest's lines that are not blank, in order.
        lineno, _ = next(islice(_rows(Path(manifest_path), "manifest", 5, ""), number, None))
        raise ManifestError(f"line {lineno}: feature file missing: {record.path}") from None


def load_dataset(root: "Path | str") -> Dataset:
    """Load a dataset directory eagerly; all feature maps must agree on
    their dimensions.

    The maps are read straight into one N x L x R ``<f4`` block. The first
    record, read by ``load_feature_map``, gives L and R. Every other file
    takes one ``os.readv`` into its row of an N x 16 header array, its row
    of the block and a spare byte, which must fill exactly the header and
    the row. Then all headers are compared at once, and each record is
    screened for NaN and infinity by the float64 sum of its values, which
    is finite exactly when they all are: a sum of at most 2**64 float32
    magnitudes below 2**128 stays far below the float64 maximum. A record
    that fails any step is read again by ``load_feature_map``, in manifest
    order, so a load raises the error, message and offset of the per-file
    parser, or stores the map it returns.
    """
    base = os.fspath(root)
    root = Path(base)
    manifest_path = os.path.join(base, MANIFEST_NAME)
    manifest = load_manifest(manifest_path)
    records = manifest.records
    # os.path.join(base, path) for each record, whose path is relative.
    prefix = os.path.join(base, "")
    paths = [prefix + record.path for record in records]
    first = _record_map(manifest_path, 0, records[0], paths[0])
    dims = first.shape
    block = np.empty((len(records), *dims), dtype="<f4")
    block[0] = first
    header = np.frombuffer(_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, *dims), dtype=np.uint8)
    headers = np.empty((len(records), _HEADER.size), dtype=np.uint8)
    headers[0] = header
    size = _HEADER.size + first.nbytes
    spare = bytearray(1)  # filled only when a file is longer than it should be
    unread = []
    for number in range(1, len(records)):
        try:
            fd = os.open(paths[number], os.O_RDONLY)
        except (OSError, ValueError):
            unread.append(number)
            continue
        try:
            got = os.readv(fd, [headers[number], block[number], spare])
        except OSError:  # a directory opens, but does not read
            got = -1
        finally:
            os.close(fd)
        if got != size:
            unread.append(number)
    faulty = (headers != header).any(axis=1)
    # One float64 sum per record, not an N x L x R mask; inf + -inf is NaN.
    with np.errstate(invalid="ignore"):
        sums = np.add.reduce(block.reshape(len(records), -1), axis=1, dtype=np.float64)
    faulty |= ~np.isfinite(sums)
    faulty[unread] = True
    for number in np.flatnonzero(faulty).tolist():
        fmap = _record_map(manifest_path, number, records[number], paths[number])
        if fmap.shape != dims:
            raise FeatureMapFormatError(
                f"{records[number].path}: shape {fmap.shape} differs from {dims}"
            )
        block[number] = fmap
    features = {record.item_id: row for record, row in zip(records, block)}
    truth: dict[int, int] | None = None
    truth_path = root / GROUND_TRUTH_NAME
    if truth_path.exists():
        truth = load_ground_truth(truth_path)
        products = {r.item_id: r.product_id for r in manifest.records}
        for user_id, product_id in truth.items():
            if user_id in products and products[user_id] != product_id:
                raise ManifestError(
                    f"ground truth for item {user_id} contradicts the manifest"
                )
    return Dataset(manifest=manifest, features=features, ground_truth=truth, root=root)


# ---------------------------------------------------------------------------
# synthetic benchmark
# ---------------------------------------------------------------------------

# Mixture weights of a product prototype: a cue direction shared by every
# prototype (lets saliency tell signal from background noise), a direction
# per tag group (what tag attention can key on), and the product identity.
_CUE_WEIGHT = 0.5
_GROUP_WEIGHT = 0.8
_IDENTITY_WEIGHT = 1.0

# Shop images fill every non-signal cell with another product's prototype;
# user images only fill half of the free cells, the rest stay background.
_SHOP_DISTRACTOR_SCALE = 0.9
_USER_DISTRACTOR_SCALE = 1.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs of the planted-signal benchmark generator."""

    products: int = 50
    holdout_products: int = 20
    user_per_product: int = 4
    shop_per_product: int = 2
    locations: int = 9
    channels: int = 16
    tag_count: int = 10
    raw_dim: int = 16
    signal_locations: int = 3
    noise_sigma: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        # The counts size arrays and loops, and the seed seeds numpy's
        # generator, so a float such as 2.5 fails here, at its field,
        # instead of inside generate_synthetic.
        for name, least in (
            ("products", 2),
            ("holdout_products", 0),
            ("user_per_product", 1),
            ("shop_per_product", 1),
            ("locations", 1),
            ("channels", 1),
            ("tag_count", 1),
            ("raw_dim", 1),
            ("signal_locations", 1),
            ("seed", 0),
        ):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.holdout_products == 1:
            raise ValueError(
                "holdout_products must be 0 or >= 2 (a holdout query ranks products), got 1"
            )
        if self.signal_locations > self.locations:
            raise ValueError(
                f"signal_locations must be in [1, locations], got {self.signal_locations!r}"
            )
        # NaN fails the range test (nan >= 0 is False), as it would add no noise.
        if not isinstance(self.noise_sigma, Real) or not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")


@dataclass(frozen=True)
class GenerationSummary:
    spec: SyntheticSpec
    train_users: int
    train_shops: int
    holdout_users: int
    holdout_shops: int
    oracle_accuracy_train: float
    oracle_accuracy_holdout: float | None


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    rows = rng.normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _compose_image(
    rng: np.random.Generator,
    spec: SyntheticSpec,
    prototypes: np.ndarray,
    product_index: int,
    candidate_indices: np.ndarray,
    domain: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Plant the product prototype plus distractors into an L-cell grid.

    Returns the cells and the indices carrying the signal.
    """
    cells = np.zeros((spec.locations, spec.raw_dim))
    if domain == "shop":
        signal = np.arange(spec.signal_locations)
    else:
        signal = rng.choice(spec.locations, size=spec.signal_locations, replace=False)
    cells[signal] = prototypes[product_index]

    free = np.setdiff1d(np.arange(spec.locations), signal)
    if domain == "shop":
        distractor_cells = free
        scale = _SHOP_DISTRACTOR_SCALE
    else:
        distractor_cells = free[: len(free) // 2]
        scale = _USER_DISTRACTOR_SCALE
    others = candidate_indices[candidate_indices != product_index]
    for cell in distractor_cells:
        cells[cell] = scale * prototypes[rng.choice(others)]

    if domain == "user" and spec.noise_sigma > 0:
        cells += rng.normal(0.0, spec.noise_sigma, size=cells.shape)
    return cells, signal


def _write_split(
    rng: np.random.Generator,
    spec: SyntheticSpec,
    out: Path,
    prototypes: np.ndarray,
    product_indices: np.ndarray,
    first_item_id: int,
) -> tuple[int, int, float]:
    """Write one self-contained dataset directory.

    Returns user/shop counts and the nearest-prototype oracle accuracy:
    each user image is classified by matching the mean of its (known)
    signal cells against the clean prototypes of the split.
    """
    out.mkdir(parents=True, exist_ok=True)
    (out / FEATURES_DIR).mkdir(exist_ok=True)
    manifest_lines: list[str] = []
    truth_lines: list[str] = []
    item_id = first_item_id
    users = shops = 0
    oracle_hits = 0

    split_prototypes = prototypes[product_indices]
    for product_index in product_indices:
        group = int(product_index) % spec.tag_count
        for _ in range(spec.user_per_product):
            cells, signal = _compose_image(
                rng, spec, prototypes, product_index, product_indices, "user"
            )
            rel = f"{FEATURES_DIR}/{item_id:06d}.xfmp"
            write_feature_map(out / rel, cells)
            manifest_lines.append(f"{item_id}\tuser\t{product_index}\t{rel}\t")
            truth_lines.append(f"{item_id}\t{product_index}")

            estimate = cells[signal].mean(axis=0)
            nearest = int(np.argmin(np.linalg.norm(split_prototypes - estimate, axis=1)))
            oracle_hits += int(product_indices[nearest] == product_index)
            users += 1
            item_id += 1
        for _ in range(spec.shop_per_product):
            cells, _ = _compose_image(
                rng, spec, prototypes, product_index, product_indices, "shop"
            )
            rel = f"{FEATURES_DIR}/{item_id:06d}.xfmp"
            write_feature_map(out / rel, cells)
            manifest_lines.append(f"{item_id}\tshop\t{product_index}\t{rel}\t{group}")
            shops += 1
            item_id += 1

    (out / MANIFEST_NAME).write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    (out / TAGS_NAME).write_text(
        "\n".join(f"{i}\tattr-{i}" for i in range(spec.tag_count)) + "\n",
        encoding="utf-8",
    )
    (out / GROUND_TRUTH_NAME).write_text("\n".join(truth_lines) + "\n", encoding="utf-8")
    return users, shops, oracle_hits / users if users else 0.0


def generate_synthetic(spec: SyntheticSpec, out_dir: "Path | str") -> GenerationSummary:
    """Generate train/ and holdout/ dataset directories under ``out_dir``.

    Shop images carry the product prototype at fixed cells with distractor
    prototypes elsewhere; user images carry it at random cells, half the
    free cells hold distractors, and Gaussian noise covers everything, so
    uniform pooling is polluted and attention has something to recover.
    Deterministic given the spec seed.
    """
    out_dir = Path(out_dir)
    rng = np.random.default_rng(spec.seed)

    total = spec.products + spec.holdout_products
    groups = _unit_rows(rng, spec.tag_count, spec.raw_dim)
    cue = _unit_rows(rng, 1, spec.raw_dim)[0]
    identity = _unit_rows(rng, total, spec.raw_dim)
    mix = (
        _CUE_WEIGHT * cue
        + _GROUP_WEIGHT * groups[np.arange(total) % spec.tag_count]
        + _IDENTITY_WEIGHT * identity
    )
    prototypes = mix / np.linalg.norm(mix, axis=1, keepdims=True)

    train_indices = np.arange(spec.products)
    holdout_indices = np.arange(spec.products, total)

    train_users, train_shops, acc_train = _write_split(
        rng, spec, out_dir / "train", prototypes, train_indices, first_item_id=0
    )
    holdout_users = holdout_shops = 0
    acc_holdout: float | None = None
    if spec.holdout_products:
        holdout_users, holdout_shops, acc_holdout = _write_split(
            rng,
            spec,
            out_dir / "holdout",
            prototypes,
            holdout_indices,
            first_item_id=1_000_000,
        )

    summary = GenerationSummary(
        spec=spec,
        train_users=train_users,
        train_shops=train_shops,
        holdout_users=holdout_users,
        holdout_shops=holdout_shops,
        oracle_accuracy_train=acc_train,
        oracle_accuracy_holdout=acc_holdout,
    )
    payload = asdict(summary)
    payload["spec"] = asdict(spec)
    (out_dir / SUMMARY_NAME).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary
