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

Feature-map file format (little endian): magic ``XFMP``, version u32,
location count u32, feature dim u32, then float32 payload row-major.
Values are widened to float64 in memory. ``fileio`` says how faults are
reported.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .attention import TagVector
from .fileio import FormatError, Reader, write_atomic
from .model import DOMAINS

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


@dataclass(frozen=True)
class ManifestRecord:
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


def _read_lines(path: Path, what: str) -> list[str]:
    """The lines of a UTF-8 text file; a missing file or a byte that is not
    UTF-8 is a ``ManifestError`` naming the file (and the line)."""
    if not path.is_file():
        raise ManifestError(f"{what} not found or not a file: {path}")
    data = path.read_bytes()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # The bytes before the fault decode; the "x" stands in for the bad
        # byte so a fault right after a line break counts the next line.
        lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ManifestError(f"{path.name} line {lineno}: not valid UTF-8") from None


def load_tag_vocab(path: Path) -> tuple[str, ...]:
    names: dict[int, str] = {}
    lines = _read_lines(path, "tag vocabulary")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ManifestError(f"{path.name} line {lineno}: expected 2 fields, got {len(parts)}")
        try:
            tag_id = int(parts[0])
        except ValueError:
            raise ManifestError(f"{path.name} line {lineno}: bad tag id {parts[0]!r}") from None
        if tag_id in names:
            raise ManifestError(f"{path.name} line {lineno}: duplicate tag id {tag_id}")
        names[tag_id] = parts[1]
    if not names:
        raise ManifestError(f"{path.name}: no tags")
    if sorted(names) != list(range(len(names))):
        raise ManifestError(f"{path.name}: tag ids must be contiguous from 0")
    return tuple(names[i] for i in range(len(names)))


def load_manifest(path: "Path | str") -> Manifest:
    """Parse and validate a manifest; the vocabulary is read from the
    sibling ``tags.tsv``. Every error names the offending line."""
    path = Path(path)
    lines = _read_lines(path, "manifest")
    root = path.parent
    tag_names = load_tag_vocab(root / TAGS_NAME)
    # Records join onto a plain string: a set-up checks thousands, and
    # building a Path per record took longer than the stat itself.
    base = os.fspath(root)
    tag_count = len(tag_names)

    records: list[ManifestRecord] = []
    seen_ids: set[int] = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ManifestError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        raw_id, domain, raw_product, rel_path, raw_tags = parts
        try:
            item_id = int(raw_id)
            product_id = int(raw_product)
        except ValueError:
            raise ManifestError(f"line {lineno}: ids must be integers") from None
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
        # os.path.isfile is False, not an error, for a directory or a path
        # the OS rejects (a component that is too long, a NUL byte).
        if not os.path.isfile(os.path.join(base, rel_path)):
            raise ManifestError(f"line {lineno}: feature file missing: {rel_path}")
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
        records.append(
            ManifestRecord(
                item_id=item_id,
                domain=domain,
                product_id=product_id,
                path=rel_path,
                tag_ids=tag_ids,
            )
        )
    if not records:
        raise ManifestError("no records")
    return Manifest(records=tuple(records), tag_names=tag_names, root=root)


def write_feature_map(path: "Path | str", array: np.ndarray) -> None:
    """Write the map atomically: a temporary file, then a rename."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError("feature map must be 2-D")
    write_atomic(path, [_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, *arr.shape), arr])


def load_feature_map(path: "Path | str") -> np.ndarray:
    """Read an XFMP file into a float64 L x raw_dim matrix.

    Both dimensions must be positive and every value finite, so data that
    passes here is what the model's layers accept.
    """
    with open(path, "rb") as fh:
        reader = Reader(fh.read(), FeatureMapFormatError, path)
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
    return values.reshape(locations, dim).astype(np.float64)


@dataclass(frozen=True)
class Dataset:
    """A manifest with all feature maps loaded, plus optional ground truth."""

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

    def feature_dims(self) -> tuple[int, int]:
        first = next(iter(self.features.values()))
        return first.shape[0], first.shape[1]


def load_ground_truth(path: Path) -> dict[int, int]:
    truth: dict[int, int] = {}
    lines = _read_lines(path, "ground truth")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ManifestError(
                f"{path.name} line {lineno}: expected 2 fields, got {len(parts)}"
            )
        try:
            user_id, product_id = int(parts[0]), int(parts[1])
        except ValueError:
            raise ManifestError(f"{path.name} line {lineno}: ids must be integers") from None
        if user_id in truth:
            raise ManifestError(f"{path.name} line {lineno}: duplicate user id {user_id}")
        truth[user_id] = product_id
    return truth


def load_dataset(root: "Path | str") -> Dataset:
    """Load a dataset directory eagerly; all feature maps must agree on
    their dimensions."""
    base = os.fspath(root)
    root = Path(base)
    manifest = load_manifest(os.path.join(base, MANIFEST_NAME))
    features: dict[int, np.ndarray] = {}
    dims: tuple[int, int] | None = None
    for record in manifest.records:
        fmap = load_feature_map(os.path.join(base, record.path))
        if dims is None:
            dims = fmap.shape
        elif fmap.shape != dims:
            raise FeatureMapFormatError(
                f"{record.path}: shape {fmap.shape} differs from {dims}"
            )
        features[record.item_id] = fmap
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
        if self.products < 2:
            raise ValueError("need at least 2 products")
        if self.holdout_products < 0:
            raise ValueError("holdout_products must be >= 0")
        if self.holdout_products in (1,):
            raise ValueError("holdout needs 0 or >= 2 products to rank against")
        if self.signal_locations < 1 or self.signal_locations > self.locations:
            raise ValueError("signal_locations must be in [1, locations]")
        if self.user_per_product < 1 or self.shop_per_product < 1:
            raise ValueError("need at least one user and one shop image per product")
        for name in ("locations", "channels", "tag_count", "raw_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


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
