"""Triple sampling, SGD with momentum, and the three-stage curriculum.

Stages run in ladder order; each stage upgrades the previous stage's
checkpoint (shared tensors copied, new heads freshly initialized) and the
trunk is frozen for every stage after the first. One epoch samples as
many triples as there are user images.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import IO, NamedTuple, Sequence

import numpy as np

from .dataio import Dataset, ManifestRecord
from .model import (
    Checkpoint,
    ModelConfig,
    ModelParams,
    Variant,
    backward_triple,
    init_params,
)

logger = logging.getLogger(__name__)

# One stage per variant, in ladder order, named after it.
STAGES = tuple(variant.name.lower() for variant in Variant)

FROZEN_TRUNK = ("trunk.weight", "trunk.bias")


class TrainingDivergedError(RuntimeError):
    """The loss stopped being finite."""


def stage_variant(stage: str) -> Variant:
    key = stage.strip().lower()
    if key not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
    return Variant[key.upper()]


def _default_margins() -> dict[str, float]:
    return {"ynet": 0.3, "tagynet": 0.3, "ctxynet": 0.5}


def _default_epochs() -> dict[str, int]:
    return {"ynet": 30, "tagynet": 30, "ctxynet": 30}


@dataclass
class TrainConfig:
    batch_size: int = 32
    momentum: float = 0.9
    base_lr: float = 0.01
    lr_decay: float = 0.1
    decay_every: int = 30
    margins: dict[str, float] = field(default_factory=_default_margins)
    epochs: dict[str, int] = field(default_factory=_default_epochs)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.base_lr <= 0 or self.lr_decay <= 0 or self.decay_every < 1:
            raise ValueError("learning-rate schedule parameters must be positive")
        for stage in STAGES:
            if self.margins.get(stage, 0.0) < 0:
                raise ValueError(f"margin for {stage} must be >= 0")


class Triple(NamedTuple):
    anchor: int
    positive: int
    negative: int


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step schedule: base_lr * lr_decay ** floor(epoch / decay_every)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return cfg.base_lr * cfg.lr_decay ** (epoch // cfg.decay_every)


def sample_triples(
    dataset: Dataset, count: int, rng: np.random.Generator
) -> list[Triple]:
    """Uniform anchor over eligible user images, uniform positive among the
    anchor's product's shop images, uniform negative among all other shop
    images. User images whose product has no shop image cannot anchor and
    are skipped with a warning.
    """
    shop_by_product: dict[int, list[int]] = {}
    all_shops: list[tuple[int, int]] = []  # (item id, product id), manifest order
    for record in dataset.shop_records():
        shop_by_product.setdefault(record.product_id, []).append(record.item_id)
        all_shops.append((record.item_id, record.product_id))
    if len(shop_by_product) < 2:
        raise ValueError("need shop images from at least 2 distinct products")

    anchors = [r for r in dataset.user_records() if r.product_id in shop_by_product]
    excluded = len(dataset.user_records()) - len(anchors)
    if excluded:
        logger.warning(
            "%d user images excluded from anchoring (product has no shop image)",
            excluded,
        )
    if not anchors:
        raise ValueError("no user image has a product with shop images")

    negatives_by_product = {
        product: [item for item, p in all_shops if p != product]
        for product in shop_by_product
    }
    triples: list[Triple] = []
    for _ in range(count):
        anchor = anchors[int(rng.integers(len(anchors)))]
        positives = shop_by_product[anchor.product_id]
        negatives = negatives_by_product[anchor.product_id]
        triples.append(
            Triple(
                anchor=anchor.item_id,
                positive=positives[int(rng.integers(len(positives)))],
                negative=negatives[int(rng.integers(len(negatives)))],
            )
        )
    return triples


def sgd_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    lr: float,
    momentum: float,
    frozen: Sequence[str] = (),
) -> tuple[ModelParams, dict[str, np.ndarray]]:
    """In-place momentum update: v <- momentum*v - lr*g; p <- p + v.

    Frozen tensors are untouched, velocity included.
    """
    frozen_set = set(frozen)
    for name, tensor in params.named_tensors():
        if name in frozen_set:
            continue
        vel = velocity.get(name)
        if vel is None:
            vel = velocity[name] = np.zeros_like(tensor)
        vel *= momentum
        vel -= lr * grads[name]
        tensor += vel
    return params, velocity


def _record_by_id(dataset: Dataset) -> dict[int, ManifestRecord]:
    return {r.item_id: r for r in dataset.manifest.records}


def train_stage(
    stage: str,
    dataset: Dataset,
    cfg: TrainConfig,
    model_cfg: ModelConfig | None = None,
    init: Checkpoint | None = None,
    metrics_out: IO[str] | None = None,
) -> tuple[Checkpoint, list[float]]:
    """Run one curriculum stage; deterministic given (seed, config, data).

    ``stage`` is matched ignoring case and surrounding blanks, and the
    checkpoint and metrics carry its lower-case name. Either ``init`` (the
    previous stage's checkpoint) or ``model_cfg`` must be given. Returns
    the final checkpoint and the per-epoch mean loss curve; each epoch also
    writes one ``epoch<TAB>stage<TAB>lr<TAB>mean_loss`` line to
    ``metrics_out``.
    """
    stage = stage.strip().lower()
    variant = stage_variant(stage)
    stage_index = int(variant)
    if init is not None:
        base_cfg = init.config
    elif model_cfg is not None:
        base_cfg = model_cfg
    else:
        raise ValueError("either an init checkpoint or a model config is required")
    config = ModelConfig(
        locations=base_cfg.locations,
        channels=base_cfg.channels,
        tag_count=base_cfg.tag_count,
        raw_dim=base_cfg.raw_dim,
        variant=variant,
    )
    dims = dataset.feature_dims()
    if dims != (config.locations, config.raw_dim):
        raise ValueError(
            f"dataset features are {dims}, model expects "
            f"({config.locations}, {config.raw_dim})"
        )
    if dataset.tag_count != config.tag_count:
        raise ValueError(
            f"dataset has {dataset.tag_count} tags, model expects {config.tag_count}"
        )

    params = init_params(
        config,
        np.random.default_rng([cfg.seed, stage_index, 0]),
        base=init.params if init is not None else None,
    )
    sample_rng = np.random.default_rng([cfg.seed, stage_index, 1])
    frozen = FROZEN_TRUNK if stage_index > 0 else ()
    alpha = cfg.margins[stage]
    records = _record_by_id(dataset)
    epoch_count = cfg.epochs[stage]
    triples_per_epoch = len(dataset.user_records())
    velocity: dict[str, np.ndarray] = {}
    curve: list[float] = []

    for epoch in range(epoch_count):
        lr = lr_at(epoch, cfg)
        triples = sample_triples(dataset, triples_per_epoch, sample_rng)
        epoch_loss = 0.0
        for start in range(0, len(triples), cfg.batch_size):
            batch = triples[start : start + cfg.batch_size]
            grads_sum: dict[str, np.ndarray] | None = None
            batch_loss = 0.0
            for triple in batch:
                positive = records[triple.positive]
                negative = records[triple.negative]
                loss, grads = backward_triple(
                    dataset.features[triple.anchor],
                    dataset.features[triple.positive],
                    dataset.features[triple.negative],
                    dataset.tag_vector(positive),
                    dataset.tag_vector(negative),
                    params,
                    alpha,
                )
                if not math.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss at stage {stage} epoch {epoch}"
                    )
                batch_loss += loss
                if grads_sum is None:
                    grads_sum = grads
                else:
                    for name in grads_sum:
                        grads_sum[name] += grads[name]
            assert grads_sum is not None
            scale = 1.0 / len(batch)
            for name in grads_sum:
                grads_sum[name] *= scale
            sgd_step(params, grads_sum, velocity, lr, cfg.momentum, frozen=frozen)
            epoch_loss += batch_loss
        mean_loss = epoch_loss / len(triples)
        curve.append(mean_loss)
        if metrics_out is not None:
            metrics_out.write(f"{epoch}\t{stage}\t{lr:.6g}\t{mean_loss:.6g}\n")

    checkpoint = Checkpoint(
        config=config, params=params, epoch=epoch_count, seed=cfg.seed, stage=stage
    )
    return checkpoint, curve


def run_curriculum(
    dataset: Dataset,
    stages: Sequence[str],
    cfg: TrainConfig,
    model_cfg: ModelConfig,
    init: Checkpoint | None = None,
    metrics_out: IO[str] | None = None,
) -> list[tuple[Checkpoint, list[float]]]:
    """Run stages in order, threading each checkpoint into the next."""
    ordered = [s.strip().lower() for s in stages]
    for a, b in zip(ordered, ordered[1:]):
        if stage_variant(a) >= stage_variant(b):
            raise ValueError(f"stages must be in ladder order, got {ordered}")
    results = []
    current = init
    for stage in ordered:
        checkpoint, curve = train_stage(
            stage, dataset, cfg, model_cfg=model_cfg, init=current, metrics_out=metrics_out
        )
        results.append((checkpoint, curve))
        current = checkpoint
    return results
