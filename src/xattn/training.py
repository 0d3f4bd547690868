"""Triple sampling, SGD with momentum, and the three-stage curriculum.

Stages run in ladder order; the first starts from a model config, and
each later one upgrades the previous stage's checkpoint (shared tensors
copied, new heads freshly initialized) and freezes the trunk. One epoch
samples as many triples as there are user images, and every step takes
the one step size ``base_lr``.

A split is addressed by manifest row: ``sample_triples`` draws rows, and
a stage gathers each triple's maps and tag vectors from two lists whose
item i is record i's. The maps are the split's float32 rows as loaded;
``forward_triple`` widens a triple's three maps when it stacks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import IO, Mapping, Sequence

import numpy as np

from .dataio import Dataset
from .fileio import _check_range
from .model import (
    Checkpoint,
    ModelConfig,
    ModelParams,
    Variant,
    backward_triple,
    init_params,
)

# One stage per variant, in ladder order, named after it.
STAGES = tuple(variant.name.lower() for variant in Variant)


def _default_margins() -> dict[str, float]:
    return {"ynet": 0.3, "tagynet": 0.3, "ctxynet": 0.5}


def _default_epochs() -> dict[str, int]:
    return {"ynet": 30, "tagynet": 30, "ctxynet": 30}


@dataclass(frozen=True)
class TrainConfig:
    """Minibatch size, momentum and step size of the SGD, the triplet
    margin and epoch count of each stage, and the seed of every draw."""

    batch_size: int = 32
    momentum: float = 0.9
    base_lr: float = 0.01
    margins: Mapping[str, float] = field(default_factory=_default_margins)
    epochs: Mapping[str, int] = field(default_factory=_default_epochs)
    seed: int = 0

    def __post_init__(self) -> None:
        # The counts index and bound loops, so a float such as 1.5 fails
        # here, at its field, instead of inside train_stage.
        _check_range(self.batch_size, "batch_size", 1)
        _check_range(self.momentum, "momentum", 0, 1, integer=False)
        # The least positive float: for a float, [ulp(0), inf) is (0, inf).
        _check_range(self.base_lr, "base_lr", math.ulp(0.0), integer=False)
        # A checkpoint stores the epoch count as a u32 and the seed as a u64.
        _check_range(self.seed, "seed", 0, 2**64)
        for name in ("margins", "epochs"):
            # A read-only copy: a later write to the table would skip these checks.
            table = MappingProxyType(dict(getattr(self, name)))
            object.__setattr__(self, name, table)
            # A misspelt stage would otherwise be ignored.
            for key in table:
                if key not in STAGES:
                    raise ValueError(f"{name} has an entry for {key!r}, which is not a stage")
            for stage in STAGES:
                if stage not in table:
                    raise ValueError(f"{name} has no entry for stage {stage!r}")
        for stage in STAGES:
            _check_range(self.epochs[stage], f"epochs[{stage!r}]", 0, 2**32)
            _check_range(self.margins[stage], f"margins[{stage!r}]", 0, integer=False)


def sample_triples(
    dataset: Dataset, count: int, rng: np.random.Generator
) -> np.ndarray:
    """A ``count`` x 3 array of manifest rows, one (anchor, positive,
    negative) triple per row: a uniform anchor over eligible user images, a
    uniform positive among the anchor's product's shop images, a uniform
    negative among all other shop images. User images whose product has no
    shop image cannot anchor and are skipped; the tables come from
    ``Dataset.anchoring``, built on the first call for a dataset, which
    warns of them once.
    """
    shop_rows, own_by_product, anchors = dataset.anchoring
    triples: list[tuple[int, int, int]] = []
    for _ in range(count):
        anchor, product = anchors[int(rng.integers(len(anchors)))]
        own = own_by_product[product]
        positive = own[int(rng.integers(len(own)))]
        # The i-th shop image of another product: step i past each of the
        # anchor product's own images at or before it.
        at = int(rng.integers(len(shop_rows) - len(own)))
        for index in own:
            if index > at:
                break
            at += 1
        triples.append((anchor, shop_rows[positive], shop_rows[at]))
    return np.array(triples, dtype=np.intp).reshape(count, 3)


def sgd_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    lr: float,
    momentum: float,
) -> ModelParams:
    """Momentum update of exactly the tensors named in ``grads``:
    v <- momentum*v - lr*g; p <- p + v. Returns new params; ``params``
    cannot change. ``velocity`` is updated in place.

    Every other tensor keeps its values, and its velocity is untouched. A
    name that is not a tensor of ``params`` raises ``KeyError`` before
    anything changes.
    """
    tensors = dict(params.tensors)
    unknown = grads.keys() - tensors.keys()
    if unknown:
        raise KeyError(f"no tensor named {sorted(unknown)} in the params")
    for name, grad in grads.items():
        vel = velocity.get(name)
        if vel is None:
            vel = velocity[name] = np.zeros_like(tensors[name])
        vel *= momentum
        vel -= lr * grad
        tensors[name] = tensors[name] + vel
    return ModelParams(params.config, tensors)


def train_stage(
    stage: str,
    dataset: Dataset,
    cfg: TrainConfig,
    start: ModelConfig | Checkpoint,
    metrics_out: IO[str] | None = None,
) -> tuple[Checkpoint, list[float]]:
    """Run one curriculum stage; deterministic given (seed, config, data).

    ``stage`` is matched ignoring case and surrounding blanks, and the
    checkpoint and metrics carry its lower-case name. ``start`` is the
    model config of a first stage, whose tensors are all drawn fresh, or
    the previous stage's checkpoint, whose tensors the stage takes over;
    the stage sets the variant. Returns the final checkpoint and the
    per-epoch mean loss curve; each epoch also writes one
    ``epoch<TAB>stage<TAB>lr<TAB>mean_loss`` line to ``metrics_out``, where
    ``lr`` is ``cfg.base_lr``.

    Each triple is one ``backward_triple`` call, which returns the
    gradients of the tensors the stage trains, or none at zero loss. The
    minibatch gradient starts as zeros of each tensor that already has a
    velocity, adds in every triple's gradients and is divided by the batch
    size. So a batch in which every triple has zero loss steps on zero
    gradients, which momentum carries on, and leaves a tensor without a
    velocity alone: it has not been stepped yet, and a zero step would
    leave it as it is.
    """
    variant = Variant.parse(stage)
    stage = STAGES[variant]
    stage_index = int(variant)
    base = start.params if isinstance(start, Checkpoint) else None
    config = replace(start.config if base is not None else start, variant=variant)
    records = dataset.manifest.records
    maps = [dataset.features[r.item_id] for r in records]
    expected = (config.locations, config.raw_dim)
    for fmap in maps:
        if fmap.shape != expected:
            raise ValueError(f"dataset features are {fmap.shape}, model expects {expected}")
    if dataset.tag_count != config.tag_count:
        raise ValueError(
            f"dataset has {dataset.tag_count} tags, model expects {config.tag_count}"
        )
    tags = [dataset.tag_vector(r) for r in records]

    params = init_params(config, np.random.default_rng([cfg.seed, stage_index, 0]), base=base)
    sample_rng = np.random.default_rng([cfg.seed, stage_index, 1])
    frozen_trunk = stage_index > 0
    alpha = cfg.margins[stage]
    epoch_count = cfg.epochs[stage]
    triples_per_epoch = len(dataset.user_records())
    velocity: dict[str, np.ndarray] = {}
    curve: list[float] = []

    for epoch in range(epoch_count):
        triples = sample_triples(dataset, triples_per_epoch, sample_rng).tolist()
        epoch_loss = 0.0
        for first in range(0, len(triples), cfg.batch_size):
            batch = triples[first : first + cfg.batch_size]
            grads_sum = {name: np.zeros_like(vel) for name, vel in velocity.items()}
            batch_loss = 0.0
            for anchor, positive, negative in batch:
                loss, grads = backward_triple(
                    maps[anchor],
                    maps[positive],
                    maps[negative],
                    tags[positive],
                    tags[negative],
                    params,
                    alpha,
                    frozen_trunk=frozen_trunk,
                )
                batch_loss += loss
                for name, grad in grads.items():
                    if name in grads_sum:
                        grads_sum[name] += grad
                    else:
                        grads_sum[name] = grad
            scale = 1.0 / len(batch)
            for grad in grads_sum.values():
                grad *= scale
            params = sgd_step(params, grads_sum, velocity, cfg.base_lr, cfg.momentum)
            epoch_loss += batch_loss
        mean_loss = epoch_loss / len(triples)
        curve.append(mean_loss)
        if metrics_out is not None:
            metrics_out.write(f"{epoch}\t{stage}\t{cfg.base_lr:.6g}\t{mean_loss:.6g}\n")

    checkpoint = Checkpoint(
        config=config, params=params, epoch=epoch_count, seed=cfg.seed, stage=stage
    )
    return checkpoint, curve


def run_curriculum(
    dataset: Dataset,
    stages: Sequence[str],
    cfg: TrainConfig,
    model_cfg: ModelConfig,
    metrics_out: IO[str] | None = None,
) -> list[tuple[Checkpoint, list[float]]]:
    """Run stages in order: the first from ``model_cfg``, each later one
    from the checkpoint of the one before."""
    variants = [Variant.parse(s) for s in stages]
    if any(a >= b for a, b in zip(variants, variants[1:])):
        names = [STAGES[v] for v in variants]
        raise ValueError(f"stages must be in ladder order, got {names}")
    results: list[tuple[Checkpoint, list[float]]] = []
    start: ModelConfig | Checkpoint = model_cfg
    for variant in variants:
        results.append(train_stage(STAGES[variant], dataset, cfg, start, metrics_out))
        start = results[-1][0]
    return results
