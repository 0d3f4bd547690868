"""Finite-difference verification of the analytic triple backward pass.

``finite_diff_grad`` takes central differences of a scalar function.
Random small instances are drawn so the objective is smooth around the
evaluation point: the hinge is strictly active with margin to spare, and
no trunk pre-activation sits near the ReLU kink, so central differences
with h=1e-5 are trustworthy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from xattn.attention import TagVector
from xattn.model import (
    ModelConfig,
    ModelParams,
    Variant,
    backward_triple,
    extract_features,
    forward_triple,
    init_params,
)

REL_TOL = 1e-4
ABS_TOL = 1e-7
SMALL_GRAD = 1e-6
FD_STEP = 1e-5

# Pre-activations this close to zero could cross the ReLU kink while
# perturbing parameters by h; such draws are rejected.
_KINK_GUARD = 1e-3


class NonFiniteValueError(ValueError):
    """Raised when an objective produced NaN/Inf during finite differencing.

    ``coordinate`` is the flat index of the perturbed entry.
    """

    def __init__(self, message: str, coordinate: int | None = None) -> None:
        super().__init__(message)
        self.coordinate = coordinate


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = FD_STEP
) -> np.ndarray:
    """Central-difference gradient of a scalar function, one entry at a time.

    Accepts arrays of any shape; the result has the same shape. ``f`` is
    evaluated at x +/- h*e_i, so it must be finite in that neighbourhood.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    work = np.array(x, dtype=np.float64, copy=True)
    grad = np.empty_like(work)
    for i in range(work.size):
        orig = work.flat[i]
        work.flat[i] = orig + h
        up = float(f(work))
        work.flat[i] = orig - h
        down = float(f(work))
        work.flat[i] = orig
        if not (math.isfinite(up) and math.isfinite(down)):
            raise NonFiniteValueError(
                f"objective is non-finite when perturbing coordinate {i}",
                coordinate=i,
            )
        grad.flat[i] = (up - down) / (2.0 * h)
    return grad


@dataclass(frozen=True)
class CheckInstance:
    params: ModelParams
    anchor_raw: np.ndarray
    positive_raw: np.ndarray
    negative_raw: np.ndarray
    positive_tags: TagVector
    negative_tags: TagVector
    alpha: float


@dataclass(frozen=True)
class TensorReport:
    name: str
    max_abs_err: float
    max_rel_err: float
    passed: bool


@dataclass(frozen=True)
class TrialReport:
    trial: int
    variant: Variant
    tensors: tuple[TensorReport, ...]

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.tensors)


def with_tensors(params: ModelParams, values: dict[str, object]) -> ModelParams:
    """New params: ``params`` with each tensor named in ``values`` set to
    its value, broadcast to the tensor's shape."""
    tensors = dict(params.tensors)
    for name, value in values.items():
        tensors[name] = np.broadcast_to(value, tensors[name].shape)
    return ModelParams(params.config, tensors)


def _draw_raw(rng: np.random.Generator, params: ModelParams, domain: str) -> np.ndarray:
    cfg = params.config
    for _ in range(200):
        raw = rng.normal(0.0, 1.0, size=(cfg.locations, cfg.raw_dim))
        pre_act = raw @ params.tensors["trunk.weight"].T + params.tensors["trunk.bias"]
        if np.min(np.abs(pre_act)) > _KINK_GUARD:
            # also keep the branch output comfortably away from a zero pool
            fmap = extract_features(raw, domain, params)
            if float(np.linalg.norm(fmap.mean(axis=0))) > 1e-3:
                return raw
    raise RuntimeError("could not draw a kink-safe raw feature map")


def hinge_gap(fwd) -> float:
    """d(anchor_pos, positive) - d(anchor_neg, negative): the hinge
    argument without its margin, from the rows of a ``TripleForward``."""
    pos, neg = fwd.anchor_rows - fwd.shop_norms.unit
    return float(pos @ pos) - float(neg @ neg)


def random_check_instance(
    seed: "int | list[int]", variant: Variant = Variant.CTXYNET
) -> CheckInstance:
    """Seeded random model + triple with a strictly active hinge."""
    rng = np.random.default_rng(seed)
    config = ModelConfig(
        locations=int(rng.integers(2, 7)),
        channels=int(rng.integers(2, 6)),
        tag_count=int(rng.integers(1, 5)),
        raw_dim=int(rng.integers(2, 6)),
        variant=variant,
    )
    params = init_params(config, rng)
    anchor_raw = _draw_raw(rng, params, "user")
    positive_raw = _draw_raw(rng, params, "shop")
    negative_raw = _draw_raw(rng, params, "shop")
    positive_tags = TagVector(bits=rng.integers(0, 2, size=config.tag_count).astype(np.float64))
    negative_tags = TagVector(bits=rng.integers(0, 2, size=config.tag_count).astype(np.float64))

    # Pick alpha so the hinge argument lands at >= 0.25, far from the kink.
    probe = forward_triple(
        anchor_raw, positive_raw, negative_raw, positive_tags, negative_tags, params, 0.0
    )
    gap = -hinge_gap(probe)
    alpha = max(0.05, gap + 0.25)
    return CheckInstance(
        params=params,
        anchor_raw=anchor_raw,
        positive_raw=positive_raw,
        negative_raw=negative_raw,
        positive_tags=positive_tags,
        negative_tags=negative_tags,
        alpha=alpha,
    )


def check_triple_gradients(
    inst: CheckInstance,
    h: float = FD_STEP,
    rel_tol: float = REL_TOL,
    abs_tol: float = ABS_TOL,
    small_grad: float = SMALL_GRAD,
) -> list[TensorReport]:
    """Compare every parameter gradient against central differences.

    Entries with analytic magnitude below ``small_grad`` are held to the
    absolute tolerance instead of the relative one.
    """
    _, analytic = backward_triple(
        inst.anchor_raw,
        inst.positive_raw,
        inst.negative_raw,
        inst.positive_tags,
        inst.negative_tags,
        inst.params,
        inst.alpha,
    )
    reports: list[TensorReport] = []
    for name, tensor in inst.params.named_tensors():

        def objective(candidate: np.ndarray) -> float:
            # Params cannot be written, so each probe builds its own.
            return forward_triple(
                inst.anchor_raw,
                inst.positive_raw,
                inst.negative_raw,
                inst.positive_tags,
                inst.negative_tags,
                with_tensors(inst.params, {name: candidate}),
                inst.alpha,
            ).loss

        numeric = finite_diff_grad(objective, tensor, h)

        diff = np.abs(analytic[name] - numeric)
        small = np.abs(analytic[name]) < small_grad
        denom = np.maximum(np.abs(analytic[name]), np.abs(numeric))
        rel = np.where(small, 0.0, diff / np.where(denom == 0.0, 1.0, denom))
        ok = np.where(small, diff < abs_tol, diff <= rel_tol * denom)
        reports.append(
            TensorReport(
                name=name,
                max_abs_err=float(diff.max()) if diff.size else 0.0,
                max_rel_err=float(rel.max()) if rel.size else 0.0,
                passed=bool(np.all(ok)),
            )
        )
    return reports


def run_gradient_checks(
    trials: int = 20,
    seed: int = 1,
    h: float = FD_STEP,
    rel_tol: float = REL_TOL,
    abs_tol: float = ABS_TOL,
) -> list[TrialReport]:
    """Run seeded trials cycling through all three variants."""
    cycle = (Variant.CTXYNET, Variant.TAGYNET, Variant.YNET)
    reports = []
    for trial in range(trials):
        variant = cycle[trial % len(cycle)]
        inst = random_check_instance([seed, trial], variant=variant)
        tensors = check_triple_gradients(inst, h=h, rel_tol=rel_tol, abs_tol=abs_tol)
        reports.append(TrialReport(trial=trial, variant=variant, tensors=tuple(tensors)))
    return reports
