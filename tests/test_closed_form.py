"""The first rung of the ladder, from hand-set params that need no training:
``oracles.closed_form_params`` scored by the package's own ``build_index``,
``search`` and ``precision_at_k`` on the desk spec's holdout split."""

import numpy as np
import pytest

from xattn.dataio import SyntheticSpec, generate_synthetic, load_dataset
from xattn.model import ModelConfig, Variant
from xattn.retrieval import ShopItem, build_index, precision_at_k, search

from oracles import closed_form_params

SEEDS = (0, 1, 2)

# Holdout (P@1, P@5) of the scan alone, k=20, per spec seed.
PINNED = {
    (0, Variant.YNET): (0.4625, 0.875),
    (0, Variant.TAGYNET): (0.6, 0.9375),
    (1, Variant.YNET): (0.4375, 0.8375),
    (1, Variant.TAGYNET): (0.5625, 0.85),
    (2, Variant.YNET): (0.5, 0.8375),
    (2, Variant.TAGYNET): (0.5375, 0.875),
}


def closed_form_config(spec, variant):
    return ModelConfig(spec.locations, 2 * spec.raw_dim, spec.tag_count, spec.raw_dim, variant)


@pytest.fixture(scope="module")
def splits(tmp_path_factory):
    """(spec, train, holdout) of the desk spec at each seed, generated once."""
    out = {}
    for seed in SEEDS:
        spec = SyntheticSpec(seed=seed)
        root = tmp_path_factory.mktemp(f"spec{seed}")
        generate_synthetic(spec, root)
        out[seed] = spec, load_dataset(root / "train"), load_dataset(root / "holdout")
    return out


def holdout_index(train, holdout, config):
    params = closed_form_params(train, config)
    items = [
        ShopItem(r.item_id, r.product_id, holdout.features[r.item_id], holdout.tag_vector(r))
        for r in holdout.shop_records()
    ]
    return params, build_index(items, params)


@pytest.fixture(scope="module")
def scores(splits):
    """Holdout (P@1, P@5) of each (seed, variant), scanning k=20 per user."""
    out = {}
    for seed, (spec, train, holdout) in splits.items():
        for variant in (Variant.YNET, Variant.TAGYNET):
            params, index = holdout_index(train, holdout, closed_form_config(spec, variant))
            results = {
                u.item_id: search(index, holdout.features[u.item_id], params, k=20, use_rerank=False)
                for u in holdout.user_records()
            }
            out[seed, variant] = tuple(precision_at_k(results, holdout.ground_truth, index, k) for k in (1, 5))
    return out


@pytest.mark.parametrize("seed, variant", sorted(PINNED))
def test_holdout_precision_is_pinned(scores, seed, variant):
    assert scores[seed, variant] == PINNED[seed, variant]


def test_the_tag_head_beats_identity_on_mean_p_at_1(scores):
    def mean_p_at_1(variant):
        return np.mean([scores[seed, variant][0] for seed in SEEDS])

    assert mean_p_at_1(Variant.TAGYNET) > mean_p_at_1(Variant.YNET)


@pytest.mark.parametrize("seed", SEEDS)
def test_closed_form_ynet_ranks_like_the_raw_cell_reference(splits, seed):
    # Identity: the L2-normalised mean raw cell, squared distance, ties by
    # item id. The closed form computes the same embeddings in another
    # order of sums, so its distances agree to rounding.
    spec, train, holdout = splits[seed]
    params, index = holdout_index(train, holdout, closed_form_config(spec, Variant.YNET))
    shops, users = holdout.shop_records(), holdout.user_records()

    def pooled(records):
        rows = np.array([holdout.features[r.item_id].mean(axis=0, dtype=np.float64) for r in records])
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    dists = np.sum((pooled(users)[:, None] - pooled(shops)[None]) ** 2, axis=-1)
    shop_ids = np.array([r.item_id for r in shops])
    for user, row in zip(users, dists):
        got = search(index, holdout.features[user.item_id], params, k=len(shops), use_rerank=False)
        order = np.lexsort((shop_ids, row))
        np.testing.assert_array_equal(got.item_ids, shop_ids[order])
        np.testing.assert_allclose(got.distances, row[order], rtol=0, atol=1e-12)


def test_needs_channels_twice_raw_dim_and_no_context_head(splits):
    spec, train, _ = splits[0]
    for channels in (spec.raw_dim, 2 * spec.raw_dim + 1):
        config = ModelConfig(spec.locations, channels, spec.tag_count, spec.raw_dim, Variant.YNET)
        with pytest.raises(ValueError, match="channels == 2 \\* raw_dim"):
            closed_form_params(train, config)
    with pytest.raises(ValueError, match="no closed form"):
        closed_form_params(train, closed_form_config(spec, Variant.CTXYNET))
