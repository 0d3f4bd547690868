import io
import logging
from pathlib import Path

import numpy as np
import pytest

from xattn.dataio import Dataset, Manifest, ManifestRecord, SyntheticSpec, generate_synthetic, load_dataset
from xattn.model import ModelConfig, Variant, init_params
from xattn.training import (
    FROZEN_TRUNK,
    STAGES,
    TrainConfig,
    run_curriculum,
    sample_triples,
    sgd_step,
    stage_variant,
    train_stage,
)


def records_dataset(shop_products, user_products):
    """A dataset of bare records: ``sample_triples`` reads nothing else."""
    shops = [ManifestRecord(100 + i, "shop", p, "", ()) for i, p in enumerate(shop_products)]
    users = [ManifestRecord(i, "user", p, "", ()) for i, p in enumerate(user_products)]
    manifest = Manifest(records=tuple(users + shops), tag_names=("t",), root=Path("."))
    return Dataset(manifest=manifest, features={}, ground_truth=None, root=Path("."))


class TestSampleTriples:
    def test_invariants(self, caplog):
        # Product 3 has user images but no shop image, so it cannot anchor.
        dataset = records_dataset(shop_products=[0, 0, 1, 2], user_products=[0, 1, 2, 3, 3])
        product = {r.item_id: r.product_id for r in dataset.manifest.records}
        shops = {r.item_id for r in dataset.shop_records()}
        with caplog.at_level(logging.WARNING, logger="xattn.training"):
            triples = sample_triples(dataset, 600, np.random.default_rng(0))
        assert "2 user images excluded" in caplog.text
        assert len(triples) == 600
        for anchor, positive, negative in triples:
            assert product[anchor] in (0, 1, 2)
            assert positive in shops and negative in shops
            assert product[positive] == product[anchor]
            assert product[negative] != product[anchor]
        assert {t.anchor for t in triples} == {0, 1, 2}
        assert {t.positive for t in triples} == shops
        assert {t.negative for t in triples} == shops

    def test_deterministic_given_the_rng(self):
        dataset = records_dataset(shop_products=[0, 1, 1, 2], user_products=[0, 1, 2, 2])
        draw = lambda: sample_triples(dataset, 50, np.random.default_rng(3))
        assert draw() == draw()

    def test_needs_two_products_with_shop_images(self):
        with pytest.raises(ValueError, match="2 distinct products"):
            sample_triples(records_dataset([0, 0], [0, 1]), 5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="no user image"):
            sample_triples(records_dataset([0, 1], [2]), 5, np.random.default_rng(0))


class TestSgdStep:
    def test_frozen_tensors_untouched_and_without_velocity(self):
        config = ModelConfig(locations=3, channels=2, tag_count=2, raw_dim=2, variant=Variant.CTXYNET)
        params = init_params(config, 0)
        before = {name: t.copy() for name, t in params.named_tensors()}
        grads = {name: np.ones_like(t) for name, t in params.named_tensors()}
        velocity: dict[str, np.ndarray] = {}
        for _ in range(2):
            sgd_step(params, grads, velocity, lr=0.1, momentum=0.5, frozen=FROZEN_TRUNK)
        assert set(velocity) == set(before) - set(FROZEN_TRUNK)
        for name, tensor in params.named_tensors():
            if name in FROZEN_TRUNK:
                np.testing.assert_array_equal(tensor, before[name])
            else:
                # v1 = -0.1, v2 = 0.5 * v1 - 0.1 = -0.15
                np.testing.assert_allclose(tensor, before[name] - 0.25, rtol=0, atol=1e-15)
                np.testing.assert_allclose(velocity[name], -0.15, rtol=0, atol=1e-15)


class TestCurriculum:
    def test_one_stage_per_variant_in_ladder_order(self):
        assert STAGES == ("ynet", "tagynet", "ctxynet")
        assert [stage_variant(stage) for stage in STAGES] == list(Variant)
        assert stage_variant(" TagYNet ") is Variant.TAGYNET

    def test_stage_name_is_normalised(self, tmp_path):
        spec = SyntheticSpec(products=3, holdout_products=0, locations=2, channels=2, tag_count=2, raw_dim=2, signal_locations=1)
        generate_synthetic(spec, tmp_path)
        config = ModelConfig(locations=2, channels=2, tag_count=2, raw_dim=2, variant=Variant.YNET)
        metrics = io.StringIO()
        checkpoint, curve = train_stage(
            " YNet ", load_dataset(tmp_path / "train"), TrainConfig(epochs={"ynet": 2}), model_cfg=config, metrics_out=metrics
        )
        assert checkpoint.stage == "ynet" and checkpoint.config.variant is Variant.YNET
        assert [line.split("\t")[1] for line in metrics.getvalue().splitlines()] == ["ynet", "ynet"]
        assert len(curve) == 2

    @pytest.mark.parametrize(
        "stages",
        [("tagynet", "ynet"), ("ynet", "ynet"), ("ctxynet", "tagynet"), ("ynet", "ctxynet", "tagynet")],
    )
    def test_rejects_stages_out_of_ladder_order(self, stages):
        dataset = records_dataset([0, 1], [0, 1])
        config = ModelConfig(locations=3, channels=2, tag_count=1, raw_dim=2, variant=Variant.YNET)
        with pytest.raises(ValueError, match="ladder order"):
            run_curriculum(dataset, stages, TrainConfig(), config)

    def test_rejects_an_unknown_stage_before_training(self):
        dataset = records_dataset([0, 1], [0, 1])
        config = ModelConfig(locations=3, channels=2, tag_count=1, raw_dim=2, variant=Variant.YNET)
        with pytest.raises(ValueError, match="unknown stage 'resnet'"):
            run_curriculum(dataset, ("ynet", "resnet"), TrainConfig(), config)
