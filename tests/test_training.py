import dataclasses
import io
import itertools
import logging
import math
import re

import numpy as np
import pytest

from xattn.dataio import Dataset, Manifest, ManifestRecord, SyntheticSpec, generate_synthetic, load_dataset
from xattn.model import (
    ModelConfig,
    ModelParams,
    Variant,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    init_params,
    params_fingerprint,
)
from xattn import training
from xattn.training import (
    STAGES,
    TrainConfig,
    run_curriculum,
    sample_triples,
    sgd_step,
    train_stage,
)

from oracles import FROZEN_TRUNK, reference_fingerprint, reference_sample_triples, reference_train_stage


def records_dataset(shop_products, user_products):
    """A dataset of bare records, shop and user records interleaved so that
    rows and item ids differ: ``sample_triples`` reads nothing else."""
    shops = [ManifestRecord(100 + i, "shop", p, "", ()) for i, p in enumerate(shop_products)]
    users = [ManifestRecord(i, "user", p, "", ()) for i, p in enumerate(user_products)]
    records = [r for pair in itertools.zip_longest(users, shops) for r in pair if r is not None]
    manifest = Manifest(records=tuple(records), tag_names=("t",))
    return Dataset(manifest=manifest, features={}, ground_truth=None)


def tiny_split(tmp_path):
    """A 3-product train split of 2 x 2 maps, a YNet config for it and a
    one-epoch training config."""
    spec = SyntheticSpec(products=3, holdout_products=0, locations=2, channels=2, tag_count=2, raw_dim=2, signal_locations=1)
    generate_synthetic(spec, tmp_path)
    config = ModelConfig(locations=2, channels=2, tag_count=2, raw_dim=2, variant=Variant.YNET)
    return load_dataset(tmp_path / "train"), config, TrainConfig(epochs={s: 1 for s in STAGES})


class TestSampleTriples:
    def test_invariants(self, caplog):
        # Product 3 has user images but no shop image, so it cannot anchor.
        dataset = records_dataset(shop_products=[0, 0, 1, 2], user_products=[0, 1, 2, 3, 3])
        records = dataset.manifest.records
        with caplog.at_level(logging.WARNING, logger="xattn.dataio"):
            triples = sample_triples(dataset, 600, np.random.default_rng(0))
        assert "2 user images excluded" in caplog.text
        assert triples.shape == (600, 3) and triples.dtype == np.intp
        for anchor, positive, negative in triples.tolist():
            assert records[anchor].domain == "user" and records[anchor].product_id in (0, 1, 2)
            assert records[positive].domain == records[negative].domain == "shop"
            assert records[positive].product_id == records[anchor].product_id
            assert records[negative].product_id != records[anchor].product_id
        users = {row for row, r in enumerate(records) if r.domain == "user" and r.product_id != 3}
        shops = {row for row, r in enumerate(records) if r.domain == "shop"}
        assert set(triples[:, 0].tolist()) == users
        assert set(triples[:, 1].tolist()) == shops
        assert set(triples[:, 2].tolist()) == shops

    def test_a_stage_warns_of_excluded_users_once(self, tmp_path, caplog):
        # Product 0's shop images are left out of the manifest, so its user
        # images cannot anchor; the stage samples once per epoch.
        dataset, config, _ = tiny_split(tmp_path)
        manifest = dataset.manifest
        kept = tuple(r for r in manifest.records if r.domain == "user" or r.product_id != 0)
        dataset = dataclasses.replace(dataset, manifest=dataclasses.replace(manifest, records=kept))
        with caplog.at_level(logging.WARNING, logger="xattn.dataio"):
            train_stage("ynet", dataset, TrainConfig(epochs={s: 3 for s in STAGES}), config)
        warned = [r for r in caplog.records if "excluded from anchoring" in r.getMessage()]
        assert len(warned) == 1
        assert dataset.anchoring is dataset.anchoring

    def test_deterministic_given_the_rng(self):
        dataset = records_dataset(shop_products=[0, 1, 1, 2], user_products=[0, 1, 2, 2])
        draw = lambda: sample_triples(dataset, 50, np.random.default_rng(3))
        np.testing.assert_array_equal(draw(), draw())

    @pytest.mark.parametrize("seed", range(6))
    def test_draws_what_the_per_product_negative_lists_drew(self, seed):
        # Interleaved products, one with three shop images, and product 4
        # with user images but no shop image. The rows, read as item ids,
        # are the triples of the id sampler.
        dataset = records_dataset(
            shop_products=[1, 0, 2, 1, 0, 3, 1, 2], user_products=[0, 1, 4, 2, 3, 4, 1]
        )
        item_ids = np.array([r.item_id for r in dataset.manifest.records])
        got = item_ids[sample_triples(dataset, 300, np.random.default_rng(seed))]
        want = reference_sample_triples(dataset, 300, np.random.default_rng(seed))
        assert list(map(tuple, got.tolist())) == want

    def test_needs_two_products_with_shop_images(self):
        with pytest.raises(ValueError, match="2 distinct products"):
            sample_triples(records_dataset([0, 0], [0, 1]), 5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="no user image"):
            sample_triples(records_dataset([0, 1], [2]), 5, np.random.default_rng(0))


class TestSgdStep:
    def test_frozen_tensors_untouched_and_without_velocity(self):
        # A frozen tensor is one the step is given no gradient for. The
        # step returns new params and leaves the ones it was given alone.
        config = ModelConfig(locations=3, channels=2, tag_count=2, raw_dim=2, variant=Variant.CTXYNET)
        first = params = init_params(config, 0)
        digest = params_fingerprint(first)
        before = dict(params.named_tensors())
        grads = {name: np.ones_like(t) for name, t in params.named_tensors() if name not in FROZEN_TRUNK}
        velocity: dict[str, np.ndarray] = {}
        for _ in range(2):
            stepped = sgd_step(params, grads, velocity, lr=0.1, momentum=0.5)
            assert isinstance(stepped, ModelParams) and stepped is not params
            assert stepped.config == config
            params = stepped
        assert set(velocity) == set(before) - set(FROZEN_TRUNK)
        for name, tensor in params.named_tensors():
            assert not tensor.flags.writeable, name
            if name in FROZEN_TRUNK:
                np.testing.assert_array_equal(tensor, before[name])
            else:
                # v1 = -0.1, v2 = 0.5 * v1 - 0.1 = -0.15
                np.testing.assert_allclose(tensor, before[name] - 0.25, rtol=0, atol=1e-15)
                np.testing.assert_allclose(velocity[name], -0.15, rtol=0, atol=1e-15)
        assert params_fingerprint(first) == digest == reference_fingerprint(first)

    def test_an_unknown_name_raises_before_any_update(self):
        config = ModelConfig(locations=3, channels=2, tag_count=2, raw_dim=2, variant=Variant.YNET)
        params = init_params(config, 0)
        grads = {name: np.ones_like(t) for name, t in params.named_tensors()}
        grads["tag_attn.embedding"] = np.ones((2, 2))
        velocity: dict[str, np.ndarray] = {}
        with pytest.raises(KeyError, match="tag_attn.embedding"):
            sgd_step(params, grads, velocity, lr=0.1, momentum=0.5)
        assert velocity == {}


class TestTrainConfig:
    @pytest.mark.parametrize("table", ["margins", "epochs"])
    def test_every_stage_needs_an_entry(self, table):
        with pytest.raises(ValueError, match=f"{table} has no entry for stage 'tagynet'"):
            TrainConfig(**{table: {"ynet": 1, "ctxynet": 1}})

    @pytest.mark.parametrize("table", ["margins", "epochs"])
    @pytest.mark.parametrize("key", ["ctxnet", "YNet", 1])
    def test_an_entry_for_no_stage_is_refused(self, table, key):
        # A misspelt stage beside the three real ones would be ignored.
        with pytest.raises(ValueError, match=rf"^{table} has an entry for {key!r}, which is not a stage$"):
            TrainConfig(**{table: {"ynet": 1, "tagynet": 1, "ctxynet": 1, key: 5}})

    @pytest.mark.parametrize("count", [-1, 2**32, 1.5, 2.0])
    def test_epoch_count_must_fit_the_checkpoint(self, count):
        # The checkpoint stores the epoch count as a u32.
        with pytest.raises(ValueError, match=r"^epochs\['tagynet'\] must be an integer in \[0, 4294967296\), got "):
            TrainConfig(epochs={"ynet": 1, "tagynet": count, "ctxynet": 1})

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_seed_must_fit_the_checkpoint(self, seed):
        # The checkpoint stores the seed as a u64.
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 18446744073709551616\), got "):
            TrainConfig(seed=seed)

    @pytest.mark.parametrize("size", [0, 2.5, 32.0])
    def test_batch_size_must_be_a_positive_integer(self, size):
        with pytest.raises(ValueError, match=rf"^batch_size must be an integer in \[1, inf\), got {size}$"):
            TrainConfig(batch_size=size)

    @pytest.mark.parametrize("margin", [-0.1, math.nan, math.inf, -math.inf, "0.3"])
    def test_margin_must_be_finite_and_non_negative(self, margin):
        with pytest.raises(ValueError, match=r"^margins\['ctxynet'\] must be a number in \[0, inf\), got "):
            TrainConfig(margins={"ynet": 0.3, "tagynet": 0.3, "ctxynet": margin})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("base_lr", 0.0),
            ("base_lr", math.nan),
            ("base_lr", math.inf),
            ("momentum", math.nan),
            ("momentum", "0.9"),
        ],
    )
    def test_schedule_must_be_finite_and_in_range(self, name, value):
        # NaN passes a test for the bad range, so training would fail far
        # from the cause.
        with pytest.raises(ValueError, match=rf"^{name} must be .*, got {value!r}$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("batch_size", 0), ("batch_size", 16), ("base_lr", math.nan), ("epochs", {}), ("seed", 1)],
    )
    def test_fields_cannot_be_rebound(self, name, value):
        # The checks run once, when the config is made: a rebound field
        # would skip them, so a config is rebuilt with dataclasses.replace.
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(cfg, name)
        assert cfg == TrainConfig()
        assert dataclasses.replace(cfg, batch_size=16).batch_size == 16
        with pytest.raises(ValueError, match=r"^batch_size must be an integer in \[1, inf\), got 0$"):
            dataclasses.replace(cfg, batch_size=0)

    @pytest.mark.parametrize("name, stage, value", [("epochs", "ynet", 1.5), ("margins", "ctxynet", math.nan)])
    def test_the_tables_are_read_only_copies(self, name, stage, value):
        # The tables are checked once, so a write after the checks would
        # reach train_stage unchecked; a later write to the dict given
        # changes nothing either.
        given = dict(getattr(TrainConfig(), name))
        cfg = TrainConfig(**{name: given})
        with pytest.raises(TypeError):
            getattr(cfg, name)[stage] = value
        with pytest.raises(TypeError):
            del getattr(cfg, name)[stage]
        given[stage] = value
        assert getattr(cfg, name) == getattr(TrainConfig(), name) != given
        # replace, as the benchmark uses it, copies the tables again.
        again = dataclasses.replace(cfg, seed=7)
        assert again.seed == 7 and getattr(again, name) == getattr(cfg, name)
        assert getattr(again, name) is not getattr(cfg, name)

    def test_the_largest_accepted_values_save(self, tmp_path):
        spec = SyntheticSpec(products=3, holdout_products=0, locations=2, channels=2, tag_count=2, raw_dim=2, signal_locations=1)
        generate_synthetic(spec, tmp_path)
        config = ModelConfig(locations=2, channels=2, tag_count=2, raw_dim=2, variant=Variant.YNET)
        cfg = TrainConfig(epochs={s: 0 for s in STAGES}, seed=2**64 - 1)
        checkpoint, curve = train_stage("ynet", load_dataset(tmp_path / "train"), cfg, config)
        assert curve == [] and checkpoint.epoch == 0
        assert checkpoint_from_bytes(checkpoint_to_bytes(checkpoint)).seed == 2**64 - 1
        TrainConfig(epochs={s: 2**32 - 1 for s in STAGES}, margins={s: 0.0 for s in STAGES})


class TestCurriculum:
    def test_one_stage_per_variant_in_ladder_order(self):
        assert STAGES == ("ynet", "tagynet", "ctxynet")
        assert [Variant.parse(stage) for stage in STAGES] == list(Variant)
        assert Variant.parse(" TagYNet ") is Variant.TAGYNET

    def test_stage_name_is_normalised(self, tmp_path):
        spec = SyntheticSpec(products=3, holdout_products=0, locations=2, channels=2, tag_count=2, raw_dim=2, signal_locations=1)
        generate_synthetic(spec, tmp_path)
        config = ModelConfig(locations=2, channels=2, tag_count=2, raw_dim=2, variant=Variant.YNET)
        metrics = io.StringIO()
        checkpoint, curve = train_stage(
            " YNet ", load_dataset(tmp_path / "train"), TrainConfig(epochs={s: 2 for s in STAGES}), config, metrics_out=metrics
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
        with pytest.raises(ValueError, match="unknown variant 'resnet'"):
            run_curriculum(dataset, ("ynet", "resnet"), TrainConfig(), config)

    def test_stage_names_are_parsed_once_and_reported_canonically(self, tmp_path):
        dataset, config, cfg = tiny_split(tmp_path)
        got = run_curriculum(dataset, (" YNet ", " TagYNet "), cfg, config)
        assert [checkpoint.stage for checkpoint, _ in got] == ["ynet", "tagynet"]
        with pytest.raises(ValueError, match=r"ladder order, got \['tagynet', 'ynet'\]$"):
            run_curriculum(dataset, (" TagYNet ", "YNET"), cfg, config)
        for stage in (1, None):
            with pytest.raises(ValueError, match=rf"^variant name must be a str, got {stage!r}$"):
                run_curriculum(dataset, ("ynet", stage), cfg, config)
            with pytest.raises(ValueError, match="must be a str"):
                train_stage(stage, dataset, cfg, config)

    def test_rejects_maps_that_are_not_locations_by_raw_dim(self, tmp_path):
        dataset, config, cfg = tiny_split(tmp_path)
        wide = dataclasses.replace(config, raw_dim=3)
        with pytest.raises(ValueError, match=r"^dataset features are \(2, 2\), model expects \(2, 3\)$"):
            train_stage("ynet", dataset, cfg, wide)
        # One map of another shape, last in the manifest, is found too.
        last = dataset.manifest.records[-1].item_id
        for shape in ((3, 2), (4,), (1, 2, 2)):
            odd = dataclasses.replace(
                dataset, features={**dataset.features, last: np.zeros(shape, np.float32)}
            )
            with pytest.raises(ValueError, match=rf"^dataset features are {re.escape(str(shape))}, model expects \(2, 2\)$"):
                train_stage("ynet", odd, cfg, config)

    @pytest.mark.parametrize("stage", STAGES)
    def test_rejects_a_dataset_of_another_tag_count_before_any_step(self, tmp_path, monkeypatch, stage):
        # The base variant reads no tags, so only the check stops it.
        dataset, config, cfg = tiny_split(tmp_path)
        calls = []
        monkeypatch.setattr(training, "backward_triple", lambda *args, **kwargs: calls.append(1))
        other = dataclasses.replace(config, tag_count=3)
        with pytest.raises(ValueError, match=r"^dataset has 2 tags, model expects 3$"):
            train_stage(stage, dataset, cfg, other)
        assert calls == []

    def test_a_diverging_stage_fails_at_the_unit_norm_gate(self, tmp_path):
        # Steps of 1e200 overflow the parameters after the first batch. The
        # embeddings then stop being unit rows, and triplet_loss, which
        # checks every row it compares, refuses them: no loss that is not
        # finite reaches the stage.
        dataset, config, _ = tiny_split(tmp_path)
        cfg = TrainConfig(base_lr=1e200, batch_size=2, epochs={s: 3 for s in STAGES})
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="^embeddings must be L2-normalized$") as err:
            train_stage("ynet", dataset, cfg, config)
        assert err.traceback[-1].name == "triplet_loss"

    def test_same_bytes_as_the_loop_that_summed_every_gradient(self, tmp_path):
        # 14 users in batches of 3, and margins small enough that every
        # stage has triples, and whole batches, with zero loss.
        spec = SyntheticSpec(
            products=7, holdout_products=0, user_per_product=2, locations=4, channels=5,
            tag_count=3, raw_dim=4, signal_locations=2, seed=5,
        )
        generate_synthetic(spec, tmp_path)
        dataset = load_dataset(tmp_path / "train")
        config = ModelConfig(locations=4, channels=5, tag_count=3, raw_dim=4, variant=Variant.YNET)
        cfg = TrainConfig(
            batch_size=3,
            margins={"ynet": 0.0, "tagynet": 0.01, "ctxynet": 0.0},
            epochs={s: 3 for s in STAGES},
            seed=9,
        )
        got = run_curriculum(dataset, STAGES, cfg, config)
        init = None
        for stage, (checkpoint, curve) in zip(STAGES, got):
            want, want_curve, zero_losses = reference_train_stage(stage, dataset, cfg, config, init)
            sizes = [3, 3, 3, 3, 2] * 3
            assert 0 < sum(zero_losses) < sum(sizes), stage
            assert any(z == n for z, n in zip(zero_losses, sizes)), stage
            assert checkpoint_to_bytes(checkpoint) == checkpoint_to_bytes(want), stage
            assert np.asarray(curve).tobytes() == np.asarray(want_curve).tobytes(), stage
            init = want

    def test_a_stage_opening_with_a_zero_loss_batch_keeps_the_bytes(self, tmp_path):
        # With every margin 0 and batches of 2, some stages open with a
        # batch whose triples all have zero loss: nothing has a velocity
        # yet, so the step moves nothing. At train seed 1, the first stage
        # and a frozen-trunk stage open that way.
        spec = SyntheticSpec(
            products=7, holdout_products=0, user_per_product=2, locations=4, channels=5,
            tag_count=3, raw_dim=4, signal_locations=2, seed=5,
        )
        generate_synthetic(spec, tmp_path)
        dataset = load_dataset(tmp_path / "train")
        config = ModelConfig(locations=4, channels=5, tag_count=3, raw_dim=4, variant=Variant.YNET)
        cfg = TrainConfig(
            batch_size=2, margins={s: 0.0 for s in STAGES}, epochs={s: 2 for s in STAGES}, seed=1
        )
        got = run_curriculum(dataset, STAGES, cfg, config)
        init = None
        opened = []
        for stage, (checkpoint, curve) in zip(STAGES, got):
            want, want_curve, zero_losses = reference_train_stage(stage, dataset, cfg, config, init)
            if zero_losses[0] == cfg.batch_size:
                opened.append(stage)
            assert checkpoint_to_bytes(checkpoint) == checkpoint_to_bytes(want), stage
            assert np.asarray(curve).tobytes() == np.asarray(want_curve).tobytes(), stage
            init = want
        assert "ynet" in opened and len(opened) > 1, opened

    def test_float32_maps_train_the_checkpoints_of_float64_copies(self, tmp_path):
        # The seed-0 desk curriculum. Widening the float32 maps load_dataset
        # holds is exact, so every stage's checkpoint has the bytes that
        # float64 copies of the maps give.
        spec = SyntheticSpec()
        generate_synthetic(spec, tmp_path)
        dataset = load_dataset(tmp_path / "train")
        widened = dataclasses.replace(
            dataset, features={i: fmap.astype(np.float64) for i, fmap in dataset.features.items()}
        )
        assert all(fmap.dtype == np.float32 for fmap in dataset.features.values())
        config = ModelConfig(
            locations=spec.locations, channels=spec.channels, tag_count=spec.tag_count,
            raw_dim=spec.raw_dim, variant=Variant.YNET,
        )
        got = run_curriculum(dataset, STAGES, TrainConfig(), config)
        want = run_curriculum(widened, STAGES, TrainConfig(), config)
        for stage, (checkpoint, curve), (other, other_curve) in zip(STAGES, got, want):
            assert checkpoint_to_bytes(checkpoint) == checkpoint_to_bytes(other), stage
            assert np.asarray(curve).tobytes() == np.asarray(other_curve).tobytes(), stage
