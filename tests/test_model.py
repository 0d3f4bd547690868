import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xattn import gradcheck, model
from xattn.attention import ContextAttentionParams, TagAttentionParams, TagVector
from xattn.metric import distance
from xattn.model import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    CheckpointFormatError,
    ModelConfig,
    UnsupportedVariantError,
    Variant,
    backward_triple,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    embed_shop,
    embed_shops,
    embed_shops_simple,
    embed_user_contexts,
    extract_features,
    forward_triple,
    init_params,
    load_checkpoint,
    params_fingerprint,
    save_checkpoint,
    uniform_embedding,
)

from mutations import corrupted, non_finite
from oracles import (
    naive_affine_relu_affine,
    naive_l2_normalize,
    naive_tag_attend,
    out_of_place_features,
    reference_fingerprint,
)


def small_config(variant=Variant.CTXYNET, locations=4, channels=3, tags=2, raw_dim=3):
    return ModelConfig(
        locations=locations,
        channels=channels,
        tag_count=tags,
        raw_dim=raw_dim,
        variant=variant,
    )


def identity_params(config):
    """Identity trunk/branches so features equal the (non-negative) input."""
    params = init_params(config, 0)
    eye = np.eye(config.channels)
    params.trunk.weight[...] = eye
    params.trunk.bias[...] = 0.0
    for branch in (params.branch_shop, params.branch_user):
        branch.weight[...] = eye
        branch.bias[...] = 0.0
    return params


class TestConfigAndVariant:
    def test_variant_ordering(self):
        assert Variant.YNET < Variant.TAGYNET < Variant.CTXYNET

    def test_variant_aliases(self):
        assert Variant.parse("tag") is Variant.TAGYNET
        assert Variant.parse("CtxYNet") is Variant.CTXYNET
        with pytest.raises(ValueError):
            Variant.parse("resnet")

    def test_config_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            small_config(channels=0)


class TestInitParams:
    def test_deterministic_given_seed(self):
        a = init_params(small_config(), 9)
        b = init_params(small_config(), 9)
        for (name_a, t_a), (name_b, t_b) in zip(a.named_tensors(), b.named_tensors()):
            assert name_a == name_b
            np.testing.assert_array_equal(t_a, t_b)

    def test_variant_controls_heads(self):
        names = dict(init_params(small_config(Variant.YNET), 0).named_tensors())
        assert "tag_attn.embedding" not in names and "ctx_attn.feature_weight" not in names
        names = dict(init_params(small_config(Variant.TAGYNET), 0).named_tensors())
        assert "tag_attn.embedding" in names and "ctx_attn.feature_weight" not in names
        names = dict(init_params(small_config(), 0).named_tensors())
        assert "ctx_attn.context_weight" in names

    def test_upgrade_copies_shared_and_draws_new_heads(self):
        base = init_params(small_config(Variant.YNET), 3)
        upgraded = init_params(small_config(Variant.TAGYNET), 4, base=base)
        np.testing.assert_array_equal(upgraded.trunk.weight, base.trunk.weight)
        np.testing.assert_array_equal(upgraded.branch_shop.weight, base.branch_shop.weight)
        assert upgraded.tag_attn is not None
        assert np.any(upgraded.tag_attn.embedding != 0.0)

    def test_shape_mismatch_names_tensor(self):
        base = init_params(small_config(channels=3), 0)
        with pytest.raises(ValueError, match="trunk.weight"):
            init_params(small_config(channels=4, raw_dim=3), 0, base=base)


class TestExtractFeatures:
    def test_identity_composition(self):
        config = small_config()
        params = identity_params(config)
        raw = np.abs(np.random.default_rng(5).normal(size=(4, 3)))
        got = extract_features(raw, "user", params)
        np.testing.assert_allclose(got, raw, atol=1e-15)

    def test_zero_trunk(self):
        config = small_config()
        params = init_params(config, 0)
        params.trunk.weight[...] = 0.0
        params.trunk.bias[...] = 0.0
        params.branch_user.bias[...] = 0.0
        got = extract_features(np.ones((4, 3)), "user", params)
        np.testing.assert_array_equal(got, np.zeros((4, 3)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            config = small_config(
                locations=int(rng.integers(1, 6)),
                channels=int(rng.integers(1, 5)),
                raw_dim=int(rng.integers(1, 5)),
            )
            params = init_params(config, int(rng.integers(0, 2**31)))
            raw = rng.normal(size=(config.locations, config.raw_dim))
            for domain, branch in (("user", params.branch_user), ("shop", params.branch_shop)):
                got = extract_features(raw, domain, params)
                want = naive_affine_relu_affine(
                    raw, params.trunk.weight, params.trunk.bias, branch.weight, branch.bias
                )
                np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 3), (5, 4, 3)])
    @pytest.mark.parametrize("domain", model.DOMAINS)
    def test_equals_out_of_place_reference_bit_for_bit(self, shape, domain):
        params = init_params(small_config(), 12)
        raw = np.random.default_rng(13).normal(size=shape)
        raw[..., 0, :] = -0.0  # rows whose products are all signed zeros
        branch = params.branch_user if domain == "user" else params.branch_shop
        got = model._features(raw, domain, params)
        rows, hidden, fmap = out_of_place_features(raw, params.trunk, branch)
        assert (got.hidden == 0.0).any() and (got.hidden > 0.0).any()
        for have, want in ((got.rows, rows), (got.hidden, hidden), (got.fmap, fmap)):
            assert have.shape == want.shape and have.tobytes() == want.tobytes()

    def test_shape_and_domain_validation(self):
        params = init_params(small_config(), 0)
        with pytest.raises(ValueError):
            extract_features(np.zeros((3, 3)), "user", params)  # wrong L
        with pytest.raises(ValueError):
            extract_features(np.zeros((4, 3)), "street", params)
        for bad in (np.nan, np.inf):
            raw = np.zeros((2, 4, 3))
            raw[1, 2, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                extract_features(raw, "shop", params)


class TestEmbeddings:
    def test_embed_shop_requires_tag_head(self):
        params = init_params(small_config(Variant.YNET), 0)
        with pytest.raises(UnsupportedVariantError):
            embed_shop(np.zeros((4, 3)), TagVector.from_ids([], 2), params)

    def test_embed_shop_constant_rows(self):
        config = small_config()
        params = identity_params(config)
        row = np.array([2.0, 1.0, 2.0])
        raw = np.tile(row, (4, 1))
        got = embed_shop(raw, TagVector.from_ids([0], 2), params)
        np.testing.assert_allclose(got, row / np.linalg.norm(row), atol=1e-12)

    def test_embed_shop_zero_tags_is_normalized_mean(self):
        config = small_config()
        params = identity_params(config)
        raw = np.abs(np.random.default_rng(8).normal(size=(4, 3)))
        got = embed_shop(raw, TagVector.from_ids([], 2), params)
        mean = raw.mean(axis=0)
        np.testing.assert_allclose(got, mean / np.linalg.norm(mean), atol=1e-12)

    def test_embed_shop_matches_composed_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            config = small_config(
                locations=int(rng.integers(1, 6)),
                channels=int(rng.integers(1, 5)),
                tags=int(rng.integers(1, 4)),
                raw_dim=int(rng.integers(1, 5)),
            )
            params = init_params(config, int(rng.integers(0, 2**31)))
            raw = rng.normal(size=(config.locations, config.raw_dim))
            bits = TagVector(bits=rng.integers(0, 2, config.tag_count).astype(np.float64))
            got = embed_shop(raw, bits, params)
            features = naive_affine_relu_affine(
                raw,
                params.trunk.weight,
                params.trunk.bias,
                params.branch_shop.weight,
                params.branch_shop.bias,
            )
            _, pooled = naive_tag_attend(features, bits.bits, params.tag_attn.embedding)
            np.testing.assert_allclose(got, naive_l2_normalize(pooled), atol=1e-9)

    def test_uniform_user_embedding_single_location(self):
        config = small_config(locations=1)
        params = identity_params(config)
        raw = np.abs(np.random.default_rng(10).normal(size=(1, 3))) + 0.1
        want = raw[0] / np.linalg.norm(raw[0])
        got = uniform_embedding(extract_features(raw, "user", params))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_uniform_user_embedding_arithmetic(self):
        config = small_config(locations=2, channels=2, raw_dim=2)
        params = identity_params(config)
        raw = np.array([[2.0, 0.0], [0.0, 2.0]])
        got = uniform_embedding(extract_features(raw, "user", params))
        np.testing.assert_allclose(got, [np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-12)

    def test_context_with_zero_params_equals_simple(self):
        config = small_config()
        rng = np.random.default_rng(11)
        params = init_params(config, 12)
        params.ctx_attn.feature_weight[...] = 0.0
        params.ctx_attn.context_weight[...] = 0.0
        raw = rng.normal(size=(4, 3))
        ctx = rng.normal(size=3)
        ctx /= np.linalg.norm(ctx)
        np.testing.assert_allclose(
            embed_user_contexts(extract_features(raw, "user", params), ctx[None], params)[0],
            uniform_embedding(extract_features(raw, "user", params)),
            atol=1e-12,
        )

    def test_context_requires_ctx_head(self):
        params = init_params(small_config(Variant.TAGYNET), 0)
        with pytest.raises(UnsupportedVariantError):
            embed_user_contexts(
                extract_features(np.zeros((4, 3)), "user", params), np.array([[1.0, 0.0, 0.0]]), params
            )

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(13)
        config = small_config()
        params = init_params(config, 14)
        # positive biases keep the ReLU from zeroing an entire map, which
        # would legitimately trip the zero-vector normalization guard
        params.trunk.bias[...] = 0.05
        params.branch_shop.bias[...] = 0.05
        params.branch_user.bias[...] = 0.05
        for _ in range(100):
            raw = rng.normal(size=(4, 3))
            bits = TagVector(bits=rng.integers(0, 2, 2).astype(np.float64))
            ctx = embed_shop(raw, bits, params)
            for emb in (
                ctx,
                uniform_embedding(extract_features(raw, "user", params)),
                embed_shops_simple(raw[None], params)[0],
                embed_user_contexts(extract_features(raw, "user", params), ctx[None], params)[0],
            ):
                assert abs(np.linalg.norm(emb) - 1.0) <= 1e-10
                assert emb.shape == (config.channels,)

    def test_user_embedding_identical_across_variants(self):
        # the user path never touches the tag head
        raw = np.random.default_rng(15).normal(size=(4, 3))
        ynet = init_params(small_config(Variant.YNET), 16)
        tag = init_params(small_config(Variant.TAGYNET), 17, base=ynet)
        np.testing.assert_array_equal(
            uniform_embedding(extract_features(raw, "user", ynet)),
            uniform_embedding(extract_features(raw, "user", tag)),
        )


class TestForwardTriple:
    def test_identical_candidates_give_margin_loss(self):
        rng = np.random.default_rng(18)
        config = small_config()
        params = init_params(config, 19)
        anchor = rng.normal(size=(4, 3))
        candidate = rng.normal(size=(4, 3))
        bits = TagVector.from_ids([1], 2)
        out = forward_triple(anchor, candidate, candidate, bits, bits, params, 0.5)
        np.testing.assert_array_equal(out.embeddings.anchor_pos, out.embeddings.anchor_neg)
        assert out.loss == pytest.approx(0.5, abs=1e-12)

    def test_satisfied_margin_zero_loss(self):
        # anchor matching its positive exactly requires an engineered case:
        # use the non-contextual variant where both anchors coincide
        config = small_config(Variant.TAGYNET)
        params = identity_params(config)
        rng = np.random.default_rng(20)
        anchor = np.abs(rng.normal(size=(4, 3))) + 0.1
        positive = np.tile(anchor.mean(axis=0), (4, 1))
        negative = np.abs(rng.normal(size=(4, 3))) + 0.1
        bits = TagVector.from_ids([], 2)
        out = forward_triple(anchor, positive, negative, bits, bits, params, 0.0)
        assert distance(out.embeddings.anchor_pos, out.embeddings.positive) < 1e-12
        if distance(out.embeddings.anchor_neg, out.embeddings.negative) >= 0.0:
            assert out.loss == 0.0

    def test_trunk_overflowing_to_inf_raises(self):
        # No per-layer check sees the inf features; the uniform-pooled
        # embeddings come out NaN and the loss refuses them.
        config = small_config(Variant.YNET)
        params = init_params(config, 21)
        params.trunk.weight[...] = 1e308
        rng = np.random.default_rng(22)
        raws = [np.abs(rng.normal(size=(4, 3))) + 1.0 for _ in range(3)]
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="L2-normalized"):
            forward_triple(*raws, None, None, params, 0.3)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_embeddings_equal_the_serving_forms(self, variant):
        # Training and serving run one forward pass, so they agree to the bit.
        rng = np.random.default_rng(27)
        config = small_config(variant, locations=9, channels=16, tags=10, raw_dim=16)
        params = init_params(config, 28)
        for _ in range(10):
            anchor, positive, negative = (rng.normal(size=(9, 16)) for _ in range(3))
            bits = rng.integers(0, 2, size=(2, 10)).astype(np.float64)
            got = forward_triple(
                anchor, positive, negative, TagVector(bits[0]), TagVector(bits[1]), params, 0.5
            ).embeddings
            shops = np.stack([positive, negative])
            if variant >= Variant.TAGYNET:
                shop_rows = embed_shops(shops, TagVector(bits), params)
            else:
                shop_rows = embed_shops_simple(shops, params)
            if variant >= Variant.CTXYNET:
                fmap = extract_features(anchor, "user", params)
                anchor_rows = embed_user_contexts(fmap, shop_rows, params)
            else:
                anchor_rows = [uniform_embedding(extract_features(anchor, "user", params))] * 2
            np.testing.assert_array_equal(got.positive, shop_rows[0])
            np.testing.assert_array_equal(got.negative, shop_rows[1])
            np.testing.assert_array_equal(got.anchor_pos, anchor_rows[0])
            np.testing.assert_array_equal(got.anchor_neg, anchor_rows[1])

    def test_tags_required_for_tag_variant(self):
        params = init_params(small_config(Variant.TAGYNET), 0)
        raw = np.zeros((4, 3))
        with pytest.raises(ValueError):
            forward_triple(raw, raw, raw, None, None, params, 0.5)


class TestBackwardTriple:
    def test_inactive_hinge_all_zero(self):
        rng = np.random.default_rng(23)
        params = init_params(small_config(), 24)
        raws = [rng.normal(size=(4, 3)) for _ in range(3)]
        bits = TagVector.from_ids([0], 2)
        loss, grads = backward_triple(*raws, bits, bits, params, 0.0)
        if loss == 0.0:
            for g in grads.values():
                np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_gradients_cover_all_tensors(self):
        params = init_params(small_config(), 25)
        rng = np.random.default_rng(26)
        raws = [rng.normal(size=(4, 3)) for _ in range(3)]
        bits = TagVector.from_ids([1], 2)
        _, grads = backward_triple(*raws, bits, bits, params, 5.0)
        assert set(grads) == {name for name, _ in params.named_tensors()}


def payload_offsets(ckpt):
    """Byte offset of every tensor value in ``checkpoint_to_bytes(ckpt)``."""
    pos = 48 + len(ckpt.stage.encode())  # magic .. tensor count
    offsets = []
    for name, arr in ckpt.params.named_tensors():
        pos += 4 + len(name) + 4 + 4 * arr.ndim
        offsets.extend(range(pos, pos + 8 * arr.size, 8))
        pos += 8 * arr.size
    return offsets


class TestCheckpoints:
    def make_checkpoint(self, variant=Variant.CTXYNET, seed=30):
        config = small_config(variant)
        return Checkpoint(
            config=config,
            params=init_params(config, seed),
            epoch=12,
            seed=77,
            stage="ctxynet",
        )

    def test_roundtrip_bit_exact(self, tmp_path):
        ckpt = self.make_checkpoint()
        path = tmp_path / "model.xatn"
        save_checkpoint(path, ckpt)
        first = path.read_bytes()
        loaded = load_checkpoint(path)
        save_checkpoint(path, loaded)
        assert path.read_bytes() == first
        assert loaded.epoch == 12 and loaded.seed == 77 and loaded.stage == "ctxynet"
        for (na, ta), (nb, tb) in zip(
            ckpt.params.named_tensors(), loaded.params.named_tensors()
        ):
            assert na == nb
            np.testing.assert_array_equal(ta, tb)

    def test_truncated_file_reports_offset(self, tmp_path):
        data = checkpoint_to_bytes(self.make_checkpoint())
        with pytest.raises(CheckpointFormatError) as err:
            checkpoint_from_bytes(data[: len(data) - 10])
        assert err.value.offset is not None

    def test_bad_magic(self):
        with pytest.raises(CheckpointFormatError):
            checkpoint_from_bytes(b"NOPE" + b"\x00" * 64)

    def test_trailing_garbage_rejected(self):
        data = checkpoint_to_bytes(self.make_checkpoint())
        with pytest.raises(CheckpointFormatError):
            checkpoint_from_bytes(data + b"\x00")

    def test_staged_upgrade_contract(self, tmp_path):
        # a base-variant checkpoint seeds the tag variant: shared tensors
        # copied, the tag head freshly initialized
        base_ckpt = self.make_checkpoint(variant=Variant.YNET)
        path = tmp_path / "ynet.xatn"
        save_checkpoint(path, base_ckpt)
        loaded = load_checkpoint(path)
        upgraded = init_params(small_config(Variant.TAGYNET), 99, base=loaded.params)
        np.testing.assert_array_equal(upgraded.trunk.weight, base_ckpt.params.trunk.weight)
        assert upgraded.tag_attn is not None

    def test_fingerprint_tracks_params_not_metadata(self):
        ckpt_a = self.make_checkpoint(seed=31)
        ckpt_b = Checkpoint(
            config=ckpt_a.config, params=ckpt_a.params, epoch=99, seed=1, stage="other"
        )
        assert params_fingerprint(ckpt_a.params) == params_fingerprint(ckpt_b.params)
        different = self.make_checkpoint(seed=32)
        assert params_fingerprint(ckpt_a.params) != params_fingerprint(different.params)
        assert len(params_fingerprint(ckpt_a.params)) == 32

    def test_stage_name_not_utf8(self):
        data = checkpoint_to_bytes(self.make_checkpoint())
        stage_at = data.index(b"ctxynet")
        bad = data[:stage_at] + b"\xff" + data[stage_at + 1 :]
        with pytest.raises(CheckpointFormatError, match="UTF-8") as err:
            checkpoint_from_bytes(bad)
        assert err.value.offset == stage_at

    def test_tensor_name_not_utf8(self):
        data = checkpoint_to_bytes(self.make_checkpoint())
        name_at = data.index(b"trunk.weight")
        bad = data[:name_at] + b"\xc3(" + data[name_at + 2 :]
        with pytest.raises(CheckpointFormatError, match="UTF-8") as err:
            checkpoint_from_bytes(bad)
        assert err.value.offset == name_at

    @pytest.mark.parametrize("dims", [(2**32 - 1, 2**32 - 1), (2**20, 2**20), (2**32 - 1,)])
    def test_huge_tensor_dims(self, dims):
        # (2**32 - 1)**2 wraps an int64 product; the claimed payload must
        # fail the length check instead.
        stage = b"ctxynet"
        data = b"".join(
            (
                CHECKPOINT_MAGIC,
                struct.pack("<I", 1),
                struct.pack("<5I", int(Variant.CTXYNET), 4, 3, 2, 3),
                struct.pack("<I", 0),
                struct.pack("<Q", 0),
                struct.pack("<I", len(stage)),
                stage,
                struct.pack("<I", 1),
                struct.pack("<I", 12),
                b"trunk.weight",
                struct.pack("<I", len(dims)),
                struct.pack(f"<{len(dims)}I", *dims),
                b"\x00" * 64,
            )
        )
        with pytest.raises(CheckpointFormatError, match="truncated"):
            checkpoint_from_bytes(data)

    @pytest.mark.parametrize("dims", [(2, 2**31, 2**31, 2**31, 0), (1,) * 70])
    def test_shape_numpy_cannot_hold(self, dims):
        data = checkpoint_to_bytes(self.make_checkpoint())
        name_at = data.index(b"trunk.weight") - 4
        frame = b"".join(
            (
                struct.pack("<I", 12),
                b"trunk.weight",
                struct.pack("<I", len(dims)),
                struct.pack(f"<{len(dims)}I", *dims),
                b"\x00" * 8 * math.prod(dims),
            )
        )
        with pytest.raises(CheckpointFormatError, match="numpy cannot hold") as err:
            checkpoint_from_bytes(data[:name_at] + frame)
        assert err.value.offset == name_at

    @pytest.mark.parametrize("field_at", [(12, "locations"), (16, "channels"), (20, "tag_count"), (24, "raw_dim")])
    def test_zero_config_dimension(self, field_at):
        offset, field_name = field_at
        data = bytearray(checkpoint_to_bytes(self.make_checkpoint()))
        data[offset : offset + 4] = struct.pack("<I", 0)
        with pytest.raises(CheckpointFormatError, match=f"{field_name} must be positive") as err:
            checkpoint_from_bytes(bytes(data))
        assert err.value.offset == offset

    def test_unexpected_tensor(self):
        # A base-variant file that also carries a tag head would load and
        # drop the head, so it could not be saved back to the same bytes.
        ckpt = self.make_checkpoint(variant=Variant.YNET)
        data = bytearray(checkpoint_to_bytes(ckpt))
        count_at = data.index(b"ctxynet") + len(b"ctxynet")
        data[count_at : count_at + 4] = struct.pack("<I", 7)
        name = b"tag_attn.embedding"
        name_at = len(data)
        data += struct.pack("<I", len(name)) + name + struct.pack("<3I", 2, 2, 3) + b"\0" * 48
        with pytest.raises(CheckpointFormatError, match="unexpected tensor 'tag_attn.embedding'") as err:
            checkpoint_from_bytes(bytes(data))
        assert err.value.offset == name_at

    def test_missing_tensor(self):
        # The tag head dropped from a tag-variant file, the count cut to match.
        ckpt = self.make_checkpoint(variant=Variant.TAGYNET)
        data = checkpoint_to_bytes(ckpt)
        count_at = data.index(b"ctxynet") + len(b"ctxynet")
        frame_at = data.index(b"tag_attn.embedding") - 4
        data = data[:count_at] + struct.pack("<I", 6) + data[count_at + 4 : frame_at]
        with pytest.raises(CheckpointFormatError, match="missing tensor 'tag_attn.embedding'") as err:
            checkpoint_from_bytes(data)
        assert err.value.offset == len(data)

    def test_mis_shaped_tensor(self):
        # trunk.bias stored as 1 x C: the payload size is right, the shape is not.
        ckpt = self.make_checkpoint()
        data = checkpoint_to_bytes(ckpt)
        name_at = data.index(b"trunk.bias") - 4
        c = ckpt.config.channels
        rank_at = name_at + 4 + len(b"trunk.bias")
        assert data[rank_at : rank_at + 8] == struct.pack("<2I", 1, c)
        data = data[:rank_at] + struct.pack("<3I", 2, 1, c) + data[rank_at + 8 :]
        with pytest.raises(CheckpointFormatError, match=rf"'trunk.bias' has shape \(1, {c}\), expected \({c},\)") as err:
            checkpoint_from_bytes(data)
        assert err.value.offset == name_at

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor(self, value):
        ckpt = self.make_checkpoint()
        ckpt.params.branch_user.bias[1] = value
        data = checkpoint_to_bytes(ckpt)
        at = data.index(b"branch_user.bias") + len(b"branch_user.bias") + 8 + 8
        with pytest.raises(CheckpointFormatError, match="'branch_user.bias' holds NaN") as err:
            checkpoint_from_bytes(data)
        assert err.value.offset == at

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_non_finite_payload_raises_format_error(self, data):
        config = small_config(locations=2, channels=2, raw_dim=2)
        ckpt = Checkpoint(config=config, params=init_params(config, 3), epoch=1, seed=2, stage="ctx")
        original = checkpoint_to_bytes(ckpt)
        offsets = payload_offsets(ckpt)
        damaged = data.draw(non_finite(original, offsets))
        at = next(o for o in offsets if damaged[o : o + 8] != original[o : o + 8])
        with pytest.raises(CheckpointFormatError, match="NaN or infinite") as err:
            checkpoint_from_bytes(damaged)
        assert err.value.offset == at

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_corrupted_bytes_load_or_raise_format_error(self, data):
        config = small_config(locations=2, channels=2, raw_dim=2)
        ckpt = Checkpoint(config=config, params=init_params(config, 3), epoch=1, seed=2, stage="ctx")
        damaged = data.draw(corrupted(checkpoint_to_bytes(ckpt)))
        try:
            loaded = checkpoint_from_bytes(damaged)
        except CheckpointFormatError as err:
            assert err.offset is not None and 0 <= err.offset <= len(damaged)
            return
        assert checkpoint_to_bytes(loaded) == damaged


def set_bits(tensor, bits):
    """Write the float64 with the given bit pattern into the first entry."""
    tensor.reshape(-1)[:1].view(np.uint64)[0] = bits


class TestFingerprintCache:
    """``params_fingerprint`` keeps its last digest on the params object;
    after every kind of change it must still equal a fresh hash."""

    def assert_fresh(self, params):
        got = params_fingerprint(params)
        assert got == reference_fingerprint(params)
        return got

    @pytest.mark.parametrize("variant", list(Variant))
    def test_one_ulp_edit_of_each_tensor(self, variant):
        params = init_params(small_config(variant), 40)
        seen = {self.assert_fresh(params)}
        for _, tensor in params.named_tensors():
            flat = tensor.reshape(-1)
            flat[-1] = np.nextafter(flat[-1], np.inf)
            seen.add(self.assert_fresh(params))
        assert len(seen) == 1 + len(list(params.named_tensors()))

    def test_signed_zero(self):
        params = init_params(small_config(), 41)
        params.trunk.bias[...] = 0.0
        before = self.assert_fresh(params)
        params.trunk.bias[1] = -0.0
        assert self.assert_fresh(params) != before

    def test_nan_payload_bits(self):
        params = init_params(small_config(), 42)
        set_bits(params.ctx_attn.context_weight, 0x7FF8_0000_0000_0001)
        before = self.assert_fresh(params)
        set_bits(params.ctx_attn.context_weight, 0x7FF8_0000_0000_0002)
        assert self.assert_fresh(params) != before

    def test_rebinding_heads(self):
        params = init_params(small_config(), 43)
        before = self.assert_fresh(params)
        params.tag_attn = TagAttentionParams(embedding=params.tag_attn.embedding + 1.0)
        after_tag = self.assert_fresh(params)
        params.ctx_attn = ContextAttentionParams(
            feature_weight=params.ctx_attn.feature_weight.copy(),
            context_weight=params.ctx_attn.context_weight * 2.0,
        )
        after_ctx = self.assert_fresh(params)
        assert len({before, after_tag, after_ctx}) == 3
        params.ctx_attn = None
        assert self.assert_fresh(params) not in {before, after_tag, after_ctx}

    def test_replacing_config(self):
        params = init_params(small_config(), 44)
        before = self.assert_fresh(params)
        params.config = dataclasses.replace(params.config)
        assert self.assert_fresh(params) == before
        params.config = dataclasses.replace(params.config, raw_dim=7)
        assert self.assert_fresh(params) != before

    def test_copy(self):
        params = init_params(small_config(), 45)
        before = self.assert_fresh(params)
        twin = params.copy()
        assert self.assert_fresh(twin) == before
        twin.trunk.weight[0, 0] += 1.0
        assert self.assert_fresh(twin) != before
        assert self.assert_fresh(params) == before

    def test_unchanged_params_are_hashed_once(self, monkeypatch):
        hashed = []

        class CountingHashlib:
            @staticmethod
            def sha256(data=b""):
                hashed.append(data)
                return hashlib.sha256(data)

        params = init_params(small_config(), 48)
        monkeypatch.setattr(model, "hashlib", CountingHashlib)
        first = params_fingerprint(params)
        assert [params_fingerprint(params) for _ in range(3)] == [first] * 3
        assert len(hashed) == 1
        params.branch_user.bias[0] += 1.0
        assert params_fingerprint(params) != first
        assert len(hashed) == 2

    def test_kept_out_of_repr_and_equality(self):
        params = init_params(small_config(Variant.YNET), 46)
        params_fingerprint(params)
        assert "_fingerprint" not in repr(params)
        assert "_fingerprint" not in [f.name for f in dataclasses.fields(params) if f.compare]

    @pytest.mark.parametrize("variant", list(Variant))
    def test_gradient_check_leaves_the_fingerprint(self, variant, monkeypatch):
        # The check moves every entry in place and puts it back; each
        # perturbed forward pass must see a fresh fingerprint too.
        inst = gradcheck.random_check_instance([47, int(variant)], variant=variant)
        before = self.assert_fresh(inst.params)
        forward = gradcheck.forward_triple
        perturbed = set()

        def checked_forward(*args):
            perturbed.add(self.assert_fresh(inst.params))
            return forward(*args)

        monkeypatch.setattr(gradcheck, "forward_triple", checked_forward)
        assert all(report.passed for report in gradcheck.check_triple_gradients(inst))
        assert before not in perturbed and len(perturbed) > 1
        assert self.assert_fresh(inst.params) == before
