import dataclasses
import hashlib
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xattn import model
from xattn.attention import TagVector, context_attend, context_factor
from xattn.model import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    CheckpointFormatError,
    ModelConfig,
    ModelParams,
    UnsupportedVariantError,
    Variant,
    backward_triple,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    embed_shop,
    embed_shops,
    extract_features,
    forward_triple,
    init_params,
    load_checkpoint,
    params_fingerprint,
    save_checkpoint,
    uniform_embedding,
)
from xattn.numeric import l2_normalize
from xattn.retrieval import FingerprintMismatchError, ShopItem, build_index, search
from xattn.training import sgd_step

import gradcheck
from gradcheck import with_tensors
from mutations import corrupted, non_finite
from oracles import (
    naive_affine_relu_affine,
    naive_l2_normalize,
    naive_shop_embedding,
    naive_tag_attend,
    out_of_place_features,
    reference_backward_triple,
    reference_fingerprint,
)


GOLDEN_CHECKPOINT = Path(__file__).parent / "data" / "v1.xatn"


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
    eye = np.eye(config.channels)
    values = {"trunk.weight": eye, "trunk.bias": 0.0}
    for domain in model.DOMAINS:
        values[f"branch_{domain}.weight"] = eye
        values[f"branch_{domain}.bias"] = 0.0
    return with_tensors(init_params(config, 0), values)


def attend(fmap, contexts, params):
    """``context_attend`` of ``fmap`` under a K x C stack of contexts, with
    the context factor formed as ``forward_triple`` forms it."""
    t = params.tensors
    weight = t["ctx_attn.context_weight"]
    return context_attend(
        fmap, contexts, t["ctx_attn.feature_weight"], weight, context_factor(weight, contexts)
    )


class TestConfigAndVariant:
    def test_variant_ordering(self):
        assert Variant.YNET < Variant.TAGYNET < Variant.CTXYNET

    def test_variant_aliases(self):
        assert Variant.parse("CtxYNet") is Variant.CTXYNET
        assert Variant.parse(" tagynet\n") is Variant.TAGYNET
        # Only the three stage names parse; "tag" and "ctx" are not names.
        for name in ("resnet", "tag", "ctx", ""):
            with pytest.raises(ValueError) as err:
                Variant.parse(name)
            assert str(err.value) == (
                f"unknown variant {name!r}; expected one of ('ynet', 'tagynet', 'ctxynet')"
            )
        for name in (1, None, b"ynet", Variant.YNET):
            with pytest.raises(ValueError, match=rf"^variant name must be a str, got {name!r}$"):
                Variant.parse(name)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("channels", 0),
            ("locations", -1),
            ("locations", 1.5),
            ("tag_count", "2"),
            ("raw_dim", 2**32),
            ("variant", 7),
            ("variant", 1),
            ("variant", "tagynet"),
        ],
    )
    def test_config_rejects_what_a_checkpoint_cannot_hold(self, field, value):
        # A checkpoint stores the variant and each dimension as a u32. The
        # config is only built: init_params would allocate what it names.
        fields = dict(locations=4, channels=3, tag_count=2, raw_dim=3, variant=Variant.CTXYNET)
        with pytest.raises(ValueError, match=rf"^{field} must be .*, got {value!r}$"):
            ModelConfig(**{**fields, field: value})

    def test_config_takes_the_largest_u32_dims(self):
        largest = ModelConfig(2**32 - 1, 2**32 - 1, 2**32 - 1, 2**32 - 1, Variant.YNET)
        assert model._config_frame(largest) == struct.pack("<5I", 0, *[2**32 - 1] * 4)


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
        np.testing.assert_array_equal(upgraded.tensors["trunk.weight"], base.tensors["trunk.weight"])
        np.testing.assert_array_equal(upgraded.tensors["branch_shop.weight"], base.tensors["branch_shop.weight"])
        assert "tag_attn.embedding" not in base.tensors
        assert np.any(upgraded.tensors["tag_attn.embedding"] != 0.0)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_equality_is_identity(self, variant):
        # Comparing the tensor dicts would ask numpy for the truth value
        # of an array, which raises.
        params = init_params(small_config(variant), 0)
        assert params == params
        assert (params == ModelParams(params.config, params.tensors)) is False
        assert (params != init_params(small_config(variant), 0)) is True

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
        params = with_tensors(
            init_params(config, 0), {"trunk.weight": 0.0, "trunk.bias": 0.0, "branch_user.bias": 0.0}
        )
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
            t = params.tensors
            for domain in model.DOMAINS:
                got = extract_features(raw, domain, params)
                want = naive_affine_relu_affine(
                    raw,
                    t["trunk.weight"],
                    t["trunk.bias"],
                    t[f"branch_{domain}.weight"],
                    t[f"branch_{domain}.bias"],
                )
                np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 3), (5, 4, 3)])
    @pytest.mark.parametrize("domain", model.DOMAINS)
    def test_equals_out_of_place_reference_bit_for_bit(self, shape, domain):
        params = init_params(small_config(), 12)
        raw = np.random.default_rng(13).normal(size=shape)
        raw[..., 0, :] = -0.0  # rows whose products are all signed zeros
        got_rows, got_hidden = model._trunk(raw, params)
        got_fmap = extract_features(raw, domain, params)
        rows, hidden, fmap = out_of_place_features(raw, params.tensors, domain)
        assert (got_hidden == 0.0).any() and (got_hidden > 0.0).any()
        for have, want in ((got_rows, rows), (got_hidden, hidden), (got_fmap, fmap)):
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
    def test_base_variant_pools_shops_uniformly(self):
        # YNet has no tag head: it pools every shop image uniformly, as it
        # was trained, and does not read the tags.
        params = with_tensors(init_params(small_config(Variant.YNET), 0), {"trunk.bias": 0.05})
        rng = np.random.default_rng(7)
        raws = rng.normal(size=(3, 4, 3))
        bits = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        got = embed_shops(raws, bits, params)
        assert got.tobytes() == embed_shops(raws, bits[::-1], params).tobytes()
        for row, raw, item_bits in zip(got, raws, bits):
            uniform = uniform_embedding(extract_features(raw, "shop", params))
            np.testing.assert_allclose(row, uniform, rtol=0, atol=1e-12)
            one = embed_shop(raw, TagVector(item_bits), params)
            np.testing.assert_allclose(one, uniform, rtol=0, atol=1e-12)

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
                params.tensors["trunk.weight"],
                params.tensors["trunk.bias"],
                params.tensors["branch_shop.weight"],
                params.tensors["branch_shop.bias"],
            )
            _, pooled = naive_tag_attend(features, bits.bits, params.tensors["tag_attn.embedding"])
            np.testing.assert_allclose(got, naive_l2_normalize(pooled), atol=1e-9)

    @given(
        variant=st.sampled_from([Variant.YNET, Variant.TAGYNET]),
        locations=st.integers(1, 5),
        channels=st.integers(1, 4),
        tags=st.integers(1, 3),
        raw_dim=st.integers(1, 4),
        batch=st.integers(1, 4),
        empty=st.booleans(),
        bias=st.sampled_from([0.0, 1.0, 100.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(Variant.TAGYNET, 1, 3, 2, 3, 3, False, 100.0, 1)  # L=1, b.e dominates
    @example(Variant.TAGYNET, 4, 3, 2, 3, 3, True, 100.0, 2)  # no tags
    @example(Variant.YNET, 1, 3, 2, 3, 2, False, 100.0, 3)
    @settings(max_examples=150, deadline=None)
    def test_shop_stacks_match_the_per_location_oracle(
        self, variant, locations, channels, tags, raw_dim, batch, empty, bias, seed
    ):
        # The oracle applies the shop branch at every location and pools the
        # branch outputs; the library pools the hidden maps and applies the
        # branch once per image.
        rng = np.random.default_rng(seed)
        params = init_params(small_config(variant, locations, channels, tags, raw_dim), rng)
        params = with_tensors(params, {"trunk.bias": 0.05})
        raws = rng.normal(size=(batch, locations, raw_dim))
        bits = rng.integers(0, 2, size=(batch, tags)).astype(np.float64)
        if empty:
            bits[...] = 0.0
        else:
            bits[0, rng.integers(tags)] = 1.0
        direction = rng.normal(size=channels)
        tagged = variant >= Variant.TAGYNET and not empty
        if tagged:
            # The bias lies along the first item's tag embedding e.
            direction = bits[0] @ params.tensors["tag_attn.embedding"]
        params = with_tensors(
            params, {"branch_shop.bias": bias * direction / np.linalg.norm(direction)}
        )
        if tagged and bias == 100.0:
            # b.e, which the library drops from the scores, dominates them.
            dropped = params.tensors["branch_shop.bias"] @ direction
            kept = extract_features(raws[0], "shop", params) @ direction - dropped
            assert dropped > 10.0 * np.abs(kept).max()
        # Without a tag head, the oracle pools uniformly.
        got = embed_shops(raws, bits, params)
        for row, raw, item_bits in zip(got, raws, bits):
            want = naive_shop_embedding(raw, item_bits, params)
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)

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
        params = with_tensors(
            init_params(config, 12), {"ctx_attn.feature_weight": 0.0, "ctx_attn.context_weight": 0.0}
        )
        raw = rng.normal(size=(4, 3))
        ctx = rng.normal(size=(1, 3))
        ctx /= np.linalg.norm(ctx)
        fmap = extract_features(raw, "user", params)
        np.testing.assert_allclose(
            l2_normalize(attend(fmap, ctx, params).pooled[0]),
            uniform_embedding(fmap),
            atol=1e-12,
        )

    def test_context_requires_ctx_head(self):
        params = init_params(small_config(Variant.TAGYNET), 0)
        with pytest.raises(UnsupportedVariantError):
            search(build_index([], params), np.zeros((4, 3)), params, use_rerank=True)

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(13)
        config = small_config()
        # positive biases keep the ReLU from zeroing an entire map, which
        # would legitimately trip the zero-vector normalization guard
        params = with_tensors(
            init_params(config, 14),
            {"trunk.bias": 0.05, "branch_shop.bias": 0.05, "branch_user.bias": 0.05},
        )
        for _ in range(100):
            raw = rng.normal(size=(4, 3))
            bits = TagVector(bits=rng.integers(0, 2, 2).astype(np.float64))
            ctx = embed_shop(raw, bits, params)
            for emb in (
                ctx,
                uniform_embedding(extract_features(raw, "user", params)),
                embed_shops(raw[None], np.zeros((1, 2)), params)[0],  # no tags: uniform
                l2_normalize(
                    attend(extract_features(raw, "user", params), ctx[None], params).pooled[0]
                ),
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
        np.testing.assert_array_equal(out.anchor_rows[0], out.anchor_rows[1])
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
        pos, neg = out.anchor_rows - out.shop_rows
        assert pos @ pos < 1e-12
        if neg @ neg >= 0.0:
            assert out.loss == 0.0

    def test_trunk_overflowing_to_inf_raises(self):
        # No per-layer check sees the inf features; the uniform-pooled
        # embeddings come out NaN and the loss refuses them.
        config = small_config(Variant.YNET)
        params = with_tensors(init_params(config, 21), {"trunk.weight": 1e308})
        rng = np.random.default_rng(22)
        raws = [np.abs(rng.normal(size=(4, 3))) + 1.0 for _ in range(3)]
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="L2-normalized"):
            forward_triple(*raws, None, None, params, 0.3)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_embeddings_equal_the_serving_forms(self, variant):
        # Training and serving run one forward pass, so they agree to the
        # bit at the desk shape and the paper's 7x7 grid at C=128, where
        # OpenBLAS gives a row of the trunk's product the same bits in
        # products of L, 2L and 3L rows. CI runs this under one BLAS thread
        # and under the default count. At L=4, C=128 the bits differ: a
        # product of fewer than 10 rows takes other bits there.
        rng = np.random.default_rng(27)
        for locations, channels in ((9, 16), (49, 128)):
            config = small_config(variant, locations, channels, tags=10, raw_dim=channels)
            params = init_params(config, 28)
            for _ in range(10):
                anchor, positive, negative = (
                    rng.normal(size=(locations, channels)) for _ in range(3)
                )
                bits = rng.integers(0, 2, size=(2, 10)).astype(np.float64)
                got = forward_triple(
                    anchor, positive, negative, TagVector(bits[0]), TagVector(bits[1]), params, 0.5
                )
                shops = np.stack([positive, negative])
                shop_rows = embed_shops(shops, bits, params)
                if variant >= Variant.CTXYNET:
                    fmap = extract_features(anchor, "user", params)
                    anchor_rows = l2_normalize(attend(fmap, shop_rows, params).pooled)
                else:
                    anchor_rows = [uniform_embedding(extract_features(anchor, "user", params))] * 2
                np.testing.assert_array_equal(got.shop_rows, shop_rows)
                np.testing.assert_array_equal(got.anchor_rows, anchor_rows)

    def test_the_three_maps_must_have_one_shape(self):
        # 3 + 5 + 4 locations fill a 3 x 4 stack; each map must be 4 x 3.
        params = init_params(small_config(Variant.YNET), 0)
        raws = [np.ones((n, 3)) for n in (3, 5, 4)]
        with pytest.raises(ValueError, match="one shape"):
            forward_triple(*raws, None, None, params, 0.5)
        with pytest.raises(ValueError, match="4 x 3"):
            forward_triple(*[np.ones((5, 3))] * 3, None, None, params, 0.5)

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
            assert grads == {}

    def test_gradients_cover_all_tensors(self):
        params = init_params(small_config(), 25)
        rng = np.random.default_rng(26)
        raws = [rng.normal(size=(4, 3)) for _ in range(3)]
        bits = TagVector.from_ids([1], 2)
        _, grads = backward_triple(*raws, bits, bits, params, 5.0)
        assert set(grads) == {name for name, _ in params.named_tensors()}

    @pytest.mark.parametrize("frozen_trunk", [False, True])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_the_dict_holds_exactly_the_trained_tensors(self, variant, frozen_trunk):
        params = init_params(small_config(variant), 27)
        rng = np.random.default_rng(28)
        anchor, shop, other = (rng.normal(size=(4, 3)) for _ in range(3))
        bits = TagVector.from_ids([1], 2)
        # Positive and negative are one image, so at margin 0 the hinge
        # argument is exactly 0: no gradients at all.
        loss, grads = backward_triple(
            anchor, shop, shop, bits, bits, params, 0.0, frozen_trunk=frozen_trunk
        )
        assert loss == 0.0 and grads == {}
        # Otherwise one array per trained tensor, of its shape: the trunk
        # only when it is not frozen.
        loss, grads = backward_triple(
            anchor, shop, other, bits, bits, params, 5.0, frozen_trunk=frozen_trunk
        )
        assert loss > 0.0
        trained = {
            name: tensor
            for name, tensor in params.named_tensors()
            if not (frozen_trunk and name.startswith("trunk."))
        }
        assert set(grads) == set(trained)
        for name, grad in grads.items():
            assert grad.shape == trained[name].shape

    @pytest.mark.parametrize("frozen_trunk", [False, True])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_same_bits_as_the_zero_filled_reference(self, variant, frozen_trunk):
        rng = np.random.default_rng(31 + int(variant))
        params = with_tensors(init_params(small_config(variant), 32), {"trunk.bias": 0.05})
        bits = [TagVector(bits=rng.integers(0, 2, 2).astype(np.float64)) for _ in range(2)]
        losses = []
        for alpha in np.linspace(0.0, 1.5, 12):
            raws = [rng.normal(size=(4, 3)) for _ in range(3)]
            args = (*raws, *bits, params, float(alpha))
            loss, grads = backward_triple(*args, frozen_trunk=frozen_trunk)
            want_loss, want = reference_backward_triple(*args, frozen_trunk=frozen_trunk)
            assert loss == want_loss
            assert set(grads) == set(want)
            for name in want:
                assert grads[name].tobytes() == want[name].tobytes(), name
            losses.append(loss)
        assert 0.0 in losses and max(losses) > 0.0

    @pytest.mark.parametrize("frozen_trunk", [False, True])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_one_trunk_pass_per_triple(self, variant, frozen_trunk, monkeypatch):
        # The anchor and both shops go through the trunk as one 3-stack.
        shapes = []
        trunk = model._trunk

        def counted(raw, params):
            shapes.append(np.shape(raw))
            return trunk(raw, params)

        monkeypatch.setattr(model, "_trunk", counted)
        params = init_params(small_config(variant), 34)
        rng = np.random.default_rng(35)
        raws = [rng.normal(size=(4, 3)) for _ in range(3)]
        bits = TagVector.from_ids([1], 2)
        loss, _ = backward_triple(*raws, bits, bits, params, 5.0, frozen_trunk=frozen_trunk)
        assert loss > 0.0
        assert shapes == [(3, 4, 3)]

    @pytest.mark.parametrize("variant", list(Variant))
    def test_frozen_trunk_leaves_only_the_trunk_gradients_out(self, variant):
        params = init_params(small_config(variant), 29)
        rng = np.random.default_rng(30)
        raws = [rng.normal(size=(4, 3)) for _ in range(3)]
        bits = TagVector.from_ids([1], 2)
        loss, grads = backward_triple(*raws, bits, bits, params, 5.0)
        frozen_loss, frozen = backward_triple(*raws, bits, bits, params, 5.0, frozen_trunk=True)
        assert frozen_loss == loss > 0.0
        for name, grad in grads.items():
            if name.startswith("trunk."):
                assert np.any(grad != 0.0)
                assert name not in frozen
            else:
                np.testing.assert_array_equal(frozen[name], grad)


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

    @pytest.mark.parametrize(
        "name, value, bits",
        [("epoch", -1, 32), ("epoch", 2**32, 32), ("epoch", 1.5, 32), ("seed", -1, 64), ("seed", 2**64, 64)],
    )
    def test_writer_names_a_header_field_out_of_range(self, tmp_path, name, value, bits):
        # The header holds the epoch as a u32 and the seed as a u64.
        ckpt = dataclasses.replace(self.make_checkpoint(), **{name: value})
        message = rf"checkpoint {name} must be an integer in \[0, 2\*\*{bits}\), got {value}"
        with pytest.raises(ValueError, match=message):
            checkpoint_to_bytes(ckpt)
        with pytest.raises(ValueError, match=message):
            save_checkpoint(tmp_path / "model.xatn", ckpt)
        assert not (tmp_path / "model.xatn").exists()
        edge = dataclasses.replace(self.make_checkpoint(), **{name: 2**bits - 1})
        assert getattr(checkpoint_from_bytes(checkpoint_to_bytes(edge)), name) == 2**bits - 1

    @pytest.mark.parametrize("change", [{"variant": Variant.TAGYNET}, {"raw_dim": 5}], ids=["variant", "raw_dim"])
    def test_writer_refuses_params_of_another_config(self, change):
        # The header is written from the config and the tensors from the
        # params, so a mismatch would save a file that does not load. Such a
        # checkpoint cannot be made, so the writer never sees one.
        ckpt = self.make_checkpoint(Variant.YNET)
        params = init_params(dataclasses.replace(ckpt.config, **change), 0)
        message = r"^checkpoint config .* differs from its params' config "
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(ckpt, params=params)
        with pytest.raises(ValueError, match=message):
            Checkpoint(ckpt.config, params, epoch=1, seed=2, stage="ynet")
        assert checkpoint_to_bytes(Checkpoint(params.config, params, 1, 2, "ynet"))

    def test_tensors_stored_in_any_order_load_in_layout_order(self):
        # The fingerprint and the saved bytes follow the tensor order, so a
        # loaded model holds the layout's order whatever the file's.
        ckpt = self.make_checkpoint()
        canonical = checkpoint_to_bytes(ckpt)
        head = 48 + len(ckpt.stage.encode())  # magic .. tensor count
        frames = [model._tensor_frame(name, arr) for name, arr in ckpt.params.named_tensors()]
        assert canonical == canonical[:head] + b"".join(frames)
        reordered = checkpoint_from_bytes(canonical[:head] + b"".join(reversed(frames)))
        layout = [name for name, _, _ in model._tensor_layout(ckpt.config)]
        assert [name for name, _ in reordered.params.named_tensors()] == layout
        assert params_fingerprint(reordered.params) == params_fingerprint(ckpt.params)
        assert checkpoint_to_bytes(reordered) == canonical

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
        np.testing.assert_array_equal(
            upgraded.tensors["trunk.weight"], base_ckpt.params.tensors["trunk.weight"]
        )
        assert "tag_attn.embedding" in upgraded.tensors

    def test_fingerprint_tracks_params_not_metadata(self):
        ckpt_a = self.make_checkpoint(seed=31)
        ckpt_b = Checkpoint(
            config=ckpt_a.config, params=ckpt_a.params, epoch=99, seed=1, stage="other"
        )
        assert params_fingerprint(ckpt_a.params) == params_fingerprint(ckpt_b.params)
        different = self.make_checkpoint(seed=32)
        assert params_fingerprint(ckpt_a.params) != params_fingerprint(different.params)
        assert len(params_fingerprint(ckpt_a.params)) == 32

    def test_stage_name_not_utf8(self, tmp_path):
        data = checkpoint_to_bytes(self.make_checkpoint())
        stage_at = data.index(b"ctxynet")
        bad = data[:stage_at] + b"\xff" + data[stage_at + 1 :]
        with pytest.raises(CheckpointFormatError, match="UTF-8") as err:
            checkpoint_from_bytes(bad)
        assert err.value.offset == stage_at
        # A lone surrogate has no UTF-8 form: the writer names the stage.
        ckpt = dataclasses.replace(self.make_checkpoint(), stage="y\udc80")
        message = r"^checkpoint stage 'y\\udc80' cannot be written as UTF-8$"
        with pytest.raises(ValueError, match=message):
            checkpoint_to_bytes(ckpt)
        with pytest.raises(ValueError, match=message):
            save_checkpoint(tmp_path / "model.xatn", ckpt)
        # A stage that is not a str at all makes no checkpoint to write.
        for stage in (5, b"ynet", None):
            message = rf"^checkpoint stage must be a str, got {re.escape(repr(stage))}$"
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(self.make_checkpoint(), stage=stage)
        assert list(tmp_path.iterdir()) == []

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
        message = rf"{field_name} must be an integer in \[1, 2\*\*32\), got 0"
        with pytest.raises(CheckpointFormatError, match=message) as err:
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
    def test_non_finite_tensor(self, tmp_path, value):
        ckpt = self.make_checkpoint()
        data = bytearray(checkpoint_to_bytes(ckpt))
        at = data.index(b"branch_user.bias") + len(b"branch_user.bias") + 8 + 8
        data[at : at + 8] = struct.pack("<d", value)
        with pytest.raises(CheckpointFormatError, match="'branch_user.bias' holds NaN") as err:
            checkpoint_from_bytes(bytes(data))
        assert err.value.offset == at
        # The writer refuses such a tensor, so it never writes such a file.
        bias = ckpt.params.tensors["branch_user.bias"].copy()
        bias[1] = value
        ckpt = dataclasses.replace(ckpt, params=with_tensors(ckpt.params, {"branch_user.bias": bias}))
        message = r"^tensor 'branch_user.bias' holds NaN or infinite values$"
        with pytest.raises(ValueError, match=message):
            checkpoint_to_bytes(ckpt)
        with pytest.raises(ValueError, match=message):
            save_checkpoint(tmp_path / "model.xatn", ckpt)
        assert list(tmp_path.iterdir()) == []

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
    """A copy of ``tensor`` with the float64 of the given bit pattern as its
    first entry."""
    out = np.array(tensor)
    out.reshape(-1)[:1].view(np.uint64)[0] = bits
    return out


@pytest.fixture
def hashed(monkeypatch):
    """The data each ``hashlib.sha256`` call in ``model`` starts from, one
    entry per call."""
    calls = []

    class CountingHashlib:
        @staticmethod
        def sha256(data=b""):
            calls.append(data)
            return hashlib.sha256(data)

    monkeypatch.setattr(model, "hashlib", CountingHashlib)
    return calls


def assert_fresh(params):
    """``params_fingerprint(params)``, checked against a fresh hash."""
    got = params_fingerprint(params)
    assert got == reference_fingerprint(params)
    return got


def loaded_params(tmp_path, variant=Variant.CTXYNET, seed=50, **dims):
    """``init_params`` of ``small_config(variant, **dims)`` at ``seed``,
    saved to a checkpoint and loaded back."""
    path = tmp_path / "model.xatn"
    config = small_config(variant, **dims)
    save_checkpoint(path, Checkpoint(config, init_params(config, seed), 1, seed, "ctxynet"))
    return load_checkpoint(path).params


def stepped(params):
    """``params`` after one ``sgd_step`` of every tensor."""
    grads = {name: np.ones_like(tensor) for name, tensor in params.named_tensors()}
    return sgd_step(params, grads, {}, lr=0.1, momentum=0.9)


class TestImmutableParams:
    """Params cannot change after they are made, however they were made."""

    def test_writes_and_writeable_are_refused(self, tmp_path):
        # numpy refuses every write to an array over bytes and refuses to
        # make it writeable, in every numpy pyproject.toml allows; the
        # mapping and the fields refuse rebinding.
        built = init_params(small_config(), 53)
        for params in (built, stepped(built), loaded_params(tmp_path)):
            digest = assert_fresh(params)
            tensor = params.tensors["trunk.weight"]
            with pytest.raises(ValueError, match="read-only"):
                tensor[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                tensor += 1.0
            for view in (tensor, tensor.T, tensor[1:], tensor.reshape(-1)):
                with pytest.raises(ValueError, match="WRITEABLE"):
                    view.flags.writeable = True
                with pytest.raises(ValueError, match="WRITEABLE"):
                    view.setflags(write=True)
            with pytest.raises(AttributeError):
                tensor.data = memoryview(bytearray(tensor.nbytes))
            with pytest.raises(TypeError):
                params.tensors["trunk.weight"] = np.zeros_like(tensor)
            with pytest.raises(TypeError):
                del params.tensors["ctx_attn.context_weight"]
            with pytest.raises(dataclasses.FrozenInstanceError):
                params.tensors = dict(params.tensors)
            with pytest.raises(dataclasses.FrozenInstanceError):
                params.config = dataclasses.replace(params.config, variant=Variant.TAGYNET)
            assert assert_fresh(params) == digest

    def test_a_memmap_or_writable_array_is_copied(self, tmp_path):
        # A read-only memmap's file can change underneath, and a writable
        # array can be written after the params are made: neither moves
        # the params or their digest.
        params = init_params(small_config(), 49)
        path = tmp_path / "bias.f8"
        writer = np.memmap(path, dtype="<f8", mode="w+", shape=(3,))
        writer[:] = 1.0
        writer.flush()
        mapped = np.memmap(path, dtype="<f8", mode="r", shape=(3,))
        plain = np.ones(3)
        for source, write in ((mapped, writer), (plain, plain)):
            built = ModelParams(params.config, {**params.tensors, "trunk.bias": source})
            before = assert_fresh(built)
            write[0] = 2.0
            if write is writer:
                writer.flush()
            assert source[0] == 2.0
            assert not np.shares_memory(built.tensors["trunk.bias"], source)
            np.testing.assert_array_equal(built.tensors["trunk.bias"], [1.0, 1.0, 1.0])
            assert assert_fresh(built) == before

    def test_a_mapping_off_the_layout_is_refused(self):
        # The constructor checks the names and the shapes against
        # _tensor_layout: an unexpected or mis-shaped tensor in the order
        # given, then a missing one, keyed by its name.
        config = small_config()
        tensors = dict(init_params(config, 55).tensors)

        def without(name):
            return {n: t for n, t in tensors.items() if n != name}

        for given, message in (
            (without("ctx_attn.context_weight"), "missing tensor 'ctx_attn.context_weight'"),
            (without("tag_attn.embedding"), "missing tensor 'tag_attn.embedding'"),
            ({**tensors, "extra": np.zeros(3)}, "unexpected tensor 'extra'"),
            (
                {**tensors, "trunk.bias": np.zeros((1, 3))},
                r"tensor 'trunk.bias' has shape \(1, 3\), expected \(3,\)",
            ),
            ({}, "missing tensor 'trunk.weight'"),
            # The tensor given first is reported first, before the missing one.
            ({"extra": 0, **without("trunk.weight")}, "unexpected tensor 'extra'"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$") as err:
                ModelParams(config, given)
            assert err.value.key == re.search("'(.*)'", message).group(1)
        # A smaller variant has no tensor for the heads.
        with pytest.raises(ValueError, match="^unexpected tensor 'tag_attn.embedding'$"):
            ModelParams(small_config(Variant.YNET), tensors)
        # A config that is not a ModelConfig is named, before any tensor.
        for bad in ("x", None, dataclasses.asdict(config)):
            with pytest.raises(ValueError, match="^params config must be a ModelConfig, got "):
                ModelParams(bad, {})
        # So are tensors that are not a mapping.
        for bad in (None, [("trunk.weight", 1)]):
            message = rf"^params tensors must be a mapping, got {re.escape(repr(bad))}$"
            with pytest.raises(ValueError, match=message):
                ModelParams(config, bad)
        # The tensors may come in any order; they are kept in the layout's.
        want = assert_fresh(init_params(config, 55))
        for given in (tensors, dict(reversed(tensors.items()))):
            params = ModelParams(config, given)
            assert list(params.tensors) == list(tensors)
            assert params_fingerprint(params) == want


class TestFingerprintCache:
    """``params_fingerprint`` hashes each params object once. Params that
    differ in any bit are other params, with a digest of their own."""

    @pytest.mark.parametrize("variant", list(Variant))
    def test_one_ulp_edit_of_each_tensor(self, variant):
        params = with_tensors(init_params(small_config(variant), 40), {"trunk.bias": 0.05})
        rng = np.random.default_rng(40)
        items = [
            ShopItem(i, i, rng.normal(size=(4, 3)), TagVector.from_ids([i % 2], 2)) for i in range(6)
        ]
        index = build_index(items, params)
        raw = rng.normal(size=(4, 3))
        seen = {assert_fresh(params)}
        for name, tensor in params.named_tensors():
            edited = np.array(tensor)
            flat = edited.reshape(-1)
            flat[-1] = np.nextafter(flat[-1], np.inf)
            other = with_tensors(params, {name: edited})
            seen.add(assert_fresh(other))
            with pytest.raises(FingerprintMismatchError):
                search(index, raw, other, use_rerank=False)
        assert len(seen) == 1 + len(params.tensors)
        assert len(search(index, raw, params, k=3, use_rerank=False)) == 3

    def test_signed_zero(self):
        params = with_tensors(init_params(small_config(), 41), {"trunk.bias": 0.0})
        before = assert_fresh(params)
        assert assert_fresh(with_tensors(params, {"trunk.bias": [0.0, -0.0, 0.0]})) != before

    def test_nan_payload_bits(self):
        params = init_params(small_config(), 42)
        weight = params.tensors["ctx_attn.context_weight"]
        first, second = (
            with_tensors(params, {"ctx_attn.context_weight": set_bits(weight, bits)})
            for bits in (0x7FF8_0000_0000_0001, 0x7FF8_0000_0000_0002)
        )
        assert assert_fresh(first) != assert_fresh(second)

    def test_rebinding_heads(self):
        # A head is changed by building params with another one.
        params = init_params(small_config(), 43)
        t = params.tensors
        before = assert_fresh(params)
        after_tag = assert_fresh(with_tensors(params, {"tag_attn.embedding": t["tag_attn.embedding"] + 1.0}))
        after_ctx = assert_fresh(
            with_tensors(
                params,
                {
                    "ctx_attn.feature_weight": t["ctx_attn.feature_weight"].copy(),
                    "ctx_attn.context_weight": t["ctx_attn.context_weight"] * 2.0,
                },
            )
        )
        assert len({before, after_tag, after_ctx}) == 3
        # Without the context head, the params are the tag variant's.
        tag = dataclasses.replace(params.config, variant=Variant.TAGYNET)
        headless = ModelParams(tag, {n: a for n, a in t.items() if not n.startswith("ctx_attn.")})
        assert assert_fresh(headless) not in {before, after_tag, after_ctx}

    def test_replacing_config(self):
        params = init_params(small_config(), 44)
        before = assert_fresh(params)
        same = dataclasses.replace(params, config=dataclasses.replace(params.config))
        assert assert_fresh(same) == before
        with pytest.raises(ValueError, match=r"^tensor 'trunk.weight' has shape \(3, 3\), expected \(3, 7\)$"):
            dataclasses.replace(params, config=dataclasses.replace(params.config, raw_dim=7))
        # The base variant's tensors do not depend on L or T; the config
        # frame still does.
        ynet = init_params(small_config(Variant.YNET), 44)
        for change in ({"locations": 5}, {"tag_count": 5}):
            other = ModelParams(dataclasses.replace(ynet.config, **change), ynet.tensors)
            assert assert_fresh(other) != assert_fresh(ynet)

    def test_copy(self):
        # A copy is params built from the same tensors: the same digest,
        # and memory of its own.
        params = init_params(small_config(), 45)
        before = assert_fresh(params)
        twin = ModelParams(params.config, params.tensors)
        assert assert_fresh(twin) == before
        for name, tensor in twin.named_tensors():
            assert not np.shares_memory(tensor, params.tensors[name]), name

    def test_unchanged_params_are_hashed_once(self, hashed):
        # Built and trained params alike: one hash per object, however
        # often it is asked for.
        built = init_params(small_config(), 48)
        for count, params in enumerate((built, stepped(built), stepped(stepped(built))), 1):
            first = params_fingerprint(params)
            assert [params_fingerprint(params) for _ in range(3)] == [first] * 3
            assert len(hashed) == count
            assert first == reference_fingerprint(params)
        params_fingerprint(built)
        assert len(hashed) == 3

    def test_kept_out_of_repr_and_equality(self):
        params = init_params(small_config(Variant.YNET), 46)
        params_fingerprint(params)
        assert "_digest" not in repr(params)
        assert "_digest" not in [f.name for f in dataclasses.fields(params) if f.compare]

    @pytest.mark.parametrize("variant", list(Variant))
    def test_gradient_check_leaves_the_fingerprint(self, variant, monkeypatch):
        # Each perturbed forward pass runs on params of its own, with a
        # digest of its own; the instance's params stay as they were.
        inst = gradcheck.random_check_instance([47, int(variant)], variant=variant)
        before = assert_fresh(inst.params)
        forward = gradcheck.forward_triple
        probes = []

        def checked_forward(*args):
            probes.append(args[5])
            return forward(*args)

        monkeypatch.setattr(gradcheck, "forward_triple", checked_forward)
        assert all(report.passed for report in gradcheck.check_triple_gradients(inst))
        perturbed = {assert_fresh(params) for params in probes}
        assert inst.params not in probes
        assert before not in perturbed and len(perturbed) == len(probes)
        assert assert_fresh(inst.params) == before


class TestLoadedTensors:
    """A loaded checkpoint's params are params like any other: each tensor
    lives in a ``bytes`` object of its own."""

    @pytest.mark.parametrize("source", ["golden", "saved"])
    def test_tensors_are_read_only_aligned_and_c_contiguous(self, source, tmp_path):
        if source == "golden":
            params = load_checkpoint(GOLDEN_CHECKPOINT).params
        else:
            params = loaded_params(tmp_path)
        for name, tensor in params.named_tensors():
            assert tensor.dtype == np.dtype("<f8"), name
            assert not tensor.flags.writeable, name
            assert tensor.flags.aligned and tensor.flags.c_contiguous, name
            owner = tensor
            while isinstance(owner, np.ndarray):
                owner = owner.base
            assert type(owner) is bytes, name

    def test_digest_equals_the_reference_and_the_copy(self, tmp_path):
        golden = load_checkpoint(GOLDEN_CHECKPOINT).params
        # The digest of the golden file, as every earlier version gave it.
        assert params_fingerprint(golden).hex() == (
            "7161ae25df172dbe40a3b75698e03cbede021ea83ae32552c840ae935f02be7b"
        )
        for params in (golden, loaded_params(tmp_path)):
            digest = assert_fresh(params)
            assert params_fingerprint(ModelParams(params.config, params.tensors)) == digest

    def test_unchanged_loaded_params_are_hashed_once(self, tmp_path, hashed):
        for count, params in enumerate((load_checkpoint(GOLDEN_CHECKPOINT).params, loaded_params(tmp_path)), 1):
            first = params_fingerprint(params)
            assert [params_fingerprint(params) for _ in range(3)] == [first] * 3
            assert len(hashed) == count
            # What is kept is the digest and each tensor's shape, strides
            # and dtype: no copy of any value.
            meta, digest = params._digest
            assert digest == first
            assert meta == tuple((t.shape, t.strides, t.dtype) for t in params.tensors.values())

    def test_rebinding_or_reshaping_a_loaded_tensor_leads_to_a_fresh_digest(self, tmp_path):
        params = loaded_params(tmp_path)
        seen = [assert_fresh(params)]
        weight = params.tensors["ctx_attn.context_weight"]
        with pytest.raises(TypeError):
            params.tensors["ctx_attn.context_weight"] = weight + 1.0
        assert assert_fresh(with_tensors(params, {"ctx_attn.context_weight": weight.copy()})) == seen[0]
        seen.append(assert_fresh(with_tensors(params, {"ctx_attn.context_weight": weight + 1.0})))
        assert assert_fresh(params) == seen[0]
        # numpy lets a read-only array's shape and dtype be reassigned.
        weight.shape = weight.shape[::-1]
        seen.append(assert_fresh(params))
        weight.shape = weight.shape[::-1]
        assert assert_fresh(params) == seen[0]
        params.tensors["trunk.weight"].dtype = ">f8"
        seen.append(assert_fresh(params))
        assert len(set(seen)) == 4

    def test_copies_and_upgrades_train(self, tmp_path):
        loaded = loaded_params(tmp_path, Variant.YNET)
        before = assert_fresh(loaded)
        for params in (loaded, init_params(small_config(Variant.TAGYNET), 51, base=loaded)):
            trained = stepped(params)
            assert params_fingerprint(trained) != params_fingerprint(params)
            np.testing.assert_array_equal(
                trained.tensors["trunk.bias"], loaded.tensors["trunk.bias"] - 0.1
            )
        assert assert_fresh(loaded) == before

    def test_a_loaded_model_serves_as_the_params_it_saved(self, tmp_path):
        dims = dict(locations=4, channels=5, tags=3, raw_dim=4)
        loaded = loaded_params(tmp_path, **dims)
        built = init_params(small_config(**dims), 50)
        rng = np.random.default_rng(52)
        items = [
            ShopItem(i, i % 7, rng.normal(size=(4, 4)), TagVector(rng.integers(0, 2, 3).astype(np.float64)))
            for i in range(30)
        ]
        indexes = [build_index(items, params) for params in (loaded, built)]
        assert indexes[0].fingerprint == indexes[1].fingerprint
        np.testing.assert_array_equal(indexes[0].embeddings, indexes[1].embeddings)
        for _ in range(5):
            raw = rng.normal(size=(4, 4))
            for k, rerank in ((3, False), (10, True)):
                got, want = (
                    search(index, raw, params, k=k, use_rerank=rerank)
                    for index, params in zip(indexes, (loaded, built))
                )
                np.testing.assert_array_equal(got.item_ids, want.item_ids)
                np.testing.assert_array_equal(got.distances.view(np.uint64), want.distances.view(np.uint64))
