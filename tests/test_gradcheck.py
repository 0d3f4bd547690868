import numpy as np

from xattn import model
from xattn.model import Variant, forward_triple

from gradcheck import (
    check_triple_gradients,
    hinge_gap,
    random_check_instance,
    run_gradient_checks,
)


class TestInstanceGeneration:
    def test_deterministic(self):
        a = random_check_instance([1, 0])
        b = random_check_instance([1, 0])
        np.testing.assert_array_equal(a.anchor_raw, b.anchor_raw)
        np.testing.assert_array_equal(
            a.params.tensors["trunk.weight"], b.params.tensors["trunk.weight"]
        )
        assert a.alpha == b.alpha

    def test_hinge_strictly_active(self):
        for trial in range(8):
            inst = random_check_instance([2, trial])
            out = forward_triple(
                inst.anchor_raw,
                inst.positive_raw,
                inst.negative_raw,
                inst.positive_tags,
                inst.negative_tags,
                inst.params,
                inst.alpha,
            )
            assert hinge_gap(out) + inst.alpha >= 0.2
            assert out.loss > 0.0


class TestGradientAgreement:
    def test_contextual_variant(self):
        inst = random_check_instance([3, 0], variant=Variant.CTXYNET)
        reports = check_triple_gradients(inst)
        names = {r.name for r in reports}
        assert "ctx_attn.context_weight" in names and "tag_attn.embedding" in names
        for report in reports:
            assert report.passed, f"{report.name}: rel={report.max_rel_err:.3e}"

    def test_tag_variant(self):
        inst = random_check_instance([3, 1], variant=Variant.TAGYNET)
        for report in check_triple_gradients(inst):
            assert report.passed, f"{report.name}: rel={report.max_rel_err:.3e}"

    def test_base_variant(self):
        inst = random_check_instance([3, 2], variant=Variant.YNET)
        reports = check_triple_gradients(inst)
        assert {r.name for r in reports} == {
            "trunk.weight",
            "trunk.bias",
            "branch_shop.weight",
            "branch_shop.bias",
            "branch_user.weight",
            "branch_user.bias",
        }
        for report in reports:
            assert report.passed, f"{report.name}: rel={report.max_rel_err:.3e}"

    def test_batch_of_trials(self):
        reports = run_gradient_checks(trials=6, seed=123)
        assert len(reports) == 6
        variants = {r.variant for r in reports}
        assert variants == {Variant.YNET, Variant.TAGYNET, Variant.CTXYNET}
        for trial in reports:
            assert trial.passed

    def test_contextual_trials_run_the_factor_form(self, monkeypatch):
        # Every CtxYNet forward, the differenced ones included, pools under
        # the K=2 factor of its two shop rows, made by context_factor.
        made = []
        real = model.context_factor

        def counted(context_weight, contexts):
            made.append(contexts.shape)
            return real(context_weight, contexts)

        monkeypatch.setattr(model, "context_factor", counted)
        reports = [r for r in run_gradient_checks(trials=6, seed=124) if r.variant == Variant.CTXYNET]
        assert len(reports) == 2 and all(trial.passed for trial in reports)
        assert made and set(made) == {(2, made[0][1])}
