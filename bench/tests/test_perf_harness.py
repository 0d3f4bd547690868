"""Tests of the benchmark harness itself: tiny smoke runs, the oracle
checks and the span arithmetic. Run with ``python -m pytest bench/tests``."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checkout  # noqa: E402

checkout.use_checkout_xattn()

import oracle  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402
from xattn import attention, dataio, model, numeric, retrieval, training  # noqa: E402

TINY_SPEC = dict(locations=4, channels=8, tag_count=3, raw_dim=8, signal_locations=1)
TINY = {
    "train-desk": dict(
        spec=dataio.SyntheticSpec(products=4, holdout_products=3, user_per_product=2, shop_per_product=1, **TINY_SPEC),
        train=training.TrainConfig(epochs={s: 1 for s in training.STAGES}, batch_size=4),
    ),
    "rerank-paper": dict(
        spec=dataio.SyntheticSpec(products=6, holdout_products=0, user_per_product=1, shop_per_product=2, **TINY_SPEC),
        k=5,
    ),
    "scan-large": dict(
        spec=dataio.SyntheticSpec(products=6, holdout_products=0, user_per_product=1, shop_per_product=2, **TINY_SPEC),
        k=3,
    ),
}


def tiny(name: str) -> workloads.Workload:
    return replace(workloads.WORKLOADS[name], setup_reps=2, **TINY[name])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(name, trace, tmp_path):
    result = workloads.run(tiny(name), seed=3, seconds=0.01, trace=trace, cache_root=tmp_path)
    assert result["correct"], result["detail"]["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert list(result["metrics"]) == list(table)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == table[metric][0]
        assert math.isfinite(entry["value"])
    json.dumps(result)
    if trace:
        calls = result["metrics"]["model.backward_triple.calls"]["value"]
        if name == "train-desk":
            users = 4 * 2
            assert calls == len(training.STAGES) * users
        else:
            assert calls == 0


def test_inputs_are_generated_once_per_seed(tmp_path):
    workload = tiny("scan-large")
    first = workloads.prepare_inputs(workload, 5, tmp_path)
    marker = first / "marker"
    marker.write_text("kept")
    assert workloads.prepare_inputs(workload, 5, tmp_path) == first
    assert marker.exists()
    assert workloads.prepare_inputs(workload, 6, tmp_path) != first


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _served(tmp_path, name):
    """A built index, params and dataset of a tiny serve workload."""
    workload = tiny(name)
    inputs = workloads.prepare_inputs(workload, 1, tmp_path)
    dataset = dataio.load_dataset(inputs / "data" / "train")
    params = model.load_checkpoint(inputs / "model.xatn").params
    index = retrieval.build_index(workloads.shop_items(dataset), params)
    return workload, dataset, params, index, workloads.reference_index(params, dataset)


@pytest.mark.parametrize("name", ["rerank-paper", "scan-large"])
def test_oracle_flags_a_swapped_ranking(name, tmp_path):
    workload, dataset, params, index, ref = _served(tmp_path, name)
    query = dataset.user_records()[0].item_id
    raw = dataset.features[query]
    ranked = retrieval.search(index, raw, params, k=workload.k, use_rerank=workload.use_rerank)
    assert oracle.check_search(ranked, ref, raw, workload.k, workload.use_rerank) is None

    swapped = list(ranked)
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    assert swapped[0].distance > swapped[-1].distance + oracle.TOL
    assert oracle.check_search(swapped, ref, raw, workload.k, workload.use_rerank) is not None


def test_oracle_flags_wrong_distances_and_pools():
    ids = np.array([10, 11, 12, 13])
    dists = np.array([0.5, 0.1, 0.3, 0.2])
    good = [(11, 0.1), (13, 0.2)]
    assert oracle.check_ranking(good, ids, dists, k=2) is None
    assert oracle.check_ranking([(11, 0.1), (12, 0.3)], ids, dists, k=2) is not None  # skips 13
    assert oracle.check_ranking([(11, 0.1), (13, 0.25)], ids, dists, k=2) is not None  # wrong distance
    assert oracle.check_ranking([(11, 0.1), (11, 0.1)], ids, dists, k=2) is not None  # repeat
    # Swaps within the tolerance are allowed.
    tied = np.array([0.1, 0.1 + oracle.TOL / 2])
    assert oracle.check_ranking([(2, tied[1]), (1, tied[0])], np.array([1, 2]), tied) is None


def test_precision_from_rankings_counts_hits_in_top_k():
    rankings = {1: [(100, 0.1), (101, 0.2)], 2: [(101, 0.1), (100, 0.2)], 3: [(100, 0.0)]}
    product_of = {100: 7, 101: 8}
    truth = {1: 8, 2: 8}  # query 3 has no ground truth and is not scored
    assert oracle.precision_from_rankings(rankings, truth, product_of, 1) == 0.5
    assert oracle.precision_from_rankings(rankings, truth, product_of, 2) == 1.0


def test_self_times_on_a_hand_built_tree():
    # 0: root [0, 10]; 1: child [1, 4]; 2: child [3, 6] overlaps 1;
    # 3: grandchild [1.5, 2] under 1; 4: child [9, 12] runs past the root.
    start = [0.0, 1.0, 3.0, 1.5, 9.0]
    end = [10.0, 4.0, 6.0, 2.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    got = spantrace.self_times(start, end, parent)
    # Root: covered by [1, 6] and [9, 10] -> 10 - 6 = 4.
    assert got == pytest.approx([4.0, 2.5, 3.0, 0.5, 3.0])


def test_tracer_rebinds_every_site_and_restores_them():
    original = numeric.softmax
    tracer = spantrace.Tracer()
    tracer.install()
    try:
        assert attention.softmax is numeric.softmax is not original
        params = model.init_params(model.ModelConfig(4, 3, 2, 3, model.Variant.TAGYNET), 0)
        model.embed_shop(np.ones((4, 3)), attention.TagVector.from_ids([1], 2), params)
        with tracer.paused():
            model.embed_shop(np.ones((4, 3)), attention.TagVector.from_ids([1], 2), params)
    finally:
        tracer.uninstall()
    assert attention.softmax is numeric.softmax is original
    stats = spantrace.SpanStats(tracer)
    assert stats.count("model.embed_shop") == 1
    assert stats.count("numeric.softmax") == 1
    attend = tracer.names.index("attention.tag_attend")
    [span] = [i for i, code in enumerate(tracer.name) if code == attend]
    assert tracer.names[tracer.name[tracer.parent[span]]] == "model.embed_shop"
    assert len(set(tracer.trace)) == 1  # one top-level call, one trace id


def test_tracer_skips_targets_the_package_lacks(monkeypatch):
    missing = (("xattn.model", "no_such_function"), ("xattn.attention", "NoSuchClass.method"), ("xattn.nowhere", "f"))
    monkeypatch.setattr(spantrace, "TARGETS", spantrace.TARGETS + missing)
    tracer = spantrace.Tracer()
    tracer.install()
    try:
        numeric.softmax(np.zeros(3))
    finally:
        tracer.uninstall()
    stats = spantrace.SpanStats(tracer)
    assert stats.count("numeric.softmax") == 1
    assert stats.count("model.no_such_function") == 0


def test_chunked_builds_check_every_build(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "BUILD_CHUNK", 2)
    ops = workloads.Operations()
    builds = workloads.ChunkedBuilds(tmp_path, ops, None)
    config = model.ModelConfig(4, 3, 2, 3, model.Variant.TAGYNET)
    params = model.init_params(config, 0)
    rng = np.random.default_rng(0)
    tags = attention.TagVector.from_ids([1], 2)
    items = [retrieval.ShopItem(i, 10 + i, rng.normal(size=(4, 3)), tags) for i in range(3)]
    builds.time_pass(items, params)
    builds.time_pass(items, params)
    assert len(builds.best) == 2 and builds.floor_s() > 0
    assert (ops.attempted, ops.failed) == (4, 0)

    def ref_of(p):
        numpy_model = oracle.NumpyModel(p)
        raws = np.stack([item.raw for item in items])
        embeddings = numpy_model.shop_embeddings(raws, np.stack([tags.bits] * len(items)))
        return oracle.ReferenceIndex(numpy_model, [0, 1, 2], [10, 11, 12], embeddings)

    query = rng.normal(size=(4, 3))
    builds.check_first(params, ref_of(params), query)
    assert (ops.attempted, ops.failed) == (6, 0)
    builds.check_first(params, ref_of(model.init_params(config, 1)), query)
    assert ops.failed == 2
    builds.time_pass(items, model.init_params(config, 1))
    assert ops.failed == 4
    builds.remove_files()
    assert list(tmp_path.iterdir()) == []
