"""The benchmark's workloads and the runs that measure them.

``train-desk`` trains the three-stage curriculum on the default synthetic
spec, then evaluates on its holdout split. ``rerank-paper`` and
``scan-large`` serve queries from an index built by a model at seeded
initialization, one closed-loop client, one ``search()`` call at a time.
Inputs are generated once per (spec, seed) by ``gen.py`` in a child
process and cached, so generation is never timed and its memory never
counts towards ``peak_rss_mb``. Neither does the oracle's: outputs are
checked against it only after the peak resident set has been read.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
import numpy as np

from xattn import dataio, model, retrieval, training

import gen
import oracle
import spantrace

HERE = Path(__file__).resolve().parent

# Generated inputs kept per workload; older entries are deleted.
CACHE_ENTRIES_PER_WORKLOAD = 3

P_AT = (1, 5, 20)

# Shop items per timed build_index call. A whole serve build takes 0.1-0.2 s,
# and the machine's other tenants interrupt nearly every stretch that long:
# the fastest of 54 whole builds in a run moved by 30% (quartile spread over
# ten runs) on scan-large. A call on 200 items takes a few milliseconds and
# often runs uninterrupted.
BUILD_CHUNK = 200

# Timed passes over all chunks per evaluation pass (train) and per set-up
# (serve). A holdout build (one chunk) takes about a millisecond.
BUILD_PASSES_PER_EVAL = 50
BUILD_PASSES_PER_SETUP = 5

# Serve workloads: the timed search loop runs for the run's seconds and at
# least this many calls, so that p95 has ten samples above it.
MIN_SEARCHES = 200

# Train workloads: curriculum repetitions with one seed.
TRAIN_REPS = 6

# Shop items the oracle embeds at once: keeps its intermediates to a few MB.
REFERENCE_CHUNK = 64

# A failing search() returns at once; stop the loop after this many rather
# than fill memory with failures until the deadline.
MAX_SEARCH_FAILURES = 100


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dataio.SyntheticSpec
    # Serve workloads: variant of the seeded-init checkpoint the inputs carry.
    variant: str | None
    # Train workloads: the curriculum's config; the seed is set per run.
    train: training.TrainConfig | None
    k: int
    use_rerank: bool
    setup_reps: int = 9


WORKLOADS: dict[str, Workload] = {
    # Only workload with backward, SGD and triple sampling; tiny matrices,
    # so per-call Python overhead dominates. Also the quality guard.
    "train-desk": Workload(
        name="train-desk",
        spec=dataio.SyntheticSpec(),
        variant=None,
        train=training.TrainConfig(),
        k=retrieval.DEFAULT_TOP_K,
        use_rerank=True,
        setup_reps=28,
    ),
    # K=256 context re-rank per query on a paper-shaped 7x7 grid: the
    # re-rank dominates and the forward pass is BLAS-bound.
    "rerank-paper": Workload(
        name="rerank-paper",
        spec=dataio.SyntheticSpec(
            products=500, holdout_products=0, user_per_product=1, shop_per_product=2,
            locations=49, channels=128, tag_count=16, raw_dim=128, signal_locations=7,
        ),
        variant="ctxynet",
        train=None,
        k=retrieval.DEFAULT_TOP_K,
        use_rerank=True,
    ),
    # 4000 indexed items on a 2x2 grid, scan only: the exhaustive scan and
    # the index build dominate; the re-rank and training never run.
    "scan-large": Workload(
        name="scan-large",
        spec=dataio.SyntheticSpec(
            products=2000, holdout_products=0, user_per_product=1, shop_per_product=2,
            locations=4, channels=128, tag_count=16, raw_dim=128,
        ),
        variant="tagynet",
        train=None,
        k=20,
        use_rerank=False,
    ),
}

# name -> (unit, better); the order BENCHMARK.json lists them in.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "index_build_items_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER: dict[str, tuple[str, str]] = {
    "training.stage.ynet.triples_per_s": ("1/s", "higher"),
    "training.stage.tagynet.triples_per_s": ("1/s", "higher"),
    "training.stage.ctxynet.triples_per_s": ("1/s", "higher"),
    "training.sample_triples.self_ms": ("ms", "lower"),
    "training.sgd_step.calls": ("count", "lower"),
    "training.sgd_step.self_ms": ("ms", "lower"),
    "model.backward_triple.calls": ("count", "lower"),
    "model.backward_triple.self_ms": ("ms", "lower"),
    "attention.tag_attend_backward.calls": ("count", "lower"),
    "attention.tag_attend_backward.self_ms": ("ms", "lower"),
    "attention.context_attend_backward.calls": ("count", "lower"),
    "attention.context_attend_backward.self_ms": ("ms", "lower"),
    "numeric.l2_normalize_backward.self_ms": ("ms", "lower"),
    "metric.triplet_loss_backward.self_ms": ("ms", "lower"),
    "dataio.Dataset.tag_vector.self_ms": ("ms", "lower"),
    "metric.hinge_active_ratio": ("ratio", "higher"),
    "model.extract_features.calls": ("count", "lower"),
    "model.extract_features.self_ms": ("ms", "lower"),
    "attention.FeatureMap.constructions": ("count", "lower"),
    "numeric.softmax.calls": ("count", "lower"),
    "numeric.softmax.self_ms": ("ms", "lower"),
    "numeric.l2_normalize.calls": ("count", "lower"),
    "numeric.l2_normalize.self_ms": ("ms", "lower"),
    "model.embed_user_context.calls": ("count", "lower"),
    "model.embed_user_context.self_ms": ("ms", "lower"),
    "attention.context_attend.calls": ("count", "lower"),
    "attention.context_attend.self_ms": ("ms", "lower"),
    "metric.distance.calls": ("count", "lower"),
    "retrieval.rerank.p50_ms": ("ms", "lower"),
    "retrieval.rerank.p95_ms": ("ms", "lower"),
    "retrieval.initial_search.p50_ms": ("ms", "lower"),
    "retrieval.initial_search.p95_ms": ("ms", "lower"),
    "model.embed_user_simple.self_ms": ("ms", "lower"),
    "model.params_fingerprint.calls": ("count", "lower"),
    "model.params_fingerprint.self_ms": ("ms", "lower"),
    "retrieval.build_index.s": ("s", "lower"),
    "model.embed_shop.calls": ("count", "lower"),
    "model.embed_shop.self_ms": ("ms", "lower"),
    "attention.tag_attend.calls": ("count", "lower"),
    "attention.tag_attend.self_ms": ("ms", "lower"),
    "dataio.load_dataset.s": ("s", "lower"),
    "dataio.load_feature_map.calls": ("count", "lower"),
    "model.load_checkpoint.s": ("s", "lower"),
    "retrieval.save_index.s": ("s", "lower"),
    "retrieval.load_index.s": ("s", "lower"),
    "retrieval.search.calls": ("count", "higher"),
    "retrieval.search.p50_ms": ("ms", "lower"),
    "retrieval.search.p95_ms": ("ms", "lower"),
    "retrieval.candidate_recall": ("ratio", "higher"),
    "retrieval.p_at_1": ("ratio", "higher"),
    "retrieval.p_at_5": ("ratio", "higher"),
    "retrieval.p_at_20": ("ratio", "higher"),
    # End-to-end numbers of the traced run; minus those of an untraced run
    # with the same seed, they are the tracing overhead.
    "traced.setup_s": ("s", "lower"),
    "traced.throughput_per_s": ("1/s", "higher"),
}


class Operations:
    """Attempted and failed operations (setup builds, stages, queries, checks)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {problem}")


@dataclass
class Outcome:
    """What one run measured, before it is reduced to the reported metrics."""

    ops: Operations
    setup_s: list[float]
    build_floor_s: float
    items: int
    throughput_per_s: float
    search_s: list[float]
    # Read once the timed work is over and before the oracle runs.
    peak_rss_mb: float
    rankings: dict[int, list]
    truth: dict[int, int]
    product_of: dict[int, int]
    detail: dict = field(default_factory=dict)
    # Train workloads: triples per curriculum stage, and the rate of the one
    # traced curriculum.
    stage_triples: dict[str, int] = field(default_factory=dict)
    traced_throughput_per_s: float | None = None


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def prepare_inputs(workload: Workload, seed: int, cache_root: Path) -> Path:
    """Directory holding the workload's inputs for ``seed``, generating it
    in a child process on first use."""
    spec = replace(workload.spec, seed=seed)
    spec_json = json.dumps(asdict(spec), sort_keys=True)
    key = hashlib.sha256(f"{spec_json}|{workload.variant}".encode()).hexdigest()[:12]
    final = cache_root / f"{workload.name}-{seed}-{key}"
    if final.is_dir():
        os.utime(final)
        return final
    cache_root.mkdir(parents=True, exist_ok=True)
    partial = cache_root / f".{final.name}.{os.getpid()}"
    shutil.rmtree(partial, ignore_errors=True)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), str(partial), spec_json, workload.variant or "none"],
            check=True,
            timeout=600,
        )
        partial.rename(final)
    finally:
        shutil.rmtree(partial, ignore_errors=True)
    entries = sorted(cache_root.glob(f"{workload.name}-*"), key=lambda p: p.stat().st_mtime)
    for stale in entries[:-CACHE_ENTRIES_PER_WORKLOAD]:
        shutil.rmtree(stale, ignore_errors=True)
    return final


def shop_items(dataset: dataio.Dataset) -> list[retrieval.ShopItem]:
    return [
        retrieval.ShopItem(r.item_id, r.product_id, dataset.features[r.item_id], dataset.tag_vector(r))
        for r in dataset.shop_records()
    ]


def reference_index(params, dataset: dataio.Dataset) -> oracle.ReferenceIndex:
    shops = sorted(dataset.shop_records(), key=lambda r: r.item_id)
    ref_model = oracle.NumpyModel(params)
    embeddings = []
    for lo in range(0, len(shops), REFERENCE_CHUNK):
        chunk = shops[lo : lo + REFERENCE_CHUNK]
        bits = np.zeros((len(chunk), dataset.tag_count))
        for row, record in enumerate(chunk):
            bits[row, list(record.tag_ids)] = 1.0
        raws = np.stack([dataset.features[r.item_id] for r in chunk])
        embeddings.append(ref_model.shop_embeddings(raws, bits))
    return oracle.ReferenceIndex(
        ref_model, [r.item_id for r in shops], [r.product_id for r in shops], np.concatenate(embeddings)
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# timed phases
# ---------------------------------------------------------------------------


class SearchClient:
    """One closed-loop client: the next search() starts when the last ends.

    Queries cycle through the user images in a seeded order. A repeated
    query must return what it returned the first time; first results are
    checked against the oracle once the timing is over.
    """

    def __init__(self, workload: Workload, dataset: dataio.Dataset, seed: int, ops: Operations) -> None:
        self.workload, self.dataset, self.ops = workload, dataset, ops
        self.queries = list(dataset.user_records())
        np.random.default_rng([seed, 1]).shuffle(self.queries)
        self.latencies: list[float] = []
        self.first: dict[int, list] = {}
        self.failures = 0
        self._next = 0

    @property
    def failing(self) -> bool:
        return self.failures >= MAX_SEARCH_FAILURES

    def search(self, index, params) -> None:
        query = self.queries[self._next % len(self.queries)]
        self._next += 1
        w = self.workload
        t0 = time.perf_counter()
        try:
            ranked = retrieval.search(index, self.dataset.features[query.item_id], params, k=w.k, use_rerank=w.use_rerank)
        except Exception:  # a failed query is counted, and the loop goes on
            self.ops.record(f"query {query.item_id}", traceback.format_exc(limit=3))
            self.failures += 1
            return
        self.latencies.append(time.perf_counter() - t0)
        earlier = self.first.setdefault(query.item_id, ranked)
        if earlier is not ranked:
            self.ops.record(f"query {query.item_id}", None if ranked == earlier else "differs from its first result")

    def check_first_results(self, ref: oracle.ReferenceIndex) -> None:
        w = self.workload
        for query_id, ranked in self.first.items():
            raw = self.dataset.features[query_id]
            self.ops.record(f"query {query_id}", oracle.check_search(ranked, ref, raw, w.k, w.use_rerank))


class _EpochClock:
    """``run_curriculum``'s ``metrics_out``: it gets one line per epoch, and
    the time each line arrives ends that epoch."""

    def __init__(self) -> None:
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        self.stamps.extend([time.perf_counter()] * text.count("\n"))
        return len(text)


class ChunkedBuilds:
    """Times ``build_index`` on fixed chunks of a run's shop items.

    Each chunk is one whole ``build_index`` call, so its timing means the
    same whatever the call does inside. The floor of a build is the sum of
    each chunk's fastest call. Every build of a chunk must save to the same
    bytes as its first; once the timed work is over, ``check_first`` checks
    the first against the oracle.
    """

    def __init__(self, directory: Path, ops: Operations, tracer) -> None:
        self.directory, self.ops, self.tracer = directory, ops, tracer
        self.best: list[float] = []
        self.digests: list[bytes] = []
        self.spare = directory / f"chunk.{os.getpid()}.xidx"

    def _first(self, n: int) -> Path:
        return self.directory / f"chunk.{os.getpid()}.{n}.xidx"

    def time_pass(self, items, params) -> None:
        """Build every chunk once, untraced."""
        ordered = sorted(items, key=lambda item: item.item_id)
        with _paused(self.tracer):
            for n, lo in enumerate(range(0, len(ordered), BUILD_CHUNK)):
                t0 = time.perf_counter()
                index = retrieval.build_index(ordered[lo : lo + BUILD_CHUNK], params)
                elapsed = time.perf_counter() - t0
                first = n == len(self.best)
                path = self._first(n) if first else self.spare
                retrieval.save_index(path, index)
                digest = hashlib.sha256(path.read_bytes()).digest()
                if first:
                    self.best.append(elapsed)
                    self.digests.append(digest)
                self.best[n] = min(self.best[n], elapsed)
                self.ops.record(f"build_index chunk {n}", None if digest == self.digests[n] else "saves to other bytes than its first build")

    def floor_s(self) -> float:
        return sum(self.best)

    def check_first(self, params, ref: oracle.ReferenceIndex, query_raw: np.ndarray) -> None:
        """Scan each chunk's first build for one query; every distance must
        match the oracle. ``ref`` holds the same items as the builds."""
        cfg = params.config
        with _paused(self.tracer):
            for n in range(len(self.best)):
                rows = slice(n * BUILD_CHUNK, (n + 1) * BUILD_CHUNK)
                part = oracle.ReferenceIndex(ref.model, ref.item_ids[rows], ref.product_ids[rows], ref.embeddings[rows])
                index = retrieval.load_index(self._first(n), cfg.channels, cfg.tag_count)
                ranked = retrieval.search(index, query_raw, params, k=len(part.item_ids), use_rerank=False)
                problem = oracle.check_search(ranked, part, query_raw, len(part.item_ids), rerank=False)
                self.ops.record(f"build_index chunk {n}", problem)

    def remove_files(self) -> None:
        for n in range(len(self.best)):
            self._first(n).unlink(missing_ok=True)
        self.spare.unlink(missing_ok=True)


def _paused(tracer):
    return tracer.paused() if tracer is not None else nullcontext()


def run_serve(workload: Workload, inputs: Path, seed: int, seconds: float, tracer) -> Outcome:
    """Set up as a user's index-then-eval flow does, then serve queries.

    The set-up is repeated ``setup_reps`` times: once before the first query
    and then at even intervals through the timed loop, so that set-up and
    build timings sample the whole run rather than its first seconds.
    """
    ops = Operations()
    index_path = inputs / f"index.{os.getpid()}.xidx"
    builds = ChunkedBuilds(inputs, ops, tracer)
    setup_s: list[float] = []
    saved: list[bytes] = []

    def setup():
        t0 = time.perf_counter()
        dataset = dataio.load_dataset(inputs / gen.DATA_DIR / "train")
        ckpt = model.load_checkpoint(inputs / gen.CHECKPOINT_NAME)
        items = shop_items(dataset)
        retrieval.save_index(index_path, retrieval.build_index(items, ckpt.params))
        index = retrieval.load_index(index_path, ckpt.config.channels, ckpt.config.tag_count)
        setup_s.append(time.perf_counter() - t0)
        # The first set-up's index is checked through the searches on it.
        digest = hashlib.sha256(index_path.read_bytes()).digest()
        if not saved:
            saved.append(digest)
        ops.record("set-up index", None if digest == saved[0] else "saves to other bytes than the first set-up's")
        for _ in range(BUILD_PASSES_PER_SETUP):
            builds.time_pass(items, ckpt.params)
        return dataset, ckpt.params, index

    try:
        dataset, params, index = setup()
        client = SearchClient(workload, dataset, seed, ops)
        with _paused(tracer):
            retrieval.search(index, client.dataset.features[client.queries[-1].item_id], params,
                             k=workload.k, use_rerank=workload.use_rerank)
        begin = time.perf_counter()
        every = seconds / workload.setup_reps
        next_setup = begin + every
        while (time.perf_counter() < begin + seconds or len(client.latencies) < MIN_SEARCHES) and not client.failing:
            if len(setup_s) < workload.setup_reps and time.perf_counter() >= next_setup:
                # Let go of the last set-up's dataset and index first: a
                # user's flow holds one of each.
                client.dataset = dataset = params = index = None
                dataset, params, index = setup()
                client.dataset = dataset
                next_setup += every
            client.search(index, params)
        peak_mb = peak_rss_mb()
        ref = reference_index(params, dataset)
        client.check_first_results(ref)
        builds.check_first(params, ref, dataset.features[client.queries[0].item_id])
    finally:
        index_path.unlink(missing_ok=True)
        builds.remove_files()
    return Outcome(
        ops=ops,
        setup_s=setup_s,
        build_floor_s=builds.floor_s(),
        items=len(ref.item_ids),
        throughput_per_s=1.0 / min(client.latencies),
        search_s=client.latencies,
        peak_rss_mb=peak_mb,
        rankings=client.first,
        truth=dict(dataset.ground_truth or {}),
        product_of=ref.product_of,
    )


def _same_params(a, b) -> bool:
    return all(np.array_equal(x, y) for (_, x), (_, y) in zip(a.named_tensors(), b.named_tensors()))


def run_train(workload: Workload, inputs: Path, seed: int, seconds: float, tracer) -> Outcome:
    """Train the curriculum ``TRAIN_REPS`` times with one seed, each followed
    by holdout evaluation passes.

    The repetitions do identical work, so their epochs line up, and each
    epoch is credited with its fastest timing. Only the first repetition is
    traced.
    """
    ops = Operations()
    setup_s = []

    def setup(reps: int):
        # Set-up repeats in blocks, one before training and one after each
        # curriculum run, so that its median samples the whole run.
        for _ in range(reps):
            t0 = time.perf_counter()
            splits = [dataio.load_dataset(inputs / gen.DATA_DIR / name) for name in ("train", "holdout")]
            setup_s.append(time.perf_counter() - t0)
        return splits

    block = max(1, workload.setup_reps // (TRAIN_REPS + 1))
    train, holdout = setup(block)

    spec = replace(workload.spec, seed=seed)
    cfg = replace(workload.train, seed=seed)
    base = model.ModelConfig(spec.locations, spec.channels, spec.tag_count, spec.raw_dim, model.Variant.YNET)
    with _paused(tracer):
        warm = model.init_params(replace(base, variant=model.Variant.CTXYNET), seed)
        anchor, shop = train.user_records()[0], train.shop_records()[0]
        model.backward_triple(
            train.features[anchor.item_id], train.features[shop.item_id], train.features[shop.item_id],
            train.tag_vector(shop), train.tag_vector(shop), warm, cfg.margins["ctxynet"],
        )

    users = len(train.user_records())
    stage_triples = {stage: cfg.epochs[stage] * users for stage in training.STAGES}
    epochs = sum(cfg.epochs[s] for s in training.STAGES)
    triples = sum(stage_triples.values())
    items = shop_items(holdout)
    client = SearchClient(workload, holdout, seed, ops)
    builds = ChunkedBuilds(inputs, ops, tracer)
    epoch_s, wall_s = [], []
    params = None
    begin = time.perf_counter()
    try:
        for rep in range(TRAIN_REPS):
            clock = _EpochClock()
            with _paused(tracer) if rep else nullcontext():
                t0 = time.perf_counter()
                stages = training.run_curriculum(train, training.STAGES, cfg, base, metrics_out=clock)
                wall_s.append(time.perf_counter() - t0)
            if len(clock.stamps) != epochs:
                raise RuntimeError(f"run_curriculum wrote {len(clock.stamps)} epoch lines, expected {epochs}")
            epoch_s.append(np.diff([t0] + clock.stamps))
            for stage, (_, curve) in zip(training.STAGES, stages):
                finite = len(curve) == cfg.epochs[stage] and bool(np.all(np.isfinite(curve)))
                ops.record(f"stage {stage}", None if finite else f"loss curve {curve} is not {cfg.epochs[stage]} finite values")
            if params is None:
                params = stages[-1][0].params
            else:
                ops.record("repeat curriculum", None if _same_params(params, stages[-1][0].params) else "differs from the first run")

            setup(block)
            # Evaluation passes, each over all holdout queries with a freshly
            # built index, fill the run up to its share of the seconds.
            deadline = begin + seconds * (rep + 1) / TRAIN_REPS
            while not client.failing:
                for _ in range(BUILD_PASSES_PER_EVAL):
                    builds.time_pass(items, params)
                index = retrieval.build_index(items, params)
                for _ in client.queries:
                    client.search(index, params)
                if time.perf_counter() >= deadline:
                    break
        peak_mb = peak_rss_mb()
        ref = reference_index(params, holdout)
        client.check_first_results(ref)
        builds.check_first(params, ref, holdout.features[client.queries[0].item_id])
    finally:
        builds.remove_files()

    truth = dict(holdout.ground_truth or {})
    for k in P_AT:
        theirs = retrieval.precision_at_k(client.first, truth, index, k)
        mine = oracle.precision_from_rankings(client.first, truth, ref.product_of, k)
        ops.record(f"P@{k}", None if mine == theirs else f"precision_at_k gave {theirs}, rankings give {mine}")
    return Outcome(
        ops=ops,
        setup_s=setup_s,
        build_floor_s=builds.floor_s(),
        items=len(items),
        throughput_per_s=triples / float(np.sum(np.min(epoch_s, axis=0))),
        search_s=client.latencies,
        peak_rss_mb=peak_mb,
        rankings=client.first,
        truth=truth,
        product_of=ref.product_of,
        detail={
            "curriculum_triples_per_s": [triples / w for w in wall_s],
            "final_losses": [curve[-1] for _, curve in stages],
        },
        stage_triples=stage_triples,
        traced_throughput_per_s=triples / wall_s[0],
    )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _percentile_ms(seconds: list[float], q: float) -> float:
    return 1e3 * float(np.percentile(seconds, q)) if seconds else 0.0


def end_to_end(outcome: Outcome) -> dict[str, float]:
    """Floors where the machine's other tenants add noise: the work of every
    search, build and epoch is fixed, so its fastest timing is its cost."""
    return {
        "setup_s": float(np.median(outcome.setup_s)),
        "throughput_per_s": outcome.throughput_per_s,
        "index_build_items_per_s": outcome.items / outcome.build_floor_s,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def quality(outcome: Outcome) -> dict[str, float]:
    """P@k and candidate recall of the first ranking of each query."""
    out = {
        f"retrieval.p_at_{k}": oracle.precision_from_rankings(outcome.rankings, outcome.truth, outcome.product_of, k)
        for k in P_AT
    }
    # Whatever the re-rank returns is a permutation of the scan's candidate
    # pool, so the whole returned list is that pool.
    out["retrieval.candidate_recall"] = oracle.precision_from_rankings(
        outcome.rankings, outcome.truth, outcome.product_of, max(len(r) for r in outcome.rankings.values())
    )
    return out


def per_layer(stats: spantrace.SpanStats, outcome: Outcome) -> dict[str, float]:
    out: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = stats.count(layer)
        elif what == "self_ms":
            out[name] = stats.self_ms(layer)
        elif what == "s":
            durations = stats.durations_of(layer)
            out[name] = float(np.median(durations)) if durations else 0.0
        elif what in ("p50_ms", "p95_ms"):
            out[name] = _percentile_ms(stats.durations_of(layer), 50 if what == "p50_ms" else 95)
    for stage in training.STAGES:
        span = f"training.stage.{stage}"
        durations = stats.durations_of(span)
        triples = outcome.stage_triples.get(stage, 0)
        out[f"{span}.triples_per_s"] = triples / sum(durations) if durations else 0.0
    out["attention.FeatureMap.constructions"] = stats.count("attention.FeatureMap")
    losses = stats.count("metric.triplet_loss")
    out["metric.hinge_active_ratio"] = stats.counters.get(spantrace.HINGE_ACTIVE, 0) / losses if losses else 0.0
    out.update(quality(outcome))
    e2e = end_to_end(outcome)
    out["traced.setup_s"] = e2e["setup_s"]
    out["traced.throughput_per_s"] = outcome.traced_throughput_per_s or e2e["throughput_per_s"]
    return out


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float, trace: bool, cache_root: Path) -> dict:
    """One run: the result object the benchmark prints last, plus a
    ``detail`` entry for the line printed before it."""
    inputs = prepare_inputs(workload, seed, cache_root)
    tracer = spantrace.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        runner = run_train if workload.train is not None else run_serve
        outcome = runner(workload, inputs, seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not outcome.search_s:
        raise RuntimeError(f"no search() call succeeded: {outcome.ops.problems[:3]}")
    table = PER_LAYER if trace else END_TO_END
    values = per_layer(spantrace.SpanStats(tracer), outcome) if trace else end_to_end(outcome)
    ops = outcome.ops
    detail = {
        "workload": workload.name,
        "seed": seed,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "searches": len(outcome.search_s),
        "search_p50_ms": _percentile_ms(outcome.search_s, 50),
        "search_p95_ms": _percentile_ms(outcome.search_s, 95),
        "setups": len(outcome.setup_s),
        "error_rate": ops.failed / ops.attempted,
        "problems": ops.problems,
        **quality(outcome),
        **outcome.detail,
    }
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": table[name][0]} for name in table},
        "detail": detail,
    }
