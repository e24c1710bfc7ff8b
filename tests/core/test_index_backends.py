"""Sharded retrieval against the brute-force oracle, through the full prediction stage.

The acceptance contract of the retrieval index: on the seed corpus, a
prediction stage retrieving from its sharded index produces *identical*
predictions and neighbour sets to one whose index was swapped for the test
oracle (``tests/vectordb/oracle.py``, one scored block per search) holding
the same entries — sharding is a layout/performance choice, never a
quality choice.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from oracle import OracleIndex
from streamtest_utils import FittedEmbedder
from repro.core import (
    IndexConfig,
    PredictionConfig,
    PredictionStage,
    RCACopilot,
    PipelineConfig,
    select_window_days,
)
from repro.embedding import FastTextConfig, FastTextEmbedder
from repro.incidents import IncidentStore
from repro.llm import SimulatedLLM
from repro.telemetry import TelemetryHub
from repro.vectordb import CompactionPolicy, ShardedVectorIndex


@pytest.fixture(scope="module")
def fitted(corpus_split):
    """The default-size FastText model, fitted once for the whole module.

    Fitted on the labelled texts of ``corpus_split``'s training side — the
    texts ``PredictionStage.index_history`` fits on, and the same
    ``chronological_split(0.75)`` of ``small_corpus`` the two tests that
    build an ``RCACopilot`` take for themselves.  That fit (≈ 9 s,
    deterministic) was all but the whole cost of each test; each caller now
    gets its own deep copy (~10 ms), the pattern
    ``test_streaming_concurrency.py::base_copilot`` documents.
    """
    train, _ = corpus_split
    model = FastTextEmbedder(FastTextConfig()).fit(
        [i.diagnostic_info() or i.alert_info() for i in train.labelled()]
    )
    return lambda: FittedEmbedder(copy.deepcopy(model))


def build_stage(corpus_split, fitted, window_days=20.0, **index_options):
    train, _ = corpus_split
    stage = PredictionStage(
        model=SimulatedLLM(),
        config=PredictionConfig(),
        embedder=fitted(),
        index_config=IndexConfig(window_days=window_days, **index_options),
    )
    stage.index_history(train)
    return stage


def build_oracle_stage(corpus_split, fitted):
    """A stage whose sharded index is swapped for the oracle, same entries in the same order."""
    train, _ = corpus_split
    stage = build_stage(corpus_split, fitted)
    entries = [stage.index.get(incident.incident_id) for incident in train.labelled()]
    oracle = OracleIndex(stage.index.similarity)
    oracle.add_many(
        [entry.incident_id for entry in entries],
        np.array([entry.vector for entry in entries]),
        [entry.created_day for entry in entries],
        [entry.category for entry in entries],
        [entry.text for entry in entries],
    )
    stage.index = oracle
    return stage


def fingerprints(demonstration_lists):
    return [
        [(n.incident_id, float(n.similarity).hex()) for n in demonstrations]
        for demonstrations in demonstration_lists
    ]


class TestSeedCorpusParity:
    def test_the_index_is_sharded_and_holds_every_labelled_incident(
        self, corpus_split, fitted
    ):
        train, _ = corpus_split
        sharded_stage = build_stage(corpus_split, fitted)
        oracle_stage = build_oracle_stage(corpus_split, fitted)
        assert isinstance(sharded_stage.index, ShardedVectorIndex)
        assert len(sharded_stage.index) == len(oracle_stage.index) == len(train.labelled())
        assert sharded_stage.index.stats()["shard_count"] > 1.0

    def test_identical_predictions_and_neighbors(self, corpus_split, fitted):
        """Same labels, same neighbour ids, same similarity bits."""
        _, test = corpus_split
        oracle_stage = build_oracle_stage(corpus_split, fitted)
        sharded_stage = build_stage(corpus_split, fitted)
        incidents = test.labelled()
        oracle_outcomes = oracle_stage.predict_many(copy.deepcopy(incidents))
        sharded_outcomes = sharded_stage.predict_many(copy.deepcopy(incidents))
        assert [o.label for o in oracle_outcomes] == [o.label for o in sharded_outcomes]
        assert fingerprints(o.neighbors for o in sharded_outcomes) == fingerprints(
            o.neighbors for o in oracle_outcomes
        )

    def test_retrieval_parity_with_lookahead_cutoff(self, corpus_split, fitted):
        _, test = corpus_split
        oracle_stage = build_oracle_stage(corpus_split, fitted)
        sharded_stage = build_stage(corpus_split, fitted, window_days=10.0)
        incidents = test.labelled()[:10]
        cutoff = incidents[0].created_day
        oracle_lists = oracle_stage.retrieve_many(incidents, history_before_day=cutoff)
        sharded_lists = sharded_stage.retrieve_many(incidents, history_before_day=cutoff)
        assert fingerprints(sharded_lists) == fingerprints(oracle_lists)

    def test_feedback_parity_after_updates(self, corpus_split, fitted):
        """add_to_index + update_category keep the index and the oracle in lockstep."""
        _, test = corpus_split
        oracle_stage = build_oracle_stage(corpus_split, fitted)
        sharded_stage = build_stage(corpus_split, fitted)
        extra = test.labelled()[:6]
        for incident in extra:
            oracle_stage.add_to_index(incident)
            sharded_stage.add_to_index(incident)
        oracle_stage.update_category(extra[0].incident_id, "Rewritten")
        sharded_stage.update_category(extra[0].incident_id, "Rewritten")
        probes = test.labelled()[6:16]
        oracle_lists = oracle_stage.retrieve_many(copy.deepcopy(probes))
        sharded_lists = sharded_stage.retrieve_many(copy.deepcopy(probes))
        assert fingerprints(sharded_lists) == fingerprints(oracle_lists)

    def test_auto_window_retrieval_matches_the_oracle(self, corpus_split, fitted):
        _, test = corpus_split
        oracle_stage = build_oracle_stage(corpus_split, fitted)
        auto_stage = build_stage(corpus_split, fitted, window_days=None)
        assert auto_stage.resolved_window_days != 20.0
        incidents = test.labelled()
        assert fingerprints(auto_stage.retrieve_many(incidents)) == fingerprints(
            oracle_stage.retrieve_many(incidents)
        )

    @pytest.mark.parametrize("window_days", [20.0, None], ids=["window_20", "window_auto"])
    def test_update_category_unknown_id_fails_loudly(self, corpus_split, fitted, window_days):
        stage = build_stage(corpus_split, fitted, window_days=window_days)
        with pytest.raises(KeyError, match="INC-NOT-THERE"):
            stage.update_category("INC-NOT-THERE", "Whatever")


class TestShardedByDefault:
    """The sharded index is the default fast path for every workload."""

    def test_default_config_selects_sharded_with_auto_window(self, corpus_split, fitted):
        train, _ = corpus_split
        assert IndexConfig().window_days is None
        stage = PredictionStage(
            model=SimulatedLLM(), config=PredictionConfig(), embedder=fitted()
        )
        stage.index_history(train)
        assert isinstance(stage.index, ShardedVectorIndex)
        # The window is sized for the *labelled* subset — what gets indexed.
        assert stage.resolved_window_days == select_window_days(
            IncidentStore(train.labelled())
        )
        assert stage.index.window_days == stage.resolved_window_days

    def test_auto_window_targets_median_shard_size(self, corpus_split, fitted):
        train, _ = corpus_split
        window = select_window_days(train)
        counts = sorted(train.shard_counts(window).values())
        assert counts[len(counts) // 2] <= 2048
        assert window >= 1.0
        # An explicit window always wins over the automatic choice.
        stage = build_stage(corpus_split, fitted, window_days=20.0)
        assert stage.resolved_window_days == 20.0

    def test_auto_window_choice_is_kept_on_the_stage(self, small_corpus, fitted):
        """The choice is read from ``resolved_window_days``; the hub stays empty."""
        hub = TelemetryHub()
        copilot = RCACopilot(hub)
        copilot.prediction.embedder = fitted()
        train, _ = small_corpus.chronological_split(0.75)
        copilot.index_history(train)
        window = copilot.prediction.resolved_window_days
        assert window == select_window_days(IncidentStore(train.labelled()))
        assert window >= 1.0
        assert hub.metrics.metric_names() == [] and len(hub.logs) == 0

    def test_index_config_passes_window_and_compaction_through(self, corpus_split, fitted):
        policy = CompactionPolicy(min_entries=10, max_entries=50, auto=True)
        stage = build_stage(corpus_split, fitted, window_days=15.0, compaction=policy)
        assert stage.index.window_days == 15.0
        assert stage.index.compaction is policy
        assert [field.name for field in dataclasses.fields(IndexConfig)] == [
            "window_days", "compaction",
        ]


class TestShardKeyExtraction:
    def test_shard_key_matches_vectordb_bucketing(self, small_corpus):
        """incidents.shard_key must stay formula-identical to time_bucket."""
        from repro.incidents import shard_key
        from repro.vectordb import time_bucket

        for incident in small_corpus:
            for window in (7.0, 15.0, 30.0):
                assert shard_key(incident, window) == time_bucket(
                    incident.created_day, window
                )
        with pytest.raises(ValueError):
            shard_key(small_corpus.all()[0], 0.0)

    def test_shard_counts_previews_index_layout(self, corpus_split, fitted):
        """shard_counts on the history matches the built sharded index."""
        train, _ = corpus_split
        stage = build_stage(corpus_split, fitted, window_days=20.0)
        labelled = train.labelled()
        expected = {}
        from repro.incidents import shard_key

        for incident in labelled:
            key = shard_key(incident, 20.0)
            expected[key] = expected.get(key, 0) + 1
        assert stage.index.shard_sizes() == expected
        counts = train.shard_counts(20.0)
        assert sum(counts.values()) == len(train.all())
        assert list(counts) == sorted(counts)


class TestIndexStats:
    def test_index_stats_cover_layout_and_scans(self, small_corpus, fitted):
        config = PipelineConfig(index=IndexConfig(window_days=20.0))
        copilot = RCACopilot(TelemetryHub(), config=config)
        copilot.prediction.embedder = fitted()
        train, test = small_corpus.chronological_split(0.75)
        copilot.index_history(train)
        copilot.diagnose_many(copy.deepcopy(test.labelled()[:4]))
        stats = copilot.prediction.index.stats()
        for name in (
            "entries",
            "shard_count",
            "scanned_shard_ratio",
            "max_shard_size",
            "median_shard_size",
            "compactions",
        ):
            assert name in stats
        assert stats["shard_count"] > 1.0
        assert stats["queries"] == 4.0

    def test_invalid_index_config_rejected(self):
        with pytest.raises(TypeError):  # one index, no backend to choose
            IndexConfig(backend="flat")
        with pytest.raises(ValueError):
            IndexConfig(window_days=-1.0)
