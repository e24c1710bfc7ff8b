"""Tests for the category catalogue, diagnostic rendering, corpus generator and splits."""

from __future__ import annotations

import pytest

from repro.datagen import (
    CategoryCatalogue,
    CorpusConfig,
    CorpusGenerator,
    allocate_occurrences,
    chronological_split,
    generate_corpus,
    kfold,
    random_split,
    render_action_output,
    render_diagnostic_report,
    stratified_split,
    summarize_split,
    synthesize_long_tail,
    table1_category_specs,
)
from repro.incidents import compute_recurrence_stats
from repro.monitors import ALERT_TYPES

import random


class TestCatalogue:
    def test_table1_specs_complete(self):
        specs = table1_category_specs()
        assert len(specs) == 10
        assert all(spec.signature_tokens for spec in specs)
        assert all(spec.alert_type in ALERT_TYPES for spec in specs)

    def test_synthesize_long_tail_unique_and_deterministic(self):
        a = synthesize_long_tail(50, seed=1)
        b = synthesize_long_tail(50, seed=1)
        assert [s.name for s in a] == [s.name for s in b]
        assert len({s.name for s in a}) == 50

    def test_synthesize_too_many_raises(self):
        with pytest.raises(ValueError):
            synthesize_long_tail(10_000)

    def test_default_catalogue_size_and_lookup(self):
        catalogue = CategoryCatalogue.default(total_categories=40)
        assert len(catalogue) == 40
        assert catalogue.get("FullDisk") is not None
        assert "FullDisk" in catalogue
        assert catalogue.get("Missing") is None
        assert catalogue.by_alert_type("DiskSpaceLow")

    def test_duplicate_names_rejected(self):
        spec = table1_category_specs()[0]
        with pytest.raises(ValueError):
            CategoryCatalogue([spec, spec])


class TestDiagInfo:
    def test_report_sections(self):
        spec = table1_category_specs()[1]  # HubPortExhaustion
        report = render_diagnostic_report(spec, "machine-01", seed=3)
        text = report.render()
        assert len(report) == 5
        assert "UDP socket count" in text
        assert any(token.split()[0] in text for token in spec.signature_tokens)

    def test_report_deterministic_per_seed(self):
        spec = table1_category_specs()[0]
        a = render_diagnostic_report(spec, "m", seed=9).render()
        b = render_diagnostic_report(spec, "m", seed=9).render()
        assert a == b

    def test_action_output_contains_mitigation(self):
        spec = table1_category_specs()[0]
        output = render_action_output(spec, "m", seed=1)
        assert output["mitigation.suggested"] == spec.mitigation


class TestGenerator:
    def test_full_corpus_statistics(self):
        store = generate_corpus()  # default 653 / 163
        stats = compute_recurrence_stats(store.all())
        assert len(store) == 653
        assert len(store.categories()) == 163
        assert stats.new_category_fraction == pytest.approx(0.2496, abs=0.002)
        assert stats.fraction_within_20_days > 0.90

    def test_table1_occurrences_preserved(self):
        store = generate_corpus()
        counts = store.category_counts()
        assert counts["HubPortExhaustion"] == 27
        assert counts["DispatcherTaskCancelled"] == 22
        assert counts["MaliciousAttack"] == 2

    def test_incidents_have_diagnostics_and_labels(self, tiny_corpus):
        for incident in tiny_corpus:
            assert incident.is_labelled()
            assert not incident.diagnostic.is_empty()
            assert incident.action_output
            assert incident.alert_type in ALERT_TYPES

    def test_ids_are_chronological(self, tiny_corpus):
        incidents = tiny_corpus.all()
        assert [i.incident_id for i in incidents] == sorted(i.incident_id for i in incidents)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CorpusConfig(total_incidents=10, total_categories=20)
        with pytest.raises(ValueError):
            CorpusConfig(total_incidents=20, total_categories=5)

    def test_no_long_tail_category_for_the_surplus_is_a_value_error(self):
        # 10 categories are exactly the Table 1 ones: the incidents their
        # scaled counts leave over have no long-tail category to recur in.
        with pytest.raises(ValueError, match="no long-tail category"):
            generate_corpus(40, 10, seed=13, duration_days=100.0)

    def test_allocation_sums_to_total(self):
        config = CorpusConfig(total_incidents=300, total_categories=80, seed=9)
        generator = CorpusGenerator(config)
        counts = allocate_occurrences(config, generator.catalogue, random.Random(9))
        assert sum(counts.values()) == 300
        assert all(count >= 1 for count in counts.values())

    def test_generation_is_deterministic(self):
        a = generate_corpus(total_incidents=50, total_categories=15, seed=4, duration_days=60)
        b = generate_corpus(total_incidents=50, total_categories=15, seed=4, duration_days=60)
        assert [i.incident_id for i in a] == [i.incident_id for i in b]
        assert [i.category for i in a] == [i.category for i in b]


class TestSplits:
    def test_chronological_split_respects_time(self, small_corpus):
        train, test = chronological_split(small_corpus, 0.75)
        assert len(train) + len(test) == len(small_corpus)
        assert max(i.created_at for i in train) <= min(i.created_at for i in test)

    def test_random_split_sizes(self, small_corpus):
        train, test = random_split(small_corpus, 0.8, seed=1)
        assert len(train) + len(test) == len(small_corpus)
        assert len(train) > len(test)

    def test_stratified_split_keeps_recurring_categories_in_train(self, small_corpus):
        train, test = stratified_split(small_corpus, 0.75, seed=1)
        train_categories = set(train.categories())
        for category, count in small_corpus.category_counts().items():
            if count >= 2:
                assert category in train_categories

    def test_kfold_covers_all_incidents(self, tiny_corpus):
        folds = list(kfold(tiny_corpus, folds=4, seed=2))
        assert len(folds) == 4
        total_test = sum(len(test) for _, test in folds)
        assert total_test == len(tiny_corpus)

    def test_kfold_invalid(self, tiny_corpus):
        with pytest.raises(ValueError):
            list(kfold(tiny_corpus, folds=1))

    def test_summarize_split(self, small_corpus):
        train, test = chronological_split(small_corpus)
        summary = summarize_split(train, test)
        assert summary.train_size == len(train)
        assert 0.0 <= summary.unseen_fraction <= 1.0
