"""StragglerDetector: pure EWMA bookkeeping, flagged against the median."""

import pytest

from repro.overload.straggler import StragglerDetector


def feed(detector, executor_id, per_record_s, batches=6, records=100):
    for _ in range(batches):
        detector.note(executor_id, per_record_s * records, records)


class TestFlagging:
    def test_slow_executor_flagged_against_the_median(self):
        detector = StragglerDetector(ratio=2.0, min_samples=3)
        for executor in (0, 1, 2):
            feed(detector, executor, 1e-6)
        feed(detector, 3, 5e-6)
        assert detector.stragglers() == [3]
        assert detector.is_straggler(3)
        assert not detector.is_straggler(0)
        assert 3 in detector.flagged_at

    def test_no_flag_below_min_samples(self):
        detector = StragglerDetector(ratio=2.0, min_samples=5)
        for executor in (0, 1):
            feed(detector, executor, 1e-6, batches=6)
        feed(detector, 2, 9e-6, batches=4)  # slow, but not mature yet
        assert not detector.is_straggler(2)
        feed(detector, 2, 9e-6, batches=1)
        assert detector.is_straggler(2)

    def test_single_executor_has_no_peers_to_drift_from(self):
        detector = StragglerDetector(ratio=2.0, min_samples=2)
        feed(detector, 0, 1e-3)
        assert detector.cluster_median() is None
        assert not detector.is_straggler(0)
        assert detector.stragglers() == []

    def test_uniform_cluster_flags_nobody(self):
        detector = StragglerDetector(ratio=2.0, min_samples=3)
        for executor in range(4):
            feed(detector, executor, 2e-6)
        assert detector.stragglers() == []


def ewma(detector, executor_id):
    """The executor's per-record service-time EWMA, as the report shows it."""
    return detector.report()["ewma_per_record_s"].get(executor_id)


class TestBookkeeping:
    def test_ewma_converges_toward_recent_service_time(self):
        detector = StragglerDetector(alpha=0.5, min_samples=1)
        detector.note(0, 1.0, 100)       # 10 ms/record
        assert ewma(detector, 0) == pytest.approx(0.01)
        detector.note(0, 3.0, 100)       # 30 ms/record
        assert ewma(detector, 0) == pytest.approx(0.02)  # halfway

    def test_degenerate_samples_are_ignored(self):
        detector = StragglerDetector()
        detector.note(0, 1.0, 0)
        detector.note(0, -1.0, 10)
        assert ewma(detector, 0) is None

    def test_flagged_at_records_the_first_flag_only(self):
        detector = StragglerDetector(ratio=2.0, min_samples=2)
        for executor in (0, 1):
            feed(detector, executor, 1e-6, batches=4)
        feed(detector, 2, 8e-6, batches=4)
        first = detector.flagged_at[2]
        feed(detector, 2, 8e-6, batches=2)
        assert detector.flagged_at[2] == first

    def test_report_is_json_shaped(self):
        detector = StragglerDetector(ratio=2.0, min_samples=2)
        for executor in (0, 1):
            feed(detector, executor, 1e-6, batches=4)
        feed(detector, 2, 8e-6, batches=4)
        report = detector.report()
        assert report["stragglers"] == [2]
        assert report["ever_flagged"] == [2]
        assert set(report["ewma_per_record_s"]) == {0, 1, 2}
