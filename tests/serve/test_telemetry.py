"""Tests for serving telemetry (repro.serve.telemetry)."""

import numpy as np
import pytest

from repro.serve.telemetry import RequestRecord, TelemetryCollector


def record(i, arrival, start, finish, chip=0, batch=1):
    return RequestRecord(request_id=i, arrival_ms=arrival, start_ms=start,
                         finish_ms=finish, chip_ids=(chip,),
                         batch_size=batch)


class TestRequestRecord:
    def test_latency_decomposition(self):
        rec = record(0, arrival=1.0, start=3.0, finish=10.0)
        assert rec.latency_ms == pytest.approx(9.0)
        assert rec.wait_ms == pytest.approx(2.0)
        assert rec.service_ms == pytest.approx(7.0)


class TestPercentiles:
    def test_matches_numpy(self):
        telemetry = TelemetryCollector(num_chips=1)
        latencies = [float(v) for v in range(1, 101)]
        for i, lat in enumerate(latencies):
            telemetry.record_completion(record(i, 0.0, 0.0, lat))
        for q in (50.0, 95.0, 99.0):
            assert telemetry.latency_percentile(q) == pytest.approx(
                float(np.percentile(np.array(latencies), q)))
        pct = telemetry.latency_percentiles()
        assert pct["p50"] <= pct["p95"] <= pct["p99"]

    def test_empty_collector_is_nan(self):
        telemetry = TelemetryCollector()
        assert np.isnan(telemetry.latency_percentile(50.0))


class TestThroughputAndUtilization:
    def test_throughput_over_makespan(self):
        telemetry = TelemetryCollector(num_chips=1)
        # 10 requests arriving at t=0, last finishes at t=1000ms
        for i in range(10):
            telemetry.record_completion(record(i, 0.0, 0.0, 100.0 * (i + 1)))
        assert telemetry.makespan_ms == pytest.approx(1000.0)
        assert telemetry.throughput_fps() == pytest.approx(10.0)

    def test_chip_utilization_fraction(self):
        telemetry = TelemetryCollector(num_chips=2)
        telemetry.record_completion(record(0, 0.0, 0.0, 100.0))
        telemetry.record_chip_busy(0, 50.0)
        telemetry.record_chip_busy(0, 25.0)
        util = telemetry.chip_utilization()
        assert util[0] == pytest.approx(0.75)
        assert util[1] == pytest.approx(0.0)   # provisioned but idle

    def test_utilization_not_clamped(self):
        # Busy time exceeding the makespan is an accounting anomaly; the
        # raw fraction must surface it rather than clamp to 1.0.
        telemetry = TelemetryCollector(num_chips=1)
        telemetry.record_completion(record(0, 0.0, 0.0, 10.0))
        telemetry.record_chip_busy(0, 1000.0)
        assert telemetry.chip_utilization()[0] == pytest.approx(100.0)
        assert telemetry.saturated_chips() == [0]

    def test_saturated_chips_empty_when_sane(self):
        telemetry = TelemetryCollector(num_chips=2)
        telemetry.record_completion(record(0, 0.0, 0.0, 100.0))
        telemetry.record_chip_busy(0, 100.0)   # exactly the makespan: ok
        telemetry.record_chip_busy(1, 40.0)
        assert telemetry.saturated_chips() == []

    def test_saturation_warning_in_report(self):
        telemetry = TelemetryCollector(num_chips=1)
        telemetry.record_completion(record(0, 0.0, 0.0, 10.0))
        telemetry.record_chip_busy(0, 1000.0)
        assert "utilization > 1.0" in telemetry.report()
        sane = TelemetryCollector(num_chips=1)
        sane.record_completion(record(0, 0.0, 0.0, 10.0))
        sane.record_chip_busy(0, 5.0)
        assert "utilization > 1.0" not in sane.report()

    def test_rolling_throughput_buckets(self):
        telemetry = TelemetryCollector(num_chips=1)
        # one completion per 100ms for 1 second
        for i in range(10):
            telemetry.record_completion(record(i, 0.0, 0.0,
                                               100.0 * i + 50.0))
        buckets = telemetry.rolling_throughput(window_ms=500.0)
        assert len(buckets) == 2
        assert buckets[0][1] == pytest.approx(10.0)  # 5 per 500ms window

    def test_rolling_throughput_gap_emits_zero_buckets(self):
        telemetry = TelemetryCollector(num_chips=1)
        # finishes at 100ms and 2100ms: three idle 500ms windows between
        telemetry.record_completion(record(0, 0.0, 0.0, 100.0))
        telemetry.record_completion(record(1, 0.0, 0.0, 2100.0))
        buckets = telemetry.rolling_throughput(window_ms=500.0)
        assert [end for end, _ in buckets] == pytest.approx(
            [500.0, 1000.0, 1500.0, 2000.0, 2500.0])
        assert [fps for _, fps in buckets] == pytest.approx(
            [2.0, 0.0, 0.0, 0.0, 2.0])

    def test_rolling_throughput_no_trailing_bucket_on_exact_edge(self):
        telemetry = TelemetryCollector(num_chips=1)
        # last finish lands exactly on a bucket edge: it belongs to the
        # bucket ending there, and no spurious all-zero bucket follows
        telemetry.record_completion(record(0, 0.0, 0.0, 500.0))
        telemetry.record_completion(record(1, 0.0, 0.0, 1000.0))
        buckets = telemetry.rolling_throughput(window_ms=500.0)
        assert buckets == [(500.0, pytest.approx(2.0)),
                           (1000.0, pytest.approx(2.0))]

    def test_rolling_throughput_finish_at_start(self):
        telemetry = TelemetryCollector(num_chips=1)
        telemetry.record_completion(record(0, 0.0, 0.0, 0.0))
        buckets = telemetry.rolling_throughput(window_ms=500.0)
        assert buckets == [(500.0, pytest.approx(2.0))]


class TestQueueAndBatchStats:
    def test_queue_depth_stats(self):
        telemetry = TelemetryCollector()
        for t, d in [(0.0, 1), (1.0, 3), (2.0, 2)]:
            telemetry.record_queue_depth(t, d)
        assert telemetry.mean_queue_depth() == pytest.approx(2.0)
        assert telemetry.max_queue_depth() == 3

    def test_rejections_counted(self):
        telemetry = TelemetryCollector()
        telemetry.record_rejection(7)
        telemetry.record_rejection(8)
        assert telemetry.num_rejected == 2

    def test_mean_batch_size(self):
        telemetry = TelemetryCollector()
        for b in (1, 4, 7):
            telemetry.record_batch(b)
        assert telemetry.mean_batch_size() == pytest.approx(4.0)


class TestRecordColumns:
    """Record-mode reductions read columns built once from the records;
    every mutation of the records must drop them."""

    def _loaded(self):
        telemetry = TelemetryCollector(num_chips=1)
        for i in range(6):
            telemetry.record_completion(
                record(i, float(i), float(i) + 0.5, 10.0 * (i + 1)))
        return telemetry

    def test_drop_records_after_summary_is_not_stale(self):
        telemetry = self._loaded()
        before = telemetry.summary()
        assert before["makespan_ms"] == pytest.approx(60.0)
        late = [r for r in telemetry.records if r.finish_ms > 35.0]
        telemetry.drop_records(late)
        after = telemetry.summary()
        assert after["completed"] == 3.0
        assert after["makespan_ms"] == pytest.approx(30.0)
        assert after["latency_p99_ms"] < before["latency_p99_ms"]
        assert telemetry.latency_values().tolist() == \
            [r.latency_ms for r in telemetry.records]

    def test_completion_after_read_is_seen(self):
        telemetry = self._loaded()
        assert telemetry.makespan_ms == pytest.approx(60.0)
        telemetry.record_completion(record(9, 0.0, 1.0, 100.0))
        assert telemetry.makespan_ms == pytest.approx(100.0)
        assert telemetry.finish_values().tolist()[-1] == 100.0

    def test_records_setter_replaces_columns(self):
        telemetry = self._loaded()
        telemetry.summary()
        telemetry.records = [record(0, 5.0, 6.0, 7.0)]
        assert telemetry.wait_values().tolist() == [1.0]
        assert telemetry.service_values().tolist() == [1.0]
        assert telemetry.makespan_ms == pytest.approx(2.0)


class TestPresentation:
    def _loaded(self):
        telemetry = TelemetryCollector(num_chips=2)
        for i in range(20):
            telemetry.record_completion(record(i, float(i), float(i) + 1.0,
                                               float(i) + 11.0,
                                               chip=i % 2, batch=2))
            telemetry.record_chip_busy(i % 2, 5.0)
        telemetry.record_batch(2)
        telemetry.record_queue_depth(0.0, 1)
        return telemetry

    def test_summary_keys(self):
        summary = self._loaded().summary()
        for key in ("completed", "throughput_fps", "latency_p50_ms",
                    "latency_p95_ms", "latency_p99_ms", "availability",
                    "chip0_utilization", "chip1_utilization"):
            assert key in summary
        assert summary["completed"] == 20.0

    def test_summary_wait_service_breakdown(self):
        # Every record: wait 1ms, service 10ms — the decomposition must
        # separate queueing delay from chip time exactly.
        summary = self._loaded().summary()
        for stat in ("mean", "p50", "p95", "p99"):
            assert summary[f"wait_{stat}_ms"] == pytest.approx(1.0)
            assert summary[f"service_{stat}_ms"] == pytest.approx(10.0)
            assert summary[f"latency_{stat}_ms"] == pytest.approx(11.0)
        assert summary["latency_mean_ms"] == pytest.approx(
            summary["wait_mean_ms"] + summary["service_mean_ms"])

    def test_summary_with_slo(self):
        from repro.obs import SLO

        telemetry = self._loaded()
        summary = telemetry.summary(slo=SLO(p99_ms=100.0, availability=0.9))
        assert summary["slo_attained"] == 1.0
        assert summary["slo_p99_target_ms"] == 100.0
        tight = telemetry.summary(slo=SLO(p99_ms=0.5))
        assert tight["slo_attained"] == 0.0

    def test_slo_attainment_counts_shed_requests(self):
        from repro.obs import SLO

        telemetry = self._loaded()
        for i in range(100, 120):
            telemetry.record_rejection(i)
        assert telemetry.availability() == pytest.approx(0.5)
        report = telemetry.slo_attainment(SLO(availability=0.99))
        assert report.availability_attained is False
        assert report.attained is False

    def test_report_renders(self):
        text = self._loaded().report()
        assert "p99" in text
        assert "chip utilization" in text
        assert "throughput" in text
        assert "wait" in text and "service" in text

    def test_report_with_slo_table(self):
        from repro.obs import SLO

        text = self._loaded().report(slo=SLO(p99_ms=100.0,
                                             availability=0.9))
        assert "SLO attainment" in text
        assert "p99 latency" in text
