"""Tests for the mergeable metrics registry, its timer and BENCH.json."""

import json
import math
import threading

import pytest

from repro.obs import metrics
from repro.obs.export import BENCH_SCHEMA, bench_report
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2)
        assert reg.counter_value("hits") == 3.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("hits").inc(-1)

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.counter("faults", kind="drop").inc()
        reg.counter("faults", kind="dup").inc(4)
        assert reg.counter_value("faults", kind="drop") == 1.0
        assert reg.counter_value("faults", kind="dup") == 4.0
        assert reg.counters() == {
            "faults{kind=drop}": 1.0,
            "faults{kind=dup}": 4.0,
        }

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("c", a=1, b=2).inc()
        assert reg.counter_value("c", b=2, a=1) == 1.0

    def test_gauge_last_writer_wins(self):
        reg = MetricsRegistry()
        reg.gauge("workers").set(4)
        reg.gauge("workers").set(2)
        assert reg.gauges() == {"workers": 2.0}

    def test_histogram_buckets_cumulative_semantics(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.7, 5.0):
            h.observe(v)
        assert h.counts == [1, 2]
        assert h.inf_count == 1
        assert h.n == 4
        assert h.total == pytest.approx(6.25)

    def test_histogram_bucket_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(0.1, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("lat", buckets=(0.5,))

    def test_histogram_default_buckets(self):
        assert MetricsRegistry().histogram("lat").buckets == DEFAULT_BUCKETS

    def test_summary_matches_bench_aggregate(self):
        reg = MetricsRegistry()
        s = reg.summary("solve")
        s.add(1.0)
        s.add(3.0, meta={"workers": 2})
        assert s.count == 2
        assert s.mean_s == 2.0
        assert s.min_s == 1.0
        assert s.max_s == 3.0
        assert s.as_dict()["meta"] == {"workers": 2}

    def test_summary_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().summary("s").add(-0.1)

    def test_empty_and_reset(self):
        reg = MetricsRegistry()
        assert reg.empty
        reg.counter("c").inc()
        assert not reg.empty
        reg.reset()
        assert reg.empty


    def test_readers_do_not_create_series(self):
        reg = MetricsRegistry()
        assert reg.get_summary("nope") is None
        assert reg.counter_value("nope") == 0.0
        assert reg.empty


class TestTimer:
    def test_timer_records_elapsed(self):
        with metrics.isolated() as reg:
            with metrics.timer("work"):
                pass
        stat = reg.get_summary("work")
        assert stat.count == 1
        assert stat.total_s >= 0.0

    def test_timer_records_on_exception(self):
        with metrics.isolated() as reg:
            with pytest.raises(RuntimeError):
                with metrics.timer("work"):
                    raise RuntimeError("boom")
        assert reg.get_summary("work").count == 1

    def test_meta_keeps_latest(self):
        with metrics.isolated() as reg:
            with metrics.timer("work", workers=1):
                pass
            with metrics.timer("work", workers=8):
                pass
        assert reg.get_summary("work").count == 2
        assert reg.get_summary("work").meta == {"workers": 8}


class TestMerge:
    def _filled(self, n: int) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("points").inc(n)
        reg.gauge("last").set(n)
        reg.histogram("lat", buckets=(1.0, 10.0)).observe(float(n))
        reg.summary("solve").add(float(n))
        return reg

    def test_counters_add(self):
        merged = self._filled(1).merge(self._filled(2))
        assert merged.counter_value("points") == 3.0

    def test_histograms_add_bucketwise(self):
        merged = self._filled(1).merge(self._filled(20))
        h = merged.histograms()["lat"]
        assert h.counts == [1, 0]
        assert h.inf_count == 1
        assert h.n == 2

    def test_summaries_combine(self):
        merged = self._filled(1).merge(self._filled(3))
        s = merged.summaries()["solve"]
        assert (s.count, s.min_s, s.max_s) == (2, 1.0, 3.0)

    def test_gauge_takes_incoming_value(self):
        merged = self._filled(1).merge(self._filled(2))
        assert merged.gauges()["last"] == 2.0

    def test_merge_worker_count_invariance(self):
        # the same six shards, folded via one vs two "workers"
        def fold(groups):
            fleet = MetricsRegistry()
            for group in groups:
                partial = MetricsRegistry()
                for shard in group:
                    partial.merge(shard)
                fleet.merge(partial)
            return fleet

        one = fold([[self._filled(i) for i in range(1, 7)]])
        two = fold([[self._filled(i) for i in (1, 3, 5)],
                    [self._filled(i) for i in (2, 4, 6)]])
        assert one.counters() == two.counters()
        assert one.histograms()["lat"].counts == two.histograms()["lat"].counts
        a, b = one.summaries()["solve"], two.summaries()["solve"]
        assert (a.count, a.total_s, a.min_s, a.max_s) == (
            b.count, b.total_s, b.min_s, b.max_s
        )

    def test_merge_bucket_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", buckets=(1.0,)).observe(0.5)
        b.histogram("lat", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b)


class TestPayloadRoundTrip:
    def test_round_trip_preserves_everything(self):
        reg = MetricsRegistry()
        reg.counter("c", kind="x").inc(7)
        reg.gauge("g").set(3.5)
        reg.histogram("h", buckets=(0.5, 5.0)).observe(2.0)
        reg.summary("s").add(0.25, meta={"note": "hi"})
        back = MetricsRegistry.from_payload(reg.to_payload())
        assert back.counters() == reg.counters()
        assert back.gauges() == reg.gauges()
        assert back.histograms()["h"].counts == reg.histograms()["h"].counts
        assert back.summaries()["s"].as_dict() == reg.summaries()["s"].as_dict()

    def test_empty_summary_min_restored_as_inf(self):
        reg = MetricsRegistry()
        reg.summary("s")  # created but never added to
        back = MetricsRegistry.from_payload(reg.to_payload())
        assert back.summaries()["s"].min_s == math.inf

    def test_payload_is_plain_json(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(0.1)
        json.dumps(reg.to_payload())  # must not raise


class TestAmbientRegistry:
    def test_isolated_routes_module_helpers(self):
        with metrics.isolated() as reg:
            metrics.counter("inner").inc()
        assert reg.counter_value("inner") == 1.0
        assert metrics.current() is metrics.REGISTRY

    def test_isolated_nests(self):
        with metrics.isolated() as outer:
            with metrics.isolated() as inner:
                metrics.counter("c").inc()
            assert inner.counter_value("c") == 1.0
            assert outer.counter_value("c") == 0.0
            assert metrics.current() is outer

    def test_isolated_accepts_existing_registry(self):
        reg = MetricsRegistry()
        with metrics.isolated(reg) as seen:
            assert seen is reg
            assert metrics.current() is reg

    def test_isolated_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with metrics.isolated():
                raise RuntimeError("boom")
        assert metrics.current() is metrics.REGISTRY

    def test_threads_are_independent(self):
        errors = []

        def worker(tag):
            try:
                with metrics.isolated() as reg:
                    for _ in range(50):
                        with metrics.timer(tag):
                            pass
                assert reg.get_summary(tag).count == 50
                for other in ("t0", "t1"):
                    if other != tag:
                        assert reg.get_summary(other) is None
            except AssertionError as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_back_to_back_runs_do_not_accumulate(self):
        reports = []
        for _ in range(2):
            with metrics.isolated() as reg:
                metrics.counter("run.step").inc()
                with metrics.timer("run.work"):
                    pass
            reports.append(bench_report(reg))
        for report in reports:
            assert report["events"] == {"run.step": 1}
            assert report["timers"]["run.work"]["count"] == 1

    def test_timestamp_honours_source_date_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        assert metrics.timestamp_unix() == 1700000000.0

    def test_timestamp_ignores_garbage_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "not-a-number")
        assert metrics.timestamp_unix() > 1700000000.0


class TestBenchReport:
    @staticmethod
    def _filled() -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.summary("lp.solve").add(0.5, meta={"workers": 2})
        reg.counter("te.cache.memo_hit").inc(3)
        return reg

    def test_schema_1_layout(self):
        report = bench_report(self._filled())
        assert report["schema"] == BENCH_SCHEMA == 1
        assert list(report) == [
            "schema", "generated_unix", "host", "timers", "events",
        ]
        assert set(report["host"]) == {"platform", "python"}
        assert report["timers"] == {
            "lp.solve": {
                "count": 1,
                "total_s": 0.5,
                "mean_s": 0.5,
                "min_s": 0.5,
                "max_s": 0.5,
                "meta": {"workers": 2},
            }
        }
        assert report["events"] == {"te.cache.memo_hit": 3}
        assert isinstance(report["events"]["te.cache.memo_hit"], int)

    def test_optional_sections_only_when_present(self):
        reg = self._filled()
        reg.gauge("bench.ratio").set(0.75)
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        report = bench_report(reg, extra={"command": "reactive"})
        assert list(report)[5:] == ["gauges", "histograms", "extra"]
        assert report["gauges"] == {"bench.ratio": 0.75}
        assert report["histograms"]["lat"]["counts"] == [1]
        assert report["extra"] == {"command": "reactive"}

    def test_identical_registries_give_byte_equal_reports(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        a = json.dumps(bench_report(self._filled(), {"n": 1}), indent=2)
        b = json.dumps(bench_report(self._filled(), {"n": 1}), indent=2)
        assert a == b
        assert json.loads(a)["generated_unix"] == 1700000000.0
