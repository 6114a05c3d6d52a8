"""Timing and event instrumentation through repro.obs.metrics.

Timers are summaries, events are counters, ``isolated()`` scopes a
run's records, and :func:`repro.obs.export.bench_report` renders them
as ``BENCH.json``.
"""

import json

import pytest

from repro.obs import metrics
from repro.obs.export import bench_report
from repro.obs.metrics import MetricsRegistry


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestTimers:
    def test_aggregation(self, registry):
        registry.summary("work").add(1.0)
        registry.summary("work").add(3.0)
        stat = registry.get_summary("work")
        assert stat.count == 2
        assert stat.total_s == pytest.approx(4.0)
        assert stat.mean_s == pytest.approx(2.0)
        assert stat.min_s == pytest.approx(1.0)
        assert stat.max_s == pytest.approx(3.0)

    def test_negative_elapsed_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.summary("work").add(-1.0)

    def test_unknown_timer_is_none(self, registry):
        assert registry.get_summary("nope") is None


class TestEvents:
    def test_counts_accumulate(self, registry):
        registry.counter("cache.hit").inc()
        registry.counter("cache.hit").inc(2)
        assert registry.counter_value("cache.hit") == 3

    def test_unknown_event_is_zero(self, registry):
        assert registry.counter_value("nope") == 0


class TestCollect:
    def test_reset(self, registry):
        registry.summary("a").add(0.5)
        registry.counter("hit").inc()
        registry.reset()
        report = bench_report(registry)
        assert report["timers"] == {}
        assert report["events"] == {}

    def test_write_bench_round_trips(self, registry, tmp_path):
        registry.summary("a").add(0.25)
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(bench_report(registry), indent=2) + "\n")
        payload = json.loads(path.read_text())
        assert payload["timers"]["a"]["total_s"] == pytest.approx(0.25)


class TestModuleLevelRegistry:
    def test_default_registry_functions(self):
        metrics.REGISTRY.reset()
        with metrics.timer("module.level"):
            pass
        metrics.counter("module.event").inc()
        assert metrics.REGISTRY.get_summary("module.level").count == 1
        assert metrics.REGISTRY.counter_value("module.event") == 1
        metrics.REGISTRY.reset()


class TestIsolated:
    def test_isolated_registry_captures_records(self):
        metrics.REGISTRY.reset()
        with metrics.isolated() as reg:
            metrics.summary("iso.work").add(1.0)
            metrics.counter("iso.hit").inc()
            assert metrics.current() is reg
        assert reg.get_summary("iso.work").count == 1
        assert reg.counter_value("iso.hit") == 1
        # nothing leaked into the default registry
        assert metrics.REGISTRY.get_summary("iso.work") is None
        assert metrics.REGISTRY.counter_value("iso.hit") == 0
        assert metrics.current() is metrics.REGISTRY

    def test_nesting_restores_outer(self):
        with metrics.isolated() as outer:
            metrics.summary("outer.only").add(1.0)
            with metrics.isolated() as inner:
                metrics.summary("inner.only").add(1.0)
            assert metrics.current() is outer
            metrics.summary("outer.only").add(1.0)
        assert inner.get_summary("inner.only").count == 1
        assert inner.get_summary("outer.only") is None
        assert outer.get_summary("outer.only").count == 2
        assert outer.get_summary("inner.only") is None

    def test_explicit_registry_reused(self):
        reg = MetricsRegistry()
        with metrics.isolated(reg) as got:
            metrics.summary("again").add(1.0)
        assert got is reg
        with metrics.isolated(reg):
            metrics.summary("again").add(1.0)
        assert reg.get_summary("again").count == 2
