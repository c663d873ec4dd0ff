"""Shared metrics board, Prometheus rendering, and the admission gate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServingError
from repro.obs.spans import SERVING_SPAN_SITES
from repro.serving.replicated.admission import AdmissionGate
from repro.serving.server import ROUTES, ServingServer
from repro.serving.replicated.metrics import (
    BOARD_LAYOUT_VERSION,
    ENDPOINTS,
    KNOWN_SITES,
    LATENCY_BUCKETS,
    SPAN_BUCKETS,
    MetricsBoard,
    render_prometheus,
)


class TestMetricsBoard:
    def test_create_attach_share_one_grid(self, tmp_path):
        path = tmp_path / "metrics.board"
        owner = MetricsBoard.create(path, slots=3)
        owner.slot(1).observe_request("predict")
        owner.slot(1).observe_request("predict")
        reader = MetricsBoard.attach(path)
        assert int(reader.column("requests__predict")[1]) == 2
        # writes through the attached mapping are visible to the owner
        reader.slot(2).observe_request("predict")
        assert int(owner.column("requests__predict")[2]) == 1

    def test_each_slot_owns_its_row(self, tmp_path):
        board = MetricsBoard.create(tmp_path / "m.board", slots=2)
        board.slot(0).observe_response("predict", 200, 0.001)
        board.slot(1).observe_response("predict", 500)
        assert int(board.column("responses_2xx__predict")[0]) == 1
        assert int(board.column("responses_2xx__predict")[1]) == 0
        assert int(board.column("responses_5xx__predict")[1]) == 1

    def test_attach_rejects_incompatible_layout(self, tmp_path):
        path = tmp_path / "m.board"
        MetricsBoard.create(path, slots=1)
        sidecar = path.parent / "m.board.json"
        current = f'"layout": {BOARD_LAYOUT_VERSION}'
        assert current in sidecar.read_text()
        sidecar.write_text(sidecar.read_text().replace(current, '"layout": 99'))
        with pytest.raises(ServingError):
            MetricsBoard.attach(path)

    def test_attach_missing_board_raises(self, tmp_path):
        with pytest.raises(ServingError):
            MetricsBoard.attach(tmp_path / "absent.board")

    def test_slot_out_of_range_raises(self):
        board = MetricsBoard.in_memory(slots=2)
        with pytest.raises(ServingError):
            board.slot(2)

    def test_latency_histogram_buckets(self):
        board = MetricsBoard.in_memory()
        slot = board.slot(0)
        slot.observe_response("predict", 200, seconds=LATENCY_BUCKETS[0] / 2)
        slot.observe_response("predict", 200, seconds=LATENCY_BUCKETS[-1] * 2)
        counts = [
            int(board.column(f"latency_bucket_{i}")[0])
            for i in range(len(LATENCY_BUCKETS) + 1)
        ]
        assert counts[0] == 1 and counts[-1] == 1 and sum(counts) == 2
        assert int(board.column("latency_count")[0]) == 2

    def test_429_counts_as_shed(self):
        board = MetricsBoard.in_memory()
        board.slot(0).observe_response("predict", 429)
        assert int(board.column("shed_total")[0]) == 1
        assert int(board.column("responses_4xx__predict")[0]) == 1

    def test_self_healing_counters(self):
        board = MetricsBoard.in_memory(slots=2)
        slot = board.slot(0)
        slot.observe_quarantine(2)
        slot.observe_canary_rejection()
        slot.observe_integrity_fallback()
        slot.set_crash_looping(3)
        assert int(board.column("quarantined_total")[0]) == 2
        assert int(board.column("canary_rejections_total")[0]) == 1
        assert int(board.column("integrity_fallbacks_total")[0]) == 1
        assert int(board.column("replica_crash_loops")[0]) == 3
        slot.set_crash_looping(0)  # it is a gauge, not a counter
        assert int(board.column("replica_crash_loops")[0]) == 0

    def test_fault_fires_have_a_column_per_known_site(self):
        board = MetricsBoard.in_memory()
        slot = board.slot(0)
        for site in KNOWN_SITES:
            slot.observe_fault(site)
        slot.observe_fault("wal.torn_tail")
        slot.observe_fault("not.a.wired.site")
        assert int(board.column("fault_fires__wal.torn_tail")[0]) == 2
        assert int(board.column("fault_fires__other")[0]) == 1
        for site in KNOWN_SITES:
            assert int(board.column(f"fault_fires__{site}")[0]) >= 1

    def test_every_served_route_has_its_own_counters(self):
        # the board's columns are a fixed layout; a route the server adds
        # must get a column (and a layout bump), not fall into "other"
        assert set(ROUTES) <= set(ENDPOINTS)
        assert [ServingServer._endpoint_of(f"/{name}") for name in ROUTES] == list(ROUTES)
        assert ServingServer._endpoint_of("/nope") == "other"


class TestRenderPrometheus:
    def test_aggregates_across_slots(self):
        board = MetricsBoard.in_memory(slots=3)
        for slot in range(3):
            board.slot(slot).observe_request("predict")
        page = render_prometheus(board)
        assert 'repro_requests_total{endpoint="predict"} 3' in page

    def test_per_replica_gauges(self):
        board = MetricsBoard.in_memory(slots=2)
        board.slot(0).mark_up(pid=1, version=4)
        board.slot(1).mark_up(pid=2, version=4)
        board.slot(1).mark_down()
        page = render_prometheus(board)
        assert 'repro_replica_up{slot="0",role="coordinator"} 1' in page
        assert 'repro_replica_up{slot="1",role="worker"} 0' in page
        assert 'repro_replica_version{slot="0",role="coordinator"} 4' in page
        # a dead replica's version is not reported
        assert 'repro_replica_version{slot="1"' not in page

    def test_histogram_is_cumulative_and_ends_with_inf(self):
        board = MetricsBoard.in_memory()
        board.slot(0).observe_response("predict", 200, seconds=0.0001)
        board.slot(0).observe_response("predict", 200, seconds=0.003)
        page = render_prometheus(board)
        lines = [l for l in page.splitlines() if l.startswith("repro_predict_latency_seconds_bucket")]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert lines[-1].startswith('repro_predict_latency_seconds_bucket{le="+Inf"}')
        assert counts[-1] == 2

    def test_self_healing_lines(self):
        board = MetricsBoard.in_memory(slots=2)
        board.slot(0).observe_quarantine()
        board.slot(0).observe_canary_rejection()
        board.slot(1).observe_fault("hotswap.poison_commit")
        page = render_prometheus(board)
        assert "repro_quarantined_deltas_total 1" in page
        assert "repro_canary_rejections_total 1" in page
        assert "repro_integrity_fallbacks_total 0" in page
        assert "repro_replica_crash_loops 0" in page
        assert 'repro_fault_fires_total{site="hotswap.poison_commit"} 1' in page
        # sites with zero fires are omitted to keep the page small
        assert 'site="wal.torn_tail"' not in page

    def test_page_parses_as_prometheus_text(self):
        board = MetricsBoard.in_memory()
        page = render_prometheus(board)
        for line in page.splitlines():
            assert line.startswith("#") or " " in line
        assert page.endswith("\n")


class TestSpanHistograms:
    def test_known_sites_accumulate(self):
        board = MetricsBoard.in_memory()
        slot = board.slot(0)
        slot.observe_span("serve.predict", 0.002)
        slot.observe_span("serve.predict", 0.2)
        assert int(board.column("span_count__serve.predict")[0]) == 2
        assert int(board.column("span_sum_us__serve.predict")[0]) == 202000

    def test_unknown_span_names_are_ignored(self):
        board = MetricsBoard.in_memory()
        board.slot(0).observe_span("stream.step", 0.5)  # JSONL-only span
        board.slot(0).observe_span("no.such.site", 0.5)
        page = render_prometheus(board)
        assert "stream.step" not in page

    def test_rendered_histogram_is_cumulative(self):
        board = MetricsBoard.in_memory()
        for seconds in (0.0005, 0.02, 3.0):
            board.slot(0).observe_span("swap.apply", seconds)
        page = render_prometheus(board)
        lines = [
            l
            for l in page.splitlines()
            if l.startswith('repro_span_seconds_bucket{span="swap.apply"')
        ]
        assert len(lines) == len(SPAN_BUCKETS) + 1
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 3
        assert 'repro_span_seconds_count{span="swap.apply"} 3' in page

    def test_untraced_page_has_no_span_series(self):
        page = render_prometheus(MetricsBoard.in_memory())
        assert "repro_span_seconds" not in page

    def test_every_serving_site_has_columns(self):
        board = MetricsBoard.in_memory()
        for site in SERVING_SPAN_SITES:
            board.slot(0).observe_span(site, 0.01)
            assert int(board.column(f"span_count__{site}")[0]) == 1

    def test_build_info_gauge_present(self):
        page = render_prometheus(MetricsBoard.in_memory())
        assert 'repro_build_info{revision="' in page


class TestAdmissionGate:
    def test_sheds_beyond_capacity(self):
        gate = AdmissionGate(2)
        assert gate.try_enter() and gate.try_enter()
        assert not gate.try_enter()
        gate.leave()
        assert gate.try_enter()
        assert gate.stats == {"capacity": 2, "depth": 2, "admitted": 3, "shed": 1}

    def test_zero_capacity_disables_shedding(self):
        gate = AdmissionGate(0)
        assert all(gate.try_enter() for _ in range(100))
        assert gate.stats["shed"] == 0

    def test_leave_without_enter_is_guarded(self):
        gate = AdmissionGate(1)
        gate.leave()
        assert gate.depth == 0
        assert gate.try_enter()

    def test_feeds_queue_depth_gauge(self):
        board = MetricsBoard.in_memory()
        gate = AdmissionGate(4, metrics=board.slot(0))
        gate.try_enter()
        gate.try_enter()
        assert int(board.column("queue_depth")[0]) == 2
        gate.leave()
        assert int(board.column("queue_depth")[0]) == 1

    def test_thread_safety_under_contention(self):
        import threading

        gate = AdmissionGate(5)
        results = []

        def hammer():
            for _ in range(200):
                if gate.try_enter():
                    gate.leave()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert gate.depth == 0
        assert gate.stats["admitted"] + gate.stats["shed"] == 8 * 200
