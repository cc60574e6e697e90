"""Property-based tests: concurrent request traces never cross-link.

The tracing invariant service tracing rests on: however request
lifecycles interleave (start / stage boundary / engine records / finish,
overlapping arbitrarily across sessions), every span in the view of a
request's record stays reachable from that request's root and no span is
shared between two trace ids.  A violation here is exactly the "server
cross-linked my trace" bug the loadgen counts as ``trace_mismatches``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.spans import SpanCollector, TraceContext
from repro.service.flight import STAGES, FlightRecorder, request_spans

# One lifecycle step: (request index, operation).  Interleavings emerge
# from drawing many steps over a handful of request indices.
steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.sampled_from(("start", "stage", "graft", "finish")),
    ),
    min_size=1,
    max_size=60,
)


def _engine_records(tag: int) -> list[dict]:
    return [
        {"span_id": 1, "parent_id": None, "name": f"action A{tag}",
         "category": "action", "subject": f"O{tag}", "start": 0.0, "end": 2.0},
        {"span_id": 2, "parent_id": 1, "name": f"resolution A{tag}",
         "category": "resolution", "subject": f"O{tag}", "start": 0.5,
         "end": 1.5},
    ]


class TestInterleavedTracesStayDisjoint:
    @given(steps=steps, capacity=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_no_cross_linking(self, steps, capacity) -> None:
        recorder = FlightRecorder(capacity=capacity)
        live: dict[int, object] = {}
        # Keyed by record object: the same request index can restart after
        # a finish, and the retired record must keep its own expected id.
        expected_ids: dict[int, str] = {}  # id(record) -> trace id
        finished_order: list[int] = []
        now = 0.0
        for index, op in steps:
            now += 0.25
            record = live.get(index)
            if op == "start":
                if record is None:
                    context = TraceContext.new()
                    record = recorder.start(
                        now, request_id=index, context=context.child(7)
                    )
                    live[index] = record
                    expected_ids[id(record)] = context.trace_id
            elif record is None:
                continue
            elif op == "stage":
                if record.queue_depth is None:
                    record.queue_depth = index
                elif len(record.instants) < len(STAGES):
                    record.instants.append(now)
            elif op == "graft":
                record.engine = _engine_records(index)
            else:  # finish
                recorder.finish(record, now, "committed")
                finished_order.append(index)
                del live[index]

        # Every record — still open or retained in the ring — views as a
        # consistent forest that claims exactly its own spans.
        retained = recorder.open_traces() + recorder.completed_traces()
        views = [request_spans(record) for record in retained]
        for record, spans in zip(retained, views):
            assert spans.forest_problems() == []
            (root,) = spans.child_index()[None]
            assert root.attrs["trace_id"] == record.trace_id
            assert expected_ids[id(record)] == record.trace_id
            # Engine records were tagged with the request index: no span
            # from another request may appear here.
            for span in spans:
                if span.category in ("action", "resolution"):
                    assert span.name.endswith(f"A{record.request_id}")

        # The merged dump keeps the forests disjoint too: one root per
        # retained record, and grafting preserved every span count.
        merged = recorder.merged_collector()
        assert merged.forest_problems() == []
        assert len(merged.child_index().get(None, [])) == len(retained)
        assert len(merged) == sum(len(spans) for spans in views)

        # Ring semantics: the last `capacity` finished requests, in order.
        kept = [r.request_id for r in recorder.completed_traces()]
        assert kept == finished_order[-capacity:] if finished_order else not kept

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_client_side_grafts_stay_per_request(self, seed) -> None:
        """Two traced requests answered out of order still graft each
        server forest under its own client root."""
        client = SpanCollector(clock="wall")
        recorder = FlightRecorder()
        roots, records = {}, {}
        for index in (0, 1):
            context = TraceContext.new()
            root = client.begin(
                f"request {index}", "request", "client", float(index),
                trace_id=context.trace_id,
            )
            roots[index] = root
            record = records[index] = recorder.start(
                1.0 + index, request_id=index, context=context.child(root)
            )
            record.queue_depth = 0
            record.instants += [1.5 + index, 2.0 + index, 2.5 + index]
            record.engine = _engine_records(index)
        # Replies arrive in seed-dependent order.
        order = (0, 1) if seed % 2 == 0 else (1, 0)
        for index in order:
            shipped = request_spans(records[index], shipped=True).to_records()
            recorder.finish(records[index], 5.0 + index, "committed")
            client.graft(shipped, parent=roots[index])
            client.end(roots[index], 6.0 + index)
        assert client.forest_problems() == []
        index_map = client.child_index()
        for index in (0, 1):
            subtree = index_map.get(roots[index], [])
            (server_root,) = [s for s in subtree if s.category == "request"]
            assert server_root.attrs["trace_id"] == records[index].trace_id
            engine = [
                s for s in client.by_category("action")
                if s.name == f"action A{index}"
            ]
            assert len(engine) == 1
