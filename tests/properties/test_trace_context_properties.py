"""Property-based tests: concurrent request traces never cross-link.

The tracing invariant the whole PR rests on: however request lifecycles
interleave (start / stage / engine-graft / finish, overlapping
arbitrarily across sessions), every span in a request's trace stays
reachable from that request's root and no span is shared between two
trace ids.  A violation here is exactly the "server cross-linked my
trace" bug the loadgen counts as ``trace_mismatches``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.spans import SpanCollector, TraceContext
from repro.service.flight import FlightRecorder

STAGES = ("queue-wait", "execute", "serialize", "reply")

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
        # Keyed by trace object: the same request index can restart after
        # a finish, and the retired trace must keep its own expected id.
        expected_ids: dict[int, str] = {}  # id(trace) -> trace id
        finished_order: list[int] = []
        now = 0.0
        for index, op in steps:
            now += 0.25
            trace = live.get(index)
            if op == "start":
                if trace is None:
                    context = TraceContext.new()
                    trace = recorder.start(
                        now, request_id=index, context=context.child(7)
                    )
                    live[index] = trace
                    expected_ids[id(trace)] = context.trace_id
            elif trace is None:
                continue
            elif op == "stage":
                trace.begin_stage(STAGES[len(trace.spans) % len(STAGES)], now)
            elif op == "graft":
                trace.graft_engine(_engine_records(index))
            else:  # finish
                recorder.finish(trace, now, "committed")
                finished_order.append(index)
                del live[index]

        # Every trace — still open or retained in the ring — is internally
        # consistent and claims exactly its own spans.
        retained = recorder.open_traces() + recorder.completed_traces()
        for trace in retained:
            assert trace.spans.forest_problems() == []
            roots = trace.spans.child_index()[None]
            assert [r.span_id for r in roots] == [trace.root]
            assert roots[0].attrs["trace_id"] == trace.trace_id
            assert expected_ids[id(trace)] == trace.trace_id
            # Engine grafts were tagged with the request index: no span
            # from another request may appear here.
            for span in trace.spans:
                if span.category in ("action", "resolution"):
                    assert span.name.endswith(f"A{trace.request_id}")

        # The merged dump keeps the forests disjoint too: one root per
        # retained trace, and grafting preserved every span count.
        merged = recorder.merged_collector()
        assert merged.forest_problems() == []
        assert len(merged.child_index().get(None, [])) == len(retained)
        assert len(merged) == sum(len(t.spans) for t in retained)

        # Ring semantics: the last `capacity` finished requests, in order.
        kept = [t.request_id for t in recorder.completed_traces()]
        assert kept == finished_order[-capacity:] if finished_order else not kept

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_client_side_grafts_stay_per_request(self, seed) -> None:
        """Two traced requests answered out of order still graft each
        server forest under its own client root."""
        client = SpanCollector(clock="wall")
        recorder = FlightRecorder()
        roots, traces = {}, {}
        for index in (0, 1):
            context = TraceContext.new()
            root = client.begin(
                f"request {index}", "request", "client", float(index),
                trace_id=context.trace_id,
            )
            roots[index] = root
            traces[index] = recorder.start(
                1.0 + index, request_id=index, context=context.child(root)
            )
            traces[index].begin_stage("execute", 1.5 + index)
            traces[index].graft_engine(_engine_records(index))
        # Replies arrive in seed-dependent order.
        order = (0, 1) if seed % 2 == 0 else (1, 0)
        for index in order:
            recorder.finish(traces[index], 5.0 + index, "committed")
            client.graft(traces[index].to_records(), parent=roots[index])
            client.end(roots[index], 6.0 + index)
        assert client.forest_problems() == []
        index_map = client.child_index()
        for index in (0, 1):
            subtree = index_map.get(roots[index], [])
            (server_root,) = [s for s in subtree if s.category == "request"]
            assert server_root.attrs["trace_id"] == traces[index].trace_id
            engine = [
                s for s in client.by_category("action")
                if s.name == f"action A{index}"
            ]
            assert len(engine) == 1
