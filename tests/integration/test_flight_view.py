"""A request's spans are a view of its record, and the view is pinned.

``tests/golden/flight/`` was written at ``fc12cb3`` — the last commit whose
server built a span collector per request as it went — by driving that
flight recorder with a fake clock and fixed trace contexts through the
server's own sequence of calls for the cases below.  Since then the server
keeps one :class:`~repro.service.flight.RequestRecord` per request and
builds spans only when they are read.  These tests hold both readings to
what the collector used to produce: the span records shipped to a tracing
client and the stall dump's JSONL and Chrome files, span ids included.
Untraced requests drew a random trace id there, so every trace id but the
fixed ones reads ``<untraced>``.

Regenerate on purpose only: ``PYTHONPATH=src python
tests/integration/test_flight_view.py``.
"""

import json
from pathlib import Path

from repro.net.message import reset_msg_ids
from repro.obs.spans import TraceContext
from repro.service.flight import FlightRecorder, request_spans
from repro.service.protocol import ActionRequest, execute_request_traced, rescale_records

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "flight"
TRACED = ("feedc0de00000004", "feedc0de00000005")
FILES = ("shipped.json", "flight-0001-stall.spans.jsonl", "flight-0001-stall.trace.json")

#: An engine span that never closed: the shipped copy ends it at the
#: serialize instant, the dump leaves it open.
OPEN_ENGINE_SPAN = {
    "span_id": 99, "parent_id": None, "name": "action A1", "category": "action",
    "subject": "O0009", "start": 2.0, "end": None, "cause_ids": [], "attrs": {},
}


def _execute(variant: str, n: int, p: int, q: int) -> dict:
    return {"variant": variant, "n": n, "p": p, "q": q}


def _record_cases(dump_dir: Path) -> dict[str, str]:
    """File name -> text of each artifact, for the fixed set of requests."""
    flight = FlightRecorder(
        capacity=8, dump_dir=dump_dir, stall_after=30.0, min_dump_interval=5.0
    )
    shipped: dict[str, list] = {}

    def queued(req_id, admitted, context=None, depth=0):
        record = flight.start(admitted, request_id=req_id, context=context)
        record.queue_depth = depth
        return record

    def served(req_id, admitted, context, execute, engine=None):
        record = queued(req_id, admitted, context, depth=req_id % 3)
        dequeued, executed = admitted + 0.25, admitted + 0.5
        record.instants.append(dequeued)
        record.execute = execute
        record.instants.append(executed)
        execute["status"] = "committed"
        if engine is not None:
            outcome, records = engine
            record.engine = rescale_records(
                records, dequeued, executed, max(outcome.sim_duration, 1e-9)
            )
        record.instants.append(admitted + 0.625)
        if context is not None:
            shipped[str(req_id)] = request_spans(record, shipped=True).to_records()
        flight.finish(record, admitted + 0.75, "committed")

    # shed
    flight.finish(flight.start(1.0, request_id=1), 1.125, "shed")
    # engine error
    record = queued(2, 2.0, depth=1)
    record.instants.append(2.5)
    record.execute = _execute("base", 3, 1, 0)
    flight.finish(record, 2.75, "error")
    # committed, untraced; committed for a tracing client; with engine records
    served(3, 3.0, None, _execute("ct", 4, 2, 1))
    served(4, 4.0, TraceContext(TRACED[0], parent_span=7), _execute("mc", 5, 2, 0))
    reset_msg_ids()  # cause ids are message ids, numbered as in a fresh process
    outcome, records = execute_request_traced(
        ActionRequest(id=5, variant="base", n=3, p=1, q=0, seed=1, trace=True)
    )
    served(
        5, 5.0, TraceContext(TRACED[1], parent_span=11), _execute("base", 3, 1, 0),
        engine=(outcome, records + [dict(OPEN_ENGINE_SPAN)]),
    )
    # still open: in execute, in queue-wait, in reply (a drain that never ends)
    record = queued(6, 6.0)
    record.instants.append(6.5)
    record.execute = _execute("cd", 6, 1, 0)
    queued(7, 7.0, depth=1)
    record = queued(8, 8.0, depth=2)
    record.instants += [8.25, 8.5, 8.625]
    record.execute = {**_execute("base", 2, 1, 0), "status": "committed"}

    assert flight.check_stalls(40.0) == 3
    assert flight.suppressed == 2

    texts = {"shipped.json": json.dumps(shipped, indent=1, sort_keys=True) + "\n"}
    for path in flight.dumps:
        texts[path.name] = path.read_text()
    return texts


def _normalised(name: str, text: str) -> str:
    def fix(attrs: dict) -> None:
        if "trace_id" in attrs and attrs["trace_id"] not in TRACED:
            attrs["trace_id"] = "<untraced>"

    if name.endswith(".jsonl"):
        lines = [json.loads(line) for line in text.splitlines()]
        for line in lines:
            fix(line["attrs"])
        return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    if name.endswith(".trace.json"):
        doc = json.loads(text)
        for event in doc["traceEvents"]:
            fix(event.get("args", {}))
        return json.dumps(doc, indent=1) + "\n"
    return text


def test_shipped_records_and_dump_match_the_span_collector_they_replace(tmp_path) -> None:
    texts = _record_cases(tmp_path)
    assert sorted(texts) == sorted(FILES)
    for name in FILES:
        assert _normalised(name, texts[name]) == (GOLDEN / name).read_text(), name


def test_untraced_trace_ids_are_distinct_per_request(tmp_path) -> None:
    texts = _record_cases(tmp_path)
    roots = [
        json.loads(line) for line in texts["flight-0001-stall.spans.jsonl"].splitlines()
    ]
    ids = [r["attrs"]["trace_id"] for r in roots if r["category"] == "request"]
    assert len(ids) == 8 and len(set(ids)) == 8


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for name, text in _record_cases(Path(scratch)).items():
            (GOLDEN / name).write_text(_normalised(name, text))
            print(f"{name}: {len(text)} bytes")
