"""The three closed-loop workloads (README.md says why these three).

``run(main)`` sets a workload up and warms it, awaits the coroutine
``main``, and tears everything down whatever happens.  ``batch(i)`` is the
timed part: it returns one wall-clock latency (seconds) per action.
``check()`` is untimed: it judges the outputs of the last batch, adds
wrong or missing ones to ``failed`` and refreshes the exact ``counters``.
Batch 0 is the warm-up and the profiled batch; timed batches count from 1.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import statistics
import time

import layers
from repro.rt.tcp import encode_frame, read_frame
from repro.service.protocol import ActionOutcome, ActionRequest, execute_request
from repro.service.server import ResolutionServer
from repro.simkernel.trace import TraceLevel
from repro.workloads import campaigns
from repro.workloads.generator import expected_general_messages, general_case

clock = time.perf_counter


def build_run_split(builds: list[float], totals: list[float]) -> dict[str, float]:
    """Spans around ``general_case`` + ``Scenario.build`` against whole actions."""
    return {
        "workloads.build_ms_p50": statistics.median(builds) * 1000,
        "workloads.run_ms_p50":
            statistics.median(t - b for b, t in zip(builds, totals)) * 1000,
        "workloads.build_share": sum(builds) / sum(totals),
    }


class Workload:
    batch_size = 1
    profile_batches = 1
    server = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.failed = 0
        #: Exact per-action work counters of the last checked batch.
        self.counters: dict[str, float] = {}

    def run(self, main):
        async def go():
            await self.batch(0)  # warm-up: lazy imports, caches, allocator
            return await main()

        return asyncio.run(go())


class SimLarge(Workload):
    """One N=256, P=128, Q=64 action per batch on the simulator."""

    name = "sim_large"
    N, P, Q = 256, 128, 64
    EXPECTED = expected_general_messages(N, P, Q)

    def scenario(self, index: int):
        return general_case(
            self.N, self.P, self.Q, seed=self.seed + index,
            trace_level=TraceLevel.COUNTS,
        )

    async def batch(self, index: int) -> list[float]:
        start = clock()
        self.result = self.scenario(index).run()
        return [clock() - start]

    def check(self) -> None:
        result = self.result
        handled = result.handlers_started("A1")
        messages = result.resolution_message_total()
        self.failed += not (
            result.status("A1").name == "COMPLETED"
            and len(handled) == self.N
            and len(set(handled.values())) == 1
            and messages == self.EXPECTED
        )
        counters = {
            "simkernel.events_per_action": result.runtime.sim.events_executed,
            "net.msgs_per_action": result.runtime.network.total_sent(),
            "core.model_ratio": messages / self.EXPECTED,
        }
        # Same shape every action, so the counts must repeat exactly.
        if self.counters and counters != self.counters:
            raise AssertionError(f"counters moved: {self.counters} -> {counters}")
        self.counters = counters

    def extras(self) -> dict[str, float]:
        builds, totals = [], []
        for index in (1, 2):
            start = clock()
            runtime = self.scenario(index).build()[0]
            built = clock()
            runtime.run(max_events=500_000)  # the rest of Scenario.run
            builds.append(built - start)
            totals.append(clock() - start)
        return {
            **build_run_split(builds, totals), **layers.probe_queue(),
            **layers.probe_net(), **layers.probe_core(),
        }


class Faults(Workload):
    """One pass over the 290-cell default fault matrix per batch.

    Paper-family cells take their seed from ``random.Random(seed)``.  A fuzz
    cell's seed *is* its world, that is its shape, so it stays as the matrix
    has it (and base-variant fuzz crash cells fail the oracle on some seeds).
    """

    name = "faults"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        self.cells = [
            dataclasses.replace(cell, seed=rng.randrange(1 << 30))
            if cell.family == "paper" else cell
            for cell in campaigns.default_matrix(seed=0)
        ]
        self.batch_size = len(self.cells)

    async def batch(self, index: int) -> list[float]:
        walls, self.outcomes = [], []
        for cell in self.cells:
            start = clock()
            self.outcomes.append(campaigns.run_cell(cell))
            walls.append(clock() - start)
        return walls

    def check(self) -> None:
        self.failed += sum(outcome.bad for outcome in self.outcomes)
        modelled = [o for o in self.outcomes if o.expected is not None]
        self.counters["core.model_ratio"] = (
            sum(o.measured for o in modelled) / sum(o.expected for o in modelled)
        )

    def extras(self) -> dict[str, float]:
        """Exact event/message/retransmit counts of one pass, and probes."""
        events = msgs = retransmits = 0
        for cell in self.cells:
            runtime = campaigns.observe_cell(cell).runtime
            events += runtime.sim.events_executed
            msgs += runtime.network.total_sent()
            retransmits += getattr(runtime.network, "retransmissions", 0)
        return {
            "simkernel.events_per_action": events / self.batch_size,
            "net.msgs_per_action": msgs / self.batch_size,
            "net.retransmits_per_action": retransmits / self.batch_size,
            **layers.probe_queue_cancel(), **layers.probe_reliable_net(),
            **layers.probe_obs(),
        }


#: The 125 quantiles (i + 0.5) / 125 of loadgen's ``heavy`` size mix,
#: 1 + floor(Pareto(1.6)) clipped to [2, 32]: every batch of every seed
#: serves the same sizes, so batches cost about the same.
SVC_SIZES = [
    min(32, max(2, 1 + int((1 - (i + 0.5) / 125) ** (-1 / 1.6))))
    for i in range(125)
]
SVC_VARIANTS = ("base", "ct", "mc", "cd")
CLIENTS = 2
VERIFY_EVERY = 50


def svc_shapes(rng: random.Random) -> list[tuple[str, int, int, int]]:
    """(variant, n, p, q) of one batch: the fixed sizes x variants, p and q
    drawn by ``loadgen.sample_request``'s rules."""
    shapes = []
    for variant in SVC_VARIANTS:
        for n in SVC_SIZES:
            p = rng.randint(1, max(1, (n + 1) // 2))
            q = 0 if variant == "cd" else min(n - p, rng.randint(0, 2))
            shapes.append((variant, n, p, q))
    return shapes


class SvcClosed(Workload):
    """500 requests per batch from 2 closed-loop clients that share the
    server's event loop and reach it over loopback TCP."""

    name = "svc_closed"
    batch_size = len(SVC_SIZES) * len(SVC_VARIANTS)
    #: p and q of the few large requests move a batch's work by a few per
    #: cent, so the call count is taken over three batches.
    profile_batches = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.conns = []
        self.shed = 0

    def make_requests(self, index: int) -> list[ActionRequest]:
        """Batch ``index`` of this seed: fresh p, q, engine seeds and order."""
        rng = random.Random(self.seed * 1_000_003 + index)
        requests = [
            ActionRequest(id=i, variant=v, n=n, p=p, q=q, seed=rng.randrange(1 << 30))
            for i, (v, n, p, q) in enumerate(svc_shapes(rng))
        ]
        rng.shuffle(requests)
        return requests

    def run(self, main):
        server = self.server = ResolutionServer(port=0)
        result = []

        async def service():
            try:
                await server.ready.wait()
                for _ in range(CLIENTS):
                    self.conns.append(
                        await asyncio.open_connection(server.host, server.port)
                    )
                # Token-bucket slow start: warm up until nothing is shed.
                index = 0
                while index == 0 or self.shed:
                    await self.batch(index)
                    self.check()
                    index -= 1
                self.failed = 0
                result.append(await main())
            except Exception as exc:  # noqa: BLE001 — re-raised by serve_forever
                server.kernel.fail(exc)
            finally:
                try:
                    for _, writer in self.conns:
                        writer.close()
                    for _, writer in self.conns:
                        await writer.wait_closed()
                finally:
                    server.stop()

        server.kernel.add_service(service)
        try:
            # A reply that never comes ends the run here, without a result.
            server.serve_forever(max_seconds=170)
            left = [t for t in asyncio.all_tasks(server.kernel.loop) if not t.done()]
            if left or not result:
                raise RuntimeError(f"no result, or tasks left after stop: {left}")
        finally:
            server.close()
        return result[0]

    async def client(self, conn, todo: list, walls: list) -> None:
        reader, writer = conn
        while todo:
            request = todo.pop()
            frame = encode_frame(request.to_header())
            start = clock()
            writer.write(frame)
            await writer.drain()
            reply, _ = await read_frame(reader)
            walls.append(clock() - start)
            self.replies[request.id] = reply

    async def batch(self, index: int) -> list[float]:
        self.requests = self.make_requests(index)
        self.replies = {}
        todo, walls = self.requests[::-1], []
        await asyncio.gather(*(self.client(c, todo, walls) for c in self.conns))
        return walls

    def check(self) -> None:
        self.shed = messages = base_messages = base_expected = 0
        for i, request in enumerate(self.requests):
            reply = self.replies[request.id]
            if reply.get("type") != "outcome" or reply["status"] != "committed":
                self.shed += reply.get("type") == "overloaded"
                self.failed += 1
                continue
            if i % VERIFY_EVERY == 0:
                self.failed += ActionOutcome.from_header(reply) != execute_request(request)
            messages += reply["messages"]
            if request.variant == "base":
                base_messages += reply["messages"]
                base_expected += expected_general_messages(request.n, request.p, request.q)
        self.counters = {
            "net.msgs_per_action": messages / self.batch_size,
            "core.model_ratio": base_messages / base_expected if base_expected else 0.0,
        }

    def extras(self) -> dict[str, float]:
        """The last batch's requests replayed in-process, without the server."""
        inproc, builds, totals = [], [], []
        for request in self.requests:
            start = clock()
            execute_request(request)
            inproc.append(clock() - start)
            if request.variant == "base":
                start = clock()
                general_case(
                    request.n, request.p, request.q, seed=request.seed,
                    trace_level=TraceLevel.COUNTS,
                ).build()
                builds.append(clock() - start)
                totals.append(inproc[-1])
        return {
            "service.inproc_execute_ms_mean": statistics.mean(inproc) * 1000,
            **build_run_split(builds, totals), **layers.probe_codec(),
        }


WORKLOADS = {w.name: w for w in (SimLarge, Faults, SvcClosed)}
