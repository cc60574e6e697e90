"""Property tests: ``explore_cell(workers=)`` changes no result.

Checked under Hypothesis across randomized cells and worker counts:
random walks run on a process pool give **the in-process result** —
digests, findings, schedule counts — for every worker count.

In-process reference results are memoised per cell so Hypothesis examples
pay only for the pooled side.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore.engine import explore_cell

CELLS = (
    "paper:base:none:n2p1q1:s0",
    "paper:mc:none:n2p1q1:s0",
    "paper:ct:none:n2p1q1:s0",
)
_SERIAL_RANDOM: dict[tuple, object] = {}


def _serial_random(cell_id: str, schedules: int, seed: int):
    key = (cell_id, schedules, seed)
    result = _SERIAL_RANDOM.get(key)
    if result is None:
        result = explore_cell(
            cell_id, mode="random", schedules=schedules, seed=seed
        )
        _SERIAL_RANDOM[key] = result
    return result


@settings(max_examples=8, deadline=None)
@given(
    cell_id=st.sampled_from(CELLS),
    seed=st.integers(min_value=0, max_value=20),
    schedules=st.integers(min_value=2, max_value=10),
    workers=st.sampled_from([1, 2, 4]),
)
def test_sharded_random_equals_serial(cell_id, seed, schedules, workers):
    serial = _serial_random(cell_id, schedules, seed)
    pooled = explore_cell(
        cell_id, mode="random", schedules=schedules, seed=seed,
        workers=workers,
    )
    assert pooled.digests == serial.digests
    assert pooled.findings == serial.findings
    assert pooled.schedules_run == serial.schedules_run

