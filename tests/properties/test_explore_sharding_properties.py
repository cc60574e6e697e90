"""Property tests: ``explore_cell(workers=, cache=)`` changes no result.

Checked under Hypothesis across randomized cells, worker counts and cache
corruption:

* random walks run on a process pool give **the in-process result** —
  digests, findings, schedule counts — for every worker count;
* a warm digest cache reproduces the cold run exactly, and a corrupted
  or torn cache degrades to a cold start — never a wrong skip.

In-process reference results are memoised per cell so Hypothesis examples
pay only for the pooled side.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore.cache import DigestCache
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


# -- warm cache == cold run; corruption degrades safely ------------------------------


@st.composite
def _corruptions(draw):
    """A corruption op applied to the raw cache bytes."""
    kind = draw(st.sampled_from(["tear", "flip", "garbage", "truncate_all"]))
    offset = draw(st.integers(min_value=0, max_value=10_000))
    byte = draw(st.integers(min_value=0, max_value=255))
    return kind, offset, byte


def _corrupt(path, op) -> None:
    kind, offset, byte = op
    data = path.read_bytes()
    if not data:
        return
    if kind == "tear":
        path.write_bytes(data[: len(data) - 1 - offset % len(data)])
    elif kind == "flip":
        index = offset % len(data)
        flipped = bytes([data[index] ^ (byte or 1)])
        path.write_bytes(data[:index] + flipped + data[index + 1:])
    elif kind == "garbage":
        index = offset % len(data)
        path.write_bytes(data[:index] + b"\xff\x00garbage\n" + data[index:])
    else:  # truncate_all
        path.write_bytes(b"")


@settings(max_examples=10, deadline=None)
@given(
    cell_id=st.sampled_from(CELLS),
    seed=st.integers(min_value=0, max_value=10),
    op=_corruptions(),
)
def test_corrupted_cache_never_wrong_always_equal(tmp_path_factory, cell_id, seed, op):
    tmp_path = tmp_path_factory.mktemp("cache")
    path = tmp_path / "digests.jsonl"
    schedules = 5
    with DigestCache(path, context="prop") as cache:
        cold = explore_cell(
            cell_id, mode="random", schedules=schedules, seed=seed,
            cache=cache,
        )
    _corrupt(path, op)
    with DigestCache(path, context="prop") as cache:
        warm = explore_cell(
            cell_id, mode="random", schedules=schedules, seed=seed,
            cache=cache,
        )
        loaded = cache.stats.entries_loaded
    # Whatever survived corruption, the exploration result is identical —
    # a damaged entry costs a recompute, never a wrong answer.
    assert warm.digests == cold.digests
    assert warm.findings == cold.findings
    assert warm.schedules_run == cold.schedules_run
    assert warm.bounds["cache_hits"] + warm.bounds["cache_misses"] == schedules
    assert warm.bounds["cache_hits"] <= loaded


@settings(max_examples=8, deadline=None)
@given(
    cell_id=st.sampled_from(CELLS),
    seed=st.integers(min_value=0, max_value=10),
    schedules=st.integers(min_value=2, max_value=8),
)
def test_warm_cache_is_digest_identical_and_all_hits(
    tmp_path_factory, cell_id, seed, schedules
):
    tmp_path = tmp_path_factory.mktemp("cache")
    path = tmp_path / "digests.jsonl"
    with DigestCache(path, context="prop") as cache:
        cold = explore_cell(
            cell_id, mode="random", schedules=schedules, seed=seed,
            cache=cache,
        )
        assert cold.bounds["cache_misses"] == schedules
    with DigestCache(path, context="prop") as cache:
        warm = explore_cell(
            cell_id, mode="random", schedules=schedules, seed=seed,
            cache=cache,
        )
    assert warm.bounds["cache_hits"] == schedules
    assert warm.bounds["cache_misses"] == 0
    assert warm.digests == cold.digests
    assert warm.findings == cold.findings


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10))
def test_stale_code_context_forces_cold_start(tmp_path_factory, seed):
    tmp_path = tmp_path_factory.mktemp("cache")
    path = tmp_path / "digests.jsonl"
    cell_id = CELLS[2]
    with DigestCache(path, context="code-v1") as cache:
        explore_cell(
            cell_id, mode="random", schedules=3, seed=seed, cache=cache
        )
    with DigestCache(path, context="code-v2") as cache:
        rerun = explore_cell(
            cell_id, mode="random", schedules=3, seed=seed, cache=cache
        )
    assert rerun.bounds["cache_hits"] == 0
    assert rerun.bounds["cache_misses"] == 3
