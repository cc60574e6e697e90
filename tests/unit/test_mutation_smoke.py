"""Mutation-smoke machinery: mutants must keep applying as the code evolves.

Each mutant is an exact-text patch against the protocol engines; a
refactor that moves the patched lines would silently turn a mutant into
a no-op ``RuntimeError`` at campaign time.  This test fails at tier-1
instead, pointing at the drifted mutant.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO_ROOT / "benchmarks"


def _load_module():
    spec = importlib.util.spec_from_file_location(
        "mutation_smoke_under_test", BENCH_DIR / "mutation_smoke.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_mutant_pattern_occurs_exactly_once() -> None:
    mod = _load_module()
    for mutant in mod.MUTANTS:
        text = (REPO_ROOT / mutant.path).read_text()
        assert text.count(mutant.old) == 1, (
            f"{mutant.mutant_id}: pattern occurs {text.count(mutant.old)}x "
            f"in {mutant.path} — engine drifted, update the mutant"
        )
        assert mutant.old != mutant.new


def test_mutant_ids_unique_and_smoke_subset_valid() -> None:
    mod = _load_module()
    ids = [m.mutant_id for m in mod.MUTANTS]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 25
    assert set(mod.SMOKE_IDS) <= set(ids)
    targets = {m.path for m in mod.MUTANTS}
    assert targets == {
        "src/repro/core/algorithm.py",
        "src/repro/core/participant.py",
        "src/repro/core/variants.py",
        "src/repro/core/crash_tolerant.py",
        "src/repro/core/multicast_variant.py",
        "src/repro/core/centralized_variant.py",
        "src/repro/net/network.py",
        "src/repro/net/detector.py",
        "src/repro/net/reliable.py",
        "src/repro/explore/engine.py",
        "src/repro/explore/independence.py",
    }
    # The CI subset covers every mutated file: the protocol engines, the
    # substrate, the detector and its transport, and the explorer.
    smoke_targets = {
        m.path for m in mod.MUTANTS if m.mutant_id in mod.SMOKE_IDS
    }
    assert smoke_targets == targets


def test_apply_mutant_patches_shadow_tree(tmp_path) -> None:
    mod = _load_module()
    mutant = mod.MUTANTS[0]
    target = tmp_path / mutant.path
    target.parent.mkdir(parents=True)
    target.write_text((REPO_ROOT / mutant.path).read_text())
    mod.apply_mutant(tmp_path, mutant)
    patched = target.read_text()
    assert mutant.old not in patched
    assert mutant.new in patched


def test_apply_mutant_rejects_drifted_pattern(tmp_path) -> None:
    import pytest

    mod = _load_module()
    mutant = mod.MUTANTS[0]
    target = tmp_path / mutant.path
    target.parent.mkdir(parents=True)
    target.write_text("nothing to match here\n")
    with pytest.raises(RuntimeError, match="expected exactly 1"):
        mod.apply_mutant(tmp_path, mutant)


def test_detection_suite_passes_on_pristine_tree() -> None:
    """A detection suite that fails on healthy code kills nothing honestly."""
    mod = _load_module()
    assert mod.detection_problems() == []


def test_the_report_names_its_machine() -> None:
    """``BENCH_mutation.json`` says where it was recorded, in the block
    ``BENCH_explore.json`` carries."""
    _load_module()  # puts benchmarks/ on sys.path for ``_harness``
    from _harness import machine

    report = json.loads((REPO_ROOT / "BENCH_mutation.json").read_text())
    assert set(report["machine"]) == set(machine()) == {
        "cpu_count", "usable_cpus", "platform", "python",
    }
    assert all(value is not None for value in report["machine"].values())
