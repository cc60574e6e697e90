"""Tests for the Campbell–Randell baseline reconstruction."""

import math

import pytest

from repro.core.cr_baseline import (
    CR_KINDS,
    domino_chain_tree,
    reduced_set_for,
    run_cr_domino,
)
from repro.core.variants import run_action
from repro.workloads.generator import all_raise_case, single_exception_case


def raises_total(result) -> int:
    return sum(len(p.raised) for p in result.participants.values())


class TestDominoChainConstruction:
    def test_chain_shape(self):
        tree, chain = domino_chain_tree(3, levels_per_participant=2)
        assert len(chain) == 7
        assert tree.root is chain[0]
        assert tree.depth(chain[-1]) == 6

    def test_reduced_sets_interleave(self):
        tree, chain = domino_chain_tree(2, levels_per_participant=2)
        r0 = reduced_set_for(tree, chain, 0, 2)
        r1 = reduced_set_for(tree, chain, 1, 2)
        assert r0.handles(chain[0]) and r0.handles(chain[2]) and r0.handles(chain[4])
        assert not r0.handles(chain[1])
        assert r1.handles(chain[1]) and r1.handles(chain[3])
        assert r1.handles(chain[0])  # root always handled

    def test_cover_climbs_one_window(self):
        tree, chain = domino_chain_tree(2, levels_per_participant=2)
        r1 = reduced_set_for(tree, chain, 1, 2)
        assert r1.cover_for(chain[4]) is chain[3]


class TestDominoEffect:
    """Section 3.3: 'any exception will always lead to further exceptions
    until the root of the exception tree is reached'."""

    def test_cascade_reaches_root(self):
        result = run_cr_domino(2, levels_per_participant=2)
        assert result.all_handled()
        assert result.handled_exceptions() == {"Chain_0"}
        # Every chain level was raised along the way.
        assert raises_total(result) == 5

    def test_new_algorithm_needs_one_exception(self):
        """The paper's fix: complete handler sets kill the domino."""
        cr = run_cr_domino(4)
        new = single_exception_case(4).run()
        assert raises_total(cr) > 1
        raises = new.runtime.trace.by_category("raise")
        assert len(raises) == 1

    def test_all_participants_handle_consistently(self):
        result = run_cr_domino(6)
        assert result.all_handled()
        assert len(result.handled_exceptions()) == 1


class TestComplexityShape:
    """Section 4.4: CR is O(N^3); the new algorithm is O(N^2)."""

    @staticmethod
    def _slope(points):
        (x1, y1), (x2, y2) = points[0], points[-1]
        return math.log(y2 / y1) / math.log(x2 / x1)

    def test_cr_concurrent_grows_cubically(self):
        points = [
            (n, run_action("cr", n, n).messages()) for n in (4, 8, 16)
        ]
        slope = self._slope(points)
        assert 2.6 < slope < 3.4

    def test_new_algorithm_grows_quadratically(self):
        points = [
            (n, all_raise_case(n).run().resolution_message_total())
            for n in (4, 8, 16)
        ]
        slope = self._slope(points)
        assert 1.7 < slope < 2.3

    def test_cr_domino_grows_cubically(self):
        points = [(n, run_cr_domino(n).messages()) for n in (4, 8, 16)]
        slope = self._slope(points)
        assert 2.6 < slope < 3.5

    def test_new_algorithm_wins_and_gap_widens(self):
        ratios = []
        for n in (4, 8, 16):
            cr = run_action("cr", n, n).messages()
            new = all_raise_case(n).run().resolution_message_total()
            assert cr > new
            ratios.append(cr / new)
        assert ratios == sorted(ratios)  # the gap grows with N


class TestCRBehaviour:
    def test_concurrent_resolution_consistent(self):
        result = run_action("cr", 5, 5)
        assert result.all_handled()
        assert len(result.handled_exceptions()) == 1

    def test_single_raiser_subset(self):
        result = run_action("cr", 6, 1)
        assert result.all_handled()
        assert result.handled_exceptions() == {"CRC_0"}

    def test_invalid_raisers_rejected(self):
        with pytest.raises(ValueError):
            run_action("cr", 3, 0)
        with pytest.raises(ValueError):
            run_action("cr", 3, 4)

    def test_messages_by_kind_totals(self):
        result = run_action("cr", 4, 4)
        sent = result.runtime.network.sent_by_kind
        by_kind = {kind: sent.get(kind, 0) for kind in CR_KINDS}
        assert sum(by_kind.values()) == result.messages()
        assert by_kind["CR_EXCEPTION"] == 4 * 3
        assert by_kind["CR_ACK"] == 4 * 3

    def test_duplicate_raise_ignored(self):
        result = run_action("cr", 3, 1)
        participant = result.participants["O0000"]
        before = result.messages()
        participant.raise_exception(next(iter(participant.raised)))
        assert result.messages() == before
