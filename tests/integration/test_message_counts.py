"""The Section 4.4 complexity analysis, verified by counting real messages.

Every test here checks an *exact* equality against the paper's formulas —
the simulator counts each protocol message actually sent, so these are the
strongest form of reproduction the paper admits.
"""

import pytest

from repro.net.latency import ConstantLatency, ExponentialLatency, UniformLatency
from repro.workloads.generator import (
    all_nested_case,
    all_raise_case,
    example1_scenario,
    example2_scenario,
    expected_general_messages,
    general_case,
    no_exception_case,
    single_exception_case,
)


class TestCase1SingleException:
    """One exception, no nested actions → 3(N-1) messages."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 16])
    def test_total(self, n):
        result = single_exception_case(n).run()
        assert result.resolution_message_total() == 3 * (n - 1)

    def test_breakdown(self):
        result = single_exception_case(7).run()
        counts = result.messages_for_action("A1")
        assert counts["EXCEPTION"] == 6
        assert counts["ACK"] == 6
        assert counts["COMMIT"] == 6
        assert counts["HAVE_NESTED"] == 0
        assert counts["NESTED_COMPLETED"] == 0


class TestCase2AllNested:
    """One exception, all other objects nested → 3N(N-1) messages."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 10])
    def test_total(self, n):
        result = all_nested_case(n).run()
        assert result.resolution_message_total() == 3 * n * (n - 1)

    def test_breakdown(self):
        n = 5
        result = all_nested_case(n).run()
        counts = result.messages_for_action("A1")
        assert counts["EXCEPTION"] == n - 1
        assert counts["HAVE_NESTED"] == (n - 1) ** 2
        assert counts["NESTED_COMPLETED"] == (n - 1) ** 2
        assert counts["ACK"] == (n - 1) + (n - 1) ** 2
        assert counts["COMMIT"] == n - 1


class TestCase3AllRaise:
    """All N objects raise simultaneously → (N-1)(2N+1) messages."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12])
    def test_total(self, n):
        result = all_raise_case(n).run()
        assert result.resolution_message_total() == (n - 1) * (2 * n + 1)

    def test_breakdown(self):
        n = 6
        result = all_raise_case(n).run()
        counts = result.messages_for_action("A1")
        assert counts["EXCEPTION"] == n * (n - 1)
        assert counts["ACK"] == n * (n - 1)
        assert counts["COMMIT"] == n - 1


class TestGeneralFormula:
    """(N-1)(2P + 3Q + 1) for P raisers and Q nested objects."""

    @pytest.mark.parametrize(
        "n,p,q",
        [
            (2, 1, 0),
            (2, 1, 1),
            (3, 2, 1),
            (4, 1, 3),
            (5, 2, 2),
            (5, 5, 0),
            (6, 3, 3),
            (8, 1, 7),
            (8, 4, 2),
            (10, 2, 5),
        ],
    )
    def test_matches(self, n, p, q):
        result = general_case(n, p, q).run()
        assert result.resolution_message_total() == expected_general_messages(
            n, p, q
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_latency_independent(self, seed):
        """The count is a protocol property: independent of delays."""
        for latency in (
            ConstantLatency(0.5),
            UniformLatency(0.1, 8.0),
            ExponentialLatency(2.0, 0.1),
        ):
            result = general_case(6, 2, 3, latency=latency, seed=seed).run()
            assert result.resolution_message_total() == expected_general_messages(
                6, 2, 3
            )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            general_case(3, p=4, q=0)
        with pytest.raises(ValueError):
            general_case(3, p=1, q=3)
        with pytest.raises(ValueError):
            general_case(0, p=0, q=0)


class TestMulticastGoldenTable:
    """Section 4.5 multicast variant: N + Q + 1 operations, pinned as
    *literal* golden values at N = 2..6.

    The literals are intentionally redundant with the formula: if a
    refactor changes either the protocol or the closed form, this table
    disagrees with one of them and names the exact cell that moved.
    """

    #: (n, p, q) -> total multicast operations.  P raisers multicast
    #: Exception, N-P suspended members multicast their ACK-equivalent,
    #: each of Q nested members multicasts NestedCompleted, the resolver
    #: multicasts Commit: P + (N - P) + Q + 1 = N + Q + 1.
    GOLDEN = {
        (2, 1, 0): 3,
        (2, 2, 0): 3,
        (3, 1, 0): 4,
        (3, 2, 1): 5,
        (3, 3, 0): 4,
        (4, 2, 1): 6,
        (4, 1, 3): 8,
        (5, 2, 2): 8,
        (5, 5, 0): 6,
        (6, 3, 2): 9,
        (6, 1, 5): 12,
    }

    @pytest.mark.parametrize(
        "n,p,q", sorted(GOLDEN), ids=[f"n{n}p{p}q{q}" for n, p, q in sorted(GOLDEN)]
    )
    def test_operations_match_golden_value(self, n, p, q):
        from repro.core.variants import VARIANTS, run_action

        result = run_action("mc", n, p, q, seed=0)
        golden = self.GOLDEN[(n, p, q)]
        assert golden == n + q + 1  # the table agrees with the closed form
        assert VARIANTS["mc"].expected(n, p, q) == golden
        assert result.messages() == golden

    def test_no_raise_means_no_operations(self):
        """P = 0 is outside the runner's domain (someone must raise);
        the closed form still pins the zero-overhead claim."""
        from repro.core.variants import VARIANTS

        assert VARIANTS["mc"].expected(4, 0, 0) == 0
        assert VARIANTS["mc"].expected(6, 0, 3) == 0


class TestZeroOverhead:
    """Section 4.4: "no overhead if an exception is not raised"."""

    @pytest.mark.parametrize("n,q", [(2, 0), (4, 0), (4, 2), (8, 4)])
    def test_no_resolution_messages(self, n, q):
        result = no_exception_case(n, q=q).run()
        assert result.resolution_message_total() == 0
        assert result.all_finished()


class TestWorkedExamples:
    def test_example1_total_is_ten(self):
        result = example1_scenario().run()
        assert result.resolution_message_total() == 10
        assert result.resolution_message_total() == expected_general_messages(
            3, 2, 0
        )

    def test_example2_outer_level_is_thirty_six(self):
        result = example2_scenario().run()
        assert sum(result.messages_for_action("A1").values()) == 36
        assert 36 == expected_general_messages(4, 1, 3)

    def test_example2_inner_level_is_one_cleaned_exception(self):
        result = example2_scenario().run()
        assert sum(result.messages_for_action("A3").values()) == 1
        assert sum(result.messages_for_action("A2").values()) == 0
