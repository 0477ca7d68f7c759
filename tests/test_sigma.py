from itertools import permutations

import pytest

from rosenpencil import SigmaSeq, all_decision_strings, parse_sigma


class TestFromBijection:
    def test_three_cycle(self):
        assert SigmaSeq.from_bijection((1, 3, 2)).decisions == "CI"

    def test_six_example(self):
        assert SigmaSeq.from_bijection((1, 2, 4, 3, 6, 5)).decisions == "CCICI"

    def test_monotone_all_consecutions(self):
        for d in range(1, 7):
            assert SigmaSeq.from_bijection(range(1, d + 1)).decisions == "C" * (d - 1)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            SigmaSeq.from_bijection((1, 1, 2))

    def test_degree_one_empty(self):
        s = SigmaSeq.from_bijection((1,))
        assert s.decisions == ""
        assert s.degree == 1


class TestImmutable:
    def test_attributes_cannot_be_set(self):
        # a SigmaSeq is a dict key (the recursion memo): its hash must not move
        s = SigmaSeq("CI")
        key = hash(s)
        with pytest.raises(AttributeError):
            s.decisions = "II"
        with pytest.raises(AttributeError):
            s.source = (1, 2, 3)
        assert s.decisions == "CI" and hash(s) == key


class TestFlipped:
    def test_swaps_every_decision(self):
        assert SigmaSeq("CCICI").flipped() == SigmaSeq("IICIC")
        assert SigmaSeq("").flipped() == SigmaSeq("")

    def test_involution(self):
        for s in all_decision_strings(5):
            assert s.flipped().flipped() == s
            assert s.flipped().c_count(0, 3) == s.i_count(0, 3)


class TestCounts:
    def test_full_range_counts(self):
        s = SigmaSeq.from_bijection((1, 2, 4, 3, 6, 5))
        assert s.c_count(0, 4) == 3
        assert s.i_count(0, 4) == 2

    def test_single_index_additivity(self):
        s = SigmaSeq("CICCI")
        total_c = sum(s.c_count(i, i) for i in range(5))
        total_i = sum(s.i_count(i, i) for i in range(5))
        assert total_c == s.c_count(0, 4)
        assert total_i == s.i_count(0, 4)

    def test_first_position(self):
        s = SigmaSeq.from_bijection((1, 3, 2))
        assert s.c_count(0, 0) == 1
        assert s.i_count(0, 0) == 0

    def test_counts_sum_to_range_length(self):
        s = SigmaSeq("CCIIC")
        for lo in range(5):
            for hi in range(lo, 5):
                assert s.c_count(lo, hi) + s.i_count(lo, hi) == hi - lo + 1

    def test_total_is_degree_minus_one_all_permutations(self):
        for d in range(1, 7):
            for perm in permutations(range(1, d + 1)):
                s = SigmaSeq.from_bijection(perm)
                if d == 1:
                    assert len(s) == 0
                else:
                    assert s.c_count(0, d - 2) + s.i_count(0, d - 2) == d - 1

    def test_empty_range_is_zero(self):
        s = SigmaSeq("CC")
        assert s.c_count(0, -1) == 0
        assert s.i_count(1, 0) == 0

    def test_out_of_bounds(self):
        s = SigmaSeq("CC")
        with pytest.raises(IndexError):
            s.c_count(0, 2)


class TestSurjectivity:
    def test_every_decision_string_is_realized(self):
        # every string of length d-1 comes from some bijection, d <= 6
        for d in range(2, 7):
            seen = {
                SigmaSeq.from_bijection(perm).decisions
                for perm in permutations(range(1, d + 1))
            }
            assert seen == {s.decisions for s in all_decision_strings(d)}
            assert len(seen) == 2 ** (d - 1)


class TestParsing:
    def test_decision_string(self):
        assert parse_sigma("CCICI").decisions == "CCICI"

    def test_permutation_text(self):
        s = parse_sigma("1,2,4,3,6,5")
        assert s.decisions == "CCICI"
        assert s.source == (1, 2, 4, 3, 6, 5)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            parse_sigma("CCI", degree=3)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_sigma("CXI")
