import random

import pytest

from patternkit.core import PatternError, StableColoring, parse_pattern
from patternkit.constructions import (
    ApproxOracle,
    BiArrayFunctional,
    PrefixFunctional,
    build_dnc_coloring,
)
from patternkit.stabilize import BinaryTree, full_binary_tree
from patternkit.io import (
    emit_record,
    format_approx_oracle,
    format_biarray_oracle,
    format_coloring,
    format_measure_oracle,
    format_stable_coloring,
    format_tree,
    parse_approx_oracle,
    parse_biarray_oracle,
    parse_coloring,
    parse_measure_oracle,
    parse_record,
    parse_stable_coloring,
    parse_tree,
    trace_records,
)
from conftest import random_coloring


class TestColoringFiles:
    def test_round_trip(self):
        rng = random.Random(0)
        for _ in range(20):
            f = random_coloring(rng, rng.randint(1, 9))
            assert parse_coloring(format_coloring(f)) == f

    def test_stable_round_trip(self):
        rng = random.Random(1)
        f = random_coloring(rng, 7)
        sc = StableColoring(f, tuple(rng.randint(0, 1) for _ in range(7)))
        back = parse_stable_coloring(format_stable_coloring(sc))
        assert back.base == sc.base and back.limit == sc.limit

    def test_known_layout(self):
        rng = random.Random(2)
        f = random_coloring(rng, 3)
        lines = format_coloring(f).splitlines()
        assert lines[0] == "3"
        assert lines[1] == f"{f(0, 1)}{f(0, 2)}"
        assert lines[2] == f"{f(1, 2)}"

    def test_bad_rows_rejected(self):
        with pytest.raises(PatternError):
            parse_coloring("3\n01\n")
        with pytest.raises(PatternError):
            parse_coloring("3\n0x\n1\n")
        with pytest.raises(PatternError):
            parse_coloring("x\n")

    def test_stable_needs_limit_line(self):
        with pytest.raises(PatternError):
            parse_stable_coloring("2\n0\n")

    def test_stable_bad_limit_line(self):
        with pytest.raises(PatternError, match="bad limit line '02'"):
            parse_stable_coloring("2\n0\n02\n")
        with pytest.raises(PatternError, match="bad limit line '011'"):
            parse_stable_coloring("2\n0\n011\n")


class TestTreeFiles:
    def test_round_trip(self):
        t = full_binary_tree(3)
        assert parse_tree(format_tree(t)).nodes == t.nodes

    def test_malformed_tree_rejected(self):
        with pytest.raises(PatternError):
            parse_tree("01\n")


class TestOracleFiles:
    def test_approx_round_trip(self):
        o = ApproxOracle(((0, 0, frozenset()), (0, 101, frozenset(range(4))),
                          (2, 7, frozenset({9}))))
        back = parse_approx_oracle(format_approx_oracle(o))
        for e in (0, 1, 2):
            for s in (0, 5, 50, 200):
                assert back.query(e, s) == o.query(e, s)

    def test_approx_comments_and_blanks_ignored(self):
        o = parse_approx_oracle("# header\n\n0 3 1,2\n")
        assert o.query(0, 5) == frozenset({1, 2})

    def test_measure_round_trip(self):
        fns = [PrefixFunctional((("", 4, frozenset({7})),
                                 ("01", 2, frozenset({3, 5})))),
               PrefixFunctional(())]
        ps = [parse_pattern("3:010"), parse_pattern("2:0")]
        back_fns, back_ps = parse_measure_oracle(format_measure_oracle(fns, ps))
        assert back_ps == ps
        assert [set(fn.entries) for fn in back_fns] == [set(fn.entries) for fn in fns]

    def test_biarray_round_trip(self):
        bs = [BiArrayFunctional(primary=((0, 5, frozenset({1, 2})),),
                                secondary=((0, 3, 8, frozenset({9, 10})),)),
              BiArrayFunctional()]
        back = parse_biarray_oracle(format_biarray_oracle(bs))
        assert len(back) == len(bs)
        assert back[0].primary == bs[0].primary
        assert back[0].secondary == bs[0].secondary

    def test_entry_before_header_rejected(self):
        with pytest.raises(PatternError):
            parse_measure_oracle("- 3 1,2\n")

    @pytest.mark.parametrize("parse, text, message", [
        (parse_biarray_oracle, "functional junk here\n", "bad functional header"),
        (parse_biarray_oracle, "functional\nfunctional x\n", "bad functional header"),
        (parse_measure_oracle, "functional\n", "bad functional header"),
        (parse_measure_oracle, "functional 3:010 extra\n", "bad functional header"),
        (parse_biarray_oracle, "E 0 1 1\n", "entry before any functional header"),
    ])
    def test_headers_checked_alike(self, parse, text, message):
        with pytest.raises(PatternError, match=message):
            parse(text)

    def test_entries_keep_their_blocks_and_order(self):
        bs = parse_biarray_oracle("# c\nfunctional\nF 0 1 2 3\nE 4 5 6\nE 7 8 9\n"
                                  "functional\nfunctional\nF 1 2 3 -\n")
        assert [(b.primary, b.secondary) for b in bs] == [
            (((4, 5, frozenset({6})), (7, 8, frozenset({9}))),
             ((0, 1, 2, frozenset({3})),)),
            ((), ()),
            ((), ((1, 2, 3, frozenset()),)),
        ]
        fns, ps = parse_measure_oracle("functional 2:0\n01 1 2\nfunctional 3:010\n")
        assert ps == [parse_pattern("2:0"), parse_pattern("3:010")]
        assert [fn.entries for fn in fns] == [(("01", 1, frozenset({2})),), ()]

    def test_bad_entries_rejected(self):
        with pytest.raises(PatternError):
            parse_approx_oracle("0 3\n")
        with pytest.raises(PatternError):
            parse_biarray_oracle("functional\nG 0 0 1\n")


# each place an input file spells an integer, as a text with {} for it; "3"
# parses at every one
INTEGER_FIELDS = {
    "approx-e": (parse_approx_oracle, "{} 0 1,9"),
    "approx-s0": (parse_approx_oracle, "0 {} 1,9"),
    "approx-element": (parse_approx_oracle, "0 0 1,{}"),
    "measure-s0": (parse_measure_oracle, "functional 3:010\n- {} 1"),
    "biarray-E-n": (parse_biarray_oracle, "functional\nE {} 1 9"),
    "biarray-E-s0": (parse_biarray_oracle, "functional\nE 0 {} 9"),
    "biarray-F-n": (parse_biarray_oracle, "functional\nF {} 0 1 9"),
    "biarray-F-m": (parse_biarray_oracle, "functional\nF 0 {} 1 9"),
    "biarray-F-s0": (parse_biarray_oracle, "functional\nF 0 0 {} 9"),
    "window": (parse_coloring, "{}\n00\n0\n"),
    "stable-window": (parse_stable_coloring, "{}\n00\n0\n010\n"),
}
# int() would read all but the last as 3, 10, 5, 5 and 5; oracle fields are
# separated by whitespace, so a space ends a field rather than spelling part
# of one, and only the window lines take the spaced spellings
BAD_SPELLINGS = [(site, value) for site in INTEGER_FIELDS
                 for value in ["\uff13", "1_0", "+5", " 5", "5 ", ""]
                 if value.strip() == value or "window" in site]


class TestIntegerFields:
    @pytest.mark.parametrize("site", list(INTEGER_FIELDS))
    def test_ascii_digits_parse(self, site):
        parse, template = INTEGER_FIELDS[site]
        parse(template.format("3"))

    @pytest.mark.parametrize("site, value", BAD_SPELLINGS)
    def test_other_spellings_rejected(self, site, value):
        parse, template = INTEGER_FIELDS[site]
        with pytest.raises(PatternError):
            parse(template.format(value))

    @pytest.mark.parametrize("parse", [parse_coloring, parse_stable_coloring])
    def test_negative_window_keeps_range_message(self, parse):
        with pytest.raises(PatternError, match="^bad window size '-3'$"):
            parse("-3\n00\n0\n")


class TestRecords:
    def test_round_trip(self):
        rec = {"a": "1", "b": "x=y", "pattern": "3:010"}
        assert parse_record(emit_record(rec)) == rec

    def test_whitespace_rejected(self):
        with pytest.raises(PatternError):
            emit_record({"a": "has space"})

    def test_bad_token_rejected(self):
        with pytest.raises(PatternError):
            parse_record("noseparator")

    def test_trace_records_round_trip(self):
        o = ApproxOracle(((0, 0, frozenset(range(8))),))
        f, trace = build_dnc_coloring(o, 20)
        lines = trace_records(trace)
        parsed = [parse_record(line) for line in lines]
        assert parsed[0]["builder"] == "dnc"
        assert parsed[0]["stages"] == "20"
        assert len(parsed) == len(trace.events) + 1
        for rec, ev in zip(parsed[1:], trace.events):
            assert rec["stage"] == str(ev.stage)
            assert rec["event"] == ev.kind
            assert rec["req"] == ev.requirement
