"""Group spec grammar, group files and axis literals."""

import pytest

from treescale import groupspec
from treescale.errors import InvalidAxisError, ParseError, PreconditionError
from treescale.groupspec import (DEGREE_BOUND, parse_axis, parse_group_file,
                                 parse_group_spec)
from treescale.perm import PermGroup


class TestBuiltins:
    @pytest.mark.parametrize("spec,order", [
        ("sym:4", 24), ("alt:4", 12), ("cyclic:6", 6), ("dihedral:4", 8),
        ("trivial:3", 1), ("sylow:3:sym:6", 9), ("sylow:2:sym:4", 8),
        ("sylow:2:alt:4", 4), ("sylow:5:sym:4", 1), ("sylow:2:sym:15", 2 ** 11),
    ])
    def test_orders(self, spec, order):
        assert parse_group_spec(spec).group.order() == order

    @pytest.mark.parametrize("spec", [
        "sym:4", "alt:5", "cyclic:6", "dihedral:4", "trivial:3",
        "sylow:3:sym:6", "sylow:2:alt:4", "gens:5:(1 2 3);(4 5)",
    ])
    def test_round_trip(self, spec):
        parsed = parse_group_spec(spec)
        assert parsed.canonical == spec
        assert parse_group_spec(parsed.canonical).canonical == spec

    def test_inline_gens(self):
        g = parse_group_spec("gens:5:(1 2 3);(4 5)").group
        assert g.degree == 5 and g.order() == 6

    def test_errors(self):
        for bad in ("sym:x", "unknown:3", "sylow:4:sym:4", "sylow:3:",
                    "gens:3:(1 4)", "dihedral:2", "sym:0"):
            with pytest.raises(ParseError):
                parse_group_spec(bad)

    @pytest.mark.parametrize("spec, message", [
        ("sylow", "bad prime ''"),
        ("sylow:4:sym:3", "4 is not prime in 'sylow:4:sym:3'"),
        ("sylow:2:sylow:4:sym:3", "4 is not prime in 'sylow:4:sym:3'"),
        ("sylow:2:", "sylow spec needs an inner group: 'sylow:2:'"),
        ("nope:3", "unknown group spec 'nope:3'"),
        ("sylow:2: nope:3", "unknown group spec ' nope:3'"),
        ("sylow:2:sylow:x:sym:4", "bad prime 'x'"),
        ("file:/no/such/path", "group file not found: /no/such/path"),
        ("file", "group file not found: "),
    ])
    def test_error_messages(self, spec, message):
        with pytest.raises(ParseError) as info:
            parse_group_spec(spec)
        assert str(info.value) == message

    def test_constructor_bug_is_not_a_parse_error(self, monkeypatch):
        def broken(k):
            raise RuntimeError("constructor bug")

        monkeypatch.setitem(groupspec._SIMPLE_BUILTINS, "sym", broken)
        with pytest.raises(RuntimeError, match="constructor bug"):
            parse_group_spec("sym:4")

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_group_spec("file:/no/such/path")

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("degree 3\n# café\n(1 2)\n".encode("latin-1"))
        for bad in (f"file:{tmp_path}", f"file:{path}"):
            with pytest.raises(ParseError, match="cannot read group file"):
                parse_group_spec(bad)

    def test_degree_bound(self, tmp_path):
        assert DEGREE_BOUND == 32
        assert parse_group_spec(f"sym:{DEGREE_BOUND}").group.degree == DEGREE_BOUND
        path = tmp_path / "big.txt"
        path.write_text(f"degree {DEGREE_BOUND + 1}\n(1 2)\n", encoding="utf-8")
        for bad in (f"sym:{DEGREE_BOUND + 1}", "alt:2000", "cyclic:40", "dihedral:33",
                    "trivial:100", "sylow:2:sym:64", f"gens:{DEGREE_BOUND + 1}:(1 2)",
                    "gens:100000:", f"file:{path}"):
            with pytest.raises(PreconditionError, match="degree bound"):
                parse_group_spec(bad)


class TestGroupFile:
    def test_sym3(self):
        g = parse_group_file("degree 3\n(1 2 3)\n(1 2)\n")
        assert g.order() == 6

    def test_cyclic_on_five(self):
        g = parse_group_file("# comment\n\ndegree 5\n(1 2 3)\n")
        assert g.degree == 5 and g.order() == 3

    def test_trivial_allowed(self):
        assert parse_group_file("degree 4\n").order() == 1

    def test_point_out_of_range(self):
        with pytest.raises(ParseError):
            parse_group_file("degree 3\n(1 2 4)\n")

    def test_duplicate_point(self):
        with pytest.raises(ParseError):
            parse_group_file("degree 3\n(1 2)(2 3)\n")

    def test_missing_degree(self):
        with pytest.raises(ParseError):
            parse_group_file("(1 2)\n")

    @pytest.mark.parametrize("text", ["", "# comments only\n\n# and blanks\n"])
    def test_no_degree_line(self, text):
        with pytest.raises(ParseError) as info:
            parse_group_file(text)
        assert str(info.value) == "<group file>: missing 'degree k' line"

    def test_file_spec(self, tmp_path):
        path = tmp_path / "group.txt"
        path.write_text("degree 5\n(1 2 3)\n", encoding="utf-8")
        spec = parse_group_spec(f"file:{path}")
        assert spec.group.order() == 3

    def test_file_head_is_case_insensitive(self, tmp_path):
        path = tmp_path / "group.txt"
        path.write_text("degree 5\n(1 2 3)\n", encoding="utf-8")
        lower = parse_group_spec(f"file:{path}")
        for head in ("FILE", "File"):
            spec = parse_group_spec(f"{head}:{path}")
            assert spec.canonical == lower.canonical == f"file:{path}"
            assert spec.group.generators == lower.group.generators
            assert spec.group.order() == lower.group.order() == 3


class TestAxisLiterals:
    def test_identity_twist(self):
        a = parse_axis(PermGroup.symmetric(4), "twist=id; word=1,2")
        assert a.twist.is_identity() and a.word == (1, 2)

    def test_empty_clause_is_skipped(self):
        g = PermGroup.symmetric(4)
        assert parse_axis(g, "twist=id;; word=1,2") == parse_axis(g, "twist=id; word=1,2")

    def test_cycle_twist(self):
        g = PermGroup(5, ["(1 2 3)"])
        a = parse_axis(g, "twist=(1 2 3); word=1,4,2")
        assert a.word == (1, 4, 2)
        assert a.twist(1) == 2

    def test_round_trip(self):
        g = PermGroup.symmetric(4)
        for literal in ("twist=id; word=1,2", "twist=(1 2 3); word=2,4"):
            a = parse_axis(g, literal)
            assert a.describe() == literal
            assert parse_axis(g, a.describe()) == a

    def test_errors(self):
        g = PermGroup.symmetric(4)
        for bad in ("twist=id", "word=1,2", "twist=id; word=", "twist=id; word=a",
                    "nonsense", "twist=id; word=1,2; extra=3",
                    "twist=id; word=1,2,,3", "twist=id; word=1,2,",
                    "twist=(1 2); word=1,2; word=1", "twist=id; twist=id; word=1,2"):
            with pytest.raises(ParseError):
                parse_axis(g, bad)

    @pytest.mark.parametrize("spec, literal, violation", [
        ("sym:4", "twist=id; word=1,1", "repeated colour at positions 1,2"),
        ("cyclic:3", "twist=(1 2); word=1", "twist is not a member of the local action group"),
    ])
    def test_invalid_axis_is_refused_when_parsed(self, spec, literal, violation):
        # a well-formed literal of an invalid axis is refused by the parse,
        # before any command reads the axis
        with pytest.raises(InvalidAxisError) as info:
            parse_axis(parse_group_spec(spec).group, literal)
        assert info.value.violations == [violation]
