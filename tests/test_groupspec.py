"""Group spec grammar, group files and axis literals."""

import pytest

from treescale.errors import ParseError, PreconditionError
from treescale.groupspec import (DEGREE_BOUND, parse_axis, parse_group_file,
                                 parse_group_spec, render_axis)
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
        assert parsed.render() == spec
        assert parse_group_spec(parsed.render()).render() == spec

    def test_inline_gens(self):
        g = parse_group_spec("gens:5:(1 2 3);(4 5)").group
        assert g.degree == 5 and g.order() == 6

    def test_errors(self):
        for bad in ("sym:x", "unknown:3", "sylow:4:sym:4", "sylow:3:",
                    "gens:3:(1 4)", "dihedral:2", "sym:0"):
            with pytest.raises(ParseError):
                parse_group_spec(bad)

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_group_spec("file:/no/such/path")

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

    def test_file_spec(self, tmp_path):
        path = tmp_path / "group.txt"
        path.write_text("degree 5\n(1 2 3)\n", encoding="utf-8")
        spec = parse_group_spec(f"file:{path}")
        assert spec.group.order() == 3


class TestAxisLiterals:
    def test_identity_twist(self):
        a = parse_axis(PermGroup.symmetric(4), "twist=id; word=1,2")
        assert a.twist.is_identity() and a.word == (1, 2)

    def test_cycle_twist(self):
        g = PermGroup(5, ["(1 2 3)"])
        a = parse_axis(g, "twist=(1 2 3); word=1,4,2")
        assert a.word == (1, 4, 2)
        assert a.twist(1) == 2

    def test_round_trip(self):
        g = PermGroup.symmetric(4)
        for literal in ("twist=id; word=1,2", "twist=(1 2 3); word=2,4"):
            a = parse_axis(g, literal)
            assert render_axis(a) == literal
            assert parse_axis(g, render_axis(a)) == a

    def test_errors(self):
        g = PermGroup.symmetric(4)
        for bad in ("twist=id", "word=1,2", "twist=id; word=", "twist=id; word=a",
                    "nonsense", "twist=id; word=1,2; extra=3",
                    "twist=id; word=1,2,,3", "twist=id; word=1,2,",
                    "twist=(1 2); word=1,2; word=1", "twist=id; twist=id; word=1,2"):
            with pytest.raises(ParseError):
                parse_axis(g, bad)
