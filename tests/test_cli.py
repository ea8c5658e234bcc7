"""End-to-end CLI tests: outputs, JSON key order, exit codes."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import treescale
from treescale import acceptance
from treescale.cli import build_parser, main

# A directory and a group file that is not UTF-8: neither can be read as a
# group file.
DATA = Path(__file__).parent / "data"
UNREADABLE_GROUPS = [f"file:{DATA}", f"file:{DATA / 'latin1.group'}"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scale_command(capsys):
    code, out, err = run(capsys, "scale", "--group", "sym:4",
                         "--axis", "twist=id; word=1,2")
    assert code == 0 and out.strip() == "9" and err == ""


_S4_AXIS = ["--group", "sym:4", "--axis", "twist=id; word=1,2"]


# Every report lists command first and law last.
@pytest.mark.parametrize("argv, keys", [
    (["scale", *_S4_AXIS], ["group", "axis", "value"]),
    (["inverse", *_S4_AXIS], ["group", "axis", "inverse"]),
    (["modular", *_S4_AXIS], ["group", "axis", "value"]),
    (["aggregate", *_S4_AXIS], ["group", "axis", "value"]),
    (["localscale", *_S4_AXIS, "--prime", "3"], ["group", "prime", "axis", "value"]),
    (["oracle", *_S4_AXIS], ["group", "axis", "power", "formula", "walk", "explicit"]),
    (["oracle", *_S4_AXIS, "--power", "2"], ["group", "axis", "power", "formula", "walk"]),
    (["spectrum", "--group", "sym:3", "--max-len", "3"],
     ["group", "mode", "max_len", "cap", "truncated", "entries"]),
    (["spectrum", "--group", "sym:3", "--max-len", "3", "--mode", "exponents", "--prime", "2"],
     ["group", "mode", "prime", "max_len", "cap", "truncated", "entries"]),
    (["predict", "--k", "7", "--prime", "3"], ["k", "prime", "local_exponents", "ambient_step"]),
    (["sylow", "--group", "sym:4", "--prime", "3"],
     ["group", "prime", "order", "index", "generators"]),
    (["basis", "--group", "sym:4"], ["group", "members"]),
], ids=["scale", "inverse", "modular", "aggregate", "localscale", "oracle-explicit",
        "oracle-power", "spectrum-values", "spectrum-exponents", "predict", "sylow", "basis"])
def test_json_key_order(capsys, argv, keys):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    pairs = json.loads(out, object_pairs_hook=list)
    assert [k for k, _ in pairs] == ["command", *keys, "law"]
    assert dict(pairs)["command"] == argv[0]


def test_inverse_round_trip(capsys):
    code, out, _ = run(capsys, "inverse", "--group", "sym:4",
                       "--axis", "twist=id; word=1,2")
    assert code == 0 and out.strip() == "twist=id; word=2,1"


def test_modular(capsys):
    code, out, _ = run(capsys, "modular", "--group", "sym:4",
                       "--axis", "twist=id; word=1,2")
    assert code == 0 and out.strip() == "1"


def test_localscale(capsys):
    code, out, _ = run(capsys, "localscale", "--group", "sym:5", "--prime", "3",
                       "--axis", "twist=id; word=1,4")
    assert code == 0 and out.strip() == "3"


def test_aggregate(capsys):
    code, out, _ = run(capsys, "aggregate", "--group", "sym:5",
                       "--axis", "twist=id; word=1,4")
    assert code == 0 and out.strip() == "12"


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--group", "sym:3", "--max-len", "4",
                       "--json")
    pairs = json.loads(out, object_pairs_hook=list)
    keys = [k for k, _ in pairs]
    assert keys == ["command", "group", "mode", "max_len", "cap", "truncated",
                    "entries", "law"]
    assert dict(pairs)["entries"] == [1, 2, 4, 8, 16]
    assert code == 0


def test_spectrum_huge_max_len_ends(capsys):
    code, out, _ = run(capsys, "spectrum", "--group", "cyclic:5", "--max-len", "1000000000",
                       "--json")
    payload = json.loads(out)
    assert code == 0 and payload["max_len"] == 10 ** 9
    assert payload["entries"] == [1] and payload["truncated"] is False


def test_spectrum_exponent_mode(capsys):
    code, out, _ = run(capsys, "spectrum", "--group", "sylow:3:sym:6",
                       "--max-len", "8", "--mode", "exponents", "--prime", "3")
    assert code == 0 and out.split() == ["0", "2", "4", "6", "8"]


def test_predict(capsys):
    code, out, _ = run(capsys, "predict", "--k", "15", "--prime", "5")
    assert code == 0 and out.strip() == "T = N0 \\ {1}; S = {0}"


def test_predict_full_case(capsys):
    code, out, _ = run(capsys, "predict", "--k", "7", "--prime", "3")
    assert code == 0 and out.strip() == "T = N0; S = N0"


def test_deeply_nested_sylow_spec(capsys):
    # sylow:p: prefixes are read in a loop, so the depth of nesting is not
    # bounded by the interpreter's recursion limit
    spec = "sylow:2:" * 5000 + "sym:4"
    code, out, err = run(capsys, "scale", "--group", spec, "--axis", "twist=id; word=1,2")
    assert (code, out.strip(), err) == (0, "1", "")
    code, out, _ = run(capsys, "scale", "--group", spec.upper(), "--axis", "twist=id; word=1,2",
                       "--json")
    assert code == 0 and json.loads(out)["group"] == spec


def test_predict_ambient_step_above_one(capsys):
    # the one case whose ambient exponents print as eN0 with e >= 2
    code, out, _ = run(capsys, "predict", "--k", "9", "--prime", "2")
    assert code == 0 and out.strip() == "T = N0; S = 3N0"


def test_sylow_command(capsys):
    code, out, _ = run(capsys, "sylow", "--group", "sym:6", "--prime", "3",
                       "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["order"] == 9
    assert payload["index"] == "2^4*5"
    assert payload["generators"] == ["(1 2 3)", "(4 5 6)"]


# The index renders as prime powers in ascending order: p for exponent 1,
# p^e otherwise, and 1 for the empty product.
@pytest.mark.parametrize("group, prime, index", [
    ("sylow:2:sym:4", "2", "1"),
    ("alt:5", "2", "3*5"),
    ("sym:4", "5", "2^3*3"),
    ("sym:8", "2", "3^2*5*7"),
])
def test_sylow_index_text(capsys, group, prime, index):
    code, out, _ = run(capsys, "sylow", "--group", group, "--prime", prime)
    assert code == 0 and f", index {index}, generators " in out
    code, out, _ = run(capsys, "sylow", "--group", group, "--prime", prime, "--json")
    assert code == 0 and json.loads(out)["index"] == index


_HUGE_PRIME_ENTRY_POINTS = [
    ["sylow", "--group", "sym:4", "--prime", "{p}"],
    ["predict", "--k", "5", "--prime", "{p}"],
    ["localscale", "--group", "sym:4", "--axis", "twist=id; word=1,2", "--prime", "{p}"],
    ["spectrum", "--group", "sym:4", "--mode", "exponents", "--prime", "{p}"],
    ["scale", "--group", "sylow:{p}:sym:4", "--axis", "twist=id; word=1,2"],
]


@pytest.mark.parametrize("template", _HUGE_PRIME_ENTRY_POINTS,
                         ids=lambda t: t[0] if "--prime" in t else "sylow-spec")
@pytest.mark.parametrize("p", [10 ** 18 + 3, 2 ** 64 + 13], ids=["prime", "too-big"])
def test_huge_prime_ends_at_once(capsys, template, p):
    argv = [arg.format(p=p) for arg in template]
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert "Traceback" not in err
    if p < 2 ** 64:
        assert code == 0 and err == ""
    else:
        assert code in {1, 2} and len(err.splitlines()) == 1


def test_basis_command(capsys):
    code, out, _ = run(capsys, "basis", "--group", "sym:4", "--json")
    payload = json.loads(out)
    assert code == 0
    assert [(m["prime"], m["order"]) for m in payload["members"]] == [(2, 8), (3, 3)]


# Both commands start from sylow_subgroup, and a group with at most two
# prime divisors keeps it as its basis member at each prime.
@pytest.mark.parametrize("group", ["sym:4", "dihedral:4"])
def test_basis_members_are_the_sylow_subgroups(capsys, group):
    code, out, _ = run(capsys, "basis", "--group", group, "--json")
    members = json.loads(out)["members"]
    assert code == 0 and members
    for member in members:
        code, out, _ = run(capsys, "sylow", "--group", group,
                           "--prime", str(member["prime"]), "--json")
        assert code == 0 and json.loads(out)["generators"] == member["generators"]


def test_basis_command_on_a_two_group(capsys):
    code, out, _ = run(capsys, "basis", "--group", "sylow:2:sym:8", "--json")
    payload = json.loads(out)
    assert code == 0
    assert [(m["prime"], m["order"]) for m in payload["members"]] == [(2, 128)]


def test_basis_of_the_trivial_group(capsys):
    code, out, _ = run(capsys, "basis", "--group", "trivial:1")
    assert code == 0 and out == "trivial group: no primes, empty basis\n"
    code, out, _ = run(capsys, "basis", "--group", "trivial:1", "--json")
    assert code == 0 and json.loads(out)["members"] == []


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--group", "sym:4",
                       "--axis", "twist=id; word=1,2")
    assert code == 0
    assert "formula:  9" in out and "walk:     9" in out and "explicit: 9" in out


def test_oracle_power(capsys):
    code, out, _ = run(capsys, "oracle", "--group", "sym:4",
                       "--axis", "twist=id; word=1,2", "--power", "2")
    assert code == 0 and "formula:  81" in out and "walk:     81" in out


def test_oracle_huge_power_is_refused_at_once(capsys):
    code, out, err = run(capsys, "oracle", "--group", "sym:3",
                         "--axis", "twist=(1 2 3); word=1,2", "--power", "1000000000")
    assert code == 1 and out == ""
    assert err == "precondition-error: walk depth 2000000000 exceeds the cap 12\n"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "scale", "--group", "nope:4",
                       "--axis", "twist=id; word=1,2")
    assert code == 2 and err.startswith("parse-error:")


@pytest.mark.parametrize("spec", UNREADABLE_GROUPS)
def test_unreadable_group_file_is_a_parse_error(capsys, spec):
    code, out, err = run(capsys, "scale", "--group", spec, "--axis", "twist=id; word=1,2")
    assert code == 2 and out == "" and err.startswith("parse-error: cannot read group file")


def test_precondition_error_exit_code(capsys):
    code, _, err = run(capsys, "scale", "--group", "sym:4",
                       "--axis", "twist=id; word=1,1")
    assert code == 1 and err.startswith("precondition-error:")


def test_basis_insoluble_is_precondition(capsys):
    code, _, err = run(capsys, "basis", "--group", "alt:5")
    assert code == 1 and "soluble" in err


def test_spectrum_cap_below_the_unit(capsys):
    code, out, err = run(capsys, "spectrum", "--group", "sylow:3:sym:6", "--max-len", "4",
                         "--mode", "exponents", "--prime", "3", "--cap", "-1")
    assert code == 1 and out == "" and err.startswith("precondition-error:")
    code, _, err = run(capsys, "spectrum", "--group", "sym:3", "--cap", "0")
    assert code == 1 and "value cap" in err


# five weight primes: at --cap 10**24 the values-mode lattice has 116,532,000 bits
FIVE_PRIME_WEIGHTS = ("gens:32:(1 2);(1 2 3);(4 5);(4 5 6 7);(8 9);(8 9 10 11 12 13);(14 15);"
                      "(14 15 16 17 18 19 20 21);(22 23);(22 23 24 25 26 27 28 29 30 31 32)")


def test_spectrum_refuses_a_lattice_over_the_bound_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "spectrum", "--group", FIVE_PRIME_WEIGHTS,
                         "--max-len", "1000", "--cap", str(10 ** 24))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "") and len(err.splitlines()) == 1
    assert err == ("precondition-error: values-mode lattice of 116532000 bits exceeds "
                   "the lattice bound 16777216\n")


def test_verification_failure_exit_code(capsys, monkeypatch):
    name = "c13_spectrum_exponent_inclusion"
    monkeypatch.setitem(acceptance.CHECKS, name,
                        lambda: acceptance.CheckResult(name, "law", False, "broken"))
    code, out, err = run(capsys, "verify", "--suite", "inclusion")
    assert code == 3
    assert out == f"FAIL {name}: broken\n"
    assert err == "verification-failure: 1 of 1 items failed\n"


def test_predict_refuses_a_non_prime(capsys):
    code, out, err = run(capsys, "predict", "--k", "5", "--prime", "4")
    assert (code, out, err) == (1, "", "precondition-error: 4 is not prime\n")


def test_enumeration_bound_refusal_is_a_precondition_error(capsys):
    code, out, err = run(capsys, "sylow", "--group", "alt:10", "--prime", "2")
    assert (code, out, err) == (1, "", "precondition-error: group order 1814400 exceeds "
                                       "enumeration bound 200000\n")


def test_values_spectrum_refuses_a_prime(capsys):
    code, out, err = run(capsys, "spectrum", "--group", "sym:4", "--prime", "3",
                         "--max-len", "3")
    assert (code, out, err) == (1, "", "precondition-error: values mode takes no prime, got 3\n")


def test_degree_bound_exit_code(capsys):
    code, out, err = run(capsys, "spectrum", "--group", "sym:2000", "--max-len", "2")
    assert code == 1 and out == "" and "degree bound" in err


def test_argparse_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum"])
    assert exc.value.code == 2


def test_verify_green_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "inclusion")
    assert code == 0 and err == ""
    assert out.startswith("PASS c13_spectrum_exponent_inclusion")


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 1 and err.startswith("precondition-error:")


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "inclusion", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload[0]["name"] == "c13_spectrum_exponent_inclusion"
    assert list(payload[0]) == ["name", "passed", "law", "detail"]


# -- golden transcript ------------------------------------------------------

# Each entry is one call of main: its argv and the exit code, stdout and
# stderr that call gave.
GOLDEN = json.loads((DATA / "cli_golden.json").read_text())


@pytest.mark.parametrize("call", GOLDEN, ids=[c["argv"][0] for c in GOLDEN])
def test_golden_transcript(capsys, call):
    assert run(capsys, *call["argv"]) == (call["code"], call["stdout"], call["stderr"])


# -- one parser per process -------------------------------------------------

SRC = Path(treescale.__file__).resolve().parents[1]


def fresh(*argv):
    """(exit code, stdout, stderr) of argv as the only call of a new process."""
    proc = subprocess.run([sys.executable, "-m", "treescale.cli", *argv],
                          capture_output=True, text=True, timeout=120, check=False,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("first, then", [
    (["spectrum", "--group", "sylow:3:sym:6", "--max-len", "6", "--mode", "exponents",
      "--prime", "3", "--cap", "12", "--json"],
     ["spectrum", "--group", "sym:3", "--json"]),
    (["oracle", "--group", "sym:3", "--axis", "twist=(1 2 3); word=1,2", "--power", "2",
      "--json"],
     ["oracle", "--group", "sym:3", "--axis", "twist=(1 2 3); word=1,2", "--json"]),
])
def test_an_earlier_call_leaves_no_option_behind(capsys, first, then):
    assert run(capsys, *first)[0] == 0
    assert run(capsys, *then) == fresh(*then)


def test_an_argparse_error_leaves_the_next_call_unchanged(capsys):
    argv = ["spectrum", "--group", "sym:3", "--max-len", "3", "--json"]
    before = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["spectrum"])
    assert exc.value.code == 2
    assert "the following arguments are required: --group" in capsys.readouterr().err
    assert run(capsys, *argv) == before == fresh(*argv)


# -- fuzzing ---------------------------------------------------------------

def _junk_or(*good):
    """Mostly the given values, one time in ten short junk text."""
    good = st.one_of(*good)
    return st.integers(0, 9).flatmap(lambda i: good if i else st.text(max_size=6))


_COUNT = st.one_of(st.integers(1, 6), st.integers(-2, 6),
                   st.integers(33, 10 ** 6)).map(str)
# Groups stay small within the degree bound, so every call is quick; counts
# above it must be refused at once.
_GROUP = _junk_or(
    st.builds("{}:{}".format,
              st.sampled_from(["sym", "alt", "cyclic", "dihedral", "trivial",
                               "sylow:2:sym", "sylow:4:sym", "gens", "nope"]),
              _COUNT),
    st.sampled_from(["gens:5:(1 2 3);(4 5)", "gens:3:(1 4)", "gens:4:", "gens:4:(1 2",
                     "sylow:3:", "sylow:3:gens:40:", "file:/no/such/path", "",
                     *UNREADABLE_GROUPS]))
_AXIS = _junk_or(st.sampled_from([
    "twist=id; word=1,2", "twist=(1 2 3); word=1,4,2", "twist=(1 2); word=3",
    "twist=id; word=1,1", "twist=id; word=", "word=1,2", "twist=id; word=1,2,,3",
    "twist=(1 9); word=1", "twist=id; word=0,2", "twist=id; word=-1,2",
    "twist=(); word=2,1", "twist=id; word=99999999999999999999,1"]))
_VALUES = {
    "--group": _GROUP,
    "--axis": _AXIS,
    "--prime": _junk_or(st.integers(-2, 12).map(str), st.just("999983")),
    "--max-len": _junk_or(st.integers(-2, 6).map(str)),
    "--mode": _junk_or(st.sampled_from(["values", "exponents"])),
    "--cap": _junk_or(st.integers(-3, 10 ** 6).map(str)),
    "--power": _junk_or(st.integers(-1, 3).map(str), st.integers(4, 10 ** 12).map(str)),
    "--k": _junk_or(st.integers(-2, 40).map(str)),
    # never a real suite name: the battery is slow and tested elsewhere
    "--suite": st.sampled_from(["nope", "", "al", "inclusion2"]),
}
_OPTIONS = {
    "scale": ["--group", "--axis"], "inverse": ["--group", "--axis"],
    "modular": ["--group", "--axis"], "aggregate": ["--group", "--axis"],
    "oracle": ["--group", "--axis", "--power"],
    "localscale": ["--group", "--axis", "--prime"],
    "spectrum": ["--group", "--max-len", "--mode", "--prime", "--cap"],
    "predict": ["--k", "--prime"], "sylow": ["--group", "--prime"],
    "basis": ["--group"], "verify": ["--suite"],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for option in _OPTIONS[command]:
        if option == "--suite" or draw(st.integers(0, 9)):
            argv += [option, draw(_VALUES[option])]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argument list
            code = exc.code
    assert code in {0, 1, 2, 3}, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_fuzzed_options_match_the_parser():
    """Every subcommand and option the parser accepts is fuzzed."""
    commands, = (a.choices for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    accepted = {name: [opt for action in parser._actions for opt in action.option_strings
                       if opt not in ("-h", "--help", "--json")]
                for name, parser in commands.items()}
    assert accepted == _OPTIONS
