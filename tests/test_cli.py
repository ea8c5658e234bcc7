"""End-to-end CLI tests: outputs, JSON key order, exit codes."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from treescale.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scale_command(capsys):
    code, out, err = run(capsys, "scale", "--group", "sym:4",
                         "--axis", "twist=id; word=1,2")
    assert code == 0 and out.strip() == "9" and err == ""


def test_scale_json_key_order(capsys):
    code, out, _ = run(capsys, "scale", "--group", "sym:4",
                       "--axis", "twist=id; word=1,2", "--json")
    assert code == 0
    pairs = json.loads(out, object_pairs_hook=list)
    assert [k for k, _ in pairs] == ["command", "group", "axis", "value", "law"]
    assert dict(pairs)["value"] == 9


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


def test_sylow_command(capsys):
    code, out, _ = run(capsys, "sylow", "--group", "sym:6", "--prime", "3",
                       "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["order"] == 9
    assert payload["index"] == "2^4*5"
    assert payload["generators"] == ["(1 2 3)", "(4 5 6)"]


def test_basis_command(capsys):
    code, out, _ = run(capsys, "basis", "--group", "sym:4", "--json")
    payload = json.loads(out)
    assert code == 0
    assert [(m["prime"], m["order"]) for m in payload["members"]] == [(2, 8), (3, 3)]


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--group", "sym:4",
                       "--axis", "twist=id; word=1,2")
    assert code == 0
    assert "formula:  9" in out and "walk:     9" in out and "explicit: 9" in out


def test_oracle_power(capsys):
    code, out, _ = run(capsys, "oracle", "--group", "sym:4",
                       "--axis", "twist=id; word=1,2", "--power", "2")
    assert code == 0 and "formula:  81" in out and "walk:     81" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "scale", "--group", "nope:4",
                       "--axis", "twist=id; word=1,2")
    assert code == 2 and err.startswith("parse-error:")


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
    assert set(payload[0]) == {"name", "passed", "law", "detail"}


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
                     "sylow:3:", "sylow:3:gens:40:", "file:/no/such/path", ""]))
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
    "--power": _junk_or(st.integers(-1, 3).map(str)),
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
