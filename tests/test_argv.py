"""The command-line reader: help and usage output stay argparse's, byte for
byte, and ``cli._read_argv`` reads every command line it accepts exactly
as ``build_parser().parse_args`` does.

The help and usage digests below were recorded from the hand-written
argparse parser, before the parser was built from the command table.
argparse's layout differs between Python versions, so the digests are
kept per version.  To record them for another version, run this file as
a script with ``src`` and ``tests`` on the path: it prints the table.
"""

import contextlib
import importlib.util
import io
import os
import random
import sys

import pytest

from hermstab import cli
from hermstab.cli import main
from test_cli import _ARGPARSE_ERRORS, _FUZZ_CALLS, HAM
from test_golden import COMMANDS as GOLDEN_COMMANDS
from test_golden import digest

COMMAND_NAMES = (
    "orderings", "nil", "signature", "stability", "split-cert", "transfer-check", "examples"
)

# name -> argv whose output argparse writes and then exits; "error i" is
# the i-th entry of test_cli._ARGPARSE_ERRORS
HELP_AND_USAGE = {
    "--help": ["--help"],
    **{name + " --help": [name, "--help"] for name in COMMAND_NAMES},
    **{f"error {i}": argv for i, argv in enumerate(_ARGPARSE_ERRORS)},
}


def _exit_output(argv):
    """(exit code, stdout, stderr) of a command line that argparse ends."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _recorded(argv):
    code, out, err = _exit_output(argv)
    return code, digest(out), digest(err)


EMPTY = digest("")

# Python (major, minor) -> name -> (exit code, sha256 of stdout, sha256 of
# stderr), with COLUMNS=80
HELP_GOLDEN = {
    (3, 11): {
        "--help": (0, "f74d776d96faacb2267547ae2392c0f1d21d7456b62182d4daef895e553df936", EMPTY),
        "orderings --help": (0, "1883962d0870d23f9d4223fd2243baed5b32e27719ff04b464a4e02909045981", EMPTY),
        "nil --help": (0, "4a1e70c4e28eb10612c9244d856ad1fc73abf53d0d68589a1651b632f84417de", EMPTY),
        "signature --help": (0, "b4d131c72a8b05da92c8bea51c07eabc75656aa9aab9caebb77548da13e06dd4", EMPTY),
        "stability --help": (0, "6a2630fd5cf7120bc064cecc7e63a7eadae34ccf696338136fe3634927b6214a", EMPTY),
        "split-cert --help": (0, "b36cbf6a1dc643f9f49c403ed039c17bde592f18fff90c10fd09c0a979f0ebdb", EMPTY),
        "transfer-check --help": (0, "b7717db19c46576ff975e9d8ddf17376838deab556b05e2ad3604573501562f7", EMPTY),
        "examples --help": (0, "d59bd1c1d26fb259f151633184dcd23569ae59b0cda55ce46dba113f18301785", EMPTY),
        "error 0": (2, EMPTY, "1d7c04a835f5baccc77062f406da5d6bc7d54dd7c0ea9e3e18063c2682fb0bff"),
        "error 1": (2, EMPTY, "00423dd7d46a35ec98e3f6e2f4bd8d9fa49a0e22795d337b914ab65c5e144f19"),
        "error 2": (2, EMPTY, "7846ef78213b5d2f914e6b66ee7942a759fa4bd45d84f2c6f7b826b976da4e4b"),
        "error 3": (2, EMPTY, "26bbca2999fd882691809a89914747aee760fd10cd4cfbd1345f17c80d89df86"),
        "error 4": (2, EMPTY, "eac3aa8aa7ff1e43cf1c24982d47a660433dac85fa7d29f0d23b48bf682796fa"),
        "error 5": (2, EMPTY, "e6fdc229e826820f2061c98e936efe6e7de224e29c266bfff3516129a639f83b"),
        "error 6": (2, EMPTY, "add21f9fc14cfce276482b8f807dfefd8cbe0c804b71b5533d8790f18999c795"),
        "error 7": (2, EMPTY, "434cbfa573a58493727be12565d1dd801a80fb2c7d3befdbd6eecfa992d91cfc"),
    },
}


@pytest.mark.parametrize("name", list(HELP_AND_USAGE))
def test_help_and_usage_are_argparse_output(monkeypatch, name):
    golden = HELP_GOLDEN.get(sys.version_info[:2])
    if golden is None:
        pytest.skip("no help digests recorded for this Python version")
    monkeypatch.setenv("COLUMNS", "80")
    assert _recorded(HELP_AND_USAGE[name]) == golden[name]


def _perfbench_workloads():
    """perfbench/workloads.py, loaded read-only under a private name."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_argv_test_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _query_round_argvs():
    rounds = _perfbench_workloads().query_rounds
    for seed in (1, 7):
        for _, batch in zip(range(5), rounds(seed)):
            yield from (query.argv for query in batch)


def _argparse_vars(argv):
    """vars() of ``build_parser().parse_args(argv)``, or None where argparse
    prints help or a usage error and exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(list(argv)))
        except SystemExit:
            return None


def _assert_read_as_argparse(argv):
    """``_read_argv`` declines ``argv`` or reads it as argparse does;
    returns whether it read it."""
    read = cli._read_argv(list(argv))
    if read is not None:
        assert vars(read) == _argparse_vars(argv), argv
    return read is not None


WELL_FORMED = (
    list(GOLDEN_COMMANDS.values())
    + [
        prefix + list(call)
        for call in _FUZZ_CALLS
        for prefix in ([], ["--json"], ["--budget", "7"], ["--json", "--budget", "0"])
    ]
    + [
        ["--budget", "3", "--json", "--max-depth", "2", "--budget", "9", "nil", "--algebra", HAM],
        ["--json", "--json", "examples"],
        ["nil", "--algebra", "x", "--algebra", HAM],
        ["signature", "--form", "", "--algebra", "", "--reference", ""],
        ["split-cert", "--ordering", "0", "--algebra", HAM, "--ordering", "1"],
        ["--budget", "+5", "stability", "--probes", "p.json", "--algebra", HAM],
        ["--budget", " 5 ", "orderings", "--field", "nil"],
        ["--max-depth", "1_0", "transfer-check", "--form", "form"],
    ]
)

# command lines that argparse reads or rejects in its own way
DECLINED = [
    ["-h"],
    ["--help"],
    ["nil", "-h", "--algebra", HAM],
    ["nil", "--algebra", HAM, "--help"],
    ["nil", "--alg", HAM],
    ["--js", "nil", "--algebra", HAM],
    ["--budget=5", "nil", "--algebra", HAM],
    ["nil", "--algebra=" + HAM],
    ["--budget", "-1", "nil", "--algebra", HAM],
    ["split-cert", "--algebra", HAM, "--ordering", "-1"],
    ["nil", "--algebra", "-"],
    ["--", "nil", "--algebra", HAM],
    ["nil", "--", "--algebra", HAM],
    ["nil", "--algebra", HAM, "--"],
    ["nil", "--algebra", HAM, "--json"],
    ["examples", "--budget", "5"],
    ["nil", "--algebra", HAM, "--form", "{}"],
    ["nil", "--algebra", HAM, "extra"],
    ["nil"],
    ["nil", "--algebra"],
    ["--budget"],
    ["--json"],
    ["--budget", "x5", "examples"],
    ["--budget", "5.0", "examples"],
    ["Nil", "--algebra", HAM],
    [],
] + [list(argv) for argv in _ARGPARSE_ERRORS]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=range(len(WELL_FORMED)))
def test_well_formed_command_lines_are_read_directly(argv):
    assert _assert_read_as_argparse(argv)


def test_query_round_command_lines_are_read_directly():
    argvs = list(_query_round_argvs())
    assert len(argvs) > 500
    assert all(_assert_read_as_argparse(argv) for argv in argvs)


@pytest.mark.parametrize("argv", DECLINED, ids=range(len(DECLINED)))
def test_other_command_lines_go_to_argparse(argv):
    assert cli._read_argv(list(argv)) is None


INT_VALUES = ["0", "7", "+2", " 3", "1_0", "-1", "x", "1.5", ""]
VALUES = ["0", "", "x", "{}", '{"a": 1}', "@f", "nil", "-1", "-", "--json"]
NOISE = (
    ["--json", "--budget", "--max-depth", "--bud", "--json=1", "--budget=3", "-h", "--"]
    + ["no-such-command", "--alg", "--algebra=x", "--form=", "-x", "--reference"]
    + list(COMMAND_NAMES) + VALUES
)


def _random_argv(rng):
    """Global options, a command and its options, each drawn at random,
    then up to two tokens replaced, inserted or deleted."""
    argv = []
    for _ in range(rng.randint(0, 3)):
        flag = rng.choice(["--json", "--budget", "--max-depth"])
        argv += [flag] if flag == "--json" else [flag, rng.choice(INT_VALUES)]
    name, _, _, options = rng.choice(cli._COMMANDS)
    argv.append(name)
    flags = [flag for flag, *_ in options] or ["--algebra"]
    for _ in range(rng.randint(0, 4)):
        argv += [rng.choice(flags), rng.choice(VALUES)]
    for _ in range(rng.choice((0, 0, 1, 2))):
        i = rng.randrange(len(argv) + 1)
        roll = rng.random()
        if roll < 0.4 and i < len(argv):
            argv[i] = rng.choice(NOISE)
        elif roll < 0.7 or i == len(argv):
            argv.insert(i, rng.choice(NOISE))
        else:
            del argv[i]
    return argv


def test_random_command_lines_read_as_argparse():
    """Whatever ``_read_argv`` accepts of seeded random command lines,
    argparse reads the same way; and it accepts a fair share of them."""
    rng = random.Random(20140623)
    read = sum(_assert_read_as_argparse(_random_argv(rng)) for _ in range(3000))
    assert read > 200, read


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    print(f"    {sys.version_info[:2]}: {{")
    for name, argv in HELP_AND_USAGE.items():
        code, out, err = _recorded(argv)
        out, err = ("EMPTY" if d == EMPTY else f'"{d}"' for d in (out, err))
        print(f'        "{name}": ({code}, {out}, {err}),')
    print("    },")
