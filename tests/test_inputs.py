"""Malformed outside input, generated: game and distribution files mutated
from `fixtures/` and flags set to edge values, run through `cli.main`
in-process. Every run ends in an exit code of the 0/2/3/4 contract, and an
input error prints one `error:` line and writes no file."""

import functools
import io
import json
import math
import operator
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from celab.cli import build_parser, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GAMES = {p.name: json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))}
DISTRIBUTION = {"p_tilde": [0.5, 0.0, 0.0, 0.5]}

# every size flag small, so that no example allocates much or trains long
SMALL = ["--rounds", "2", "--steps", "2", "--step-size", "0.5", "--epochs", "1",
         "--stability-window", "1", "--width-in", "2", "--width-mid", "2"]
TRAINING_FLAGS = ["--seed", "--rounds", "--steps", "--step-size", "--discount",
                  "--learning-rate", "--epochs", "--stability-window", "--stability-tol",
                  "--width-in", "--width-mid"]
EDGES = ["nan", "inf", "-0", "-1", "0", "1", "1e308", "true", ""]

# a mutation's raw JSON text stands in for this string once the file is dumped
RAW = "@raw@"
MUTATIONS = {
    "bool": True,
    "nan": math.nan,
    "infinity": math.inf,
    "huge-integer": 10**400,
    "string": "x",
    "empty-string": "",
    "number": 0.5,
    "null": None,
    "empty-list": [],
    "object": {},
    "deep": "[" * 500 + "0.25" + "]" * 500,
    "very-deep": "[" * 3000 + "]" * 3000,
}


def _paths(value, path=()):
    """Every path into a JSON value, the value itself first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _paths(child, path + (key,))


@st.composite
def mutated_file(draw, value):
    """The bytes of `value` as a JSON file, as it is half of the time, and
    otherwise with one part changed: replaced by a mutation, dropped,
    repeated (a list entry, such as a label), or the file's bytes made
    invalid UTF-8."""
    value = json.loads(json.dumps(value))
    if draw(st.booleans()):
        return json.dumps(value).encode()
    kind = draw(st.sampled_from(["drop", "repeat", "not-utf-8", *MUTATIONS]))
    path = draw(st.sampled_from(list(_paths(value))))
    new, raw = MUTATIONS.get(kind), None
    if kind in ("deep", "very-deep"):  # json.dumps cannot nest this deep
        new, raw = RAW, new
    if not path:
        value = new if kind in MUTATIONS else value
    else:
        parent = functools.reduce(operator.getitem, path[:-1], value)
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "repeat" and isinstance(parent, list):
            parent.append(parent[path[-1]])
        elif kind in MUTATIONS:
            parent[path[-1]] = new
    text = json.dumps(value)
    if raw is not None:
        text = text.replace(json.dumps(RAW), raw)
    if kind == "not-utf-8":
        cut = draw(st.integers(0, len(text)))
        return text[:cut].encode() + b"\xff" + text[cut:].encode()
    return text.encode()


@st.composite
def invocation(draw):
    """(command, game bytes, distribution bytes or None, flags)."""
    command = draw(st.sampled_from(["solve", "train", "estimate", "pipeline"]))
    game = draw(mutated_file(GAMES[draw(st.sampled_from(sorted(GAMES)))]))
    distribution = None
    flag = draw(st.sampled_from(
        {"solve": ["--point"], "estimate": ["--comparison-tol", "--round-trip-tol"],
         "train": TRAINING_FLAGS, "pipeline": ["--comparison-tol", *TRAINING_FLAGS]}[command]
    ))
    edge = [draw(st.sampled_from(EDGES)) for _ in range(2 if flag == "--point" else 1)]
    if command == "solve":
        flags = ["--mode", draw(st.sampled_from(["ce", "ne", "hull"])), "--point", *edge]
    elif command == "estimate":
        distribution = draw(mutated_file(DISTRIBUTION))
        flags = ["--known-player", "p1", "--round-trip", flag, *edge]
    else:
        flags = [*SMALL, flag, *edge]
    return command, game, distribution, flags


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocation())
# a point far outside the hull once overflowed the simplex arithmetic
@example(("solve", json.dumps(GAMES["chicken.json"]).encode(), None,
          ["--mode", "hull", "--point", "1e308", "1e308"]))
def test_mutated_inputs_end_in_an_exit_code_and_one_error_line(case):
    command, game, distribution, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "game.json").write_bytes(game)
        argv = [command, str(tmp / "game.json"), *flags, "--out-dir", str(tmp / "out")]
        if distribution is not None:
            (tmp / "dist.json").write_bytes(distribution)
            argv += ["--distribution", str(tmp / "dist.json")]
        inputs = sorted(p.name for p in tmp.iterdir())
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                build_parser().parse_args(argv)
            except SystemExit as exc:  # argparse refuses a flag value with its usage
                assert exc.code == 2
                event("argparse refused a flag")
                assert err.getvalue().splitlines()[-1].startswith(f"celab {command}: error: ")
                return
            code = main(argv)
        event(f"exit {code}")
        assert code in (0, 2, 3, 4)
        if code == 2:
            (line,) = err.getvalue().splitlines()
            assert line.startswith("error: ")
            assert sorted(p.name for p in tmp.iterdir()) == inputs
