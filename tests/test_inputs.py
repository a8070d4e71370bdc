"""Malformed outside input, generated: game and distribution files mutated
from `fixtures/` and flags set to edge values, run through `cli.main`
in-process. Every run ends in an exit code of the 0/2/3/4 contract, and an
input error prints one `error:` line and writes no file. Pipeline
manifests mutated the same way get findings from `validate_manifest`,
never an exception."""

import copy
import functools
import io
import json
import math
import operator
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from celab.cli import build_parser, main
from celab.errors import PreconditionError
from celab.games import load_game
from celab.lp import LinearProgram
from celab.pipeline import run_pipeline, validate_manifest
from celab.training import TrainingConfig

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
    "negative": -0.25,
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
def mutated_text(draw, value, kinds, path=None):
    """The JSON text of `value`, as it is half of the time, and otherwise
    with one part changed by a kind drawn from `kinds`: replaced by a
    mutation, dropped, or repeated (a list entry, such as a label): the one
    at `path`, or at a path drawn into `value`. Returns the text and the
    kind, None when nothing changed."""
    value = json.loads(json.dumps(value))
    if draw(st.booleans()):
        return json.dumps(value), None
    kind = draw(st.sampled_from(kinds))
    if path is None:
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
    return text, kind


@st.composite
def mutated_file(draw, value):
    """The bytes of a JSON file holding `value`, mutated by `mutated_text`
    or made invalid UTF-8."""
    text, kind = draw(mutated_text(value, ["drop", "repeat", "not-utf-8", *MUTATIONS]))
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
        # a second point of its own arity, so that the points can disagree
        second = [draw(st.sampled_from(EDGES)) for _ in range(draw(st.integers(1, 3)))]
        flags = ["--mode", draw(st.sampled_from(["ce", "ne", "hull"])),
                 "--point", *edge, "--point", *second]
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
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
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
            if command == "solve":  # every input is judged before a verdict prints
                assert out.getvalue() == ""


# a valid program with both row blocks and a bound of each kind, as JSON
# writes it: a bound pair is a list, an upper bound of None is +inf
PROGRAM = {"objective": [1.0, 2.0], "ineq_rows": [[1.0, 1.0]], "ineq_rhs": [1.5],
           "eq_rows": [[1.0, -1.0]], "eq_rhs": [0.0], "bounds": [[0.0, 1.0], [-1.0, None]]}


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
# null stands in for a left-out argument, which is None by default; the
# very deep mutation is left out, as json.loads cannot read it back
@given(st.sampled_from(list(_paths(PROGRAM))[1:]).flatmap(
    lambda path: mutated_text(PROGRAM, ["repeat", *(k for k in MUTATIONS if k != "very-deep")],
                              path)))
def test_a_mutated_program_constructs_or_raises_a_precondition_error(case):
    text, kind = case
    try:
        LinearProgram(**json.loads(text))
    except PreconditionError:
        event("refused")
    else:
        event("constructed")
        assert kind != "huge-integer"


@functools.cache
def _manifests():
    """Manifests of two short runs on the three-player fixture: a complete
    one with p1 and p2 known, and a partial one, with stalled tasks, with
    p1 known alone."""
    game = load_game(FIXTURES / "three_player.json")
    config = TrainingConfig(rounds=2, epochs=10)
    runs = [run_pipeline(game, known_players=known, config=config, seed=0)
            for known in (("p1", "p2"), ("p1",))]
    assert [run.status for run in runs] == ["complete", "partial"]
    return [json.loads(json.dumps(run.manifest())) for run in runs]


# the fields of a task and of a CE result that are judged as a whole
ENTRY_FIELDS = {("tasks", "index"), ("tasks", "players"), ("tasks", "fixed"),
                ("ce_results", "task_index"), ("ce_results", "players"),
                ("ce_results", "fixed"), ("ce_results", "welfare"), ("ce_results", "source"),
                ("ce_results", "is_ce"), ("ce_results", "max_violation")}


def _judged(path) -> bool:
    """Whether `path` leads to a field `validate_manifest` judges as a whole:
    the status, the stalled tasks, the seed, the pass count, the config, a
    task's index, players or fixed decisions, or a CE result's task index,
    players, fixed decisions, welfare, source, deviation check or largest
    violation."""
    return path in {("status",), ("stalled_tasks",), ("seed",), ("passes",), ("config",)} or (
        len(path) == 3 and (path[0], path[2]) in ENTRY_FIELDS
    )


# the changes that leave a judged field invalid, whichever field it is
INVALID = {"drop", "bool", "nan", "infinity", "string", "empty-string", "null", "empty-list", "deep"}


@st.composite
def mutated_manifest(draw):
    """A run's manifest, with one part changed as a file's would be, as JSON
    loads it: no invalid UTF-8 and no nesting deeper than JSON loads. The
    part is a judged field half of the time, as these few among some 200
    paths would seldom be drawn otherwise. Returns the manifest, the path
    and the kind of change, None for a change that leaves the text as it
    was (an empty list put in place of an empty one)."""
    manifest = draw(st.sampled_from(_manifests()))
    kinds = ["drop", "repeat", *(k for k in MUTATIONS if k != "very-deep")]
    every = list(_paths(manifest))
    path = draw(st.sampled_from([p for p in every if _judged(p)]) | st.sampled_from(every))
    text, kind = draw(mutated_text(manifest, kinds, path))
    return json.loads(text), path, None if text == json.dumps(manifest) else kind


def _edited(edit, run=0):
    """A mutation of a run's manifest, the complete one by default, made by
    `edit`."""
    def mutate():
        manifest = copy.deepcopy(_manifests()[run])
        edit(manifest)
        return manifest
    return mutate


def _with(path, value, run=0):
    """A mutation of a run's manifest, the complete one by default: `value`
    at `path`."""
    def put(manifest):
        functools.reduce(operator.getitem, path[:-1], manifest)[path[-1]] = value
    return _edited(put, run)


def _ce_for_stalled_task(manifest):
    """The partial run's manifest gains a CE result for its stalled task 4,
    naming that task, shaped as the complete run's results are."""
    result = copy.deepcopy(_manifests()[0]["ce_results"][0])
    task = manifest["tasks"][4]
    result.update(task_index=4, players=task["players"], fixed=task["fixed"],
                  source="post_estimation")
    manifest["ce_results"].append(result)


# the complete run's CE results, as its task statuses and knowledge give them
COMPLETE_CE = ("ce results are not those the task statuses and knowledge give: "
               "task 0 analytic, task 1 analytic")


def _swap_tasks(manifest):
    """Tasks 2 (p1-p3 [p2=A]) and 4 (p2-p3 [p1=A]) trade places."""
    tasks = manifest["tasks"]
    tasks[2], tasks[4] = tasks[4], tasks[2]


@pytest.mark.parametrize(
    "mutate, finding",
    [
        # each of these once raised or went unreported
        (_with(("knowledge", "p1", "vector", 0), "a"),
         "p1: vector is not a distribution (it is not an array of numbers)"),
        (_with(("ce_results", 0, "distribution", 1), [0.25, 0.25]),
         "ce result for task 0: not a distribution (it is not an array of numbers)"),
        (_with(("knowledge", "p2", "vector"), [True] + [False] * 7),
         "p2: vector is not a distribution (it must hold numbers, not booleans)"),
        (_with(("knowledge", "p2", "vector"), [1.0]),
         "p2: vector is not a distribution (it has shape (1,), expected (8,))"),
        (_with(("ce_results", 0, "distribution"), [0.125] * 8),
         "ce result for task 0: not a distribution (it has shape (8,), expected (4,))"),
        (_with(("knowledge", "p1", "vector", 0), -0.25),
         "p1: vector is not a distribution (it is not a point on the simplex: entry 0 is -0.25)"),
        (_with(("decisions", "p3"), "AB"),
         "players and decisions do not make a game: "
         "decision menu of 'p3' must be a list of string labels, got str of length 2"),
        (_with(("seed",), "x"), "seed must be an integer, got 'x'"),
        (_with(("passes",), -1), "passes must be >= 1, got -1"),
        (_with(("config",), None), "config is not an object"),
        (_with(("tasks", 0, "players"), ["p9"]),
         "task 0: players ['p9'] and fixed {'p3': 'A'} differ from the game's task 0, "
         "p1-p2 [p3=A]"),
        (_with(("tasks", 0, "fixed"), {"zz": "q"}),
         "task 0: players ['p1', 'p2'] and fixed {'zz': 'q'} differ from the game's task 0, "
         "p1-p2 [p3=A]"),
        (_with(("ce_results", 0, "welfare"), math.nan),
         "ce result for task 0: welfare is not a finite number"),
        # each of these once went unreported, or was reported as another fault
        (_with(("ce_results", 0, "fixed"), {"zz": "q"}),
         "ce result for task 0: players ['p1', 'p2'] and fixed {'zz': 'q'} differ from "
         "the game's task 0, p1-p2 [p3=A]"),
        (_with(("ce_results", 0, "players"), ["p1", "p1"]),
         "ce result for task 0: players ['p1', 'p1'] and fixed {'p3': 'A'} differ from "
         "the game's task 0, p1-p2 [p3=A]"),
        (_with(("ce_results", 0, "task_index"), 5),
         "ce result for task 5: players ['p1', 'p2'] and fixed {'p3': 'A'} differ from "
         "the game's task 5, p2-p3 [p1=B]"),
        (_edited(_swap_tasks),
         "task 2: players ['p2', 'p3'] and fixed {'p1': 'A'} differ from the game's task 2, "
         "p1-p3 [p2=A]"),
        (_edited(lambda m: m["tasks"].pop()),
         "the manifest lists 5 tasks; the game makes more than 5"),
        (_with(("tasks", 0, "fixed"), {"p3": "B"}),
         "task 0: players ['p1', 'p2'] and fixed {'p3': 'B'} differ from the game's task 0, "
         "p1-p2 [p3=A]"),
        (_with(("decisions", "p3", 1), "A"),
         "players and decisions do not make a game: duplicate decision labels for 'p3'"),
        # JSON's true equals 1 in Python, but it is no index
        (_with(("tasks", 1, "index"), True), "task 1: index True is not its position"),
        (_with(("ce_results", 1, "task_index"), True), "ce result references unknown task True"),
        # each of these went unreported: what the task statuses give is derived
        (_edited(_ce_for_stalled_task, run=1),
         "ce results are not those the task statuses and knowledge give: none"),
        (_edited(lambda m: m["ce_results"].append(m["ce_results"][0])), COMPLETE_CE),
        (_edited(lambda m: m["ce_results"].pop()), COMPLETE_CE),
        (_with(("ce_results", 0, "source"), "zzz"), COMPLETE_CE),
        (_with(("ce_results", 0, "source"), "post_estimation"), COMPLETE_CE),
        (_with(("ce_results", 0, "is_ce"), "false"), "ce result for task 0: is_ce is not true"),
        (_with(("ce_results", 0, "max_violation"), "x"),
         "ce result for task 0: max_violation is not a finite number >= 0"),
        (_with(("stalled_tasks",), [4, 5, 5], run=1),
         "stalled_tasks is not [4, 5], the stalled tasks' indices"),
    ],
    ids=["string-entry", "ragged-distribution", "bool-vector", "short-vector",
         "long-distribution", "negative-entry", "menu-as-a-string", "string-seed",
         "negative-passes", "null-config", "unknown-task-player", "unknown-fixed-player",
         "nan-welfare", "ce-unknown-fixed-player", "ce-repeated-player",
         "ce-task-of-another-pair", "swapped-tasks", "dropped-task",
         "another-tasks-fixed", "repeated-menu-label", "bool-task-index",
         "bool-ce-task-index", "ce-for-a-stalled-task", "duplicated-ce-result",
         "dropped-ce-result", "unknown-ce-source", "swapped-ce-source", "string-is-ce",
         "string-max-violation", "repeated-stalled-index"],
)
def test_validate_manifest_reports_malformed_vectors(mutate, finding):
    assert finding in validate_manifest(mutate())


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(mutated_manifest())
def test_mutated_manifests_give_findings_never_an_exception(case):
    manifest, path, kind = case
    findings = validate_manifest(manifest)
    event(f"{min(len(findings), 2)} finding(s)")
    assert isinstance(findings, list)
    assert all(isinstance(f, str) for f in findings)
    if kind is None:
        assert findings == []
    elif kind in INVALID and _judged(path):
        event("a judged field made invalid")
        assert findings
