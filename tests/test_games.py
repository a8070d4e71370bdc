import itertools
import json

import numpy as np
import pytest

from celab.errors import InvalidGameError, PreconditionError
from celab.games import (
    RenormalizedPayoffWarning,
    game_to_dict,
    load_game,
    make_game,
    save_game,
    validate_game,
)


def simple_game(v1, v2):
    return make_game(
        ["p1", "p2"],
        {"p1": ["a", "b"], "p2": ["x", "y"]},
        {"p1": v1, "p2": v2},
    )


def test_decision_set_order(chicken):
    combos = list(itertools.product(*chicken.decisions))
    assert [chicken.outcome_index(c) + 1 for c in combos] == [1, 2, 3, 4]
    assert combos == [
        ("C", "C"),
        ("C", "D"),
        ("D", "C"),
        ("D", "D"),
    ]


def test_outcome_index(chicken):
    assert chicken.outcome_index(["C", "C"]) == 0
    assert chicken.outcome_index(["D", "C"]) == 2
    with pytest.raises(PreconditionError):
        chicken.outcome_index(["C"])
    with pytest.raises(PreconditionError):
        chicken.outcome_index(["C", "Z"])


def test_make_game_rejects_bad_sum():
    with pytest.raises(InvalidGameError):
        simple_game([0.3, 0.3, 0.3, 0.3], [0.25] * 4)


def test_make_game_renormalizes_close_sum():
    off = [0.25 + 2e-8, 0.25, 0.25, 0.25]
    with pytest.warns(RenormalizedPayoffWarning):
        g = simple_game(off, [0.25, 0.35, 0.15, 0.25])
    assert g.payoff("p1").sum() == pytest.approx(1.0, abs=1e-12)


def test_make_game_rejects_negative():
    with pytest.raises(InvalidGameError):
        simple_game([-0.1, 0.4, 0.4, 0.3], [0.25] * 4)


def test_make_game_rejects_wrong_length():
    with pytest.raises(InvalidGameError):
        simple_game([0.5, 0.5], [0.25] * 4)


@pytest.mark.parametrize(
    "payoff",
    [
        [True, False, False, False],
        [0.5, 0.5, False, False],  # converts to a float64 vector that sums to 1
        np.array([True, False, False, False]),
        [np.True_, 0.0, 0.0, 0.0],
    ],
    ids=["all-bools", "mixed", "bool-array", "numpy-bool"],
)
def test_make_game_rejects_boolean_payoffs(payoff):
    with pytest.raises(InvalidGameError, match="'p1' must hold numbers, not booleans"):
        simple_game(payoff, [0.25, 0.35, 0.15, 0.25])


def test_make_game_rejects_duplicates():
    with pytest.raises(InvalidGameError):
        make_game(["p1", "p1"], [["a", "b"], ["x", "y"]], {})
    with pytest.raises(InvalidGameError):
        make_game(["p1", "p2"], [["a", "a"], ["x", "y"]], {})


def test_unknown_payoff_is_allowed():
    g = make_game(
        ["p1", "p2"],
        [["a", "b"], ["x", "y"]],
        {"p1": [0.25, 0.25, 0.25, 0.25]},
    )
    assert g.payoffs["p2"] is None
    with pytest.raises(PreconditionError):
        g.payoff("p2")


def test_payoffs_are_frozen(chicken):
    v = chicken.payoff("p1")
    with pytest.raises(ValueError):
        v[0] = 9.0


def test_validate_mirror_game(mirror):
    report = validate_game(mirror)
    assert report.normalized == {"p1": True, "p2": True}
    assert report.restriction_ok == {"p1": True, "p2": True}
    # both first decisions strictly dominate, so only one equilibrium exists
    assert report.equilibrium_count == 1
    assert report.multiple_equilibria is False
    assert not report.ok


def test_validate_chicken(chicken):
    report = validate_game(chicken)
    assert report.ok
    assert report.equilibrium_count == 3


def test_validate_flags_equal_rewards():
    # p1 sees the same reward at outcomes 1 and 3 (own decision flips)
    g = simple_game([0.3, 0.2, 0.3, 0.2], [0.25, 0.35, 0.15, 0.25])
    report = validate_game(g)
    assert report.restriction_ok["p1"] is False
    assert any("outcomes 1 and 3" in f for f in report.findings)


def test_game_json_round_trip(tmp_path, chicken):
    path = tmp_path / "g.json"
    save_game(chicken, path)
    again = load_game(path)
    assert again.players == chicken.players
    assert again.decisions == chicken.decisions
    np.testing.assert_array_equal(again.payoff("p1"), chicken.payoff("p1"))


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"players": ["p1", "p2"],\n  "decisions": }')
    with pytest.raises(InvalidGameError, match="line 2"):
        load_game(path)


def test_load_reports_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"players": ["p1", "p2"]}))
    with pytest.raises(InvalidGameError, match="decisions"):
        load_game(path)


def test_three_player_game():
    g = make_game(
        ["p1", "p2", "p3"],
        [["U", "D"], ["L", "R"], ["l", "r"]],
        {"p1": [0.125] * 8},
    )
    assert g.num_outcomes == 8
    assert g.menu_sizes == (2, 2, 2)
    # row-major: p3 varies fastest
    assert g.outcome_index(["U", "L", "r"]) == 1
    assert g.outcome_index(["D", "L", "l"]) == 4
    d = game_to_dict(g)
    assert "p2" not in d["payoffs"]


def test_validate_lists_equal_rewards_in_outcome_order():
    # p3's payoff is flat, so each pair of outcomes that differ only in
    # p3's decision ties; the findings list the pairs with p1's decision
    # varying slowest, as the outcome list runs
    g = make_game(["p1", "p2", "p3"], [["U", "D"], ["L", "R"], ["l", "r"]], {"p3": [0.125] * 8})
    findings = [f for f in validate_game(g).findings if f.startswith("p3: equal")]
    assert findings == [
        f"p3: equal rewards at outcomes {i} and {i + 1} (value 0.125)" for i in (1, 3, 5, 7)
    ]
