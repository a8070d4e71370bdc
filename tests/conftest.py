import itertools
from pathlib import Path

import numpy as np
import pytest

from celab.games import load_game

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def chicken():
    return load_game(FIXTURES / "chicken.json")


@pytest.fixture(scope="session")
def mirror():
    return load_game(FIXTURES / "mirror_2x2.json")


@pytest.fixture(scope="session")
def dominant():
    return load_game(FIXTURES / "dominant_2x2.json")


@pytest.fixture(scope="session")
def coordination():
    return load_game(FIXTURES / "coordination_2x2.json")


@pytest.fixture(scope="session")
def three_player():
    return load_game(FIXTURES / "three_player.json")


@pytest.fixture(scope="session")
def stalled_three_player():
    return load_game(FIXTURES / "stalled_three_player.json")


@pytest.fixture(scope="session")
def three_by_two_game():
    """A game file's dict whose p1 menu is A/B/C. p1 and p2 gain by playing
    the same letter (C matches none), whatever p3 does, so each p1-p2 view
    is a 3x2 game with two pure equilibria. p2 also leans to A, and p3
    plays A whatever the others do, so every p1-p3 and p2-p3 view has one
    equilibrium."""
    cells = list(itertools.product(range(3), range(2), range(2)))
    raw = {
        "p1": [1.0 + 2.0 * (i == j) for i, j, _ in cells],
        "p2": [1.0 + 2.0 * (i == j) + 0.5 * (j == 0) for i, j, _ in cells],
        "p3": [1.0 + (k == 0) for _, _, k in cells],
    }
    return {
        "players": ["p1", "p2", "p3"],
        "decisions": {"p1": ["A", "B", "C"], "p2": ["A", "B"], "p3": ["A", "B"]},
        "payoffs": {p: (np.array(v) / sum(v)).tolist() for p, v in raw.items()},
    }


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES
