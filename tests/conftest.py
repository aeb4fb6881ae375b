"""Shared fixtures and parameter grids for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.simnet import MachineSpec, frontier, polaris, reference

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from the current outputs "
        "instead of comparing against them",
    )


class GoldenFile:
    """One pinned-output JSON file under ``tests/golden/``.

    ``check(actual)`` compares exactly (floats survive a JSON round trip
    bit-for-bit, so ``==`` pins costs to the last digit); with
    ``--update-golden`` it rewrites the file instead.  A missing file
    fails with the command that creates it.

    A ``frozen`` file records the answers of an implementation that no
    longer exists, so nothing can regenerate it: it is compared even
    under ``--update-golden``, and a difference is a bug in the code
    under test.
    """

    def __init__(self, name: str, update: bool, frozen: bool = False) -> None:
        self.path = GOLDEN_DIR / f"{name}.json"
        self.update = update and not frozen
        self.hint = (
            "this file is frozen — it was written by the engine that the "
            "code under test replaced (des_corners.json: the generator "
            "engine before PR 20's flat kernel) and --update-golden never "
            "rewrites it; fix the code"
            if frozen else
            "if the change is intentional, rerun with --update-golden and "
            "explain it in the commit"
        )

    def check(self, actual: dict) -> None:
        if self.update:
            GOLDEN_DIR.mkdir(exist_ok=True)
            self.path.write_text(
                json.dumps(actual, indent=2, sort_keys=True) + "\n"
            )
            return
        if not self.path.exists():
            pytest.fail(
                f"golden file {self.path} is missing — create it with: "
                f"pytest {Path(__file__).parent.name} --update-golden"
            )
        expected = json.loads(self.path.read_text())
        missing = sorted(set(expected) - set(actual))
        extra = sorted(set(actual) - set(expected))
        assert not missing and not extra, (
            f"golden key set changed in {self.path.name} "
            f"(missing={missing[:5]}, extra={extra[:5]}); {self.hint}"
        )
        diffs = {
            key: (expected[key], actual[key])
            for key in expected
            if expected[key] != actual[key]
        }
        assert not diffs, (
            f"{len(diffs)} golden value(s) changed in {self.path.name} "
            f"(first few: {dict(list(diffs.items())[:3])}); simulated "
            f"costs are pinned to the last digit — {self.hint}"
        )


@pytest.fixture
def golden(request: pytest.FixtureRequest):
    """Factory for :class:`GoldenFile` honoring ``--update-golden``."""
    update = request.config.getoption("--update-golden")

    def _make(name: str, frozen: bool = False) -> GoldenFile:
        return GoldenFile(name, update, frozen)

    return _make

#: Process counts covering the paper's corner cases: powers of two, powers
#: of odd radices, primes, and mixed composites.
INTERESTING_P = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 24, 27, 31, 32]

#: Radices covering degenerate (k >= p), default, odd, and port-multiple values.
INTERESTING_K = [2, 3, 4, 5, 8]


@pytest.fixture(scope="session")
def tiny_frontier() -> MachineSpec:
    """A 4-node, 2-ppn Frontier-like machine (8 ranks) for fast sims."""
    return frontier(4, 2)


@pytest.fixture(scope="session")
def small_frontier() -> MachineSpec:
    """A 16-node, 1-ppn Frontier-like machine."""
    return frontier(16, 1)


@pytest.fixture(scope="session")
def small_polaris() -> MachineSpec:
    """An 8-node, 4-ppn Polaris-like machine (32 ranks)."""
    return polaris(8, 4)


@pytest.fixture(scope="session")
def ref16() -> MachineSpec:
    """The model-exact reference machine with 16 ranks."""
    return reference(16)
