"""Acceptance verdicts, one per criterion: test_acceptance.py records
them and the terminal-summary hook in conftest.py prints them. The name
is unique so that the import resolves when another suite's conftest
runs in the same pytest session."""

ACCEPTANCE_RESULTS: dict = {}


def record_criterion(number: int, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[number] = (passed, detail)
