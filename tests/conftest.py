"""Shared reporting: one visible line per acceptance criterion."""

from acceptance_report import ACCEPTANCE_RESULTS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[number]
        line = f"criterion {number}: {'PASS' if passed else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
