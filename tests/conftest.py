import sys
from pathlib import Path

# make the shared oracle helpers importable as `oracles`
sys.path.insert(0, str(Path(__file__).parent))

# pass/fail lines collected by the acceptance suite, and the benchmark
# anchors' drift lines, echoed after the run
ACCEPTANCE_LINES = []
ANCHOR_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for title, lines in (("acceptance criteria", ACCEPTANCE_LINES),
                         ("benchmark anchor drift", ANCHOR_LINES)):
        if lines:
            terminalreporter.section(title)
            for line in lines:
                terminalreporter.write_line(line)
