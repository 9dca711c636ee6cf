#!/usr/bin/env python3
"""List the lines of each stereosim module that no test reaches.

    python3 tools/line_reach.py [PYTEST_ARG ...]

Runs pytest in this process (default arguments: -q -p no:cacheprovider
tests) with a sys.settrace line tracer on every frame whose code lives in
src/stereosim, and then prints, for each module, the executable lines that
never ran. A line is executable when the compiled module maps a bytecode
instruction to it; a `def` or `class` line belongs to the enclosing block,
which runs it at import. Only the standard library is used, so it runs
where coverage.py is not installed. Threads started after the tracer is set
are traced too; other processes (such as a test's subprocess) are not.

The exit status is pytest's when pytest fails, and otherwise 1 when any
module has an unreached line, or 0 when every line was reached.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stereosim"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that the compiled module attributes an instruction to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        own = {line for _, _, line in code.co_lines() if line}
        if code.co_name != "<module>":
            # the def line's instruction belongs to the enclosing block
            own.discard(code.co_firstlineno)
        lines |= own
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, such as 3-5, 9."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set())
        return trace_lines

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print()
    unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - reached.get(str(path), set()))
        unreached += len(missed)
        where = path.relative_to(ROOT)
        summary = f"{where}: {len(missed)} of {len(lines)} executable lines unreached"
        print(f"{summary}: {ranges(missed)}" if missed else summary)
    return int(status) or int(unreached > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
