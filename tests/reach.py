"""Line-reachability audit: the executable lines of ``src/elliptical`` that the
test suite never runs.

    python tests/reach.py [extra pytest arguments]

It runs ``pytest tests`` without criterion 9, whose paired training runs take
most of the suite's time, under a ``sys.settrace``/``threading.settrace`` line
tracer that follows only ``src/elliptical`` frames.  The tracer is loaded
through a ``sitecustomize`` module in a temporary directory put first on
``PYTHONPATH``, so the CLI subprocesses the tests start are traced too; each
process writes the lines it ran when it exits.  The audit then prints every
executable line (one that a compiled code object maps an instruction to) that
no process ran, as ``file:line``, and a count.  It is opt-in: pytest does not
collect this file, and it uses only the standard library.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "elliptical"
CRITERION_9 = "tests/test_acceptance.py::TestCriterion9DirectionAnalogs"

_TRACER = """\
import atexit, os, sys, threading

_PREFIX = {prefix!r}
_seen = set()


def _line(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    if not frame.f_code.co_filename.startswith(_PREFIX):
        return None
    _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _dump():
    sys.settrace(None)
    with open(os.path.join({out!r}, f"lines-{{os.getpid()}}.txt"), "w") as fh:
        fh.writelines(f"{{name}}:{{line}}\\n" for name, line in _seen)


sys.settrace(_call)
threading.settrace(_call)
atexit.register(_dump)
"""


def executable_lines(path: Path) -> set[int]:
    """Every line an instruction of the module or of a nested code object maps to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[Path, int]]]:
    """pytest's exit status and the (file, line) pairs every traced process ran."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(
            _TRACER.format(prefix=str(PACKAGE) + os.sep, out=tmp), encoding="utf-8"
        )
        paths = [tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--deselect", CRITERION_9, "tests", *pytest_args]
        status = subprocess.run(cmd, cwd=ROOT, env=env).returncode
        seen = set()
        for dump in Path(tmp).glob("lines-*.txt"):
            for entry in dump.read_text(encoding="utf-8").splitlines():
                name, _, line = entry.rpartition(":")
                seen.add((Path(name).resolve(), int(line)))
    return status, seen


def main(argv: list[str]) -> int:
    status, seen = run_traced(argv)
    unreached = [
        (path, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for line in sorted(executable_lines(path))
        if (path, line) not in seen
    ]
    for path, line in unreached:
        print(f"{path.relative_to(ROOT)}:{line}")
    total = sum(len(executable_lines(path)) for path in PACKAGE.glob("*.py"))
    print(f"{len(unreached)} of {total} executable lines unreached")
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
