"""Which executable lines of ``src/paradoxcert`` no run reaches.

    python3 tools/unreached_lines.py run --data REACH.json -m pytest -q
    python3 tools/unreached_lines.py run --data REACH.json SCRIPT [ARGS...]
    python3 tools/unreached_lines.py report --data REACH.json [--list]

``run`` runs a module (``-m``, as ``python -m`` does) or a script under a
line tracer, ``sys.settrace`` and ``threading.settrace``, limited to the
files under the ``src/paradoxcert`` of this checkout, and adds the lines
it reached to the JSON file ``--data``. A line counts as reached when any
run recorded there reaches it. Child processes are not followed. The exit
code is the run's own.

``report`` reads the executable lines of every file under that package
from the ``co_lines()`` of each code object its source compiles to, and
prints how many of them no recorded run reached; ``--list`` names them,
as line ranges per file.

Import the package from this checkout, for example with
``PYTHONPATH=src``. Tracing slows a run several times over: the tier-1
suite takes minutes under it. This is a measuring tool, not a test.
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1] / "src" / "paradoxcert"


def _code_lines(code):
    """The line numbers of code's own instructions."""
    return {line for _, _, line in code.co_lines() if line is not None}


class LineTracer:
    """Records the lines run in the files under root.

    A code object is traced only while some of its lines are still
    unreached, so a function stops costing trace calls once every line of
    it has run.
    """

    def __init__(self, root: Path):
        self.root = str(root.resolve()) + os.sep
        self._pending = {}   # code -> its lines not yet reached
        self._lines = {}     # code under root -> all its lines

    def _call(self, frame, event, arg):
        code = frame.f_code
        pending = self._pending.get(code)
        if pending is None:
            pending = set()
            if os.path.abspath(code.co_filename).startswith(self.root):
                self._lines[code] = _code_lines(code)
                pending = set(self._lines[code])
            self._pending[code] = pending
        if not pending:
            return None
        pending.discard(frame.f_lineno)
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self._pending[frame.f_code].discard(frame.f_lineno)
        return self._line

    def start(self):
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def reached(self) -> dict:
        """{file path relative to root: set of reached lines}."""
        out = defaultdict(set)
        for code, lines in self._lines.items():
            name = os.path.abspath(code.co_filename)[len(self.root):]
            out[name] |= lines - self._pending[code]
        return out


def executable_lines(root: Path) -> dict:
    """{file path relative to root: its executable lines}."""
    out = {}
    for path in sorted(root.rglob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        lines = set()
        while stack:
            code = stack.pop()
            lines |= _code_lines(code)
            stack.extend(c for c in code.co_consts
                         if hasattr(c, "co_lines"))
        out[str(path.relative_to(root))] = lines
    return out


def _load(data: Path) -> dict:
    if not data.exists():
        return {}
    return {k: set(v) for k, v in json.loads(data.read_text()).items()}


def _run(args) -> int:
    target = args.command[0]
    sys.argv = list(args.command)
    # what python puts first on sys.path: the working directory for -m,
    # else the script's directory
    sys.path[0] = (os.getcwd() if args.module
                   else str(Path(target).resolve().parent))
    tracer = LineTracer(ROOT)
    tracer.start()
    try:
        if args.module:
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target, run_name="__main__")
        status = 0
    except SystemExit as e:
        status = e.code if isinstance(e.code, int) else (e.code is not None)
    finally:
        tracer.stop()
    data = Path(args.data)
    merged = _load(data)
    for name, lines in tracer.reached().items():
        merged.setdefault(name, set()).update(lines)
    data.write_text(json.dumps({k: sorted(v) for k, v in
                                sorted(merged.items())}, indent=0))
    return status


def _ranges(lines):
    """'3-5, 9' for the lines 3, 4, 5 and 9."""
    spans = []
    for x in sorted(lines):
        if spans and spans[-1][1] == x - 1:
            spans[-1][1] = x
        else:
            spans.append([x, x])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def _report(args) -> int:
    reached = _load(Path(args.data))
    unreached = total = 0
    for name, lines in executable_lines(ROOT).items():
        missed = lines - reached.get(name, set())
        total += len(lines)
        unreached += len(missed)
        if args.list and missed:
            print(f"{name}: {_ranges(missed)}")
    print(f"{unreached} of {total} executable lines unreached")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run a module or script under trace")
    run.add_argument("--data", required=True)
    run.add_argument("-m", dest="module", action="store_true",
                     help="run the first argument as a module")
    run.add_argument("command", nargs=argparse.REMAINDER)
    report = sub.add_parser("report", help="count the unreached lines")
    report.add_argument("--data", required=True)
    report.add_argument("--list", action="store_true")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        if not args.command:
            parser.error("run needs a module or a script")
        return _run(args)
    return _report(args)


if __name__ == "__main__":
    sys.exit(main())
