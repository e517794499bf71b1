"""Counts of the exact work that one command-line ``derive`` and ``verify``
of each descriptor does.

    PYTHONPATH=src python3 tools/work_counts.py "sphere(2)" "grass(C,4,2)" ...

For each descriptor it runs ``derive`` and then ``verify`` with no option,
in process, with counting wrappers installed from outside the package,
and prints one Markdown table row

    | descriptor | cayley | rref | scalars | applies |

with the number of Cayley transforms (``linalg.cayley_unitary``), row
reductions (``linalg._rref_rows``), quadratic-field scalars made
(``scalars._make``) and map applies (the ``apply`` of every
``equimaps.MapInstance`` built). The package's memos (its ``functools``
caches and the generator pairs ``freegroup.get_pair`` keeps) are emptied
before each descriptor and the wrappers removed after it, so each row
counts the work of a fresh process, and the counts depend neither on the
host nor on the order of the descriptors. The exit code is 1 when any
command fails; its row then names the failing exit code in place of the
counts.
"""

from __future__ import annotations

import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from paradoxcert import equimaps, freegroup, linalg, scalars
from paradoxcert.cli import main as cli

COUNTED = ("cayley", "rref", "scalars", "applies")

# (count, module, function): every module of the package that holds the
# function is rebound to the counting wrapper
_KERNELS = (("cayley", linalg, "cayley_unitary"),
            ("rref", linalg, "_rref_rows"),
            ("scalars", scalars, "_make"))


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "paradoxcert" or name.startswith("paradoxcert.")]


def _counted(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@contextmanager
def counting():
    """A Counter of the calls made inside the block, the package's memos
    emptied first."""
    counts = Counter()
    undo = []
    modules = _package_modules()
    freegroup._PAIRS.clear()
    for module in modules:
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    for name, home, attr in _KERNELS:
        original = getattr(home, attr)
        wrapper = _counted(counts, name, original)
        for module in modules:
            if vars(module).get(attr) is original:
                undo.append((module, attr, original))
                setattr(module, attr, wrapper)
    init = equimaps.MapInstance.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.apply = _counted(counts, "applies", self.apply)
    undo.append((equimaps.MapInstance, "__init__", init))
    equimaps.MapInstance.__init__ = counting_init
    try:
        yield counts
    finally:
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)


def work_counts(desc: str, workdir: Path, verify_args=()):
    """(exit status, Counter) of ``derive`` then ``verify`` of one
    descriptor; the status is that of the first command that fails, or
    0."""
    cert, report = workdir / "cert.json", workdir / "report.json"
    with counting() as counts:
        for argv in (["derive", desc, "-o", str(cert)],
                     ["verify", str(cert), "-o", str(report),
                      *verify_args]):
            status = cli(argv)
            if status != 0:
                break
    return status, counts


def main(argv=None) -> int:
    descs = sys.argv[1:] if argv is None else argv
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for desc in descs:
            status, counts = work_counts(desc, Path(tmp))
            failed |= status != 0
            cells = ([f"exit {status}"] * len(COUNTED) if status
                     else [str(counts[c]) for c in COUNTED])
            print(f"| {desc} | {' | '.join(cells)} |", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
