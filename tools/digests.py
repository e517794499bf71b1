"""The sha256 of the certificate and of the default-config report of each
descriptor named on the command line.

    PYTHONPATH=src python3 tools/digests.py "sphere(2)" "proj(C,2)" ...

For each descriptor it runs the command-line ``derive`` and then ``verify``
with no option, in process, and prints one Markdown table row

    | descriptor | certificate sha256 | report sha256 |

so the tables of two checkouts can be compared with ``diff``. The exit
code is 1 when any command fails; its row then names the failing exit
code in place of a digest. Import the package from the checkout to
measure, for example with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from paradoxcert.cli import main as cli


def digests(desc: str, workdir: Path) -> tuple:
    """(certificate sha256, report sha256) of one descriptor; a failing
    command gives "exit N" in place of its digest and of those after it."""
    cert = workdir / "cert.json"
    report = workdir / "report.json"
    out = []
    for argv, path in ((["derive", desc, "-o", str(cert)], cert),
                       (["verify", str(cert), "-o", str(report)], report)):
        status = cli(argv)
        if status != 0:
            return tuple(out) + (f"exit {status}",) * (2 - len(out))
        out.append(hashlib.sha256(path.read_bytes()).hexdigest())
    return tuple(out)


def main(argv=None) -> int:
    descs = sys.argv[1:] if argv is None else argv
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for desc in descs:
            cert, report = digests(desc, Path(tmp))
            failed |= report.startswith("exit")
            print(f"| {desc} | {cert} | {report} |", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
