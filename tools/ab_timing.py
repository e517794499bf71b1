"""Interleaved A/B timing of one benchmark workload in two checkouts.

    python3 tools/ab_timing.py PARENT CHANGE --workload W --passes N --seed S

PARENT and CHANGE are the roots of two checkouts of this repository, each
run from its own ``src``. A pass runs one pass of the workload from each
checkout, and the side that goes first flips every pass (the parent first
in pass 0), so drift in the host's load falls on both sides alike:

kernels        one ``perfbench/worker.py kernels`` process of the checkout,
               which runs every kernel once and checks its known answer
verify-absorb  one CLI ``verify`` process of the checkout per certificate
verify-tree    of the workload, at the default config and ``--seed S``

Each side derives its certificates once, with its own CLI, before the
first pass; the certificates are built and every verify outcome is checked
by ``perfbench/workloads.py`` of the checkout this script lives in
(``build_certificates`` and ``check_report``). Nothing is written inside
either checkout; run outputs go to a temporary directory.

Standard output is one JSON object: per pass and side the order it ran
in, its wall and CPU time (the sums over its operations, as
``perfbench/run.py`` sums a pass) and each operation's; per side the
medians over the passes; the passes in which the change was faster; and
``attempted``, ``failed`` and ``problems``. The exit code is 0 when every
operation gave its known answer, 1 otherwise. It is a second reading
beside alternating ``perfbench/run.py`` pairs, not a gate on speed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SIDES = ("parent", "change")
OP_TIMEOUT_S = 120.0      # criterion 06 caps one verify at 120 s


def _child(root: Path, argv, stderr: Path):
    """(exit code, wall s, CPU s) of one process run in the checkout root
    with its ``src`` first on the path; a process past the time limit is
    killed."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, usage.ru_utime + usage.ru_stime


def _tail(path: Path) -> str:
    return path.read_text(errors="replace")[-800:]


class Side:
    """One checkout: its certificates, derived once, and its passes."""

    def __init__(self, name: str, root: Path, workload: str, seed: int,
                 out: Path):
        self.name, self.root = name, root
        self.workload, self.seed = workload, seed
        self.out = out / name
        self.out.mkdir()
        self.certs = {}
        self.problems = []
        if workload == "kernels":
            return
        derived = {}
        for i, desc in enumerate(workloads.descriptors(workload)):
            path = self.out / f"derive-{i}.json"
            err = self.out / f"derive-{i}.stderr"
            code, _, _ = _child(root, [sys.executable, "-m",
                                       "paradoxcert.cli", "derive", desc,
                                       "-o", str(path)], err)
            if code != 0:
                self.problems.append(f"{name}: derive {desc} exit {code}: "
                                     f"{_tail(err)}")
                return
            derived[desc] = json.loads(path.read_text())
        for cert_name, cert in workloads.build_certificates(
                workload, derived).items():
            path = self.certs[cert_name] = self.out / f"{cert_name}.json"
            path.write_text(json.dumps(cert, sort_keys=True))

    def run_pass(self, n: int) -> list:
        """One pass: per operation its name, wall_s, cpu_s and problems."""
        if self.workload == "kernels":
            path = self.out / f"kernels-{n}.json"
            err = self.out / f"kernels-{n}.stderr"
            code, wall, cpu = _child(
                self.root, [sys.executable,
                            str(self.root / "perfbench" / "worker.py"),
                            "kernels", str(self.seed), str(path)], err)
            if code != 0:
                return [{"name": "kernels worker", "wall_s": wall,
                         "cpu_s": cpu,
                         "problems": [f"exit {code}: {_tail(err)}"]}]
            return json.loads(path.read_text())["ops"]
        ops = []
        for cert_name, cert in self.certs.items():
            report = self.out / f"{cert_name}-{n}.report.json"
            err = self.out / f"{cert_name}-{n}.stderr"
            code, wall, cpu = _child(
                self.root, [sys.executable, "-m", "paradoxcert.cli",
                            "verify", str(cert), "--seed", str(self.seed),
                            "-o", str(report)], err)
            try:
                data = report.read_bytes()
            except OSError as exc:
                problems = [f"no report: {exc}"]
            else:
                problems = workloads.check_report(cert_name, code, data,
                                                  self.seed)
            if code not in (0, 1):
                problems.insert(0, f"exit {code}: {_tail(err)}")
            ops.append({"name": cert_name, "wall_s": wall, "cpu_s": cpu,
                        "problems": problems})
        return ops


def ab_timing(parent: Path, change: Path, workload: str, passes: int,
              seed: int) -> dict:
    """The JSON object the script prints."""
    result = {"workload": workload, "seed": seed, "passes": passes,
              "sides": {"parent": str(parent), "change": str(change)},
              "runs": [], "attempted": 0, "failed": 0, "problems": []}
    with tempfile.TemporaryDirectory(prefix="ab_timing-") as tmp:
        sides = [Side(name, root, workload, seed, Path(tmp))
                 for name, root in zip(SIDES, (parent, change))]
        for side in sides:
            result["problems"] += side.problems
        if result["problems"]:
            result["failed"] = len(result["problems"])
            return result
        for n in range(passes):
            for order, side in enumerate(sides[::-1] if n % 2 else sides):
                ops = side.run_pass(n)
                for op in ops:
                    problems = op.pop("problems")
                    result["attempted"] += 1
                    result["failed"] += bool(problems)
                    result["problems"] += [f"{side.name} pass {n} "
                                           f"{op['name']}: {p}"
                                           for p in problems]
                result["runs"].append({
                    "pass": n, "side": side.name, "order": order,
                    "wall_s": sum(op["wall_s"] for op in ops),
                    "cpu_s": sum(op["cpu_s"] for op in ops), "ops": ops})
    by_side = {name: [r for r in result["runs"] if r["side"] == name]
               for name in SIDES}
    result["median"] = {
        name: {metric: statistics.median(r[metric] for r in runs)
               for metric in ("wall_s", "cpu_s")}
        for name, runs in by_side.items()}
    result["change_faster_passes"] = sum(
        c["wall_s"] < p["wall_s"]
        for p, c in zip(by_side["parent"], by_side["change"]))
    return result


def _checkout(text: str) -> Path:
    root = Path(text).resolve()
    if not (root / "src" / "paradoxcert" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"no paradoxcert sources under "
                                         f"{root / 'src'}")
    return root


def _passes(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {n}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=_checkout)
    parser.add_argument("change", type=_checkout)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--passes", type=_passes, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    result = ab_timing(args.parent, args.change, args.workload, args.passes,
                       args.seed)
    print(json.dumps(result, indent=1, sort_keys=True))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
