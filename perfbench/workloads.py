"""Workload definitions and known answers shared by the runner and worker.

Nothing here imports paradoxcert: certificates are handled as the JSON
the CLI writes, and reports are judged from the bytes the CLI writes.
"""

from __future__ import annotations

import copy
import json

# The report config every certificate must be verified at: the CLI
# defaults.  ``seed`` is filled in with the benchmark seed.
DEFAULT_CONFIG = {"depth": 6, "samples": 500, "mode": "exact", "tol": 1e-9,
                  "absorber_bound": 50, "absorber_depth": 4}


def _identity_absorber(cert):
    """Root CountableAbsorb node's absorber replaced by the identity."""
    entries = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    cert["root"]["params"]["absorber"] = {
        "__matrix__": {"entries": entries, "ring": "rational"}}


def _fixed_seed(cert):
    """FreeTransport seed moved to (0, 0, 1), a fixed point of ``a``."""
    node = cert["root"]["children"][0]["children"][0]
    if node["rule"] != "FreeTransport":
        raise ValueError(f"node 0.0.0 is {node['rule']}, not FreeTransport")
    node["params"]["seed"] = [0, 0, 1]


# name -> (descriptor, tamper or None, expected failure or None).  An
# expected failure is (node path, rule, text in that node's failures).
CERTIFICATES = {
    "sphere2": ("sphere(2)", None, None),
    "sphere2-identity-absorber": (
        "sphere(2)", _identity_absorber,
        ("0", "CountableAbsorb", "absorber orbit self-intersects: (0, 1)")),
    "sphere2-fixed-seed": (
        "sphere(2)", _fixed_seed,
        ("0.0.0", "FreeTransport", "seed rejected")),
    "grass-C-4-2": ("grass(C,4,2)", None, None),
}

WORKLOADS = {
    "verify-absorb": ["sphere2", "sphere2-identity-absorber",
                      "sphere2-fixed-seed"],
    "verify-tree": ["grass-C-4-2"],
    "kernels": [],
}


def descriptors(workload):
    """Distinct descriptors a certificate workload derives, in order."""
    out = []
    for name in WORKLOADS[workload]:
        desc = CERTIFICATES[name][0]
        if desc not in out:
            out.append(desc)
    return out


def build_certificates(workload, derived):
    """Certificate JSON per name, from ``derived`` (descriptor -> JSON)."""
    out = {}
    for name in WORKLOADS[workload]:
        desc, tamper, _ = CERTIFICATES[name]
        cert = copy.deepcopy(derived[desc])
        if tamper is not None:
            tamper(cert)
        out[name] = cert
    return out


def check_report(name, exit_code, report_bytes, seed):
    """Problems with one verify outcome; an empty list is the known answer.

    ``exit_code`` is None for an in-process verify.
    """
    _, _, expected = CERTIFICATES[name]
    want_exit = 0 if expected is None else 1
    if exit_code is not None and exit_code != want_exit:
        return [f"exit {exit_code}, expected {want_exit}"]
    try:
        report = json.loads(report_bytes)
    except (TypeError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    problems = []
    config = dict(DEFAULT_CONFIG, seed=seed)
    if report.get("config") != config:
        problems.append(f"config {report.get('config')} != {config}")
    overall = report.get("overall")
    if expected is None:
        if overall != "pass":
            problems.append(f"overall {overall!r}, expected 'pass'")
        return problems
    if overall != "fail":
        problems.append(f"overall {overall!r}, expected 'fail'")
    path, rule, text = expected
    failing = [n for n in report.get("nodes", []) if n["failures"]]
    named = [n for n in failing if n["path"] == path and n["rule"] == rule
             and any(text in f for f in n["failures"])]
    if not named:
        problems.append(
            f"no failure naming node {path} [{rule}] '{text}'; failing "
            f"nodes: {[(n['path'], n['rule']) for n in failing]}")
    return problems
