"""In-process half of the benchmark; ``run.py`` starts it as a child.

    python3 perfbench/worker.py probe OUT
    python3 perfbench/worker.py kernels SEED OUT
    python3 perfbench/worker.py trace WORKLOAD SEED OUTDIR

``probe`` times ``import paradoxcert``.  ``kernels`` runs one pass of the
kernels workload: every kernel once.  ``trace`` runs every
operation of a workload in-process twice, untraced and with each layer
entry point wrapped, and writes the spans and per-layer metrics.  Each
mode writes one JSON object to OUT (or OUTDIR/result.json).  The package
must come from the checkout's ``src``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SRC = HERE.parent / "src"


def _import_package():
    start = time.perf_counter()
    import paradoxcert
    elapsed = time.perf_counter() - start
    where = Path(paradoxcert.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"paradoxcert imported from {where}, not {SRC}")
    return paradoxcert, elapsed


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


# --------------------------------------------------------------------------
# kernels workload
# --------------------------------------------------------------------------

FREENESS_WORDS = 118096        # 2 * (3**10 - 1) nonidentity words, L = 10
TRANSLATE_WORDS = 354293       # ball(11)
FRAGMENT_POINTS = 13121        # 2 * 3**8 - 1
REASSEMBLY_TARGETS = 4373      # ball(7)
EXCEPTIONAL_LINES = 66         # fixed axes of so3-ab words of length <= 4
SELFTEST_SAMPLES = 8           # per catalog map
UNITARIES_PER_RING = 6
PROJECTORS_PER_RING = 6


def kernel_ops(seed):
    """(name, call) pairs; each call returns a list of problems."""
    from paradoxcert import freegroup, linalg, sampling, scalars, words
    from paradoxcert import equimaps, verification
    from paradoxcert.errors import RankDeficientError
    state = {}

    def freeness(pair):
        r = freegroup.check_freeness(freegroup.get_pair(pair), 10)
        if not r["ok"] or r["words_checked"] != FREENESS_WORDS:
            return [f"freeness {pair}: ok={r['ok']} "
                    f"words={r['words_checked']}"]
        return []

    def translate():
        r = words.check_translate_identity(12)
        if not r["ok"] or r["words_checked"] != TRANSLATE_WORDS:
            return [f"translate: ok={r['ok']} words={r['words_checked']}"]
        return []

    def orbit():
        seed_point = (Fraction(1), Fraction(2), Fraction(3))
        frag = verification.orbit_fragment("sphere(2)", seed_point,
                                           "so3-ab", 8)
        state["frag"] = frag
        if len(frag.words) != FRAGMENT_POINTS or \
                len(frag.index) != FRAGMENT_POINTS:
            return [f"orbit: {len(frag.words)} words, "
                    f"{len(frag.index)} distinct points"]
        return []

    def reassembly():
        r = verification.reassembly_check(state["frag"])
        sides = r["sides"].values()
        if not r["ok"] or any(s["targets"] != REASSEMBLY_TARGETS
                              or s["covered"] != REASSEMBLY_TARGETS
                              for s in sides):
            return [f"reassembly: {r}"]
        return []

    def exceptional():
        lines = freegroup.exceptional_set(freegroup.get_pair("so3-ab"), 4)
        state["lines"] = lines
        if len(lines) != EXCEPTIONAL_LINES:
            return [f"exceptional set: {len(lines)} lines"]
        return []

    def absorber():
        r = freegroup.absorber_check(freegroup.default_absorber(),
                                     state["lines"], 50)
        if not r["ok"] or r["set_size"] != EXCEPTIONAL_LINES:
            return [f"absorber: {r}"]
        return []

    def selftest(m):
        n = SELFTEST_SAMPLES
        r = equimaps.selftest(m, n, seed)
        problems = []
        if not r["ok"] or r["samples"] + r["skipped"] != n:
            problems.append(f"selftest {m.name}: {r}")
        if m.exact and r["max_deviation"] != 0.0:
            problems.append(f"selftest {m.name}: deviation "
                            f"{r['max_deviation']} on an exact map")
        return problems

    rings = {"rational": (scalars.RING_RATIONAL, 4),
             "gauss_sqrt5": (scalars.RING_GAUSS_SQRT5, 3),
             "quat_sqrt5": (scalars.RING_QUAT_SQRT5, 2)}

    def unitaries(ring_name):
        ring, n = rings[ring_name]
        rng = sampling.rng_for(seed, "bench", "unitary", ring_name)
        bad = sum(1 for _ in range(UNITARIES_PER_RING)
                  if not linalg.is_unitary(
                      sampling.random_unitary(n, ring, rng)))
        return [f"{bad} non-unitary samples over {ring_name}"] if bad else []

    def projectors(ring_name):
        ring, n = rings[ring_name]
        rng = sampling.rng_for(seed, "bench", "projector", ring_name)
        bad = made = 0
        while made < PROJECTORS_PER_RING:
            basis = linalg.Matrix(tuple(
                tuple(sampling.random_scalar(rng, ring) for _ in range(2))
                for _ in range(n)))
            try:
                p = linalg.projector_of_basis(basis)
            except RankDeficientError:
                continue
            made += 1
            if linalg.matmul(p, p) != p or linalg.conj_transpose(p) != p:
                bad += 1
        return [f"{bad} bad projectors over {ring_name}"] if bad else []

    ops = [(f"check_freeness:{p}", lambda p=p: freeness(p))
           for p in ("so3-ab", "su2-sqrt5", "sp1-sqrt5")]
    ops += [("check_translate_identity", translate),
            ("orbit_fragment", orbit),
            ("reassembly_check", reassembly),
            ("exceptional_set", exceptional),
            ("absorber_check", absorber)]
    ops += [(f"selftest:{m.name}", lambda m=m: selftest(m))
            for m in equimaps.default_catalog()]
    ops += [(f"random_unitary:{r}", lambda r=r: unitaries(r)) for r in rings]
    ops += [(f"projector_of_basis:{r}", lambda r=r: projectors(r))
            for r in rings]
    return ops


def run_kernels(seed):
    """Every kernel once; per op: name, wall_s, cpu_s, problems."""
    out = []
    for name, call in kernel_ops(seed):
        cpu0 = _cpu()
        start = time.perf_counter()
        try:
            problems = call()
        except Exception as exc:  # a traceback is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - start
        out.append({"name": name, "wall_s": wall,
                    "cpu_s": _cpu() - cpu0, "problems": problems})
    return out


# --------------------------------------------------------------------------
# certificate workloads, in-process
# --------------------------------------------------------------------------

def _derive_all(workload):
    from paradoxcert import certificates
    derived = {}
    for desc in workloads.descriptors(workload):
        root = certificates.derive(desc)
        if not certificates.check(root)["ok"]:
            raise SystemExit(f"derived certificate for {desc} fails check")
        derived[desc] = certificates.cert_to_json(root)
    return workloads.build_certificates(workload, derived)


def _verify_op(cert, seed, path, tracer=None):
    """cert_from_json + verify + report write, as the CLI does them.

    Returns the index of the verify span when traced.
    """
    from paradoxcert import certificates, cli, verification
    root = certificates.cert_from_json(cert)
    config = verification.RunConfig(seed=seed)
    if tracer is None:
        report, index = verification.verify(root, config), None
    else:
        report, index = tracer.run_span("bench.verify", verification.verify,
                                        root, config)
    cli.emit_report(report, str(path))
    return index


def run_trace(workload, seed, outdir):
    """Each operation untraced and traced, back to back.

    The two copies alternate which goes first, so drift in machine load
    and one-time warm-up fall on both sides.
    """
    import tracer as tracing
    outdir = Path(outdir)
    tracer = tracing.Tracer()
    result = {"untraced": [], "traced": []}
    seconds = {"untraced": 0.0, "traced": 0.0}

    def traced(call):
        tracing.install(tracer)
        try:
            return call()
        finally:
            tracer.unpatch()

    if workload == "kernels":
        pairs = [(name, untraced, lambda t=t: traced(t))
                 for (name, untraced), (_, t)
                 in zip(kernel_ops(seed), kernel_ops(seed))]
    else:
        certs = _derive_all(workload)
        tracer.op = "derive"
        traced(lambda: _derive_all(workload))
        pairs = []
        for name, cert in certs.items():
            paths = {label: outdir / f"{name}.{label}.json"
                     for label in ("untraced", "traced")}
            pairs.append((
                name,
                lambda c=cert, p=paths["untraced"]: _verify_op(c, seed, p),
                lambda c=cert, p=paths["traced"]:
                    traced(lambda: _verify_op(c, seed, p, tracer))))

    for i, (name, untraced_call, traced_call) in enumerate(pairs):
        order = [("untraced", untraced_call), ("traced", traced_call)]
        for label, call in (order[::-1] if i % 2 else order):
            tracer.op = name
            start = time.perf_counter()
            try:
                value, problems = call(), []
            except Exception as exc:  # a traceback is a failed operation
                value, problems = None, [f"{type(exc).__name__}: {exc}"]
            wall = time.perf_counter() - start
            seconds[label] += wall
            entry = {"name": name, "wall_s": wall, "problems": problems}
            if workload == "kernels":
                problems.extend(value or [])
            else:
                entry["report"] = str(outdir / f"{name}.{label}.json")
                if label == "traced" and value is not None:
                    entry["coverage"] = tracing.verify_coverage(tracer,
                                                                value)
            result[label].append(entry)
    tracer.write(outdir / "spans.jsonl")

    metrics = tracing.per_layer_metrics(tracer)
    metrics["trace.overhead_s"] = (seconds["traced"] - seconds["untraced"],
                                   "s")
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    result["untraced_s"] = seconds["untraced"]
    result["traced_s"] = seconds["traced"]
    return result


def main(argv):
    mode = argv[0]
    pc, import_s = _import_package()
    if mode == "probe":
        import numpy
        result = {"import_s": import_s, "numpy": numpy.__version__,
                  "python": sys.version.split()[0],
                  "paradoxcert": pc.__version__}
        out = argv[1]
    elif mode == "kernels":
        result = {"ops": run_kernels(int(argv[1]))}
        out = argv[2]
    elif mode == "trace":
        result = run_trace(argv[1], int(argv[2]), argv[3])
        out = os.path.join(argv[3], "result.json")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
