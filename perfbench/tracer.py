"""In-memory span tracer that wraps paradoxcert's layer entry points.

The tracer patches functions from the outside: every module of the
package that holds a reference to a wrapped function gets the wrapper, so
calls made through ``from .linalg import matmul`` bindings are seen too.
Spans are kept in memory as ``[name, start_ns, end_ns, parent, op, info]``
and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

RULES = ("BaseF2", "FreeTransport", "SubgroupLift", "StarEmbed", "Pullback",
         "DisjointUnion", "EquidecompTransfer", "CountableAbsorb",
         "Intertwine")
RINGS = ("rational", "gauss_sqrt5", "quat_sqrt5")
RULE_PREFIX = "verification.rule."


class Tracer:
    """Records nested spans and plain call counts for one process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._open = Counter()
        self._restore = []

    # -- recording -----------------------------------------------------------

    def span(self, name, fn, info=None, fold=False):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of the call's arguments.
        ``info(args, kwargs, result)`` returns work counts for the span.
        With ``fold`` a call made while a span of the same name is open
        (recursion) records nothing of its own.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            if fold and tracer._open[label]:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            rec = [label, 0, 0, parent, tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer._open[label] += 1
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                tracer._open[label] -= 1
                tracer._stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so each call only bumps a count."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span; returns (result, span index)."""
        index = len(self.spans)
        return self.span(name, fn)(*args, **kwargs), index

    # -- patching ------------------------------------------------------------

    def patch_function(self, module, attr, wrap):
        """Replace ``module.attr`` and every package-level alias of it."""
        original = getattr(module, attr)
        wrapped = wrap(original)
        prefix = module.__name__.split(".")[0]
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == prefix
                                   or name.startswith(prefix + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, original))

    def patch_method(self, cls, attr, wrap):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrap(original))
        self._restore.append((cls, attr, original))

    def unpatch(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op, "info": info}) + "\n")

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def node_own_times(self):
        """Per rule span: duration minus the rule spans nested in it.

        ``CertVerifier._run`` verifies a node's children before calling its
        handler, so no rule span nests in another and this is the full
        handler time, kernels included.
        """
        own = {}
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            if not name.startswith(RULE_PREFIX):
                continue
            own[i] = own.get(i, 0) + end - start
            while parent is not None:
                if self.spans[parent][0].startswith(RULE_PREFIX):
                    own[parent] = own.get(parent, 0) - (end - start)
                    break
                parent = self.spans[parent][3]
        return own


def install(tracer):
    """Wrap the layer entry points of the imported paradoxcert package."""
    from paradoxcert import (certificates, equimaps, freegroup, linalg,
                             sampling, verification, words)

    def fixed(name, info=None, fold=False):
        return lambda fn: tracer.span(name, fn, info, fold)

    tracer.patch_function(certificates, "derive", fixed("certificates.derive"))
    tracer.patch_function(certificates, "check", fixed("certificates.check"))
    tracer.patch_function(certificates, "cert_from_json",
                          fixed("certificates.cert_from_json"))
    tracer.patch_function(freegroup, "evaluate", fixed("freegroup.evaluate"))
    tracer.patch_function(freegroup, "exceptional_set",
                          fixed("freegroup.exceptional_set"))
    tracer.patch_function(freegroup, "absorber_check",
                          fixed("freegroup.absorber_check"))
    tracer.patch_function(
        freegroup, "check_freeness",
        fixed("freegroup.check_freeness",
              lambda a, k, r: {"words": r["words_checked"]}))
    tracer.patch_function(
        words, "check_translate_identity",
        fixed("words.check_translate_identity",
              lambda a, k, r: {"words": r["words_checked"]}))
    tracer.patch_function(
        verification, "orbit_fragment",
        fixed("verification.orbit_fragment",
              lambda a, k, r: {"points": len(r.words)}))
    tracer.patch_function(verification, "reassembly_check",
                          fixed("verification.reassembly_check"))
    tracer.patch_function(
        verification, "equidecomp_verify",
        fixed("verification.equidecomp_verify",
              lambda a, k, r: {"points": r["points"]}))
    tracer.patch_function(
        equimaps, "selftest",
        fixed("equimaps.selftest",
              lambda a, k, r: {"samples": r["samples"],
                               "skipped": r["skipped"]}))

    def unitary_ring(args, kwargs):
        ring = kwargs["ring"] if "ring" in kwargs else args[1]
        return "sampling.random_unitary." + ring.name

    def basis_ring(args, kwargs):
        basis = kwargs["b"] if "b" in kwargs else args[0]
        return "linalg.projector_of_basis." + basis.scalar_ring().name

    tracer.patch_function(sampling, "random_unitary",
                          lambda fn: tracer.span(unitary_ring, fn))
    tracer.patch_function(linalg, "projector_of_basis",
                          lambda fn: tracer.span(basis_ring, fn))
    for fn_name in ("mat_vec", "matmul"):
        tracer.patch_function(
            linalg, fn_name,
            lambda fn, n=fn_name: tracer.counter(f"linalg.{n}.calls", fn))

    cls = verification.CertVerifier
    for rule in RULES:
        tracer.patch_method(cls, "_rule_" + rule,
                            fixed(RULE_PREFIX + rule))
    tracer.patch_method(cls, "classify",
                        fixed("verification.classify", fold=True))


def per_layer_metrics(tracer):
    """The per-layer metrics of one traced run, keyed by metric name."""
    self_ns = tracer.self_times()
    own_ns = tracer.node_own_times()
    time_ns = defaultdict(int)
    calls = Counter()
    work = Counter()
    for i, (name, _, _, _, _, info) in enumerate(tracer.spans):
        calls[name] += 1
        time_ns[name] += own_ns[i] if i in own_ns else self_ns[i]
        for key, value in (info or {}).items():
            work[f"{name}.{key}"] += value

    out = {}

    def seconds(metric, span_name):
        out[metric] = (time_ns[span_name] / 1e9, "s")

    for rule in RULES:
        name = RULE_PREFIX + rule
        seconds(name + ".self_s", name)
        out[name + ".nodes"] = (calls[name], "count")
    for name in ("freegroup.evaluate", "freegroup.exceptional_set",
                 "freegroup.absorber_check", "verification.orbit_fragment",
                 "verification.classify"):
        seconds(name + "_s", name)
        out[name + ".calls"] = (calls[name], "count")
    out["verification.orbit_fragment.points"] = (
        work["verification.orbit_fragment.points"], "count")
    seconds("verification.equidecomp_verify_s",
            "verification.equidecomp_verify")
    out["verification.equidecomp_verify.points"] = (
        work["verification.equidecomp_verify.points"], "count")
    for name in ("freegroup.check_freeness", "words.check_translate_identity"):
        seconds(name + "_s", name)
        out[name + ".words"] = (work[name + ".words"], "count")
    seconds("verification.reassembly_check_s", "verification.reassembly_check")
    seconds("equimaps.selftest_s", "equimaps.selftest")
    samples = work["equimaps.selftest.samples"]
    skipped = work["equimaps.selftest.skipped"]
    out["equimaps.selftest.samples"] = (samples, "count")
    out["equimaps.selftest.skipped"] = (skipped, "count")
    out["equimaps.selftest.useful_frac"] = (
        samples / (samples + skipped) if samples + skipped else 0.0, "ratio")
    for ring in RINGS:
        name = "sampling.random_unitary." + ring
        seconds(name + "_s", name)
        out[name + ".calls"] = (calls[name], "count")
    for ring in RINGS:
        name = "linalg.projector_of_basis." + ring
        seconds(name + "_s", name)
    for name in ("linalg.mat_vec.calls", "linalg.matmul.calls"):
        out[name] = (tracer.counts[name], "count")
    for name in ("certificates.derive", "certificates.check",
                 "certificates.cert_from_json"):
        seconds(name + "_s", name)
    return out


def verify_coverage(tracer, verify_index):
    """Share of one traced verify's wall time that the rule handlers' own
    time plus its top-level classify and structural-check spans account
    for."""
    own_ns = tracer.node_own_times()
    spans = tracer.spans
    _, verify_start, verify_end = spans[verify_index][:3]
    covered = 0
    for i in range(verify_index + 1, len(spans)):
        name, start, end, parent, _, _ = spans[i]
        if start >= verify_end:
            break
        if i in own_ns:
            covered += own_ns[i]
        elif parent == verify_index and name in ("verification.classify",
                                                  "certificates.check"):
            covered += end - start
    return covered / (verify_end - verify_start)
