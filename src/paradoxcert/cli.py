"""Command-line front end.

Subcommands
-----------
derive <space> [-o cert.json]
    Build a paradoxicality certificate for a space descriptor and emit it
    as schema "paradox-cert/1" JSON (stdout by default).
verify <cert.json> [--depth --samples --seed --absorber-bound]
                   [-o report.json]
    Structurally check the certificate, then run the sampled verification
    of every rule node. Emits a "paradox-report/1" JSON report.
freeness [--pair so3-ab|su2-sqrt5|sp1-sqrt5] [--max-len L]
    Evaluate every nonidentity reduced word of length <= L exactly and
    confirm none is the identity matrix.
axes [--pair so3-ab] [--max-len L] [-o axes.json]
    Enumerate the fixed axes of all nonidentity words of length <= L
    (deduplicated), each with the first word that produced it.
orbit <space> [--seed-point 1,2,3] [--pair P] [--depth L] [-o points.json]
    Dump the orbit fragment of a seed point with provenance words.
absorber [--max-len L] [--bound M] [--identity]
    Check that powers g^0..g^M of the default absorbing rotation move the
    depth-L exceptional axis set to pairwise disjoint copies.
maps selftest [--samples N] [--seed S]
    Randomized equivariance checks for every map in the catalog.

Exit codes: 0 all checks pass; 1 verification or structural failure;
2 usage error or violated space constraint (e.g. proj(R,2)).
All diagnostics go to stderr; file output is deterministic for a fixed
seed (sorted keys, no timestamps).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .certificates import cert_from_json, cert_to_json, check, derive
from .equimaps import default_catalog, selftest
from .errors import DescriptorError, ParadoxError, SeedFixedError
from .freegroup import (
    absorber_check,
    axis_of,
    default_absorber,
    get_pair,
)
from .linalg import Matrix
from .scalars import RING_RATIONAL, scalar_to_json
from .spaces import parse_descriptor
from .verification import RunConfig, orbit_fragment, verify
from .words import enumerate_ball, word_text


def _emit(obj, path, stdout) -> None:
    """Deterministic JSON emission: sorted keys, fixed formatting."""
    text = json.dumps(obj, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        stdout.write(text)


def emit_report(report, path, stdout=None) -> None:
    _emit(report, path, stdout or sys.stdout)


def _cmd_derive(args, out, err) -> int:
    root = derive(args.space)
    result = check(root)
    _emit(cert_to_json(root), args.output, out)
    if not result["ok"]:
        for v in result["violations"]:
            print(f"structural violation: {v}", file=err)
        return 1
    print(f"derived certificate for {root.space.text}: "
          f"{sum(1 for _ in root.walk())} nodes", file=err)
    return 0


def _cmd_verify(args, out, err) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read certificate: {exc}", file=err)
        return 2
    root = cert_from_json(obj)
    cfg = RunConfig(depth=args.depth, samples=args.samples, seed=args.seed,
                    absorber_bound=args.absorber_bound)
    report = verify(root, cfg)
    emit_report(report, args.output, out)
    totals = report["totals"]
    print(f"{root.space.text}: {report['overall']} "
          f"({totals['checks']} checks, {totals['failures']} failures, "
          f"{report['unknown']} unknown)", file=err)
    if report["overall"] != "pass":
        for node in report["nodes"]:
            for failure in node["failures"]:
                print(f"  node {node['path']} [{node['rule']}]: {failure}",
                      file=err)
        if report["structure"]["violations"]:
            for v in report["structure"]["violations"]:
                print(f"  structure: {v}", file=err)
        return 1
    return 0


def _cmd_freeness(args, err) -> int:
    from .freegroup import check_freeness
    pair = get_pair(args.pair)
    result = check_freeness(pair, args.max_len)
    print(f"pair {result['pair']}: {result['words_checked']} words of "
          f"length <= {args.max_len} checked in {result['elapsed_s']}s",
          file=err)
    if not result["ok"]:
        print(f"identity found: {result['counterexample']}", file=err)
        return 1
    return 0


def _cmd_axes(args, out, err) -> int:
    pair = get_pair(args.pair)
    seen = {}
    order = []
    for w in enumerate_ball(args.max_len):
        if not w:
            continue
        axis = axis_of(w, pair)
        if axis not in seen:
            seen[axis] = word_text(w)
            order.append(axis)
    records = [{"axis": [scalar_to_json(x) for x in axis],
                "word": seen[axis]} for axis in order]
    records.sort(key=lambda r: (len(r["word"]), r["word"], str(r["axis"])))
    _emit({"schema": "paradox-axes/1", "pair": pair.name,
           "max_len": args.max_len, "count": len(records),
           "axes": records}, args.output, out)
    print(f"{len(records)} distinct axes for words of length <= "
          f"{args.max_len}", file=err)
    return 0


def _parse_seed_point(text: str):
    try:
        seed = tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise DescriptorError(
            f"seed point must be comma-separated rationals: {exc}")
    if not any(seed):
        raise DescriptorError(
            "seed point must be nonzero: the zero vector spans no ray or line")
    return seed


def _cmd_orbit(args, out, err) -> int:
    seed = _parse_seed_point(args.seed_point)
    pair = get_pair(args.pair)
    if len(seed) != pair.dim:
        raise DescriptorError(
            f"seed point has {len(seed)} coordinates, pair {args.pair} acts "
            f"on {pair.dim}")
    space = parse_descriptor(args.space)
    if space.ambient_dim != pair.dim:
        raise DescriptorError(
            f"pair {args.pair} acts on {pair.dim} coordinates, {space.text} "
            f"on {space.ambient_dim}")
    frag = orbit_fragment(space, seed, pair, args.depth)
    records = [{"word": word_text(w),
                "point": [scalar_to_json(x) for x in frag.vector(w)]}
               for w in frag.words]
    _emit({"schema": "paradox-orbit/1", "space": args.space,
           "pair": args.pair, "depth": args.depth,
           "seed": [scalar_to_json(x) for x in seed],
           "count": len(records), "points": records}, args.output, out)
    print(f"orbit fragment: {len(records)} distinct points at depth "
          f"{args.depth}", file=err)
    return 0


def _cmd_absorber(args, err) -> int:
    from .freegroup import exceptional_set
    pair = get_pair("so3-ab")
    lines = sorted(exceptional_set(pair, args.max_len), key=repr)
    if args.identity:
        g = Matrix.identity(3, RING_RATIONAL)
    else:
        g = default_absorber()
    result = absorber_check(g, lines, args.bound)
    name = "identity" if args.identity else "default"
    print(f"absorber={name} axes={result['set_size']} "
          f"bound={result['bound']}", file=err)
    if not result["ok"]:
        print(f"collision between powers {result['first_collision']}",
              file=err)
        return 1
    return 0


def _cmd_maps_selftest(args, err) -> int:
    failures = 0
    for m in default_catalog():
        result = selftest(m, args.samples, args.seed)
        status = "pass" if result["ok"] else "FAIL"
        print(f"{status} {result['map']:28s} samples={result['samples']} "
              f"max_dev={result['max_deviation']:.3e}", file=err)
        if not result["ok"]:
            failures += 1
    return 0 if failures == 0 else 1


def _count(text: str) -> int:
    """argparse type of a depth, length, bound or sample count: an integer
    >= 1, so any other value is a usage error (exit 2)."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {n}")
    return n


def _pair(text: str) -> str:
    """argparse type of ``--pair``: the name of a generator pair, so an
    unknown pair is a usage error (exit 2)."""
    try:
        get_pair(text)
    except (ParadoxError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paradoxcert",
        description="Build and verify finite paradoxicality certificates "
                    "for spheres, projective spaces, Grassmannians, and "
                    "flag manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="build a certificate for a space")
    p.add_argument("space", help='descriptor, e.g. "flag(R;1,2,3)"')
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("certificate")
    p.add_argument("--depth", type=_count, default=6)
    p.add_argument("--samples", type=_count, default=500)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--absorber-bound", type=_count, default=50)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("freeness", help="exact freeness scan for a pair")
    p.add_argument("--pair", type=_pair, default="so3-ab")
    p.add_argument("--max-len", type=_count, default=6)

    p = sub.add_parser("axes", help="fixed axes of short words")
    p.add_argument("--pair", type=_pair, default="so3-ab")
    p.add_argument("--max-len", type=_count, default=4)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("orbit", help="dump an orbit fragment")
    p.add_argument("space", help='e.g. "sphere(2)"')
    p.add_argument("--seed-point", default="1,2,3")
    p.add_argument("--pair", type=_pair, default="so3-ab")
    p.add_argument("--depth", type=_count, default=6)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("absorber", help="disjoint-powers absorber check")
    p.add_argument("--max-len", type=_count, default=4)
    p.add_argument("--bound", type=_count, default=50)
    p.add_argument("--identity", action="store_true",
                   help="negative control: use g = I instead")

    p = sub.add_parser("maps", help="equivariant map utilities")
    maps_sub = p.add_subparsers(dest="maps_command", required=True)
    p = maps_sub.add_parser("selftest", help="randomized equivariance suite")
    p.add_argument("--samples", type=_count, default=60)
    p.add_argument("--seed", type=int, default=42)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize others
        return 2 if exc.code not in (0,) else 0
    out, err = sys.stdout, sys.stderr

    try:
        if args.command == "derive":
            return _cmd_derive(args, out, err)
        if args.command == "verify":
            return _cmd_verify(args, out, err)
        if args.command == "freeness":
            return _cmd_freeness(args, err)
        if args.command == "axes":
            return _cmd_axes(args, out, err)
        if args.command == "orbit":
            return _cmd_orbit(args, out, err)
        if args.command == "absorber":
            return _cmd_absorber(args, err)
        if args.command == "maps":
            return _cmd_maps_selftest(args, err)
    except DescriptorError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except SeedFixedError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=err)
        return 2
    except ParadoxError as exc:
        print(f"error: {exc}", file=err)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
