#!/usr/bin/env python3
"""Exercise every equivariant map in the catalog.

Each map is checked on random (group element, point) pairs: apply the
map, act on both sides, compare.  Every map is exact, so both sides must
agree to the last digit.  A deliberately corrupted copy of the first map
shows the harness actually rejects broken maps.
"""

from paradoxcert.equimaps import corrupted, default_catalog, selftest


def main() -> None:
    catalog = default_catalog()
    print(f"{len(catalog)} maps in the catalog\n")
    print(f"{'map':<32} {'checks':>6} {'skips':>5} "
          f"{'max deviation':>14}  ok")
    for m in catalog:
        r = selftest(m, samples=40, seed=7)
        print(f"{m.name:<32} {r['samples']:>6} "
              f"{r['skipped']:>5} {r['max_deviation']:>14.3e}  {r['ok']}")

    bad = corrupted(catalog[0])
    r = selftest(bad, samples=40, seed=7)
    print(f"\nnegative control {bad.name}: ok={r['ok']} "
          f"({r['failures']} of {r['samples']} checks failed)")


if __name__ == "__main__":
    main()
