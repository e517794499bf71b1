"""Every sphere and flag descriptor up to an ambient dimension.

    python3 tools/descriptors.py N

It prints sphere(2) to sphere(N+1), then every flag(K;d_1,...,d_r,n) with
K in R, C and H, 2 <= n <= N and proper dimensions 0 < d_1 < ... < d_r < n,
one per line, in a fixed order: by field, then n, then the number r of
proper dimensions, then the dimensions in lexicographic order. A flag with
one proper dimension is a Grassmannian or a projective space, which
``derive`` normalizes, so every space the grammar names up to n = N is on
a line. flag(R;1,2) is below the n_K bound, and ``derive`` refuses it. The
lines feed ``tools/digests.py`` unchanged, for example

    python3 tools/digests.py $(python3 tools/descriptors.py 4)
"""

from __future__ import annotations

import sys
from itertools import combinations


def descriptors(n_max: int) -> list:
    """The descriptor lines for N = n_max, in print order."""
    out = [f"sphere({n})" for n in range(2, n_max + 2)]
    for field in ("R", "C", "H"):
        for n in range(2, n_max + 1):
            for r in range(1, n):
                for proper in combinations(range(1, n), r):
                    dims = ",".join(map(str, proper + (n,)))
                    out.append(f"flag({field};{dims})")
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    for desc in descriptors(int(args[0])):
        print(desc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
