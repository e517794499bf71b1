#!/usr/bin/env python3
"""Scan the generator pairs for hidden relations, depth by depth.

Both built-in pairs generate free groups of rank 2, so no nonidentity
reduced word may evaluate to the identity matrix.  This script proves every
word of each depth nontrivial exactly (no floats anywhere) from the integer
products of the half ball: a trivial word of length <= L would make the
products of its two halves, each of length <= ceil(L / 2), equal.  It
reports the count of words proven and the timing per depth, then prints the
rotation axes of the generators and the growth of the exceptional set of
fixed lines.
"""

from paradoxcert import axis_of, check_freeness, exceptional_set, get_pair
from paradoxcert.words import parse_word


def main() -> None:
    for name in ("so3-ab", "su2-sqrt5"):
        pair = get_pair(name)
        ring = pair.letter_matrix(0).scalar_ring()
        print(f"pair {name}  (ring: {ring.name})")
        for depth in range(2, 9, 2):
            r = check_freeness(pair, depth)
            status = "free" if r["ok"] else f"RELATION: {r['counterexample']}"
            print(f"  depth {depth}: {r['words_checked']:>6,} words "
                  f"in {r['elapsed_s']:6.2f}s  -> {status}")
        print()

    pair = get_pair("so3-ab")
    for text in ("a", "b", "ab", "aB"):
        axis = axis_of(parse_word(text), pair)
        print(f"axis of {text:>2}: {axis}")
    print()

    print("exceptional set (fixed lines of short words):")
    for depth in (1, 2, 3, 4):
        lines = exceptional_set(pair, depth)
        print(f"  words up to length {depth}: {len(lines):>3} lines")


if __name__ == "__main__":
    main()
