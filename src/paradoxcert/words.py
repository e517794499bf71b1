"""Reduced words of the rank-2 free group.

Letters are small ints: 0 = a, 1 = a^-1, 2 = b, 3 = b^-1, so the inverse of
letter x is x ^ 1. Text form uses one character per letter: "a", "A", "b",
"B" with capitals denoting inverses. Words are tuples of letters with no
adjacent inverse pairs.
"""

from __future__ import annotations

LETTERS = "aAbB"
A, A_INV, B, B_INV = 0, 1, 2, 3
IDENTITY = ()

_PIECE_BY_LETTER = ("W(a)", "W(A)", "W(b)", "W(B)")


def parse_word(text: str):
    """'aBA' -> (0, 3, 1), reduced; 'e' is the identity word."""
    text = text.strip()
    if text == "e":
        return ()
    out = []
    for ch in text:
        try:
            out.append(LETTERS.index(ch))
        except ValueError:
            raise ValueError(
                f"bad letter {ch!r}: words use a, A, b, B (A = a inverse)")
    return reduce(out)


def word_text(word) -> str:
    return "".join(LETTERS[x] for x in word) if word else "e"


def reduce(seq):
    """Free reduction: cancel adjacent inverse pairs until none remain."""
    out = []
    for x in seq:
        if out and out[-1] == (x ^ 1):
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse_word(word):
    return tuple(x ^ 1 for x in reversed(word))


def enumerate_ball(max_len: int):
    """All reduced words of length <= max_len, breadth first.

    Yields the identity first, then words of length 1, 2, ... in letter
    order a < A < b < B. Count is 2 * 3**max_len - 1.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    frontier = [IDENTITY]
    yield IDENTITY
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            last = w[-1] if w else None
            for x in range(4):
                if last is not None and x == (last ^ 1):
                    continue
                w2 = w + (x,)
                nxt.append(w2)
                yield w2
        frontier = nxt


def ball_size(max_len: int) -> int:
    """Number of reduced words of length <= max_len: 2 * 3**max_len - 1."""
    return 2 * 3 ** max_len - 1


def classify_prefix(word) -> str:
    """Prefix piece of a word: identity or W(x) for the leading letter x."""
    if not word:
        return "identity"
    return _PIECE_BY_LETTER[word[0]]


def translate_witness(head, u):
    """h^-1 u for a head h in {a, b} and a reduced word u, read off u's
    first letter: u[1:] when u starts with h (reduced, and not starting
    with h^-1, since u[1] != h^-1), otherwise (h^-1,) + u (reduced, one
    letter longer, starting with h^-1)."""
    return u[1:] if u and u[0] == head else (head ^ 1,) + u


def check_translate_identity(max_len: int) -> dict:
    """Finite check of F2 = W(a) | a W(A) and F2 = W(b) | b W(B).

    Every word u with |u| <= max_len - 1 must lie in exactly one side of
    each decomposition: u is in the piece W(h) iff its witness h^-1 u
    (``translate_witness``) is not in W(h^-1), and that witness must stay
    inside the length-max_len ball. Purely combinatorial; no word is
    reduced.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    violations = []
    checked = 0
    for u in enumerate_ball(max_len - 1):
        checked += 1
        for head in (A, B):
            in_piece = bool(u) and u[0] == head
            v = translate_witness(head, u)
            in_translate = bool(v) and v[0] == (head ^ 1)
            if in_piece == in_translate:
                violations.append(
                    f"word {word_text(u)} vs generator {LETTERS[head]}: "
                    f"piece={in_piece} translate={in_translate}")
            elif len(v) > max_len:
                violations.append(
                    f"witness {word_text(v)} escapes the ball")
    return {
        "max_len": max_len,
        "words_checked": checked,
        "ok": not violations,
        "violations": violations,
    }
