"""Reduced words of the rank-2 free group and the translate identities."""

import random

import pytest

from paradoxcert.words import (
    A,
    A_INV,
    B,
    B_INV,
    LETTERS,
    ball_size,
    check_translate_identity,
    classify_prefix,
    enumerate_ball,
    inverse_word,
    parse_word,
    reduce,
    word_text,
)


def _is_reduced(seq) -> bool:
    return all(seq[i + 1] != (seq[i] ^ 1) for i in range(len(seq) - 1))


def _concat(u, v):
    return reduce(tuple(u) + tuple(v))


def test_reduce_examples():
    assert parse_word("abBA") == ()
    assert parse_word("abBa") == (A, A)
    assert parse_word("Aaa") == (A,)


def test_reduce_is_idempotent_and_reduced():
    rng = random.Random(31)
    for _ in range(300):
        seq = [rng.randrange(4) for _ in range(rng.randrange(12))]
        w = reduce(seq)
        assert _is_reduced(w)
        assert reduce(w) == w


def test_reduce_independent_of_cancellation_order():
    # (a b) (B A) reduced stepwise either way gives the empty word
    left = reduce(_concat((A, B), (B_INV, A_INV)))
    right = reduce(_concat(reduce((A, B, B_INV)), (A_INV,)))
    assert left == right == ()


def test_inverse_word():
    w = parse_word("abA")
    assert inverse_word(w) == parse_word("aBA")
    assert reduce(_concat(w, inverse_word(w))) == ()


def test_ball_enumeration_counts():
    # |ball(L)| = 2 * 3^L - 1 including the empty word
    for max_len in range(5):
        words = list(enumerate_ball(max_len))
        assert len(words) == 2 * 3 ** max_len - 1 == ball_size(max_len)
        assert len(set(words)) == len(words)
        assert all(_is_reduced(w) and len(w) <= max_len for w in words)
    assert ball_size(10) - 1 == 118096  # nonidentity words at length 10


def test_ball_l1():
    assert set(enumerate_ball(1)) == {(), (A,), (A_INV,), (B,), (B_INV,)}


def test_classify_prefix():
    assert classify_prefix(()) == "identity"
    assert classify_prefix(parse_word("Ab")) == "W(A)"
    assert classify_prefix(parse_word("baa")) == "W(b)"
    assert classify_prefix((A,)) == "W(a)"
    assert classify_prefix((B_INV, A)) == "W(B)"


def test_prefix_classes_partition_the_ball():
    words = list(enumerate_ball(4))
    classes = {}
    for w in words:
        classes.setdefault(classify_prefix(w), set()).add(w)
    assert set(classes) == {"identity", "W(a)", "W(A)", "W(b)", "W(B)"}
    assert sum(len(v) for v in classes.values()) == len(words)
    assert classes["identity"] == {()}
    # symmetry: the four letter classes have equal size
    sizes = {len(v) for k, v in classes.items() if k != "identity"}
    assert len(sizes) == 1


def _reduce_scan(max_len):
    """The translate scan with every witness h^-1 u made by free
    reduction, the reference the first-letter scan must equal."""
    violations = []
    checked = 0
    for u in enumerate_ball(max_len - 1):
        checked += 1
        for head in (A, B):
            in_piece = bool(u) and u[0] == head
            v = reduce((head ^ 1,) + u)
            in_translate = bool(v) and v[0] == (head ^ 1)
            if in_piece == in_translate:
                violations.append(
                    f"word {word_text(u)} vs generator {LETTERS[head]}: "
                    f"piece={in_piece} translate={in_translate}")
            elif len(v) > max_len:
                violations.append(f"witness {word_text(v)} escapes the ball")
    return {"max_len": max_len, "words_checked": checked,
            "ok": not violations, "violations": violations}


def test_translate_identity_small_depths():
    for max_len in range(1, 9):
        result = check_translate_identity(max_len)
        assert result == _reduce_scan(max_len)
        assert result["ok"], result
        assert result["violations"] == []
        assert result["words_checked"] == ball_size(max_len - 1)


def test_word_text_round_trip():
    rng = random.Random(37)
    for _ in range(100):
        seq = [rng.randrange(4) for _ in range(rng.randrange(10))]
        w = reduce(seq)
        assert parse_word(word_text(w)) == w


def test_parse_rejects_bad_letters():
    with pytest.raises(ValueError):
        parse_word("a x")
