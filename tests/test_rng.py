"""Golden values of capqa.rng: every qa_id and named stream rests on them, so
no change of hash implementation may move a byte."""

import _blake2
import hashlib

from capqa.rng import derive_seed, stable_id, stream


def test_stable_id_golden():
    assert stable_id(300000, 0, "yesno", 0) == "03d2ddb736e7104f"
    assert stable_id("é", 2.5, None) == "9e6ace5222deb50a"


def test_derive_seed_golden():
    assert derive_seed(1, 300000, 0, "yesno") == 11177766112162254453


def test_stream_golden_draw():
    rng = stream(1, "augment-keep")
    assert rng.random() == 0.07318155947191363
    assert rng.randrange(10**9) == 603057615


def test_hashlib_blake2b_is_the_blake2_type():
    # capqa.rng takes blake2b from _blake2 to avoid loading OpenSSL; should a
    # CPython release give hashlib another blake2b, this fails before any id moves
    assert hashlib.blake2b is _blake2.blake2b
