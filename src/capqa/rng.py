"""Deterministic seed derivation and stable identifiers.

Python's builtin hash() is randomized per process, so every derived seed and
every qa_id goes through blake2b over a canonical string instead. The same
inputs give the same stream on any machine, any worker count.

blake2b comes from `_blake2`, the module `hashlib.blake2b` itself is taken
from: the same type, so the same digests. `import hashlib` would also map
OpenSSL's libcrypto into every command, about 3.6 MB of resident memory that
this module, the only hash user in capqa, never calls.
"""

from __future__ import annotations

import random

from _blake2 import blake2b


def _digest(parts: tuple) -> bytes:
    canon = "\x1f".join(map(str, parts))
    return blake2b(canon.encode("utf-8"), digest_size=8).digest()


def derive_seed(*parts) -> int:
    """64-bit integer seed derived from the given parts."""
    return int.from_bytes(_digest(parts), "big")


def stream(*parts) -> random.Random:
    """Independent RNG stream keyed by the given parts."""
    return random.Random(derive_seed(*parts))


def stable_id(*parts) -> str:
    """16-hex-char identifier derived from the given parts."""
    return _digest(parts).hex()
