"""Deterministic seed derivation.

All randomized procedures draw from ``random.Random(derive_seed(master, ...))``
with a label-and-index path, so any run is reproducible from one 64-bit seed
and independent trials have independent substreams.
"""

from __future__ import annotations

__all__ = ["derive_seed"]


def derive_seed(master: int, *path) -> int:
    """Derive a 64-bit subseed from a master seed and a label path."""
    # Imported here: hashlib maps OpenSSL, which ``import distchrom`` need not pay for.
    import hashlib

    data = ":".join([str(master)] + [str(p) for p in path]).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")
