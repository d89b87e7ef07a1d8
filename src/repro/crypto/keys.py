"""Schnorr key pairs and signatures.

These model every signing identity in CRONUS: the platform root of trust
(PubK/PvK), the derived attestation key (AtK), accelerator vendor keys
(PubK_acc/PvK_acc), and the SPM's local seal key.  Signing is deterministic
(the nonce is derived from the secret and the message) so simulations are
reproducible.

Both public-key operations are memoized on the host.  Verification is a
pure function of public values, so :func:`_group_check` caches its result
per ``(key, message, e, s)``: a mesh that re-verifies the same
certificates pays one modular exponentiation per distinct triple, and any
changed field misses the cache and is checked in full.  Each
:class:`KeyPair` caches its own signatures (the nonce is deterministic, so
a cached signature is the exact one); no module-level structure holds a
secret.  Both caches only save host time; no simulated cost lives here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict

from repro.crypto.group import G, P, Q, hash_to_int, int_to_bytes

# Entries per memo: the verify cache and each key pair's signature cache.
MEMO_CAP = 4096


class SignatureError(Exception):
    """Raised when signature verification fails."""


@dataclass(frozen=True)
class PublicKey:
    """A verifying key: the group element ``g^x``."""

    element: int
    label: str = ""

    def verify(self, message: bytes, signature: "Signature") -> None:
        """Raise :class:`SignatureError` unless ``signature`` is valid."""
        if not 0 < signature.s < Q:
            raise SignatureError("signature scalar out of range")
        if not _group_check(self.element, bytes(message), signature.e, signature.s):
            raise SignatureError(f"bad signature for key {self.label!r}")

    def is_valid(self, message: bytes, signature: "Signature") -> bool:
        """Boolean form of :meth:`verify`."""
        try:
            self.verify(message, signature)
        except SignatureError:
            return False
        return True

    def fingerprint(self) -> bytes:
        """Short stable identifier, used inside attestation reports."""
        return hashlib.sha256(int_to_bytes(self.element)).digest()[:16]


@lru_cache(maxsize=MEMO_CAP)
def _group_check(element: int, message: bytes, e: int, s: int) -> bool:
    """The Schnorr equation: ``H(g^s * y^-e, y, m) == e``."""
    r = pow(G, s, P) * pow(element, Q - e, P) % P
    return hash_to_int(int_to_bytes(r), int_to_bytes(element), message) == e


@dataclass(frozen=True)
class Signature:
    """A Schnorr signature (challenge ``e``, response ``s``)."""

    e: int
    s: int

    def to_bytes(self) -> bytes:
        return self.e.to_bytes(32, "big") + self.s.to_bytes(96, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Signature":
        if len(raw) != 128:
            raise SignatureError(f"signature must be 128 bytes, got {len(raw)}")
        return cls(e=int.from_bytes(raw[:32], "big"), s=int.from_bytes(raw[32:], "big"))


@dataclass(frozen=True)
class KeyPair:
    """A signing identity; ``secret`` never leaves the owning component."""

    secret: int
    public: PublicKey
    _signed: Dict[bytes, Signature] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def sign(self, message: bytes) -> Signature:
        """Deterministic Schnorr signature of ``message``."""
        message = bytes(message)
        signature = self._signed.get(message)
        if signature is None:
            if len(self._signed) >= MEMO_CAP:
                del self._signed[next(iter(self._signed))]
            signature = self._signed[message] = self._sign(message)
        return signature

    def _sign(self, message: bytes) -> Signature:
        k = hash_to_int(self.secret.to_bytes(96, "big"), message, b"nonce")
        if k == 0:
            k = 1
        r = pow(G, k, P)
        e = hash_to_int(int_to_bytes(r), int_to_bytes(self.public.element), message)
        s = (k + e * self.secret) % Q
        return Signature(e=e, s=s)


def generate_keypair(seed: bytes, label: str = "") -> KeyPair:
    """Derive a key pair deterministically from ``seed``.

    Hardware keys in CRONUS are burned into ROM at manufacture time; we
    model that by deriving them from a per-device seed, so the same
    simulated platform always owns the same identity.
    """
    secret = hash_to_int(hashlib.sha256(seed).digest(), b"keygen")
    if secret == 0:
        secret = 1
    public = PublicKey(element=pow(G, secret, P), label=label)
    return KeyPair(secret=secret, public=public)
