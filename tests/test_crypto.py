"""Crypto substrate: measurements, signatures, DH, certificates, sealing."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto import (
    AuthTagError,
    Certificate,
    CertificateAuthority,
    CertificateError,
    DiffieHellman,
    SignatureError,
    generate_keypair,
    hexdigest,
    measure,
    measure_many,
    seal,
    unseal,
)
import hashlib

from repro.crypto.certs import verify_certificate
from repro.crypto.dh import mac, mac_valid
from repro.crypto.group import Q
from repro.crypto.keys import Signature, _group_check


class TestMeasurement:
    def test_deterministic(self):
        assert measure(b"image") == measure(b"image")

    def test_distinct_inputs(self):
        assert measure(b"a") != measure(b"b")

    def test_accepts_str(self):
        assert measure("abc") == measure(b"abc")

    def test_hexdigest_is_hex_of_measure(self):
        assert bytes.fromhex(hexdigest(b"x")) == measure(b"x")

    def test_measure_many_boundary_sensitivity(self):
        assert measure_many([b"ab", b"c"]) != measure_many([b"a", b"bc"])

    @given(st.lists(st.binary(max_size=64), max_size=8))
    def test_measure_many_deterministic(self, parts):
        assert measure_many(parts) == measure_many(parts)


class TestSignatures:
    def test_sign_verify_roundtrip(self):
        keys = generate_keypair(b"seed")
        sig = keys.sign(b"hello")
        keys.public.verify(b"hello", sig)  # must not raise

    def test_wrong_message_rejected(self):
        keys = generate_keypair(b"seed")
        sig = keys.sign(b"hello")
        with pytest.raises(SignatureError):
            keys.public.verify(b"tampered", sig)

    def test_wrong_key_rejected(self):
        sig = generate_keypair(b"a").sign(b"msg")
        assert not generate_keypair(b"b").public.is_valid(b"msg", sig)

    def test_deterministic_keygen(self):
        assert generate_keypair(b"s").public.element == generate_keypair(b"s").public.element

    def test_distinct_seeds_distinct_keys(self):
        assert generate_keypair(b"s1").public.element != generate_keypair(b"s2").public.element

    def test_fingerprint_stable(self):
        pub = generate_keypair(b"s").public
        assert pub.fingerprint() == pub.fingerprint()
        assert len(pub.fingerprint()) == 16

    @given(st.binary(min_size=1, max_size=128))
    def test_any_message_roundtrips(self, message):
        keys = generate_keypair(b"prop-seed")
        assert keys.public.is_valid(message, keys.sign(message))

    @given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64))
    def test_cross_message_never_verifies(self, m1, m2):
        if m1 == m2:
            return
        keys = generate_keypair(b"prop-seed")
        assert not keys.public.is_valid(m2, keys.sign(m1))


# sha256 of Signature.to_bytes() for (seed, message), recorded before the
# signature memo existed: memoized signing must reproduce them exactly.
GOLDEN_SIGNATURES = {
    (b"golden-a", b""): "f6ff3f0bbebefb1dc580eee7ecdacf5d68ff1d8b17709695b414b72b65a3da23",
    (b"golden-a", b"hello"): "5f9ab5e547980bc3a981bafbc8837a4db9f5ab4ac02735cf77c3c8f81ff8ba8a",
    (b"golden-a", b"cronus-report" * 9):
        "e83c026e4d15c383225f2f1fcd8936848fbe3da5ad4471089c8f7fbc1740798f",
    (b"golden-b", b""): "f18d08db6bf21b29ace450be8af634a4b0fde80ae853db1c033cd647750a0a73",
    (b"golden-b", b"hello"): "100bbe58c98327bc4b8a5994a3350bf03f381dc58c0e42a373fc60d6487f6672",
    (b"platform-rot", b"hello"):
        "ad344f39a4d465aba1588a8e758fd89f39d5f12df27bfeb8758e0915eeb43b22",
    (b"platform-rot", b"cronus-report" * 9):
        "83a3a60f4ec87963ef9f7a7135a7cff2747249a77587246b83bb5076d44818e3",
}


class TestSignatureMemo:
    """Verification and signing are memoized; a memo hit must never turn
    an invalid signature valid, nor change a signature's bytes."""

    KEYS = generate_keypair(b"memo-seed")
    MESSAGE = b"primed-message"

    def _primed(self):
        sig = self.KEYS.sign(self.MESSAGE)
        self.KEYS.public.verify(self.MESSAGE, sig)  # now cached as valid
        return sig

    def test_repeat_verify_is_a_memo_hit(self):
        sig = self._primed()
        hits = _group_check.cache_info().hits
        self.KEYS.public.verify(self.MESSAGE, sig)
        assert _group_check.cache_info().hits == hits + 1

    def test_changed_message_rejected(self):
        sig = self._primed()
        with pytest.raises(SignatureError):
            self.KEYS.public.verify(self.MESSAGE + b"!", sig)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_changed_s_rejected(self, delta):
        sig = self._primed()
        with pytest.raises(SignatureError):
            self.KEYS.public.verify(self.MESSAGE, Signature(sig.e, sig.s + delta))

    def test_changed_e_rejected(self):
        sig = self._primed()
        with pytest.raises(SignatureError):
            self.KEYS.public.verify(self.MESSAGE, Signature(sig.e ^ 1, sig.s))

    def test_other_key_same_signature_rejected(self):
        sig = self._primed()
        with pytest.raises(SignatureError):
            generate_keypair(b"memo-other").public.verify(self.MESSAGE, sig)

    @given(st.integers(min_value=0), st.integers(min_value=1, max_value=255))
    def test_any_one_byte_tweak_rejected(self, index, flip):
        sig = self._primed()
        tweaked = bytearray(self.MESSAGE)
        tweaked[index % len(tweaked)] ^= flip
        assert not self.KEYS.public.is_valid(bytes(tweaked), sig)

    def test_forged_triple_stays_invalid(self):
        sig = self._primed()
        forged = Signature(sig.e, sig.s ^ 2)
        assert not self.KEYS.public.is_valid(self.MESSAGE, forged)
        assert not self.KEYS.public.is_valid(self.MESSAGE, forged)

    @pytest.mark.parametrize("shift", [Q, -Q], ids=["plus-q", "minus-q"])
    def test_out_of_range_s_rejected_even_when_cached(self, shift):
        # s + Q is the same group exponent as s, so only the range check,
        # which runs before the memo, can reject it.
        sig = self._primed()
        alias = Signature(sig.e, sig.s + shift)
        with pytest.raises(SignatureError, match="out of range"):
            self.KEYS.public.verify(self.MESSAGE, alias)

    @pytest.mark.parametrize("seed,message", sorted(GOLDEN_SIGNATURES))
    def test_sign_matches_golden(self, seed, message):
        keys = generate_keypair(seed)
        first, second = keys.sign(message), keys.sign(bytearray(message))
        assert first == second
        digest = hashlib.sha256(first.to_bytes()).hexdigest()
        assert digest == GOLDEN_SIGNATURES[(seed, message)]

    def test_sign_memo_takes_no_part_in_identity(self):
        signer = generate_keypair(b"memo-owner")
        signer.sign(b"cached")
        twin = generate_keypair(b"memo-owner")
        assert twin == signer and hash(twin) == hash(signer)
        assert twin.sign(b"cached") == signer.sign(b"cached")


class TestDiffieHellman:
    def test_shared_secret_agreement(self):
        alice, bob = DiffieHellman(b"alice"), DiffieHellman(b"bob")
        assert alice.shared_secret(bob.public) == bob.shared_secret(alice.public)

    def test_distinct_pairs_distinct_secrets(self):
        alice, bob, carol = DiffieHellman(b"a"), DiffieHellman(b"b"), DiffieHellman(b"c")
        assert alice.shared_secret(bob.public) != alice.shared_secret(carol.public)

    def test_rejects_degenerate_public(self):
        with pytest.raises(ValueError):
            DiffieHellman(b"x").shared_secret(1)

    def test_mac_roundtrip(self):
        secret = DiffieHellman(b"a").shared_secret(DiffieHellman(b"b").public)
        tag = mac(secret, b"msg")
        assert mac_valid(secret, b"msg", tag)
        assert not mac_valid(secret, b"other", tag)
        assert not mac_valid(b"\x00" * 32, b"msg", tag)


class TestCertificates:
    def test_endorse_and_verify(self):
        ca = CertificateAuthority("nvidia", b"ca-seed")
        subject = generate_keypair(b"device").public
        cert = ca.endorse("gpu0", subject)
        verify_certificate(cert, ca.public)  # must not raise

    def test_wrong_anchor_rejected(self):
        ca = CertificateAuthority("nvidia", b"ca-seed")
        other = CertificateAuthority("amd", b"other-seed")
        cert = ca.endorse("gpu0", generate_keypair(b"device").public)
        with pytest.raises(CertificateError):
            verify_certificate(cert, other.public)

    def test_subject_swap_rejected(self):
        ca = CertificateAuthority("nvidia", b"ca-seed")
        cert = ca.endorse("gpu0", generate_keypair(b"device").public)
        forged = Certificate(
            subject_name=cert.subject_name,
            subject=generate_keypair(b"evil").public,
            issuer_name=cert.issuer_name,
            signature=cert.signature,
        )
        with pytest.raises(CertificateError):
            verify_certificate(forged, ca.public)


class TestSeal:
    def test_roundtrip(self):
        key = b"k" * 32
        assert unseal(key, seal(key, b"secret data")) == b"secret data"

    def test_wrong_key_rejected(self):
        sealed = seal(b"k" * 32, b"secret")
        with pytest.raises(AuthTagError):
            unseal(b"x" * 32, sealed)

    def test_tamper_rejected(self):
        sealed = bytearray(seal(b"k" * 32, b"secret"))
        sealed[10] ^= 0xFF
        with pytest.raises(AuthTagError):
            unseal(b"k" * 32, bytes(sealed))

    def test_truncated_rejected(self):
        with pytest.raises(AuthTagError):
            unseal(b"k" * 32, b"short")

    def test_ciphertext_differs_from_plaintext(self):
        sealed = seal(b"k" * 32, b"secret-bytes-here")
        assert b"secret-bytes-here" not in sealed

    @given(st.binary(max_size=512), st.binary(min_size=8, max_size=8))
    def test_any_payload_roundtrips(self, payload, nonce):
        key = b"prop-key-32-bytes-prop-key-32-by"
        assert unseal(key, seal(key, payload, nonce=nonce)) == payload

    @pytest.mark.parametrize("length,digest", [
        (0, "baa526927f1c424f66d96b8946980342a8ee75830a04a7040ffb1d9d07e8bbb1"),
        (1, "9c159fd9b2704df4dcbe5e6b91729b640c8adf660c1eaf40bae4f549fd42766d"),
        (31, "b127b4d81701dab90bac673aba192948a27d03e09c90746aa62392ece78849cb"),
        (32, "07436c36b531ec2e12b612bfb9bd281de40842ef24438ae3a74a520230b90e11"),
        (33, "4c18501c1176e80ab0c067474afb65052fffca1a4809246409b612592147ce8a"),
        (1000, "a3a167cc3019179b839f158aa2ea1fc807295a9ec25d07d800ace2e279bdc58d"),
    ])
    def test_golden_vectors(self, length, digest):
        """sha256 of each sealed blob, recorded before the keystream was
        made linear: the output must not change by a single byte."""
        key, nonce = b"golden-seal-key", b"\x07nonce\x01\xff"
        plaintext = bytes((i * 7 + 3) % 256 for i in range(length))
        sealed = seal(key, plaintext, nonce=nonce)
        assert hashlib.sha256(sealed).hexdigest() == digest
        assert unseal(key, sealed) == plaintext
        tampered = bytearray(sealed)
        tampered[len(tampered) // 2] ^= 0x01
        with pytest.raises(AuthTagError):
            unseal(key, bytes(tampered))
