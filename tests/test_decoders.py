"""Hostile-input properties of every decoder.

Each wire payload and file artifact is encoded from a valid object, then
truncated, flipped at one byte, or extended. The decoder must return a
valid object, one that the rest of the system can use without a raw
Python error, or raise a CipherfedError. Binary layouts must be consumed
exactly, so any non-empty append raises.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipherfed import model as M
from cipherfed.errors import CipherfedError, FormatError, ParameterError
from cipherfed.federation import transport as T
from cipherfed.federation.client import (ClientUpdate, PlainUpdate,
                                         encrypt_model)
from cipherfed.federation.quantize import QuantizationSpec
from cipherfed.fhe import (Ciphertext, decode, decrypt, encode, encode_coeffs,
                           encrypt, encrypt_symmetric, keygen)
from cipherfed.fhe.keys import KeyMaterial, PublicMaterial
from cipherfed.fhe.serial import (deserialize_ciphertext,
                                  deserialize_float_vector,
                                  deserialize_key_material,
                                  deserialize_public_material,
                                  deserialize_seeded, serialize_ciphertext,
                                  serialize_float_vector,
                                  serialize_public_key, serialize_secret_key,
                                  serialize_seeded)
from cipherfed.qsim import PqcArchitecture

class Format:
    """A valid encoding, its decoder, and a check that the decoded
    object is usable."""

    def __init__(self, blob, decode_fn, use):
        self.blob = blob
        self.decode = decode_fn
        self.use = use


@pytest.fixture(scope="module")
def formats(small_params):
    params = small_params
    keys = keygen(params, rng_seed=41)
    ct = encrypt(encode(np.linspace(-1, 1, 8), params), keys, 5)
    batches = {n: encrypt(encode(np.linspace(-1, 1, 8 * n).reshape(n, 8),
                                 params), keys, list(range(n)))
               for n in (2, 7)}
    seeded = {n: encrypt_symmetric(encode_coeffs(
        np.linspace(-1, 1, 8 * n).reshape(n, 8), params, level=0), keys,
        list(range(n))) for n in (1, 2, 7)}
    sec = serialize_secret_key(keys)
    pub = serialize_public_key(keys.public)
    arch = PqcArchitecture(qubit_count=2, depth=2,
                           axes=(("X", "Y"), ("Z", "X")))
    model = M.init_model(3, arch, 2, rng_seed=9)
    fhe_upd = encrypt_model(model, QuantizationSpec(), keys, client_id=1,
                            sample_count=12, round_index=0)
    plain_upd = PlainUpdate(1, np.array([0.5, -1.5, 2.0]), 12, 0)
    row = {"round": 2, "actor": "client_0", "train_loss": 0.5,
           "train_acc": 0.75, "test_loss": None, "test_acc": None,
           "wall_ms": 0.0}

    def use_ct(got):
        assert isinstance(got, Ciphertext)
        decode(decrypt(got, keys), 8)

    def use_public(got):
        assert isinstance(got, PublicMaterial)
        decode(decrypt(encrypt(encode([0.25], params), got, 1), keys), 1)

    def use_secret(got):
        assert isinstance(got, KeyMaterial)
        decode(decrypt(ct, got), 8)

    def use_vector(got):
        assert isinstance(got, np.ndarray) and got.dtype == np.float64

    def use_model(got):
        assert isinstance(got, M.HybridModel)
        M.forward(got, np.zeros((2, got.feature_count)))

    def use_update(got):
        if isinstance(got, ClientUpdate):
            for chunk in got.chunks:
                use_ct(chunk)
        else:
            use_vector(got.values)

    def use_global(got):
        if isinstance(got, np.ndarray):
            use_vector(got)
        else:
            for chunk in got:
                use_ct(chunk)

    def use_metrics(got):
        assert isinstance(got, dict) and type(got["round"]) is int

    def use_frame(got):
        assert got.mtype in T._VALID_TYPES

    def use_join(got):
        assert all(type(v) is int for v in got) and len(got) == 2

    body = T.encode_frame(T.Message(T.MSG_UPDATE, 4, b"payload"))[4:]
    return {
        "frame-body": Format(body, T.decode_body, use_frame),
        "JOIN": Format(T.encode_join(3, 40), T.decode_join, use_join),
        "UPDATE-fhe": Format(T.encode_update(fhe_upd),
                             lambda b: T.decode_update(b, 0, params),
                             use_update),
        "UPDATE-plain": Format(T.encode_update(plain_upd),
                               lambda b: T.decode_update(b, 0, None),
                               use_update),
        "GLOBAL-fhe": Format(T.encode_global(batches[2]),
                             lambda b: T.decode_global(b, params), use_global),
        "GLOBAL-plain": Format(T.encode_global(np.array([1.0, -2.0])),
                               lambda b: T.decode_global(b, None), use_global),
        "METRICS": Format(T.encode_metrics(row), T.decode_metrics,
                          use_metrics),
        **{f"CKV2-{n}": Format(serialize_ciphertext(c),
                               lambda b: deserialize_ciphertext(b, params),
                               use_ct)
           for n, c in ((1, ct), *batches.items())},
        **{f"CKV3-{n}": Format(serialize_seeded(c),
                               lambda b: deserialize_seeded(b, params),
                               use_ct)
           for n, c in seeded.items()},
        "CKP1": Format(pub, lambda b: deserialize_public_material(b, params),
                       use_public),
        "CKS2": Format(sec, lambda b: deserialize_key_material(b, pub, params),
                       use_secret),
        "CKF1": Format(serialize_float_vector(np.arange(5.0)),
                       deserialize_float_vector, use_vector),
        "CKM1": Format(M.save_checkpoint(model), M.load_checkpoint,
                       use_model),
    }


NAMES = ["frame-body", "JOIN", "UPDATE-fhe", "UPDATE-plain", "GLOBAL-fhe",
         "GLOBAL-plain", "METRICS", "CKV2-1", "CKV2-2", "CKV2-7", "CKV3-1",
         "CKV3-2", "CKV3-7", "CKP1", "CKS2", "CKF1", "CKM1"]


@st.composite
def mutations(draw, size: int):
    """A truncation, a one-byte flip, or an append; positions lean on
    the first 64 bytes, where the headers and length fields sit."""
    kind = draw(st.sampled_from(["truncate", "flip", "append"]))
    pos = draw(st.one_of(st.integers(0, min(63, size - 1)),
                         st.integers(0, size - 1)))
    if kind == "truncate":
        return lambda b: b[:pos]
    if kind == "flip":
        xor = draw(st.integers(1, 255))
        return lambda b: b[:pos] + bytes([b[pos] ^ xor]) + b[pos + 1:]
    extra = draw(st.binary(min_size=1, max_size=16))
    return lambda b: b + extra


def decode_and_use(fmt: Format, blob: bytes) -> bool:
    """True if the blob decoded to a usable object, False if it was
    rejected with a CipherfedError; any other error fails the test."""
    try:
        got = fmt.decode(blob)
    except CipherfedError:
        return False
    try:
        fmt.use(got)
    except CipherfedError:
        pass  # a well-formed object that an operation may still refuse
    return True


FUZZ = settings(max_examples=100, deadline=None)


def test_every_valid_encoding_decodes(formats):
    for name in NAMES:
        fmt = formats[name]
        fmt.use(fmt.decode(fmt.blob))


@pytest.mark.parametrize("name", NAMES)
@FUZZ
@given(data=st.data())
def test_mutated_input_decodes_or_raises(formats, name, data):
    fmt = formats[name]
    mutate = data.draw(mutations(len(fmt.blob)))
    decode_and_use(fmt, mutate(fmt.blob))


@pytest.mark.parametrize("name", [n for n in NAMES if n not in
                                  ("frame-body", "METRICS")])
@FUZZ
@given(extra=st.binary(min_size=1, max_size=64))
def test_binary_layouts_reject_any_append(formats, name, extra):
    assert not decode_and_use(formats[name], formats[name].blob + extra)


@FUZZ
@given(extra=st.binary(min_size=1, max_size=64))
def test_frame_body_append_extends_payload(formats, extra):
    got = T.decode_body(formats["frame-body"].blob + extra)
    assert got.payload == b"payload" + extra


@FUZZ
@given(extra=st.text(alphabet=" \t\r\n", min_size=1, max_size=8),
       tail=st.binary(min_size=1, max_size=16).filter(
           lambda b: b.strip(b" \t\r\n") != b""))
def test_metrics_append_is_whitespace_or_rejected(formats, extra, tail):
    blob = formats["METRICS"].blob
    assert T.decode_metrics(blob + extra.encode()) == json.loads(blob)
    assert not decode_and_use(formats["METRICS"], blob + extra.encode() + tail)


# --- the seeded upload, `CKV3` ----------------------------------------------

SEEDED = ["CKV3-1", "CKV3-2", "CKV3-7"]


@pytest.mark.parametrize("name", SEEDED)
def test_seeded_every_truncation_rejected(formats, name):
    fmt = formats[name]
    for cut in range(len(fmt.blob)):
        assert not decode_and_use(fmt, fmt.blob[:cut])


@pytest.mark.parametrize("name", SEEDED)
def test_seeded_trailing_bytes_rejected(formats, name):
    fmt = formats[name]
    for extra in (b"\0", b"\xff" * 8, fmt.blob[-32:]):
        with pytest.raises(FormatError, match="trailing bytes"):
            fmt.decode(fmt.blob + extra)


def seeded_chunks(blob: bytes) -> int:
    return struct.unpack_from("<H", blob, 21)[0]


@pytest.mark.parametrize("name", SEEDED)
def test_seeded_residue_at_prime_rejected(formats, small_params, name):
    blob = bytearray(formats[name].blob)
    # c0's first residue, past the header, the seeds and the row count
    at = 23 + 32 * seeded_chunks(blob) + 1
    struct.pack_into("<Q", blob, at, small_params.modulus_chain[0])
    with pytest.raises(FormatError, match="not below its prime"):
        formats[name].decode(bytes(blob))


def test_seeded_without_chunks_rejected(formats):
    blob = bytearray(formats["CKV3-1"].blob)
    struct.pack_into("<H", blob, 21, 0)
    with pytest.raises(FormatError, match="no chunks"):
        formats["CKV3-1"].decode(bytes(blob))


def test_seeded_wrong_digest_rejected(formats):
    blob = bytearray(formats["CKV3-2"].blob)
    blob[4] ^= 1
    with pytest.raises(ParameterError, match="digest mismatch"):
        formats["CKV3-2"].decode(bytes(blob))


def test_public_key_batch_in_fhe_update_rejected(formats, small_params):
    """On an fhe run an UPDATE carries `CKV3` only; a `CKV2` batch, the
    GLOBAL artifact, is a malformed payload."""
    update = formats["UPDATE-fhe"]
    header = update.blob[:14]  # client id, sample count, param count
    ckv2 = formats["GLOBAL-fhe"].blob
    with pytest.raises(FormatError, match="expected seeded ciphertext but "
                                          "found ciphertext artifact"):
        update.decode(header + ckv2)
