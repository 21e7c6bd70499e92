"""CKKS-style approximate homomorphic encryption over power-of-two
cyclotomic rings: exactly the operations an encrypted weighted average
needs (slot and coefficient encoding, public- and seeded secret-key
encrypt, add, multiply-by-plaintext, rescale, decrypt).

Parameters here target correctness demonstrations, not audited security.
"""

from .encoding import (Plaintext, decode, decode_coeffs, encode,
                       encode_coeffs, encode_scalar)
from .keys import KeyMaterial, PublicMaterial, keygen
from .ops import (Ciphertext, SeededBatch, add_ct, decrypt, decrypt_coeffs,
                  encrypt, encrypt_symmetric, mul_plain, rescale)
from .params import EncryptionParams, default_params
from .poly import RingPoly, ntt_forward, ntt_inverse

__all__ = [
    "Plaintext", "decode", "decode_coeffs", "encode", "encode_coeffs",
    "encode_scalar",
    "KeyMaterial", "PublicMaterial", "keygen",
    "Ciphertext", "SeededBatch", "add_ct", "decrypt", "decrypt_coeffs",
    "encrypt", "encrypt_symmetric", "mul_plain", "rescale",
    "EncryptionParams", "default_params", "RingPoly",
    "ntt_forward", "ntt_inverse",
]
