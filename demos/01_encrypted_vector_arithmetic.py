"""Walk through the encrypted-vector toolkit: encode a real vector into
polynomial slots, encrypt it, and compute on the ciphertexts.

Everything here is exact CKKS-style machinery: additions and
plaintext multiplications happen on encrypted data, and only the final
decryption reveals the result.

Run: python demos/01_encrypted_vector_arithmetic.py
"""

import numpy as np

from cipherfed.fhe import (add_ct, decode, decrypt, default_params, encode,
                           encode_scalar, encrypt, keygen, mul_plain,
                           rescale)

params = default_params()
print(f"ring degree N = {params.ring_degree}, "
      f"{params.slot_count} slots per ciphertext")
print(f"modulus chain bits: {[q.bit_length() for q in params.modulus_chain]}, "
      f"scale 2^40\n")

keys = keygen(params, rng_seed=2024)

# -- encrypt two vectors and add them ---------------------------------------
rng = np.random.default_rng(7)
x = rng.uniform(-1, 1, 8)
y = rng.uniform(-1, 1, 8)
cx = encrypt(encode(x, params), keys, rng_seed=1)
cy = encrypt(encode(y, params), keys, rng_seed=2)

total = decode(decrypt(add_ct(cx, cy), keys), 8)
print("x        =", np.round(x, 6))
print("y        =", np.round(y, 6))
print("dec(x+y) =", np.round(total, 6))
print("max error:", f"{np.abs(total - (x + y)).max():.2e}\n")

# -- multiply by a public scalar (the federated-averaging primitive) --------
scaled = rescale(mul_plain(cx, encode_scalar(0.25, params)))
got = decode(decrypt(scaled, keys), 8)
print("dec(0.25 * x) =", np.round(got, 6))
print("max error    :", f"{np.abs(got - 0.25 * x).max():.2e}")
print(f"level dropped {cx.level} -> {scaled.level} by the rescale")
