"""Walk through the encrypted-vector toolkit: encode a real vector into
polynomial slots, encrypt it, and compute on the ciphertexts.

Everything here is exact CKKS-style machinery: additions and
plaintext multiplications happen on encrypted data, and only the final
decryption reveals the result. The second half is the federated
average exactly as the server computes it.

Run: python demos/01_encrypted_vector_arithmetic.py
"""

from dataclasses import replace

import numpy as np

from cipherfed.fhe import (add_ct, decode, decrypt, default_params, encode,
                           encode_coeffs, encode_scalar, encrypt,
                           encrypt_symmetric, keygen, mul_plain)

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

# -- the federated average: integer weights, no rescale ---------------------
# Each client encrypts its vector at level 0 under the secret key, as one
# seeded chunk. The server multiplies client k's ciphertext by its sample
# count n_k, an integer plaintext of scale 1, adds the products, and sets
# the sum's scale to delta * n_total, so that decoding divides by n_total.
counts = (30, 50, 20)
vectors = [rng.uniform(-1, 1, 8) for _ in counts]
uploads = [encrypt_symmetric(encode_coeffs(v[None, :], params, level=0),
                             keys, [k]) for k, v in enumerate(vectors)]
acc = None
for n_k, ct in zip(counts, uploads):
    term = mul_plain(ct, encode_scalar(n_k, params, level=0, scale=1.0))
    acc = term if acc is None else add_ct(acc, term)
mean_ct = replace(acc, scale=uploads[0].scale * sum(counts))

got = decode(decrypt(mean_ct, keys), 8)[0]
want = sum(n_k * v for n_k, v in zip(counts, vectors)) / sum(counts)
print(f"sample counts n_k  = {counts}")
print("dec(weighted mean) =", np.round(got, 6))
print("weighted mean      =", np.round(want, 6))
print("max error         :", f"{np.abs(got - want).max():.2e}")
delta_bits = np.log2(uploads[0].scale)
print(f"level {uploads[0].level} -> {mean_ct.level}, no rescale; scale "
      f"2^{delta_bits:.0f} -> 2^{delta_bits:.0f} * {sum(counts)}")
