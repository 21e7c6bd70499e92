"""The full pipeline: four clients train locally, quantize and encrypt
their weights, and a server that never sees a secret key computes the
sample-weighted average on ciphertexts. A plaintext arm runs with
identical seeds for comparison.

Run: python demos/04_encrypted_federated_training.py
"""

import time

import numpy as np

from cipherfed import data, model
from cipherfed.fhe import default_params, keygen
from cipherfed.federation.rounds import RoundConfig, run_federated_training
from cipherfed.model import flatten_weights
from cipherfed.qsim import PqcArchitecture

train, test = data.generate_synthetic("blobs", 1000, 0.5, seed=42, classes=3)
parts = data.partition(train, data.PartitionSpec(client_count=4,
                                                 strategy="iid", rng_seed=7))
print(f"{len(train)} training samples split across 4 clients: "
      f"{[len(p) for p in parts]}")

params = default_params()
keys = keygen(params, rng_seed=50)
print(f"CKKS-style context: N={params.ring_degree}, "
      f"{params.ring_degree} coefficients per upload chunk, scale 2^40\n")

arch = PqcArchitecture(qubit_count=3, depth=2)
init = model.init_model(2, arch, 3, rng_seed=100)
cfg = RoundConfig.for_datasets(parts, rounds=5, learning_rate=0.15,
                               batch_size=32, epochs_per_round=2,
                               base_seed=9, deterministic_timing=True)

results = {}
for mode in ("plaintext", "fhe"):
    t0 = time.perf_counter()
    final, history = run_federated_training(init, cfg, parts, test, keys,
                                            mode=mode)
    wall = time.perf_counter() - t0
    accs = [r["test_acc"] for r in history if r["actor"] == "global"]
    results[mode] = (final, accs, wall)
    print(f"{mode:>9} arm: " +
          " ".join(f"{a:.3f}" for a in accs) +
          f"   ({wall:.1f}s)")

w_plain = flatten_weights(results["plaintext"][0])
w_fhe = flatten_weights(results["fhe"][0])
print(f"\nfinal-model weight difference between arms: "
      f"{np.abs(w_plain - w_fhe).max():.2e}")
print("The encrypted arm reproduces the plaintext trajectory bit for bit: "
      "decryption\nrounds the encryption noise away. The server only ever "
      "held public key material.")
print("\nFor socket-transport runs and the CLI, see README.md "
      "(cipherfed train/compare).")
