"""Train the dense + quantum + dense classifier on a synthetic task,
standalone (no federation yet).

Run: python demos/03_hybrid_classifier_training.py
"""

from cipherfed import data, model
from cipherfed.qsim import PqcArchitecture

train, test = data.generate_synthetic("blobs", 900, 0.55, seed=5, classes=3)
print(f"blobs: {len(train)} train / {len(test)} test, "
      f"{train.class_count} classes, features in [-pi, pi]\n")

arch = PqcArchitecture(qubit_count=3, depth=2)
m = model.init_model(feature_count=2, arch=arch, class_count=3, rng_seed=1)
print(f"model: dense(2->3) + pi*tanh + PQC(3 qubits, depth 2) + dense(3->3)")
print(f"trainable parameters: {m.param_count}\n")

cfg = model.TrainingConfig(learning_rate=0.15, batch_size=32,
                           epochs_per_round=1, rng_seed=3)
print(f"{'epoch':>5} {'train acc':>10} {'train loss':>11} "
      f"{'test acc':>9} {'test loss':>10}")
for epoch in range(8):
    [m] = model.train_epochs(m, [(train.features, train.labels, cfg)])
    tr_acc, tr_loss = model.evaluate(m, train.features, train.labels)
    te_acc, te_loss = model.evaluate(m, test.features, test.labels)
    print(f"{epoch + 1:>5} {tr_acc:>10.4f} {tr_loss:>11.4f} "
          f"{te_acc:>9.4f} {te_loss:>10.4f}")

print("\nGradients for the quantum angles come from one adjoint sweep back "
      "through\nthe circuit per mini-batch, chained with ordinary backprop "
      "through the\ndense layers.")
