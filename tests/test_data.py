import numpy as np
import pytest

from cipherfed import data as D
from cipherfed.errors import ConfigError, DomainError, IngestionError


def test_blobs_deterministic():
    a = D.generate_synthetic("blobs", 300, 0.4, seed=5)
    b = D.generate_synthetic("blobs", 300, 0.4, seed=5)
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[1].labels, b[1].labels)


def test_blobs_noise_free_linearly_separable():
    train, test = D.generate_synthetic("blobs", 120, 0.0, seed=1, classes=3)
    # nearest-centroid (a linear rule) classifies noise-free blobs exactly
    feats = np.vstack([train.features, test.features])
    labels = np.concatenate([train.labels, test.labels])
    centroids = np.stack([feats[labels == c].mean(axis=0) for c in range(3)])
    pred = np.argmin(((feats[:, None, :] - centroids[None]) ** 2).sum(-1),
                     axis=1)
    assert np.array_equal(pred, labels)


def test_split_80_20():
    train, test = D.generate_synthetic("blobs", 10, 0.2, seed=2, classes=2)
    assert len(train) == 8 and len(test) == 2


def test_feature_range():
    for kind in ("blobs", "two_moons", "xor"):
        train, test = D.generate_synthetic(kind, 200, 0.3, seed=3)
        for ds in (train, test):
            assert ds.features.min() >= -np.pi - 1e-12
            assert ds.features.max() <= np.pi + 1e-12


def test_two_moons_and_xor_binary():
    for kind in ("two_moons", "xor"):
        train, _ = D.generate_synthetic(kind, 100, 0.1, seed=4)
        assert train.class_count == 2
        assert set(np.unique(train.labels)) <= {0, 1}


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        D.generate_synthetic("spirals", 100, 0.1, seed=0)


def test_scale_features_constant_column():
    raw = np.array([[1.0, 5.0], [1.0, 7.0], [1.0, 9.0]])
    scaled = D.scale_features(raw)
    assert np.all(scaled[:, 0] == 0.0)
    assert scaled[:, 1].min() == -np.pi and scaled[:, 1].max() == np.pi


def test_load_csv_hand_computed(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("a,b,label\n0,10,0\n5,20,1\n10,30,0\n")
    ds = D.load_csv(p, "label")
    # min-max over [0,10] and [10,30] maps endpoints to -pi/+pi
    expect_a = np.array([-np.pi, 0.0, np.pi])
    expect_b = np.array([-np.pi, 0.0, np.pi])
    assert np.allclose(ds.features[:, 0], expect_a)
    assert np.allclose(ds.features[:, 1], expect_b)
    assert np.array_equal(ds.labels, [0, 1, 0])
    assert ds.class_count == 2


def test_load_csv_label_remap(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("x,label\n1,3\n2,7\n3,3\n")
    ds = D.load_csv(p, "label")
    assert np.array_equal(ds.labels, [0, 1, 0])


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(IngestionError, match="no such file"):
        D.load_csv(tmp_path / "nope.csv", "label")


def test_load_csv_missing_label_column(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(IngestionError, match="label"):
        D.load_csv(p, "label")


def test_load_csv_non_numeric_cell_names_row(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("a,label\n1,0\nfoo,1\n")
    with pytest.raises(IngestionError, match="row 3"):
        D.load_csv(p, "label")


@pytest.mark.parametrize("label", ["nan", "inf", "-inf", "1.5"])
def test_load_csv_non_integer_label_names_row(tmp_path, label):
    p = tmp_path / "toy.csv"
    p.write_text(f"a,label\n1,0\n2,{label}\n")
    with pytest.raises(IngestionError, match="row 3"):
        D.load_csv(p, "label")


def test_load_csv_ragged_row_rejected(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("a,b,label\n1,2,0\n1,0\n")
    with pytest.raises(IngestionError, match="row 3"):
        D.load_csv(p, "label")


def test_export_import_roundtrip(tmp_path):
    train, _ = D.generate_synthetic("blobs", 40, 0.3, seed=6)
    path = tmp_path / "round.csv"
    dims = train.features.shape[1]
    rows = [",".join([f"f{i}" for i in range(dims)] + ["label"])]
    rows += [",".join([repr(float(v)) for v in row] + [str(int(lbl))])
             for row, lbl in zip(train.features, train.labels)]
    path.write_text("\n".join(rows) + "\n")
    back = D.load_csv(path, "label")
    assert np.array_equal(back.labels, train.labels)
    assert back.features.shape == train.features.shape


def test_partition_iid_single_client():
    train, _ = D.generate_synthetic("blobs", 100, 0.3, seed=7)
    parts = D.partition(train, D.PartitionSpec(client_count=1))
    assert len(parts) == 1 and len(parts[0]) == len(train)


def test_partition_iid_equal_shares():
    feats = np.linspace(-np.pi, np.pi, 100)[:, None]
    ds = D.Dataset(feats, np.zeros(100, dtype=np.int64), 1)
    parts = D.partition(ds, D.PartitionSpec(client_count=4, rng_seed=3))
    assert [len(p) for p in parts] == [25, 25, 25, 25]


def test_partition_iid_remainder_to_lowest_ids():
    feats = np.linspace(-np.pi, np.pi, 10)[:, None]
    ds = D.Dataset(feats, np.zeros(10, dtype=np.int64), 1)
    parts = D.partition(ds, D.PartitionSpec(client_count=4, rng_seed=0))
    assert [len(p) for p in parts] == [3, 3, 2, 2]


def test_partition_conservation_all_strategies():
    train, _ = D.generate_synthetic("blobs", 400, 0.5, seed=9, classes=3)
    global_hist = np.bincount(train.labels, minlength=3)
    for spec in (D.PartitionSpec(client_count=4, rng_seed=1),
                 D.PartitionSpec(client_count=4, strategy="dirichlet",
                                 alpha=0.1, rng_seed=1),
                 D.PartitionSpec(client_count=3, strategy="dirichlet",
                                 alpha=5.0, rng_seed=2)):
        parts = D.partition(train, spec)
        assert sum(len(p) for p in parts) == len(train)
        assert all(len(p) >= 1 for p in parts)
        hist = np.zeros(3, dtype=int)
        for p in parts:
            hist += np.bincount(p.labels, minlength=3)
        assert np.array_equal(hist, global_hist)


def test_partition_deterministic():
    train, _ = D.generate_synthetic("blobs", 300, 0.5, seed=10, classes=3)
    spec = D.PartitionSpec(client_count=5, strategy="dirichlet", alpha=0.3,
                           rng_seed=77)
    a = D.partition(train, spec)
    b = D.partition(train, spec)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.features, pb.features)


def test_partition_too_few_samples():
    feats = np.zeros((2, 1))
    ds = D.Dataset(feats, np.zeros(2, dtype=np.int64), 1)
    with pytest.raises(ConfigError):
        D.partition(ds, D.PartitionSpec(client_count=3))


def test_partition_spec_validation():
    with pytest.raises(ConfigError):
        D.PartitionSpec(client_count=0)
    with pytest.raises(ConfigError):
        D.PartitionSpec(client_count=2, strategy="random")
    with pytest.raises(ConfigError):
        D.PartitionSpec(client_count=2, strategy="dirichlet", alpha=0.0)


def test_dataset_validation():
    with pytest.raises(DomainError):
        D.Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)
    with pytest.raises(DomainError):
        D.Dataset(np.array([[np.nan, 0.0]]), np.array([0]), 1)
    with pytest.raises(DomainError, match="scaled"):
        D.Dataset(np.array([[100.0]]), np.array([0]), 1)
