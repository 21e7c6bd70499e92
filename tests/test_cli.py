import json
from pathlib import Path

import numpy as np
import pytest

from cipherfed.cli import main
from cipherfed.model import flatten_weights, init_model, load_checkpoint
from cipherfed.qsim import PqcArchitecture

BASE_CONFIG = """\
mode: fhe
seed: 11
transport: direct
deterministic_timing: true

federation:
  clients: 2
  rounds: {rounds}
  epochs_per_round: 1
  learning_rate: 0.15
  batch_size: 16

model:
  qubits: 2
  depth: 1

data:
  kind: blobs
  samples: 120
  noise: 0.4
  classes: 2

output:
  metrics_path: {out}/metrics.jsonl
  checkpoint_path: {out}/model.ckpt
  report_path: {out}/report.json
"""


@pytest.fixture()
def workdir(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(BASE_CONFIG.format(rounds=1, out=tmp_path))
    return tmp_path, cfg


def test_keygen_writes_key_files(workdir, capsys):
    tmp, cfg = workdir
    rc = main(["keygen", "--config", str(cfg), "--out", str(tmp / "keys")])
    assert rc == 0
    assert sorted(p.name for p in (tmp / "keys").iterdir()) == \
        ["public.key", "secret.key"]
    out = capsys.readouterr().out
    assert "ring degree" in out and "4096" in out


def test_keygen_deterministic(workdir):
    tmp, cfg = workdir
    main(["keygen", "--config", str(cfg), "--out", str(tmp / "k1")])
    main(["keygen", "--config", str(cfg), "--out", str(tmp / "k2")])
    for name in ("secret.key", "public.key"):
        assert (tmp / "k1" / name).read_bytes() == \
            (tmp / "k2" / name).read_bytes()


def test_train_writes_outputs(workdir, capsys):
    tmp, cfg = workdir
    rc = main(["train", "--config", str(cfg)])
    assert rc == 0
    lines = (tmp / "metrics.jsonl").read_text().strip().splitlines()
    assert len(lines) == 1 * (2 + 1)  # rounds * (clients + global)
    for line in lines:
        row = json.loads(line)
        assert set(row) == {"round", "actor", "train_loss", "train_acc",
                            "test_loss", "test_acc", "wall_ms"}
    assert (tmp / "model.ckpt").exists()
    out = capsys.readouterr().out
    assert "final test acc" in out and "wall time" in out


def test_train_zero_rounds_checkpoint_is_init(workdir):
    tmp, cfg = workdir
    rc = main(["train", "--config", str(cfg), "--rounds", "0"])
    assert rc == 0
    ckpt = load_checkpoint((tmp / "model.ckpt").read_bytes())
    arch = PqcArchitecture(qubit_count=2, depth=1)
    expect = init_model(2, arch, 2, rng_seed=11)
    assert np.array_equal(flatten_weights(ckpt), flatten_weights(expect))


def with_key_dir(cfg: Path, key_dir: Path) -> Path:
    out = cfg.with_name("keyed.yaml")
    out.write_text(cfg.read_text() + f"\nkeys:\n  dir: {key_dir}\n")
    return out


def test_train_with_pregenerated_keys(workdir):
    # a run on the files keygen writes is, byte for byte, the run that
    # derives the keys from the seed; a secret key in the old CKS1 layout
    # does not load
    tmp, cfg = workdir
    main(["keygen", "--config", str(cfg), "--out", str(tmp / "keys")])
    assert main(["train", "--config", str(cfg),
                 "--metrics", str(tmp / "seed.jsonl")]) == 0
    keyed = with_key_dir(cfg, tmp / "keys")
    assert main(["train", "--config", str(keyed),
                 "--metrics", str(tmp / "files.jsonl")]) == 0
    assert (tmp / "files.jsonl").read_bytes() == \
        (tmp / "seed.jsonl").read_bytes()
    secret = tmp / "keys" / "secret.key"
    secret.write_bytes(b"CKS1" + secret.read_bytes()[4:])
    assert main(["train", "--config", str(keyed)]) == 3


def test_train_on_mixed_key_files_exits_3(workdir, capsys):
    tmp, cfg = workdir
    main(["keygen", "--config", str(cfg), "--out", str(tmp / "keys")])
    main(["keygen", "--config", str(cfg), "--seed", "12",
          "--out", str(tmp / "other")])
    (tmp / "keys" / "public.key").write_bytes(
        (tmp / "other" / "public.key").read_bytes())
    assert main(["train", "--config", str(with_key_dir(cfg, tmp / "keys"))]) \
        == 3
    assert "does not belong" in capsys.readouterr().err


def test_train_missing_key_dir_is_io_error(workdir):
    tmp, cfg = workdir
    assert main(["train", "--config",
                 str(with_key_dir(cfg, tmp / "absent"))]) == 4


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("mode: nonsense\n")
    assert main(["train", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_negative_noise_exits_2_before_any_write(workdir, capsys):
    tmp, cfg = workdir
    cfg.write_text(cfg.read_text().replace("noise: 0.4", "noise: -1"))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "data.noise" in capsys.readouterr().err
    assert not (tmp / "metrics.jsonl").exists()


def test_negative_seed_exits_2_before_any_write(workdir, capsys):
    tmp, cfg = workdir
    cfg.write_text(cfg.read_text().replace("seed: 11", "seed: -1"))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp / "metrics.jsonl").exists()


def test_null_rounds_exits_2_before_any_write(workdir, capsys):
    tmp, cfg = workdir
    cfg.write_text(cfg.read_text().replace("rounds: 1", "rounds: null"))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "federation.rounds" in capsys.readouterr().err
    assert not (tmp / "metrics.jsonl").exists()


def test_loopback_transport_flag_exits_2(workdir):
    _tmp, cfg = workdir
    with pytest.raises(SystemExit) as info:
        main(["train", "--config", str(cfg), "--transport", "loopback"])
    assert info.value.code == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["train", "--config", str(tmp_path / "none.yaml")]) == 2


def test_unwritable_metrics_path_exits_4(workdir):
    tmp, cfg = workdir
    override = str(Path("/proc/definitely/not/writable/m.jsonl"))
    assert main(["train", "--config", str(cfg), "--metrics", override]) == 4


def test_keygen_unwritable_path_exits_4(workdir, capsys):
    tmp, cfg = workdir
    rc = main(["keygen", "--config", str(cfg),
               "--out", "/proc/definitely/not/writable"])
    assert rc == 4
    assert "io error" in capsys.readouterr().err


def test_compare_reports_gap(workdir, capsys):
    tmp, cfg = workdir
    rc = main(["compare", "--config", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fhe" in out and "plaintext" in out and "accuracy gap" in out
    report = json.loads((tmp / "report.json").read_text())
    for arm in ("fhe", "plaintext"):
        assert set(report[arm]) == {"train_acc", "train_loss", "test_acc",
                                    "test_loss", "wall_seconds",
                                    "rounds_completed"}
    assert report["accuracy_gap"] == 0.0  # identical seeds, tiny noise
    assert (tmp / "metrics.fhe.jsonl").exists()
    assert (tmp / "metrics.plaintext.jsonl").exists()


def test_inspect_key_files(workdir, capsys):
    tmp, cfg = workdir
    main(["keygen", "--config", str(cfg), "--out", str(tmp / "keys")])
    assert main(["inspect", str(tmp / "keys" / "secret.key")]) == 0
    out = capsys.readouterr().out
    assert "secret key" in out
    assert "withheld" in out
    assert main(["inspect", str(tmp / "keys" / "public.key")]) == 0
    assert "public key" in capsys.readouterr().out


def test_inspect_checkpoint(workdir, capsys):
    tmp, cfg = workdir
    main(["train", "--config", str(cfg)])
    capsys.readouterr()
    assert main(["inspect", str(tmp / "model.ckpt")]) == 0
    out = capsys.readouterr().out
    assert "checkpoint" in out and "qubits" in out


def test_inspect_ciphertext_batch(tmp_path, capsys, small_params,
                                  small_keys):
    from cipherfed.fhe import encode, encrypt
    from cipherfed.fhe.serial import serialize_ciphertext
    ct = encrypt(encode(np.ones((3, 4)), small_params), small_keys, [1, 2, 3])
    p = tmp_path / "update.ct"
    p.write_bytes(serialize_ciphertext(ct))
    assert main(["inspect", str(p)]) == 0
    out = capsys.readouterr().out
    assert "ciphertext" in out and "level  : 2" in out
    assert "chunks : 3" in out


def test_inspect_seeded_batch(tmp_path, capsys, small_params, small_keys):
    from cipherfed.fhe import encode_coeffs, encrypt_symmetric
    from cipherfed.fhe.serial import serialize_seeded
    ct = encrypt_symmetric(encode_coeffs(np.ones((2, 4)), small_params,
                                         level=0), small_keys, [1, 2])
    p = tmp_path / "update.ct"
    p.write_bytes(serialize_seeded(ct))
    assert main(["inspect", str(p)]) == 0
    out = capsys.readouterr().out
    assert "seeded ciphertext" in out and "level  : 0" in out
    assert "scale  : 1.09951e+12" in out and "chunks : 2" in out
    # an upload from before coefficient packing is named, not read
    p.write_bytes(b"CKV3" + serialize_seeded(ct)[4:])
    assert main(["inspect", str(p)]) == 0
    assert ("kind   : slot-packed seeded ciphertext (CKV3, no longer read)"
            in capsys.readouterr().out)


def test_inspect_unknown_magic_exits_3(tmp_path, capsys):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"WHAT is this file")
    assert main(["inspect", str(p)]) == 3
    assert "magic" in capsys.readouterr().err


@pytest.mark.parametrize("magic,size", [("CKV2", 9), ("CKV3", 9),
                                        ("CKV4", 9), ("CKM1", 7),
                                        ("CKF1", 6), ("CKS2", 11),
                                        ("CKP1", 11)])
def test_inspect_truncated_header_exits_3(tmp_path, capsys, magic, size):
    p = tmp_path / "short.bin"
    p.write_bytes(magic.encode().ljust(size, b"\0"))
    assert main(["inspect", str(p)]) == 3
    assert "truncated" in capsys.readouterr().err


def test_inspect_missing_file_exits_4(tmp_path):
    assert main(["inspect", str(tmp_path / "ghost.bin")]) == 4


def test_socket_transport_via_cli(workdir):
    tmp, cfg = workdir
    rc = main(["train", "--config", str(cfg), "--transport", "socket",
               "--metrics", str(tmp / "sock.jsonl")])
    assert rc == 0
    assert (tmp / "sock.jsonl").exists()
