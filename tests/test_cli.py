import json
import struct
from pathlib import Path

import numpy as np
import pytest
from conftest import patched, resealed, seeded_aggregate

from cipherfed.cli import main
from cipherfed.fhe.serial import RETIRED, seal
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


def test_train_rerun_replaces_metrics(tmp_path):
    """A second run into the same paths leaves the first run's bytes,
    not both runs' rows."""
    cfg = tmp_path / "run.yaml"
    cfg.write_text(BASE_CONFIG.format(rounds=2, out=tmp_path))
    outputs = [tmp_path / "metrics.jsonl", tmp_path / "model.ckpt"]
    assert main(["train", "--config", str(cfg)]) == 0
    first = [p.read_bytes() for p in outputs]
    assert len(first[0].splitlines()) == 2 * (2 + 1)
    assert main(["train", "--config", str(cfg)]) == 0
    assert [p.read_bytes() for p in outputs] == first


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
    assert "withheld" in out and "size   : 1036 bytes" in out
    assert main(["inspect", str(tmp / "keys" / "public.key")]) == 0
    out = capsys.readouterr().out
    assert "public key" in out and "a from seed" in out
    assert "size   : 73280 bytes" in out and "digest : " in out
    assert "widths : 61, 41, 41 bits" in out


def test_inspect_key_files_print_ring_degree(workdir, capsys):
    tmp, cfg = workdir
    main(["keygen", "--config", str(cfg), "--out", str(tmp / "keys")])
    for name in ("secret.key", "public.key"):
        assert main(["inspect", str(tmp / "keys" / name)]) == 0
        assert "ring N : 4096" in capsys.readouterr().out


def public_key_blob(primes: int, coeffs: int, extra: int = 0) -> bytes:
    """A `CKP3` layout under a zero digest: the prime count byte, the
    default chain's width bytes, the packed residues and the seed,
    `extra` bytes longer, and a trailer that matches."""
    widths = bytes([61, 41, 41, 41][:primes])
    body = (b"CKP3" + bytes(8) + bytes([primes]) + widths
            + bytes(coeffs * sum(widths) // 8 + 32 + extra))
    return seal(body)


@pytest.mark.parametrize("blob,degree", [
    (b"CKS3" + bytes(8 + 256), 1024), (b"CKS3" + bytes(8 + 2048), 8192),
    (public_key_blob(2, 1024), 1024), (public_key_blob(3, 4096), 4096),
    (b"CKS3" + bytes(8 + 8), None), (b"CKS3" + bytes(8 + 128), None),
    (b"CKS3" + bytes(8 + 16384), None), (public_key_blob(2, 65536), None),
    (b"CKS3" + bytes(8 + 300), None), (b"CKS3" + bytes(8), None),
    (public_key_blob(2, 1024, extra=1), None),
    (public_key_blob(2, 1024, extra=-8), None),
    (public_key_blob(3, 1000), None), (public_key_blob(1, 512), None),
    (public_key_blob(0, 1024), None), (public_key_blob(2, 0), None)],
    ids=["secret-1024", "secret-8192", "public-1024", "public-4096",
         "secret-20-bytes", "secret-512", "secret-65536", "public-65536",
         "secret-1200", "secret-empty",
         "public-one-extra", "public-short", "public-1000", "public-512",
         "public-no-primes", "public-no-body"])
def test_inspect_key_length_must_give_a_ring_degree(tmp_path, capsys, blob,
                                                    degree):
    """A key file is described only if its length is 12 + N/4 (`CKS3`)
    or 12 + 1 + primes + N * (sum of widths) / 8 + 32 + 16 (`CKP3`) for
    a power-of-two N from 1,024 to 32,768, the ring degrees that
    parameters allow; any other length, N = 65,536 too, exits 3."""
    p = tmp_path / "key.bin"
    p.write_bytes(blob)
    if degree is None:
        assert main(["inspect", str(p)]) == 3
        assert "power-of-two N >= 1024" in capsys.readouterr().err
    else:
        assert main(["inspect", str(p)]) == 0
        assert f"ring N : {degree}" in capsys.readouterr().out


@pytest.mark.parametrize("name,old,new", [("secret.key", "CKS2", "CKS3"),
                                          ("public.key", "CKP1", "CKP3"),
                                          ("public.key", "CKP2", "CKP3")])
def test_inspect_retired_key_files_exit_3(workdir, capsys, name, old, new):
    """A key file in the layout before the seeded public key and the
    packed secret is named and refused, with the way out."""
    tmp, cfg = workdir
    main(["keygen", "--config", str(cfg), "--out", str(tmp / "keys")])
    path = tmp / "keys" / name
    data = path.read_bytes()
    assert data[:4] == new.encode()
    path.write_bytes(old.encode() + data[4:])
    capsys.readouterr()
    assert main(["inspect", str(path)]) == 3
    err = capsys.readouterr().err
    assert old in err and "regenerate with `cipherfed keygen`" in err


def test_inspect_checkpoint(workdir, capsys):
    tmp, cfg = workdir
    main(["train", "--config", str(cfg)])
    capsys.readouterr()
    assert main(["inspect", str(tmp / "model.ckpt")]) == 0
    out = capsys.readouterr().out
    assert "checkpoint" in out and "qubits" in out


def test_inspect_checkpoint_reads_through_load_checkpoint(tmp_path, capsys):
    """A checkpoint header that load_checkpoint refuses is not described:
    this 11-byte one names 2 features, 0 qubits and 0 classes."""
    p = tmp_path / "short.ckpt"
    p.write_bytes(b"CKM1" + struct.pack("<HBBHB", 2, 0, 0, 0, 0))
    assert main(["inspect", str(p)]) == 3
    assert "truncated" in capsys.readouterr().err


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
    assert "widths : 61, 41, 41 bits" in out and "ring N : 1024" in out
    # level 0 over blocks of three rows: the reader's LevelError, exit 3
    p.write_bytes(patched(p.read_bytes(), "B", 12, 0))
    assert main(["inspect", str(p)]) == 3
    assert ("active prime count does not match level"
            in capsys.readouterr().err)


def retired_sharing(magic: bytes) -> list[tuple[bytes, str]]:
    """Each retired magic that shares `magic`'s header, with what it
    held, as `serial.RETIRED` lists them."""
    return [(old, held) for old, (held, shares) in RETIRED.items()
            if shares == magic]


def test_inspect_seeded_batch(tmp_path, capsys, small_params, small_keys):
    from cipherfed.fhe import encode_coeffs, encrypt_symmetric
    from cipherfed.fhe.serial import serialize_seeded
    ct = encrypt_symmetric(encode_coeffs(np.ones((2, 4)), small_params,
                                         level=0), small_keys, [1, 2], 1027)
    p = tmp_path / "update.ct"
    p.write_bytes(serialize_seeded(ct, 19))
    assert main(["inspect", str(p)]) == 0
    out = capsys.readouterr().out
    assert "seeded ciphertext" in out and "level  : 0" in out
    assert "scale  : 1.09951e+12" in out and "chunks : 2" in out
    assert "widths : 42 bits" in out and "P      : 1027 coefficients" in out
    assert "dropped: 19 low bits" in out
    # every retired upload that shares the `CKU4` header is named after
    # that header, not read, and exits 3
    for old, kind in retired_sharing(b"CKU4"):
        p.write_bytes(old + serialize_seeded(ct, 19)[4:])
        assert main(["inspect", str(p)]) == 3
        captured = capsys.readouterr()
        assert f"{kind} ({old.decode()}, no longer read)" in captured.err
        assert "chunks" not in captured.out


def test_inspect_seeded_aggregate(tmp_path, capsys, small_keys):
    """A `CKA4` GLOBAL of 2 clients drops 23 of q0's 61 bits: inspect
    prints its width, d, P, K and counts. Every retired aggregate that
    shares its header is named after that header and exits 3."""
    from cipherfed.federation.transport import encode_global
    p = tmp_path / "global.ct"
    blob = encode_global(seeded_aggregate(small_keys, 2, (3, 5), 1030))
    p.write_bytes(blob)
    assert main(["inspect", str(p)]) == 0
    out = capsys.readouterr().out
    assert "kind   : seeded aggregate" in out and "level  : 0" in out
    assert "scale  : 8.79609e+12" in out and "chunks : 2" in out
    assert "clients: 2" in out and "counts : 3, 5" in out
    assert "widths : 38 bits" in out and "dropped: 23 low bits" in out
    assert "P      : 1030 coefficients" in out
    assert f"size   : {len(blob)} bytes" in out
    for old, kind in retired_sharing(b"CKA4"):
        p.write_bytes(old + blob[4:])
        assert main(["inspect", str(p)]) == 3
        captured = capsys.readouterr()
        assert f"{kind} ({old.decode()}, no longer read)" in captured.err
        assert "chunks" not in captured.out
    # a width and d that do not add up to at most 64 bits
    at = len(blob) - 16 - -(-1030 * 38 // 8) - 2
    p.write_bytes(patched(blob, "BB", at, 30, 38))
    assert main(["inspect", str(p)]) == 3
    assert "drops 30 low bits at 38 bits" in capsys.readouterr().err


def test_inspect_unknown_magic_exits_3(tmp_path, capsys):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"WHAT is this file")
    assert main(["inspect", str(p)]) == 3
    assert "magic" in capsys.readouterr().err


@pytest.mark.parametrize("magic,size", [("CKV2", 9), ("CKV3", 9),
                                        ("CKV4", 9), ("CKV5", 9),
                                        ("CKV5", 24), ("CKM1", 7),
                                        ("CKF1", 6), ("CKS2", 11),
                                        ("CKP1", 11), ("CKS3", 11),
                                        ("CKP2", 11), ("CKV6", 9),
                                        ("CKV7", 9), ("CKV8", 9),
                                        ("CKV8", 24), ("CKP3", 11),
                                        ("CKP3", 27), ("CKU1", 9),
                                        ("CKU1", 22), ("CKA1", 9),
                                        ("CKA1", 24), ("CKA2", 9),
                                        ("CKA2", 24), ("CKU2", 9),
                                        ("CKU2", 22), ("CKA3", 9),
                                        ("CKA3", 24), ("CKU3", 9),
                                        ("CKU3", 22), ("CKA4", 9),
                                        ("CKA4", 24), ("CKU4", 9),
                                        ("CKU4", 22)])
def test_inspect_truncated_header_exits_3(tmp_path, capsys, magic, size):
    p = tmp_path / "short.bin"
    p.write_bytes(magic.encode().ljust(size, b"\0"))
    assert main(["inspect", str(p)]) == 3
    assert "truncated" in capsys.readouterr().err


def batch_header(magic: str, level: int, scale: float, chunks: int,
                 counts=None) -> bytes:
    """A batch header under a zero digest, and a trailer that matches;
    `counts`, if given, as the client count K and the K sample counts
    of a `CKA4`."""
    head = magic.encode() + bytes(8) + struct.pack("<BdH", level, scale,
                                                   chunks)
    if counts is not None:
        head += struct.pack(f"<H{len(counts)}Q", len(counts), *counts)
    return seal(head)


@pytest.mark.parametrize("blob,refusal", [
    (batch_header("CKU4", 0, float("nan"), 0), "not finite and positive"),
    (batch_header("CKV6", 0, 0.0, 1), "not finite and positive"),
    (batch_header("CKU4", 0, 2.0 ** 40, 0), "no chunks"),
    (batch_header("CKA4", 7, 2.0 ** 40, 1, ()), "names no clients"),
    (batch_header("CKA4", 0, 2.0 ** 40, 1, (3, 0)), "sample count of 0"),
    (batch_header("CKA4", 7, 2.0 ** 40, 1, (1,)), "at level 7"),
    (batch_header("CKU4", 2, 2.0 ** 40, 1), "at level 2"),
    (b"CKF1" + struct.pack("<I", 100) + b"abc", "needs 808")],
    ids=["nan-scale", "zero-scale", "no-chunks", "no-clients", "zero-count",
         "seeded-sum-level", "seeded-level", "vector-overrun"])
def test_inspect_refuses_headers_the_readers_refuse(tmp_path, capsys, blob,
                                                    refusal):
    """inspect reads a batch header, and a float vector, through the
    readers' own checks, so every fault that needs no parameters exits
    3."""
    p = tmp_path / "bad.ct"
    p.write_bytes(blob)
    assert main(["inspect", str(p)]) == 3
    assert refusal in capsys.readouterr().err


def seeded_upload_blob(small_params, small_keys) -> bytes:
    from cipherfed.fhe import encode_coeffs, encrypt_symmetric
    from cipherfed.fhe.serial import serialize_seeded
    return serialize_seeded(encrypt_symmetric(encode_coeffs(
        np.ones((1, 4)), small_params, level=0), small_keys, [1], 1024), 19)


def test_inspect_refuses_a_cut_upload(tmp_path, capsys, small_params,
                                      small_keys):
    """A `CKU4` upload cut to 100 bytes fails its trailer; cut and
    resealed, it fails the length its header and width byte imply, as
    does one chunk of more coefficients than the largest ring holds."""
    blob = seeded_upload_blob(small_params, small_keys)
    p = tmp_path / "update.ct"
    # one chunk of 40,000 coefficients, more than N = 32,768 holds
    long = seal(b"CKU4" + bytes(8) + struct.pack("<BdH", 0, 2.0 ** 40, 1)
                + bytes(32) + bytes([0, 61]) + bytes(-(-40000 * 61 // 8)))
    for cut, refusal in ((blob[:100], "integrity trailer does not match"),
                         (resealed(blob, lambda b: b[:100]),
                          "for any power-of-two N >= 1024"),
                         (long, "for any power-of-two N >= 1024")):
        p.write_bytes(cut)
        assert main(["inspect", str(p)]) == 3
        captured = capsys.readouterr()
        assert refusal in captured.err and "chunks" not in captured.out


def test_inspect_refuses_a_flipped_public_key(workdir, capsys):
    """One flipped byte of pk0 fails the key file's trailer."""
    tmp, cfg = workdir
    main(["keygen", "--config", str(cfg), "--out", str(tmp / "keys")])
    path = tmp / "keys" / "public.key"
    data = bytearray(path.read_bytes())
    data[100] ^= 0x10
    path.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["inspect", str(path)]) == 3
    assert "integrity trailer" in capsys.readouterr().err


def test_inspect_refuses_blocks_with_different_rows(tmp_path, capsys,
                                                     small_params, small_keys):
    """The c1 block of a `CKV6` must repeat c0's row count and widths."""
    from cipherfed.fhe import encode, encrypt
    from cipherfed.fhe.serial import serialize_ciphertext
    blob = serialize_ciphertext(encrypt(encode(np.ones((1, 4)),
                                               small_params), small_keys, [1]))
    c1 = 23 + 4 + 1024 * 143 // 8 + 1  # c1's first width byte

    def narrow(b):
        b[c1] = 40
        return b
    p = tmp_path / "batch.ct"
    p.write_bytes(resealed(blob, narrow))
    assert main(["inspect", str(p)]) == 3
    assert "its blocks have different rows" in capsys.readouterr().err


@pytest.mark.parametrize("widths", [b"\x00\x80", b"\x80"])
def test_inspect_refuses_widths_beyond_a_word(tmp_path, capsys, widths):
    """A row width of 0 or above 64 bits is refused, even where the
    length would give a ring degree (128 bits at N = 1,024)."""
    body = (b"CKP3" + bytes(8) + bytes([len(widths)]) + widths
            + bytes(1024 * 128 // 8 + 32))
    p = tmp_path / "public.key"
    p.write_bytes(seal(body))
    assert main(["inspect", str(p)]) == 3
    assert "are not 1 to 64 bits" in capsys.readouterr().err


def test_inspect_missing_file_exits_4(tmp_path):
    assert main(["inspect", str(tmp_path / "ghost.bin")]) == 4


def test_socket_transport_via_cli(workdir):
    tmp, cfg = workdir
    rc = main(["train", "--config", str(cfg), "--transport", "socket",
               "--metrics", str(tmp / "sock.jsonl")])
    assert rc == 0
    assert (tmp / "sock.jsonl").exists()
