import re

import pytest

from cipherfed.config import load_config, parse_config
from cipherfed.errors import ConfigError
from cipherfed.federation.rounds import RoundConfig
from cipherfed.federation.transport import MAX_WIRE_COUNT


def minimal_doc():
    return {
        "mode": "fhe",
        "seed": 3,
        "federation": {"clients": 2, "rounds": 1, "learning_rate": 0.1},
        "model": {"qubits": 2, "depth": 1},
        "data": {"kind": "blobs", "samples": 100, "classes": 2},
    }


def test_minimal_config_parses():
    cfg = parse_config(minimal_doc())
    assert cfg.mode == "fhe"
    assert cfg.clients == 2
    assert cfg.encryption.ring_degree == 4096
    assert cfg.arch.qubit_count == 2
    assert cfg.quantization.fractional_bits == 16


def test_defaults_fill_in():
    cfg = parse_config({})
    assert cfg.mode == "fhe" and cfg.transport == "direct"
    assert cfg.rounds == 5 and cfg.clients == 2


def test_bad_mode():
    doc = minimal_doc()
    doc["mode"] = "hybrid"
    with pytest.raises(ConfigError, match="mode"):
        parse_config(doc)


def test_bad_transport():
    doc = minimal_doc()
    doc["transport"] = "carrier-pigeon"
    with pytest.raises(ConfigError, match="transport"):
        parse_config(doc)


def test_loopback_transport_rejected():
    allowed = r"transport must be one of \('direct', 'socket'\)"
    with pytest.raises(ConfigError, match=allowed):
        parse_config({"transport": "loopback"})


@pytest.mark.parametrize("key", ["clients", "rounds"])
def test_socket_counts_fit_the_wire(key):
    # the round index and the client id are u16 fields on the wire, so a
    # socket run that outgrows them is rejected before it starts
    doc = minimal_doc()
    doc["transport"] = "socket"
    doc["federation"][key] = MAX_WIRE_COUNT + 1
    with pytest.raises(ConfigError, match=f"federation.{key}"):
        parse_config(doc)
    doc["federation"][key] = MAX_WIRE_COUNT
    assert getattr(parse_config(doc), key) == MAX_WIRE_COUNT
    # the direct transport has no wire
    doc["transport"] = "direct"
    doc["federation"][key] = MAX_WIRE_COUNT + 1
    assert getattr(parse_config(doc), key) == MAX_WIRE_COUNT + 1


@pytest.mark.parametrize("section,key,value,message", [
    ("data", "noise", -1, "data.noise"),
    ("data", "noise", float("nan"), "data.noise"),
    ("data", "classes", 0, "data.classes"),
    ("federation", "convergence_delta", -1, "convergence_delta"),
    ("federation", "convergence_delta", 0, "convergence_delta")])
def test_out_of_range_value_rejected_at_parse(section, key, value, message):
    doc = minimal_doc()
    doc[section][key] = value
    with pytest.raises(ConfigError, match=message):
        parse_config(doc)


def with_value(dotted: str, value) -> dict:
    doc = minimal_doc()
    *sections, key = dotted.split(".")
    target = doc
    for name in sections:
        target = target.setdefault(name, {})
    target[key] = value
    return doc


@pytest.mark.parametrize("dotted,value", [
    # integers: no bools, strings, nulls or non-integral numbers
    ("seed", 1.7),
    ("seed", "3"),
    ("federation.clients", 2.9),
    ("federation.clients", None),
    ("federation.rounds", True),
    ("federation.rounds", None),
    ("encryption.ring_degree", 4096.7),
    ("encryption.chain_bits", [60, 40.5, 40]),
    ("encryption.chain_bits", [60, True, 40]),
    ("model.readout", [True]),
    ("model.readout", [0.5]),
    ("data.samples", None),
    # floats: no bools, strings, nulls or non-finite values
    ("federation.learning_rate", None),
    ("federation.learning_rate", float("inf")),
    ("federation.learning_rate", "0.1"),
    ("federation.learning_rate", True),
    ("data.noise", float("inf")),
    # paths and columns: non-empty strings
    ("output.report_path", 3),
    ("output.metrics_path", None),
    ("output.checkpoint_path", ""),
    ("keys.dir", 0),
    ("data.path", 7),
    # at least 2 feature dims, and exactly 2 for the 2-d generators
    ("data.dims", 1),
    ("data.dims", 2.5)])
def test_bad_value_names_its_key(dotted, value):
    with pytest.raises(ConfigError, match=re.escape(dotted)):
        parse_config(with_value(dotted, value))


@pytest.mark.parametrize("kind", ["two_moons", "xor"])
def test_two_dim_generators_reject_other_dims(kind):
    doc = with_value("data.dims", 3)
    doc["data"]["kind"] = kind
    with pytest.raises(ConfigError, match="data.dims"):
        parse_config(doc)


def test_integral_floats_read_as_ints():
    doc = with_value("encryption.ring_degree", 1024.0)
    doc["federation"]["clients"] = 3.0
    cfg = parse_config(doc)
    assert cfg.encryption.ring_degree == 1024 and cfg.clients == 3
    assert type(cfg.clients) is int


def test_bad_data_kind():
    doc = minimal_doc()
    doc["data"]["kind"] = "imagenet"
    with pytest.raises(ConfigError, match="data.kind"):
        parse_config(doc)


def test_csv_requires_path():
    doc = minimal_doc()
    doc["data"] = {"kind": "csv"}
    with pytest.raises(ConfigError, match="csv"):
        parse_config(doc)


def test_negative_learning_rate():
    doc = minimal_doc()
    doc["federation"]["learning_rate"] = -1
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config(doc)


@pytest.mark.parametrize("ring", [512, 65536])
def test_ring_degree_outside_the_standard_rejected(ring):
    with pytest.raises(ConfigError, match="encryption: ring_degree must be "
                                          "a power of two from 1024 to 32768"):
        parse_config(with_value("encryption.ring_degree", ring))


def test_bad_chain_bits():
    doc = minimal_doc()
    doc["encryption"] = {"chain_bits": [60]}
    with pytest.raises(ConfigError, match="chain_bits"):
        parse_config(doc)


@pytest.mark.parametrize("key,value,message", [
    ("seed", -1, "seed"),
    ("deterministic_timing", "no", "deterministic_timing"),
    ("deterministic_timing", 1, "deterministic_timing")])
def test_bad_top_level_value_rejected_at_parse(key, value, message):
    doc = minimal_doc()
    doc[key] = value
    with pytest.raises(ConfigError, match=message):
        parse_config(doc)


@pytest.mark.parametrize("seed", [2 ** 63, 2 ** 64])
def test_seed_beyond_signed_64_bits_rejected_at_parse(seed):
    """Every stream of a run is seeded through derive_seed, which packs
    the seed as a signed 64-bit integer: a larger one would pass here
    and fail in round 0."""
    doc = minimal_doc()
    doc["seed"] = seed
    with pytest.raises(ConfigError, match=r"seed must be < 2\^63"):
        parse_config(doc)
    doc["seed"] = 2 ** 63 - 1
    assert parse_config(doc).seed == 2 ** 63 - 1


def test_bad_model_section():
    doc = minimal_doc()
    doc["model"]["depth"] = 0
    with pytest.raises(ConfigError, match="model"):
        parse_config(doc)


def test_bad_partition_strategy():
    doc = minimal_doc()
    doc["data"]["partition"] = {"strategy": "sorted"}
    with pytest.raises(ConfigError, match="partition"):
        parse_config(doc)


def test_overrides_apply():
    cfg = parse_config(minimal_doc(),
                       overrides={"mode": "plaintext",
                                  "federation.rounds": 9,
                                  "output.metrics_path": "x.jsonl"})
    assert cfg.mode == "plaintext"
    assert cfg.rounds == 9
    assert cfg.output.metrics_path == "x.jsonl"


def test_override_leaves_caller_mapping_unchanged():
    """A three-part override applies to the run, never to the nested
    mapping the caller passed in."""
    doc = minimal_doc()
    doc["federation"]["quantization"] = {"fractional_bits": 16}
    key = "federation.quantization.fractional_bits"
    cfg = parse_config(doc, overrides={key: 12})
    assert cfg.quantization.fractional_bits == 12
    assert doc["federation"]["quantization"] == {"fractional_bits": 16}


@pytest.mark.parametrize("key,value,field", [
    ("federation.rounds", 9, lambda c: c.rounds),
    ("output.metrics_path", "x.jsonl", lambda c: c.output.metrics_path)])
def test_override_into_empty_section(key, value, field):
    """YAML reads `federation:` with no keys as null; an override goes
    into it as into an empty section."""
    doc = minimal_doc()
    doc[key.split(".")[0]] = None
    assert field(parse_config(doc, overrides={key: value})) == value


def test_scalar_section_rejected():
    with pytest.raises(ConfigError, match="mapping"):
        parse_config({"federation": 5})
    with pytest.raises(ConfigError, match="cannot override"):
        parse_config({"federation": 5}, overrides={"federation.rounds": 9})


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.yaml")


def test_invalid_yaml(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("mode: [unclosed\n")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(p)


def test_load_yaml_file(tmp_path):
    p = tmp_path / "run.yaml"
    p.write_text(
        "mode: plaintext\nseed: 4\n"
        "federation:\n  clients: 3\n  rounds: 2\n  learning_rate: 0.2\n"
        "model:\n  qubits: 2\n  depth: 1\n"
        "data:\n  kind: xor\n  samples: 50\n")
    cfg = load_config(p)
    assert cfg.mode == "plaintext" and cfg.clients == 3
    assert cfg.data.kind == "xor"


@pytest.mark.parametrize("field,value", [
    ("learning_rate", True), ("learning_rate", float("inf")),
    ("learning_rate", float("nan")), ("learning_rate", "0.1"),
    ("learning_rate", None), ("convergence_delta", "1"),
    ("convergence_delta", False), ("convergence_delta", float("inf")),
    ("convergence_delta", 0.0), ("sample_counts", 5)])
def test_round_config_refuses_non_reals_and_count_scalars(field, value):
    """A RoundConfig built without parse_config checks its learning rate
    and convergence delta as finite positive reals, never bools or
    strings, and its sample counts as a sequence: each fault is a
    ConfigError that names the field, not a raw TypeError."""
    kw = dict(client_count=1, rounds=1, sample_counts=(5,),
              learning_rate=0.1)
    kw[field] = value
    with pytest.raises(ConfigError, match=field):
        RoundConfig(**kw)
