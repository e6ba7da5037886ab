import dataclasses
import importlib
import math
import re
from pathlib import Path

import pytest
import yaml

from plexsim.config import (
    DatasetConfig,
    EvalConfig,
    ExperimentConfig,
    StopConfig,
    TopologyConfig,
    config_from_dict,
    load_config,
)
from plexsim.learning import PartitionScheme, TrainerConfig


def minimal(**kw):
    return ExperimentConfig(algorithm="plexus", n=20, **kw)


# -------------------------------------------------------------- validation --


def test_defaults_are_valid():
    cfg = minimal()
    assert cfg.sample_size == 10
    assert cfg.success_fraction == 1.0
    assert cfg.targets == (0.85,)
    assert cfg.stop.max_rounds == 500
    assert cfg.partition.kind == "iid"


def test_algorithm_must_be_known():
    with pytest.raises(ValueError, match="unknown algorithm"):
        ExperimentConfig(algorithm="magic", n=10)


def test_sample_size_bounds_apply_to_sampled_algorithms():
    with pytest.raises(ValueError, match="sample_size"):
        ExperimentConfig(algorithm="plexus", n=5, sample_size=6)
    with pytest.raises(ValueError, match="sample_size"):
        ExperimentConfig(algorithm="fl", n=5, sample_size=0)
    # gl and dpsgd ignore sample_size entirely.
    ExperimentConfig(algorithm="gl", n=5, sample_size=99)
    ExperimentConfig(algorithm="dpsgd", n=5, sample_size=99, topology=TopologyConfig(degree=2))


def test_success_fraction_bounds():
    with pytest.raises(ValueError):
        minimal(success_fraction=0.0)
    with pytest.raises(ValueError):
        minimal(success_fraction=1.5)
    with pytest.raises(ValueError, match="floor"):
        ExperimentConfig(algorithm="plexus", n=20, sample_size=2, success_fraction=0.4)


def test_dpsgd_topology_constraints():
    with pytest.raises(ValueError, match="degree"):
        ExperimentConfig(algorithm="dpsgd", n=10, topology=TopologyConfig(degree=10))
    with pytest.raises(ValueError, match="even"):
        ExperimentConfig(algorithm="dpsgd", n=5, topology=TopologyConfig(degree=3))
    ExperimentConfig(algorithm="dpsgd", n=100, topology=TopologyConfig(degree=10))
    ExperimentConfig(algorithm="dpsgd", n=100, topology=TopologyConfig(kind="one_peer_exp"))


def test_dpsgd_rejects_a_disconnected_degree_one_topology():
    with pytest.raises(ValueError, match="1-regular"):
        ExperimentConfig(algorithm="dpsgd", n=8, topology=TopologyConfig(degree=1))
    ExperimentConfig(algorithm="dpsgd", n=2, topology=TopologyConfig(degree=1))


def test_one_peer_topology_needs_two_nodes():
    with pytest.raises(ValueError, match="n >= 2"):
        ExperimentConfig(algorithm="dpsgd", n=1, topology=TopologyConfig(kind="one_peer_exp"))
    ExperimentConfig(algorithm="dpsgd", n=2, topology=TopologyConfig(kind="one_peer_exp"))


def test_gl_timeout_positive():
    with pytest.raises(ValueError, match="gl_timeout"):
        ExperimentConfig(algorithm="gl", n=10, gl_timeout_s=0.0)


def test_gl_needs_two_nodes():
    with pytest.raises(ValueError, match="n >= 2"):
        ExperimentConfig(algorithm="gl", n=1)
    ExperimentConfig(algorithm="gl", n=2)


def test_targets_validated():
    with pytest.raises(ValueError):
        minimal(targets=(0.5, 1.2))
    with pytest.raises(ValueError):
        minimal(targets=())


def test_section_validation_bubbles_up():
    with pytest.raises(ValueError):
        StopConfig(max_rounds=0)
    with pytest.raises(ValueError):
        EvalConfig(every_rounds=0)
    with pytest.raises(ValueError):
        EvalConfig(every_seconds=0)
    with pytest.raises(ValueError):
        TopologyConfig(kind="star")


@pytest.mark.parametrize("family", ["squared", "foo", "Linear", ""])
def test_model_family_must_be_evaluable(family):
    # squared is a ModelSpec family for gradient checks; it has no class
    # logits, so a run with it could not record a single accuracy.
    with pytest.raises(ValueError, match="model_family"):
        minimal(model_family=family)
    with pytest.raises(ValueError, match="model_family"):
        config_from_dict({"algorithm": "dpsgd", "n": 4, "model_family": family,
                          "topology": {"degree": 2}})


@pytest.mark.parametrize("family", ["linear", "mlp"])
def test_model_family_accepts_the_classifiers(family):
    assert minimal(model_family=family).model_spec().family == family


def test_model_spec_inherits_dataset_shape():
    cfg = minimal(
        model_family="mlp",
        model_hidden=16,
        dataset=DatasetConfig(d_in=12, classes=4),
    )
    spec = cfg.model_spec()
    assert spec.family == "mlp"
    assert spec.d_in == 12 and spec.classes == 4 and spec.hidden == 16


# ------------------------------------------------------------ dict loading --


def test_config_from_dict_full():
    cfg = config_from_dict(
        {
            "algorithm": "plexus",
            "n": 50,
            "sample_size": 13,
            "success_fraction": 0.8,
            "targets": [0.5, 0.8],
            "trainer": {"eta": 0.1, "local_steps": 3},
            "dataset": {"n_samples": 2000, "d_in": 8, "classes": 4},
            "partition": {"kind": "dirichlet", "alpha": 0.3},
            "stop": {"max_rounds": 20},
            "eval": {"every_rounds": 5},
        }
    )
    assert cfg.sample_size == 13
    assert cfg.targets == (0.5, 0.8)
    assert cfg.trainer == TrainerConfig(eta=0.1, local_steps=3)
    assert cfg.partition == PartitionScheme("dirichlet", alpha=0.3)
    assert cfg.stop.max_rounds == 20


def test_config_from_dict_rejects_unknowns():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"algorithm": "plexus", "n": 10, "typo_key": 1})
    with pytest.raises(ValueError, match="section 'trainer'"):
        config_from_dict({"algorithm": "plexus", "n": 10, "trainer": {"lr": 0.1}})
    with pytest.raises(ValueError, match="must be a mapping"):
        config_from_dict({"algorithm": "plexus", "n": 10, "trainer": 5})
    with pytest.raises(ValueError, match="mapping"):
        config_from_dict(["not", "a", "dict"])


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"n": 20.0}, "'n'"),
        ({"n": True}, "'n'"),
        ({"n": "20"}, "'n'"),
        ({"repetitions": 1.5}, "'repetitions'"),
        ({"stop": {"max_rounds": 2.5}}, "'stop.max_rounds'"),
        ({"trainer": {"local_steps": 5.0}}, "'trainer.local_steps'"),
        ({"dataset": {"classes": False}}, "'dataset.classes'"),
        ({"shared_init": 1}, "'shared_init'"),
        ({"shared_init": "yes"}, "'shared_init'"),
        ({"stop": {"max_virtual_s": True}}, "'stop.max_virtual_s'"),
        ({"success_fraction": True}, "'success_fraction'"),
        ({"targets": [True]}, "'targets'"),
        ({"gl_timeout_s": math.nan}, "'gl_timeout_s'"),
        ({"stop": {"max_virtual_s": math.nan}}, "'stop.max_virtual_s'"),
        ({"stop": {"max_virtual_s": math.inf}}, "'stop.max_virtual_s'"),
        ({"eval": {"every_seconds": math.nan}}, "'eval.every_seconds'"),
        ({"partition": {"kind": "dirichlet", "alpha": math.nan}}, "'partition.alpha'"),
        ({"targets": [0.5, math.inf]}, "'targets'"),
    ],
    ids=["n-float", "n-bool", "n-str", "repetitions", "stop.max_rounds",
         "trainer.local_steps", "dataset.classes", "shared_init-int", "shared_init-str",
         "stop.max_virtual_s-bool", "success_fraction-bool", "targets-bool",
         "gl_timeout_s-nan", "stop.max_virtual_s-nan", "stop.max_virtual_s-inf",
         "eval.every_seconds-nan", "partition.alpha-nan", "targets-inf"],
)
def test_config_from_dict_rejects_mistyped_integers_and_bools(overrides, key):
    # The dataclasses would take these and the run would fail, or run with
    # a float round budget, long after validation said ok. A NaN or infinite
    # float passes every range check: a NaN gl_timeout_s raises
    # OverflowError mid-run, a NaN budget runs no round and exits 0, an
    # infinite one never ends under gl or dpsgd, a NaN eval period writes no
    # row and a NaN alpha fails only after 100 re-deals.
    with pytest.raises(ValueError, match=key):
        config_from_dict({"algorithm": "plexus", "n": 20, **overrides})


def test_float_keys_still_take_integers():
    cfg = config_from_dict(
        {"algorithm": "plexus", "n": 20, "success_fraction": 1, "stop": {"max_virtual_s": 100}}
    )
    same = minimal(success_fraction=1, stop=StopConfig(max_virtual_s=100))
    assert cfg.config_hash() == same.config_hash()


# ------------------------------------------------------------ yaml loading --


def test_load_config_yaml(tmp_path):
    p = tmp_path / "exp.yaml"
    p.write_text(
        "algorithm: plexus\n"
        "n: 30\n"
        "sample_size: 5\n"
        "stop:\n"
        "  max_rounds: 10\n"
    )
    cfg = load_config(p)
    assert cfg.n == 30
    assert cfg.stop.max_rounds == 10


def test_load_config_errors(tmp_path):
    with pytest.raises(ValueError, match="not found"):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("algorithm: [unclosed\n")
    with pytest.raises(ValueError, match="parse error"):
        load_config(bad)
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_config(empty)


def test_load_config_checks_trace_paths(tmp_path):
    p = tmp_path / "exp.yaml"
    p.write_text(
        "algorithm: plexus\nn: 10\nsample_size: 3\n"
        "traces:\n  latency_path: nowhere.csv\n"
    )
    with pytest.raises(ValueError, match="trace file not found"):
        load_config(p)


def test_load_config_resolves_traces_relative_to_config(tmp_path):
    (tmp_path / "lat.csv").write_text("a\n0\n")
    (tmp_path / "prof.csv").write_text(
        "node_id,uplink_bps,downlink_bps,sec_per_local_step\nx,1,1,1\n"
    )
    p = tmp_path / "exp.yaml"
    p.write_text(
        "algorithm: plexus\nn: 1\nsample_size: 1\n"
        "traces:\n  latency_path: lat.csv\n  profiles_path: prof.csv\n"
    )
    cfg = load_config(p)  # paths relative to the yaml must be accepted
    assert cfg.traces.latency_path == "lat.csv"


# ---------------------------------------------------------------- hashing --


def test_config_hash_is_order_insensitive_and_value_sensitive():
    a = config_from_dict({"algorithm": "plexus", "n": 10, "sample_size": 3})
    b = config_from_dict({"sample_size": 3, "n": 10, "algorithm": "plexus"})
    c = config_from_dict({"algorithm": "plexus", "n": 10, "sample_size": 4})
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 12


def test_canonical_dict_roundtrips_through_loader():
    cfg = minimal(targets=(0.5,), repetitions=3)
    again = config_from_dict(cfg.canonical_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


# ------------------------------------------------------------------ README --


def _key_paths(d, prefix=()):
    for key, value in d.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def test_readme_configuration_block_shows_the_defaults():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme[readme.index("## Configuration"):]
    block = section[section.index("```yaml\n") + len("```yaml\n"):section.index("```\n", 1)]
    shown = yaml.safe_load(block)
    defaults = config_from_dict({"algorithm": "plexus", "n": 100})
    assert config_from_dict(shown) == defaults
    assert sorted(_key_paths(shown)) == sorted(_key_paths(defaults.canonical_dict()))


def _resolves(dotted):
    """Whether ``dotted`` names a module, an attribute reached from one, or,
    as its last part, a field of a dataclass reached so."""
    parts = dotted.split(".")
    i = len(parts)
    while True:
        try:
            obj = importlib.import_module(".".join(parts[:i]))
            break
        except ModuleNotFoundError:
            i -= 1  # the package itself always imports
    for j in range(i, len(parts)):
        name = parts[j]
        if hasattr(obj, name):
            obj = getattr(obj, name)
        elif dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)}:
            return j == len(parts) - 1
        else:
            return False
    return True


def test_readme_names_only_what_exists():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    names = set(re.findall(r"\bplexsim(?:\.[A-Za-z_]\w*)+", readme))
    assert names, "the pattern found no plexsim names in README.md"
    missing = sorted(name for name in names if not _resolves(name))
    assert not missing, f"README.md names what plexsim does not have: {missing}"
