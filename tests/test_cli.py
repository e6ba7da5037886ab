import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from plexsim import cli
from plexsim.cli import main
from plexsim.config import config_from_dict, load_config
from plexsim.runner import build_membership_from_config
from plexsim.simnet import SimulationError
from plexsim.traces import load_device_profiles, load_latency_matrix


CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIGS_DIR.glob("*.yaml"))

TINY = {
    "algorithm": "plexus",
    "n": 8,
    "sample_size": 3,
    "protocol_seed": 11,
    "targets": [0.5],
    "trainer": {"eta": 0.1, "batch_size": 16, "local_steps": 2},
    "dataset": {"seed": 5, "n_samples": 300, "d_in": 4, "classes": 3, "class_sep": 3.0},
    "traces": {"cities": 3, "seed": 2},
    "stop": {"max_rounds": 4, "max_virtual_s": 1e7},
    "eval": {"every_rounds": 2, "every_seconds": 50.0},
}


def write_cfg(tmp_path, name="exp.yaml", **overrides):
    raw = dict(TINY)
    raw.update(overrides)
    p = tmp_path / name
    # JSON is valid YAML, and json.dumps handles every type we use.
    p.write_text(json.dumps(raw))
    return str(p)


def test_traces_gen(tmp_path, capsys):
    rc = main(["traces-gen", "--out", str(tmp_path / "tr"), "--n", "12", "--cities", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "latency.csv" in out and "profiles.csv" in out
    lm = load_latency_matrix(tmp_path / "tr" / "latency.csv")
    assert len(lm.cities) == 4
    profs = load_device_profiles(tmp_path / "tr" / "profiles.csv")
    assert len(profs) == 12


def test_traces_gen_defaults_are_the_config_defaults(tmp_path):
    # With only --n, traces-gen writes the traces a config without a
    # traces section synthesizes.
    assert main(["traces-gen", "--out", str(tmp_path), "--n", "100"]) == 0
    synth = config_from_dict({"algorithm": "plexus", "n": 100})
    files = config_from_dict(
        {"algorithm": "plexus", "n": 100,
         "traces": {"latency_path": "latency.csv", "profiles_path": "profiles.csv"}}
    )
    m_synth, lat_synth = build_membership_from_config(synth)
    m_files, lat_files = build_membership_from_config(files, tmp_path)
    assert m_files.nodes == m_synth.nodes
    assert m_files.profiles == m_synth.profiles
    assert lat_files.cities == lat_synth.cities
    assert np.array_equal(lat_files.rtt_ms, lat_synth.rtt_ms)


def test_run_validate(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(["run", cfg, "--validate"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("ok ")
    assert cfg in out


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_committed_configs_load_and_validate(path, capsys):
    load_config(path)  # raises on a malformed or invalid config
    assert main(["run", str(path), "--validate"]) == 0
    assert capsys.readouterr().out.startswith("ok ")


def test_run_rejects_bad_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, algorithm="nonsense")
    rc = main(["run", cfg])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("family", ["squared", "foo"])
def test_run_validate_rejects_unknown_model_family(tmp_path, capsys, family):
    cfg = write_cfg(tmp_path, model_family=family)
    rc = main(["run", cfg, "--validate"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "model_family" in captured.err


@pytest.mark.parametrize(
    "overrides",
    [
        {"algorithm": "gl", "n": 1},
        {"algorithm": "dpsgd", "n": 1, "topology": {"kind": "one_peer_exp"}},
    ],
    ids=["gl", "dpsgd-one-peer"],
)
def test_run_validate_rejects_single_node_peer_to_peer(tmp_path, capsys, overrides):
    cfg = write_cfg(tmp_path, **overrides)
    rc = main(["run", cfg, "--validate"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n >= 2" in captured.err


@pytest.mark.parametrize(
    "overrides",
    [{"n": 20.0}, {"repetitions": 1.5}, {"stop": {"max_rounds": 2.5, "max_virtual_s": 1e7}}],
    ids=["n", "repetitions", "stop.max_rounds"],
)
def test_run_validate_rejects_non_integer_counts(tmp_path, capsys, overrides):
    cfg = write_cfg(tmp_path, **overrides)
    rc = main(["run", cfg, "--validate"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be an integer" in captured.err


def test_run_validate_rejects_a_number_for_a_trace_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path, traces={"latency_path": 5})
    rc = main(["run", cfg, "--validate"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'traces.latency_path' must be a string or null" in captured.err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"dataset": {"n_samples": 20, "classes": 3}}, "need at least 30 samples for 3 classes"),
        ({"traces": {"profiles_path": "prof.csv"}}, "n=8 nodes but the profile trace has 2"),
    ],
    ids=["dataset", "profiles"],
)
def test_run_validate_builds_the_world(tmp_path, capsys, overrides, message):
    (tmp_path / "prof.csv").write_text(
        "node_id,uplink_bps,downlink_bps,sec_per_local_step\na,1,1,1\nb,1,1,1\n"
    )
    cfg = write_cfg(tmp_path, **overrides)
    rc = main(["run", cfg, "--validate"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_run_validate_rejects_a_negative_median_rtt(tmp_path, capsys):
    # It would draw NaN RTTs, and the run would then record nothing.
    cfg = write_cfg(tmp_path, traces={"cities": 3, "seed": 2, "median_rtt_ms": -5.0})
    rc = main(["run", cfg, "--validate"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: median_rtt_ms must be finite and > 0")


def test_run_validate_rejects_a_nan_budget(tmp_path, capsys):
    # YAML's .nan: Plexus would run no round, write a NaN final time and
    # exit 0.
    p = tmp_path / "exp.yaml"
    p.write_text(yaml.safe_dump({**TINY, "stop": {"max_rounds": 4, "max_virtual_s": float("nan")}}))
    assert ".nan" in p.read_text()
    rc = main(["run", str(p), "--validate"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'stop.max_virtual_s' must be a finite number" in err


def test_traces_gen_rejects_a_negative_median_rtt(tmp_path, capsys):
    rc = main(["traces-gen", "--out", str(tmp_path / "tr"), "--median-rtt-ms", "-5"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: median_rtt_ms must be finite and > 0")
    assert not (tmp_path / "tr").exists()


@pytest.mark.parametrize(
    "option,value,message",
    [
        ("--uplink-median", "-5", "uplink_median_bps must be finite and > 0"),
        ("--downlink-median", "0", "downlink_median_bps must be finite and > 0"),
        ("--step-median", "nan", "sec_per_step_median must be finite and > 0"),
        ("--sigma", "-1", "profile_sigma must be finite and >= 0"),
    ],
)
def test_traces_gen_rejects_bad_profile_arguments(tmp_path, capsys, option, value, message):
    rc = main(["traces-gen", "--out", str(tmp_path / "tr"), option, value])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "tr").exists()


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("uplink_median_bps", -5.0, "uplink_median_bps must be finite and > 0"),
        ("profile_sigma", -1.0, "profile_sigma must be finite and >= 0"),
    ],
)
def test_run_validate_rejects_bad_profile_medians(tmp_path, capsys, key, value, message):
    cfg = write_cfg(tmp_path, traces={"cities": 3, "seed": 2, key: value})
    rc = main(["run", cfg, "--validate"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_run_validate_rejects_an_eval_period_past_the_budget(tmp_path, capsys):
    # The run would write an accuracy.csv with only its header and exit 0.
    cfg = write_cfg(
        tmp_path, algorithm="gl", stop={"max_virtual_s": 100}, eval={"every_seconds": 500}
    )
    rc = main(["run", cfg, "--validate"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: eval.every_seconds (500) exceeds stop.max_virtual_s")


def test_run_validate_deals_the_partition(tmp_path, capsys):
    # plexus-small has 960 train rows; 20 nodes of 60 label shards need
    # 1200. The world builds, so only the deal catches it.
    raw = yaml.safe_load((CONFIGS_DIR / "plexus-small.yaml").read_text())
    raw["partition"] = {"kind": "label_shards", "shards_per_node": 60}
    p = tmp_path / "exp.yaml"
    p.write_text(yaml.safe_dump(raw))
    rc = main(["run", str(p), "--validate"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot cut 960 samples into 1200 shards")


def _raise_simulation_error(*args, **kwargs):
    raise SimulationError("transfer 3 byte conservation off by 0.021")


def test_run_reports_a_simulation_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", _raise_simulation_error)
    rc = main(["run", write_cfg(tmp_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: transfer 3 byte conservation off by 0.021\n"


def test_sweep_reports_a_simulation_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", _raise_simulation_error)
    rc = main(["sweep", write_cfg(tmp_path), "--param", "n", "--values", "8", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "error: transfer 3 byte conservation off by 0.021\n"


def test_run_missing_config(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.yaml")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_run_executes_and_writes_summary(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out_dir = tmp_path / "results"
    rc = main(["run", cfg, "--out", str(out_dir)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ""  # every repetition recorded accuracy points
    printed = captured.out
    assert "summary.json" in printed
    assert "target 0.5:" in printed
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["algorithm"] == "plexus"
    assert (out_dir / "rep0" / "accuracy.csv").exists()


def test_run_uses_results_root_env(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path)
    monkeypatch.setenv("PLEXSIM_RESULTS", str(tmp_path / "root"))
    rc = main(["run", cfg])
    assert rc == 0
    assert (tmp_path / "root" / "exp" / "summary.json").exists()


def test_sample_prints_participants(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(["sample", cfg, "--round", "3", "--count", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("round 3 participants: ")
    assert len(lines[0].split(": ")[1].split()) == 3
    assert "aggregator:" in lines[1] and "uplink" in lines[1]
    assert lines[2].startswith("round 4 participants: ")


@pytest.mark.parametrize("count", ["0", "-2"])
def test_sample_rejects_a_count_below_one(tmp_path, capsys, count):
    cfg = write_cfg(tmp_path)
    rc = main(["sample", cfg, "--round", "1", "--count", count])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --count must be >= 1")


def test_sweep_runs_each_value(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out_root = tmp_path / "sweep"
    rc = main(
        ["sweep", cfg, "--param", "sample_size", "--values", "2,3", "--out", str(out_root)]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[0].startswith("sample_size,")
    assert (out_root / "sample_size-2" / "summary.json").exists()
    assert (out_root / "sample_size-3" / "summary.json").exists()
    assert (out_root / "sweep.csv").exists()
    sweep_rows = (out_root / "sweep.csv").read_text().strip().splitlines()
    assert len(sweep_rows) == 3  # header + 2 values


def desk_cfg(tmp_path, name, **stop_and_eval):
    """A committed desk config with some ``stop`` and ``eval`` keys set."""
    raw = yaml.safe_load((CONFIGS_DIR / name).read_text())
    for section, values in stop_and_eval.items():
        raw[section].update(values)
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return str(p)


EMPTY_RUNS = {
    # Two rounds end before the first checkpoint at 3000 s.
    "dpsgd": ("dpsgd-desk.yaml", {"stop": {"max_rounds": 2}, "eval": {"every_seconds": 3000.0}}),
    # No round fires within one virtual second.
    "plexus": ("plexus-desk.yaml", {"stop": {"max_virtual_s": 1.0}}),
}


@pytest.mark.parametrize("algorithm", sorted(EMPTY_RUNS))
def test_run_warns_of_a_repetition_without_accuracy_points(tmp_path, capsys, algorithm):
    name, overrides = EMPTY_RUNS[algorithm]
    out_dir = tmp_path / "out"
    rc = main(["run", desk_cfg(tmp_path, name, **overrides), "--out", str(out_dir)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: repetition 0 recorded no accuracy point\n"
    assert "wrote" in captured.out
    assert (out_dir / "rep0" / "accuracy.csv").read_text() == "time_s,round,accuracy,accuracy_std\n"
    assert json.loads((out_dir / "summary.json").read_text())["reps"][0]["final_accuracy"] is None


def test_sweep_warns_of_each_repetition_without_accuracy_points(tmp_path, capsys):
    name, overrides = EMPTY_RUNS["plexus"]
    cfg = desk_cfg(tmp_path, name, **overrides)
    rc = main(["sweep", cfg, "--param", "protocol_seed", "--values", "1,2", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().err == "warning: repetition 0 recorded no accuracy point\n" * 2


def test_sweep_rejects_unknown_param(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(["sweep", cfg, "--param", "banana", "--values", "1"])
    assert rc == 2
    assert "unsupported sweep parameter" in capsys.readouterr().err


def test_sweep_rejects_a_nan_value(tmp_path, capsys):
    # A swept value is checked like a config value: a NaN gl timeout would
    # raise OverflowError mid-run.
    cfg = write_cfg(tmp_path, algorithm="gl")
    out_root = tmp_path / "sweep"
    rc = main(["sweep", cfg, "--param", "gl_timeout_s", "--values", "nan", "--out", str(out_root)])
    assert rc == 2
    assert "'gl_timeout_s' must be a finite number" in capsys.readouterr().err
    assert not out_root.exists()


def test_report_tabulates_summaries(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["run", cfg, "--out", str(a)]) == 0
    assert main(["run", cfg, "--out", str(b)]) == 0
    capsys.readouterr()
    table = tmp_path / "table.csv"
    rc = main(["report", str(a), str(b), "--out", str(table)])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("experiment,algorithm,config_hash,target")
    assert len([l for l in printed if l.startswith(str(tmp_path))]) == 2
    assert table.exists()


def test_report_requires_summaries(tmp_path, capsys):
    rc = main(["report", str(tmp_path)])
    assert rc == 2
    assert "no summary.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "is not valid JSON"),
        (json.dumps({"algorithm": "plexus", "cross_seed": {}}), "is not a plexsim summary (KeyError: 'reps')"),
        ("[]", "is not a plexsim summary (TypeError"),
        (
            json.dumps({"algorithm": "plexus", "reps": [], "cross_seed": {}}),
            "is not a plexsim summary (cross_seed is not a non-empty object)",
        ),
        (
            json.dumps({"algorithm": "plexus", "reps": [], "cross_seed": []}),
            "is not a plexsim summary (cross_seed is not a non-empty object)",
        ),
    ],
    ids=["invalid-json", "no-reps", "not-an-object", "no-targets", "cross-seed-a-list"],
)
def test_report_rejects_a_malformed_summary(tmp_path, capsys, text, message):
    (tmp_path / "summary.json").write_text(text)
    rc = main(["report", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {tmp_path / 'summary.json'} ")
    assert message in captured.err
