import numpy as np
import pytest

from plexsim.core import DeviceProfile
from plexsim.traces import (
    build_membership,
    load_device_profiles,
    load_latency_matrix,
    synth_device_profiles,
    synth_latency_matrix,
    write_latency_csv,
    write_profiles_csv,
)


def write(path, text):
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- latency --


def test_latency_roundtrip(tmp_path):
    lm = synth_latency_matrix(5, seed=3)
    p = tmp_path / "lat.csv"
    write_latency_csv(p, lm)
    back = load_latency_matrix(p)
    assert back.cities == lm.cities
    assert np.array_equal(back.rtt_ms, lm.rtt_ms)  # repr floats: bit-exact


def test_latency_loader_small_file(tmp_path):
    p = write(
        tmp_path / "lat.csv",
        "ams,nyc\n2.0,88.5\n88.5,2.0\n",
    )
    lm = load_latency_matrix(p)
    assert lm.cities == ("ams", "nyc")
    assert lm.one_way_s(0, 1) == pytest.approx(0.044250)


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("", "line 1"),
        ("a,b\n1,2\n", "matrix rows"),
        ("a,b\n1,2\n3\n", "line 3"),
        ("a,b\n1,x\n2,1\n", "not a number"),
        ("a,b\n1,-2\n-2,1\n", ">= 0"),
        ("a,b\n1,5\n9,1\n", "not symmetric"),
        ("a,\n1,2\n2,1\n", "blank city"),
        # Blank lines are skipped but still counted.
        ("a,b\n\n1,2\n2,x\n", "line 4: not a number"),
        ("\na,\n1,2\n2,1\n", "line 2: blank city"),
        ("a,b\n\n1,5\n9,1\n", "line 3: matrix not symmetric"),
    ],
)
def test_latency_loader_rejects_bad_files(tmp_path, body, fragment):
    p = write(tmp_path / "bad.csv", body)
    with pytest.raises(ValueError, match=fragment):
        load_latency_matrix(p)


def test_latency_loader_skips_blank_lines(tmp_path):
    p = write(tmp_path / "lat.csv", "ams,nyc\n\n2.0,88.5\n\n88.5,2.0\n\n")
    lm = load_latency_matrix(p)
    assert lm.cities == ("ams", "nyc")
    assert np.array_equal(lm.rtt_ms, [[2.0, 88.5], [88.5, 2.0]])


def test_latency_missing_file():
    with pytest.raises(ValueError, match="not found"):
        load_latency_matrix("/nonexistent/lat.csv")


def test_synth_latency_shape_and_symmetry():
    lm = synth_latency_matrix(227, seed=11)
    assert len(lm.cities) == 227
    assert lm.rtt_ms.shape == (227, 227)
    assert np.array_equal(lm.rtt_ms, lm.rtt_ms.T)
    assert np.all(np.diag(lm.rtt_ms) == 2.0)
    off = lm.rtt_ms[np.triu_indices(227, k=1)]
    assert np.all(off > 0)
    # Median should sit near the requested one for a matrix this large.
    assert 60.0 < np.median(off) < 105.0


def test_synth_latency_deterministic():
    a = synth_latency_matrix(6, seed=5)
    b = synth_latency_matrix(6, seed=5)
    c = synth_latency_matrix(6, seed=6)
    assert np.array_equal(a.rtt_ms, b.rtt_ms)
    assert not np.array_equal(a.rtt_ms, c.rtt_ms)


@pytest.mark.parametrize(
    "median,sigma,fragment",
    [
        (-5.0, 0.5, "median_rtt_ms"),
        (0.0, 0.5, "median_rtt_ms"),
        (float("inf"), 0.5, "median_rtt_ms"),
        (float("nan"), 0.5, "median_rtt_ms"),
        (80.0, float("inf"), "rtt_sigma"),
        (80.0, float("nan"), "rtt_sigma"),
        (80.0, -1.0, "rtt_sigma"),
    ],
)
def test_synth_latency_rejects_values_that_draw_bad_rtts(median, sigma, fragment):
    # Each of these would draw NaN or inf RTTs, which the loader rejects, or
    # with a zero median put every other city nearer than one's own.
    with pytest.raises(ValueError, match=fragment):
        synth_latency_matrix(4, seed=1, median_rtt_ms=median, sigma=sigma)


def test_synth_latency_accepts_a_zero_sigma():
    lm = synth_latency_matrix(3, seed=1, median_rtt_ms=40.0, sigma=0.0)
    assert np.all(lm.rtt_ms[np.triu_indices(3, k=1)] == 40.0)


# --------------------------------------------------------------- profiles --


def test_profiles_roundtrip(tmp_path):
    profiles = synth_device_profiles(20, seed=2)
    p = tmp_path / "prof.csv"
    write_profiles_csv(p, profiles)
    back = load_device_profiles(p)
    assert back == profiles


def test_profiles_loader_accepts_any_column_order(tmp_path):
    p = write(
        tmp_path / "prof.csv",
        "downlink_bps,node_id,sec_per_local_step,uplink_bps\n"
        "6000,a,0.5,3000\n",
    )
    [(nid, prof)] = load_device_profiles(p)
    assert nid == "a"
    assert prof.uplink_bps == 3000.0
    assert prof.downlink_bps == 6000.0
    assert prof.sec_per_local_step == 0.5


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("", "line 1"),
        ("node_id,uplink_bps\na,1\n", "missing columns"),
        ("node_id,uplink_bps,downlink_bps,sec_per_local_step,extra\na,1,1,1,1\n", "unknown columns"),
        ("node_id,uplink_bps,downlink_bps,sec_per_local_step\na,1,1\n", "line 2"),
        ("node_id,uplink_bps,downlink_bps,sec_per_local_step\na,-1,1,1\n", "line 2"),
        ("node_id,uplink_bps,downlink_bps,sec_per_local_step\na,x,1,1\n", "line 2"),
        ("node_id,uplink_bps,downlink_bps,sec_per_local_step\n", "no device rows"),
        # Blank lines are skipped but still counted.
        ("node_id,uplink_bps,downlink_bps,sec_per_local_step\n\na,x,1,1\n", "line 3"),
        ("\nnode_id,uplink_bps\na,1\n", "line 2: missing columns"),
    ],
)
def test_profiles_loader_rejects_bad_files(tmp_path, body, fragment):
    p = write(tmp_path / "bad.csv", body)
    with pytest.raises(ValueError, match=fragment):
        load_device_profiles(p)


def test_profiles_loader_skips_blank_lines(tmp_path):
    p = write(
        tmp_path / "prof.csv",
        "node_id,uplink_bps,downlink_bps,sec_per_local_step\n\na,3000,6000,0.5\n\n",
    )
    [(nid, prof)] = load_device_profiles(p)
    assert nid == "a"
    assert prof == DeviceProfile(3000.0, 6000.0, 0.5)


def test_synth_profiles_spread_around_medians():
    profs = synth_device_profiles(4000, seed=9)
    ups = np.array([p.uplink_bps for _, p in profs])
    downs = np.array([p.downlink_bps for _, p in profs])
    steps = np.array([p.sec_per_local_step for _, p in profs])
    assert 25_000 < np.median(ups) < 36_000
    assert 50_000 < np.median(downs) < 72_000
    assert 0.33 < np.median(steps) < 0.48
    assert np.all(ups > 0) and np.all(downs > 0) and np.all(steps > 0)
    assert ups.std() > 0  # genuinely heterogeneous


@pytest.mark.parametrize(
    "arg,value,fragment",
    [
        ("uplink_median_bps", -5.0, "uplink_median_bps must be finite and > 0"),
        ("uplink_median_bps", 0.0, "uplink_median_bps must be finite and > 0"),
        ("uplink_median_bps", float("nan"), "uplink_median_bps must be finite and > 0"),
        ("downlink_median_bps", -1.0, "downlink_median_bps must be finite and > 0"),
        ("downlink_median_bps", float("inf"), "downlink_median_bps must be finite and > 0"),
        ("sec_per_step_median", 0.0, "sec_per_step_median must be finite and > 0"),
        ("sec_per_step_median", float("nan"), "sec_per_step_median must be finite and > 0"),
        ("sigma", -1.0, "profile_sigma must be finite and >= 0"),
        ("sigma", float("inf"), "profile_sigma must be finite and >= 0"),
        ("sigma", float("nan"), "profile_sigma must be finite and >= 0"),
    ],
)
def test_synth_profiles_reject_values_that_draw_bad_profiles(arg, value, fragment):
    # Each would draw NaN, inf or zero capacities; the error names the config
    # key before numpy is asked to draw anything.
    with pytest.raises(ValueError, match=fragment):
        synth_device_profiles(4, seed=1, **{arg: value})


def test_synth_profiles_accept_a_zero_sigma():
    profs = synth_device_profiles(3, seed=1, sigma=0.0)
    assert [p.uplink_bps for _, p in profs] == pytest.approx([30_000.0] * 3)


# ------------------------------------------------------------- membership --


def test_build_membership_places_cities_round_robin():
    profiles = synth_device_profiles(7, seed=1)
    lm = synth_latency_matrix(3, seed=1)
    m = build_membership(profiles, lm)
    assert [m.profile(nid).city_index for nid in m.nodes] == [0, 1, 2, 0, 1, 2, 0]
    assert m.nodes == tuple(nid for nid, _ in profiles)
    # Placement must not disturb the measured fields.
    assert m.profile(m.nodes[3]).uplink_bps == profiles[3][1].uplink_bps
