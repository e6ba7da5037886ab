"""Trace file formats and synthetic trace generation.

Two CSV interfaces feed a simulation:

* latency trace: header row of city names, then a square matrix of pairwise
  RTTs in milliseconds (one row per city, same order as the header).
* device profiles: columns ``node_id,uplink_bps,downlink_bps,
  sec_per_local_step``, one row per device. Bandwidths are bytes/second.

Loaders fail fast with the offending line number. The generators produce
files in the same formats from a seed, so experiments can run without any
external measurement data.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path

import numpy as np

from .core import DeviceProfile, Membership, NodeId, derive_rng
from .simnet import LatencyMatrix, assign_cities

PROFILE_COLUMNS = ["node_id", "uplink_bps", "downlink_bps", "sec_per_local_step"]

# RTT between two nodes of the same city in a synthetic latency matrix.
_INTRA_CITY_MS = 2.0


def load_latency_matrix(path: str | Path) -> LatencyMatrix:
    path = Path(path)
    if not path.exists():
        raise ValueError(f"latency trace not found: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]  # ignore blank lines, csv keeps them empty
    if not rows:
        raise ValueError(f"latency load error at line 1: empty file {path}")
    cities = tuple(name.strip() for name in rows[0])
    if any(not c for c in cities):
        raise ValueError(f"latency load error at line 1: blank city name")
    n = len(cities)
    if len(rows) - 1 != n:
        raise ValueError(
            f"latency load error at line {len(rows)}: expected {n} matrix rows "
            f"for {n} cities, got {len(rows) - 1}"
        )
    matrix = np.zeros((n, n))
    for i, row in enumerate(rows[1:]):
        lineno = i + 2
        if len(row) != n:
            raise ValueError(
                f"latency load error at line {lineno}: expected {n} values, got {len(row)}"
            )
        for j, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(
                    f"latency load error at line {lineno}: not a number: {cell!r}"
                ) from None
            if not np.isfinite(v) or v < 0:
                raise ValueError(
                    f"latency load error at line {lineno}: RTT must be finite and >= 0, got {cell}"
                )
            matrix[i, j] = v
    asym = np.max(np.abs(matrix - matrix.T))
    if asym > 1e-6 * max(1.0, float(np.max(matrix))):
        i, j = np.unravel_index(np.argmax(np.abs(matrix - matrix.T)), matrix.shape)
        raise ValueError(
            f"latency load error at line {int(i) + 2}: matrix not symmetric at "
            f"({cities[int(i)]}, {cities[int(j)]})"
        )
    return LatencyMatrix(cities, matrix)


def write_latency_csv(path: str | Path, latency: LatencyMatrix) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(latency.cities)
        for row in latency.rtt_ms:
            writer.writerow([repr(float(v)) for v in row])


def load_device_profiles(path: str | Path) -> list[tuple[NodeId, DeviceProfile]]:
    """Profiles in file order. City assignment happens later, from the
    membership index, so the file stays independent of the latency trace."""
    path = Path(path)
    if not path.exists():
        raise ValueError(f"device profile trace not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"profile load error at line 1: empty file {path}")
    header = [c.strip() for c in rows[0]]
    unknown = [c for c in header if c not in PROFILE_COLUMNS]
    if unknown:
        raise ValueError(f"profile load error at line 1: unknown columns {unknown}")
    missing = [c for c in PROFILE_COLUMNS if c not in header]
    if missing:
        raise ValueError(f"profile load error at line 1: missing columns {missing}")
    idx = {c: header.index(c) for c in PROFILE_COLUMNS}
    out: list[tuple[NodeId, DeviceProfile]] = []
    for i, row in enumerate(rows[1:]):
        lineno = i + 2
        if len(row) != len(header):
            raise ValueError(
                f"profile load error at line {lineno}: expected {len(header)} fields"
            )
        nid = row[idx["node_id"]].strip()
        try:
            profile = DeviceProfile(
                uplink_bps=float(row[idx["uplink_bps"]]),
                downlink_bps=float(row[idx["downlink_bps"]]),
                sec_per_local_step=float(row[idx["sec_per_local_step"]]),
            )
        except ValueError as exc:
            raise ValueError(f"profile load error at line {lineno}: {exc}") from None
        out.append((nid, profile))
    if not out:
        raise ValueError("profile load error at line 2: no device rows")
    return out


def write_profiles_csv(path: str | Path, profiles: list[tuple[NodeId, DeviceProfile]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_COLUMNS)
        for nid, p in profiles:
            writer.writerow(
                [nid, repr(p.uplink_bps), repr(p.downlink_bps), repr(p.sec_per_local_step)]
            )


# ------------------------------------------------------------ generators --


def _check_lognormal(medians: dict[str, float], sigma_name: str, sigma: float) -> None:
    """A log-normal needs finite medians > 0 and a finite sigma >= 0; anything
    else draws NaN, inf or all-zero values, which a trace file could not hold.
    Each error names the offending config key."""
    for name, median in medians.items():
        if not (np.isfinite(median) and median > 0):
            raise ValueError(f"{name} must be finite and > 0, got {median}")
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"{sigma_name} must be finite and >= 0, got {sigma}")


def synth_latency_matrix(
    n_cities: int,
    seed: int,
    median_rtt_ms: float = 80.0,
    sigma: float = 0.5,
) -> LatencyMatrix:
    """Symmetric log-normal RTT matrix over synthetic city names."""
    if n_cities < 1:
        raise ValueError("need at least one city")
    _check_lognormal({"median_rtt_ms": median_rtt_ms}, "rtt_sigma", sigma)
    rng = derive_rng(seed, "latency")
    n = n_cities
    rtt = np.zeros((n, n))
    upper = rng.lognormal(np.log(median_rtt_ms), sigma, size=(n, n))
    iu = np.triu_indices(n, k=1)
    rtt[iu] = upper[iu]
    rtt = rtt + rtt.T
    np.fill_diagonal(rtt, _INTRA_CITY_MS)
    names = tuple(f"city{i:03d}" for i in range(n))
    return LatencyMatrix(names, rtt)


def synth_device_profiles(
    n: int,
    seed: int,
    uplink_median_bps: float = 30_000.0,
    downlink_median_bps: float = 60_000.0,
    sec_per_step_median: float = 0.4,
    sigma: float = 0.6,
) -> list[tuple[NodeId, DeviceProfile]]:
    """Heterogeneous device population with log-normal spread around the
    given medians. Node ids are n0000, n0001, ..."""
    if n < 1:
        raise ValueError("need at least one device")
    medians = {
        "uplink_median_bps": uplink_median_bps,
        "downlink_median_bps": downlink_median_bps,
        "sec_per_step_median": sec_per_step_median,
    }
    _check_lognormal(medians, "profile_sigma", sigma)
    rng = derive_rng(seed, "profiles")
    ups = rng.lognormal(np.log(uplink_median_bps), sigma, size=n)
    downs = rng.lognormal(np.log(downlink_median_bps), sigma, size=n)
    steps = rng.lognormal(np.log(sec_per_step_median), sigma, size=n)
    return [
        (f"n{i:04d}", DeviceProfile(uplink_bps=u, downlink_bps=d, sec_per_local_step=s))
        for i, (u, d, s) in enumerate(zip(ups.tolist(), downs.tolist(), steps.tolist()))
    ]


def build_membership(
    profiles: list[tuple[NodeId, DeviceProfile]], latency: LatencyMatrix
) -> Membership:
    """Compose loaded profiles and a latency trace into a Membership, filling
    in each node's city by round-robin over the matrix's cities."""
    cities = assign_cities(len(profiles), len(latency.cities))
    placed = {
        nid: replace(profile, city_index=cities[i])
        for i, (nid, profile) in enumerate(profiles)
    }
    return Membership([nid for nid, _ in profiles], placed)
