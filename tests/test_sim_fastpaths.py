"""Exactness of the simulation and analysis fast paths.

Each fast path replaces per-session or per-row Python with work per
distinct value, and each must reproduce the reference computation bit
for bit:

* :func:`sample_distinct` against the installed numpy's
  ``Generator.choice(replace=False, p=...)``, including the generator
  state it leaves behind;
* :class:`PayloadGrid` against the per-call renderers;
* Cowrie's batched accept-login hash against :func:`stable_hash64`;
* the memoized §3.3 reports and the split dataset coder.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.contingency_engine import dataset_coder
from repro.analysis.dataset import AnalysisDataset
from repro.analysis.geography import geo_similarity
from repro.analysis.leak import leak_report
from repro.analysis.neighborhoods import neighborhood_report
from repro.analysis.ports import protocol_breakdown
from repro.honeypots.cowrie import CowrieStack
from repro.net.addresses import int_to_ip
from repro.net.packets import Transport
from repro.scanners import base as scanner_base
from repro.scanners.base import PayloadGrid
from repro.scanners.credentials import DIALECTS, sample_distinct
from repro.scanners.payloads import (
    HTTP_CORPUS,
    LZR_PROTOCOLS,
    HttpPayload,
    http_payload,
    protocol_first_payload,
    render_http,
)
from repro.sim.events import IntentBatch
from repro.sim.rng import _rounded_str, stable_hash64

SEEDS = range(200)


@pytest.mark.parametrize("name", sorted(DIALECTS))
def test_distinct_sampler_matches_numpy_choice(name):
    probabilities = DIALECTS[name].probabilities()
    weights = probabilities.tolist()
    for size in range(1, len(weights) + 1):
        for seed in SEEDS:
            reference = np.random.default_rng(seed)
            fast = np.random.default_rng(seed)
            want = reference.choice(len(weights), size=size, replace=False, p=probabilities)
            assert sample_distinct(fast, weights, size) == want.tolist(), (size, seed)
            # Same draws consumed: the streams continue identically.
            assert fast.random() == reference.random(), (size, seed)


_HOSTS = np.array([0, 167772161, 3232235777, 2886729985, 4294967295], dtype=np.int64)


def test_payload_grid_matches_the_renderers():
    grid = PayloadGrid(_HOSTS[::-1])  # any address order
    columns = grid.columns(_HOSTS)
    hosts = [int_to_ip(int(ip)) for ip in _HOSTS]
    for entry in HTTP_CORPUS:
        got = grid.gather(grid.row(("http", entry.name)), columns).tolist()
        assert got == [entry.render(host) for host in hosts], entry.name
    for protocol in LZR_PROTOCOLS:
        got = grid.gather(grid.row(("first", protocol)), columns).tolist()
        want = [protocol_first_payload(protocol, host) for host in hosts]
        assert got == want, protocol
    # Per-session rows gather in one call; repeated cells are shared.
    names = tuple(entry.name for entry in HTTP_CORPUS[:3])
    picks = np.array([2, 0, 1, 1, 0], dtype=np.int64)
    got = grid.gather(grid.http_rows(names)[picks], columns).tolist()
    assert got == [http_payload(names[p]).render(h) for p, h in zip(picks.tolist(), hosts)]


def test_payload_grid_renders_host_sized_bodies_per_host(monkeypatch):
    # A body embedding the host under a computed Content-Length cannot
    # be split around the host field; the grid renders such keys whole.
    template = "POST /x HTTP/1.1\nHost: {host}\nContent-Length: {content_length}\n\nh={host}"
    entry = HttpPayload("host-body", template, malicious=False)
    monkeypatch.setattr(scanner_base, "http_payload", lambda name: entry)
    grid = PayloadGrid(_HOSTS)
    got = grid.gather(grid.row(("http", "host-body")), grid.columns(_HOSTS)).tolist()
    assert got == [render_http(template, int_to_ip(int(ip))) for ip in _HOSTS]
    assert len({len(payload) for payload in got}) > 1


def test_payload_grid_rejects_foreign_destinations():
    grid = PayloadGrid(_HOSTS[:2])
    with pytest.raises(KeyError):
        grid.columns(_HOSTS)


def test_rounded_str_matches_round_then_str():
    rng = np.random.default_rng(3)
    values = (
        (rng.random(200_000) * 168).tolist()
        + (rng.random(20_000) * 1e-3).tolist()
        + [0.0, 1e-4, 9.9995e-5, 5e-5, 5e-7, 1.5e-6, 167.9999995, 2.0000005, 1e15, 3e15]
    )
    assert [_rounded_str(value) for value in values] == [str(round(v, 6)) for v in values]


@pytest.mark.parametrize("accept", [0.0, 0.35, 1.0])
def test_cowrie_batch_accepts_exactly_the_scalar_logins(accept):
    rng = np.random.default_rng(9)
    count = 400
    credentials = np.empty(count, dtype=object)
    credentials[:] = [(("root", "x"),) if flag else () for flag in rng.random(count) < 0.7]
    commands = np.empty(count, dtype=object)
    commands[:] = [("uname",) if flag else () for flag in rng.random(count) < 0.8]
    batch = IntentBatch(
        dst_port=22, transport=Transport.TCP, protocol="ssh",
        timestamps=rng.random(count) * 168,
        src_ips=rng.integers(0, 2**32, count), dst_ips=rng.integers(0, 2**32, count),
        payloads=np.array([b"SSH-2.0-Go\r\n"] * count, dtype=object),
        credentials=credentials, commands=commands,
    )
    stack = CowrieStack(accept_login_probability=accept, seed=4)
    got = stack.capture_batch_columns(batch, np.zeros(count, dtype=np.int64))["commands"]

    def accepts(row):
        draw = stable_hash64(
            4, "cowrie-login", int(batch.src_ips[row]), int(batch.dst_ips[row]),
            round(float(batch.timestamps[row]), 6),
        ) / float(1 << 64)
        return accept >= 1.0 or draw < accept

    want = [
        batch.commands[row]
        if batch.credentials[row] and batch.commands[row] and accepts(row)
        else ()
        for row in range(count)
    ]
    assert (list(got) if isinstance(got, np.ndarray) else [got] * count) == want
    if 0.0 < accept < 1.0:
        assert 0 < sum(bool(value) for value in want) < count


def _fresh_dataset(context) -> AnalysisDataset:
    result = context.result
    return AnalysisDataset.from_simulation(result)


def test_reports_are_memoized_and_callers_get_private_containers(small_context):
    dataset = _fresh_dataset(small_context)
    first = neighborhood_report(dataset)
    first.cells.clear()
    assert neighborhood_report(dataset).cells  # the shared result is untouched
    assert neighborhood_report(dataset).cells == neighborhood_report(dataset).cells

    rows = leak_report(dataset)
    rows.pop()
    assert len(leak_report(dataset)) == len(rows) + 1

    summaries = geo_similarity(dataset)
    summaries.clear()
    assert geo_similarity(dataset)

    breakdown = protocol_breakdown(dataset)
    breakdown[0].unexpected_protocols.clear()
    assert protocol_breakdown(dataset)[0].unexpected_protocols

    # Memoized values equal a fresh computation on an unmemoized dataset.
    fresh = _fresh_dataset(small_context)
    assert protocol_breakdown(dataset) == protocol_breakdown(fresh)
    assert geo_similarity(dataset) == geo_similarity(_fresh_dataset(small_context))


def test_label_and_oracle_never_intern_credential_pairs(small_context):
    dataset = _fresh_dataset(small_context)
    oracle = dataset.reputation_oracle()
    coder = dataset_coder(dataset)
    assert oracle._malicious_ips
    assert coder.user_values == [] and coder.pass_values == []
    assert not coder._pair_memo
    for table in dataset.tables.values():
        if len(table):
            flags = coder.malicious(table)
            assert flags.dtype == bool and len(flags) == len(table)
    assert coder.user_values == [] and coder.pass_values == []
