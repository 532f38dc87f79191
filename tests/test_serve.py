"""The repro.serve query layer: schema contracts, the HTTP wire, and
bit-for-bit parity between served answers and the batch analyses.

The parity oracle is an *independent* in-process simulation at the same
fixed seed (``get_context``): the sharded run directory the server
reads was produced by the orchestrator, so agreement here exercises the
whole chain — shard spill → lazy merge → serve — against values computed
without any serve code in the loop.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, get_context
from repro.experiments.context import _WINDOWS
from repro.runner import orchestrate
from repro.serve import (
    QueryServer,
    RunDirBackend,
    SchemaError,
    ServeOptions,
    run_load,
)
from repro.serve import http
from repro.serve.backends import build_live_pipeline
from repro.serve.schema import (
    Characteristic,
    IpQuery,
    SimulationPayload,
    TopQuery,
    parse_ip,
    validate_simulation_config,
)
from repro.stats.topk import top_k, union_table
from repro.stats.contingency import chi_square_test
from repro.stats.volume import hourly_volumes

#: Same fixed-seed tiny-but-real config the watch tests pin.
TINY = ExperimentConfig(year=2021, scale=0.05, telescope_slash24s=4, seed=5)

#: sha256 over the run-dir ``/top`` and ``/compare`` bodies of TINY's
#: 2-shard run (``test_top_and_compare_answers_are_pinned``).
RUN_DIR_COUNT_ANSWERS = "defee5424a649fc5bfe00ea2dc7e325e1e8867d6a6a0183c47c9e012c5017499"

#: A connection handler finalized after its loop closed surfaces only as
#: an unraisable exception; here it fails the test that collects it.
pytestmark = pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("serve") / "run"
    run = orchestrate(TINY, workers=1, out_dir=out, num_shards=2, quiet=True)
    assert not run.partial
    return out


@pytest.fixture(scope="module")
def batch():
    """The independent batch truth (in-process, no shards, no serving)."""
    return get_context(TINY)


# ---------------------------------------------------------------------------
# a minimal keep-alive test client
# ---------------------------------------------------------------------------


class _Client:
    def __init__(self, port: int) -> None:
        self.port = port

    async def __aenter__(self) -> "_Client":
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def get(self, path: str, headers: dict | None = None):
        """One request on the persistent connection.

        Returns (status, response-headers, parsed-JSON-or-None).
        """
        extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
        self.writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n{extra}\r\n".encode())
        await self.writer.drain()
        status_line = await self.reader.readline()
        status = int(status_line.split()[1])
        response_headers: dict[str, str] = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.partition(b":")
            response_headers[name.strip().lower().decode()] = value.strip().decode()
        length = int(response_headers.get("content-length", "0"))
        body = await self.reader.readexactly(length) if length else b""
        return status, response_headers, json.loads(body) if body else None


async def _one_shot(port: int, path: str, headers: dict | None = None):
    async with _Client(port) as client:
        return await client.get(path, headers)


# ---------------------------------------------------------------------------
# schema contracts
# ---------------------------------------------------------------------------


class TestSchema:
    def test_parse_ip_forms(self):
        assert parse_ip("10.0.0.1") == (10 << 24) + 1
        assert parse_ip("167772161") == (10 << 24) + 1
        for bad in ["", "10.0.0", "10.0.0.0.1", "999.0.0.1", "a.b.c.d",
                    str(1 << 32)]:
            with pytest.raises(SchemaError):
                parse_ip(bad)

    def test_top_query_parses_with_default_k(self):
        query = TopQuery.parse({"vantage": "gn-aws-AF-ZA-0", "characteristic": "as"})
        assert query.k == 3
        assert query.characteristic is Characteristic.AS

    def test_unknown_parameter_rejected(self):
        with pytest.raises(SchemaError) as info:
            TopQuery.parse({"vantage": "v", "characteristic": "as", "kk": "3"})
        assert info.value.errors[0]["field"] == "kk"
        assert info.value.errors[0]["message"] == "unexpected parameter"

    def test_out_of_range_k_rejected(self):
        with pytest.raises(SchemaError) as info:
            TopQuery.parse({"vantage": "v", "characteristic": "as", "k": "65"})
        assert "out of range" in info.value.errors[0]["message"]

    def test_error_list_accumulates_every_violation(self):
        with pytest.raises(SchemaError) as info:
            TopQuery.parse({"characteristic": "shoe-size", "k": "0"})
        fields = {item["field"] for item in info.value.errors}
        assert fields == {"vantage", "characteristic", "k"}

    def test_ip_query_structured_error(self):
        with pytest.raises(SchemaError) as info:
            IpQuery.parse({"ip": "300.1.2.3"})
        assert info.value.as_dict()["error"] == "validation"

    def test_simulation_payload_collects_all_violations(self):
        errors = SimulationPayload(year=1999, scale=0.0,
                                   telescope_slash24s=0, seed=-1).validate()
        assert {item["field"] for item in errors} == {
            "year", "scale", "telescope_slash24s", "seed"
        }
        with pytest.raises(SchemaError):
            SimulationPayload(year=1999).to_config()

    def test_simulation_contract_builds_experiment_config(self):
        config = validate_simulation_config(
            year=2021, scale=0.05, telescope_slash24s=4, seed=5
        )
        assert config == TINY

    def test_cli_rejects_bad_simulation_config(self, capsys):
        from repro.cli import main

        assert main(["watch", "--simulate", "--scale", "-2"]) == 2
        err = capsys.readouterr().err
        assert "scale" in err and "must be in" in err

    def test_telescope_bound_is_the_builders(self):
        # Orion's real 1,856 /24s is the largest telescope build_telescope
        # lays out; one more must fail at the contract, not in the builder.
        config = validate_simulation_config(scale=0.01, telescope_slash24s=1856)
        assert config.telescope_slash24s == 1856
        with pytest.raises(SchemaError) as info:
            validate_simulation_config(scale=0.01, telescope_slash24s=1857)
        assert [item["field"] for item in info.value.errors] == ["telescope_slash24s"]

    def test_cli_rejects_telescope_the_builder_cannot_lay_out(self, capsys):
        from repro.cli import main

        assert main(["run", "T1", "--scale", "0.01", "--telescope", "1857"]) == 2
        err = capsys.readouterr().err
        assert "error: telescope_slash24s: must be in [1, 1856]" in err


# ---------------------------------------------------------------------------
# run-dir backend: bit-for-bit parity with the batch analyses
# ---------------------------------------------------------------------------


def _batch_counter(table, characteristic: str):
    """Batch category counts, straight off the independent dataset."""
    from collections import Counter

    from repro.scanners.payloads import strip_ephemeral_headers

    counts: Counter = Counter()
    if characteristic == "as":
        values, occurrences = np.unique(table.src_asn, return_counts=True)
        counts.update(dict(zip((int(v) for v in values),
                               (int(c) for c in occurrences))))
    elif characteristic == "payload":
        for payload in table.payloads:
            if payload:
                counts[strip_ephemeral_headers(payload)] += 1
    else:
        slot = 0 if characteristic == "username" else 1
        for pairs in table.credentials:
            for pair in pairs:
                counts[pair[slot]] += 1
    return counts


class TestRunDirParity:
    def test_concurrent_clients_match_batch_bit_for_bit(self, run_dir, batch):
        backend = RunDirBackend(run_dir)
        tables = batch.dataset.tables
        hours = _WINDOWS[TINY.year].hours
        busiest = max(tables, key=lambda v: len(tables[v]))
        oracle = batch.dataset.reputation_oracle()
        malicious_ip = min(oracle.malicious_ips())

        # Expected values, computed with zero serve code in the loop.
        table = tables[busiest]
        expected = {}
        for characteristic in ("as", "username", "password", "payload"):
            counts = _batch_counter(table, characteristic)
            expected[f"/top?vantage={busiest}&characteristic={characteristic}&k=3"] = [
                (float(counts[category])) for category in top_k(counts, 3)
            ]
        expected_series = [
            float(v) for v in hourly_volumes(table.timestamps, hours)
        ]
        expected_cardinality = float(len(np.unique(table.src_ip)))
        group_counts = {
            vantage_id: _batch_counter(tables[vantage_id], "username")
            for vantage_id in sorted(tables)
        }
        contingency, _groups, _categories = union_table(group_counts, 3)
        expected_chi = chi_square_test(contingency)
        expected_events = sum(len(t) for t in tables.values())

        urls = list(expected) + [
            f"/volumes?vantage={busiest}",
            f"/cardinality?vantage={busiest}",
            "/compare?characteristic=username&k=3",
            f"/ip?ip={malicious_ip}",
            "/healthz",
        ]

        async def _scenario():
            async with QueryServer(backend, ServeOptions()) as server:
                async def _one_client(offset: int):
                    results = {}
                    async with _Client(server.port) as client:
                        for round_trip in range(2):  # keep-alive reuse
                            for position in range(len(urls)):
                                url = urls[(position + offset) % len(urls)]
                                status, _headers, body = await client.get(url)
                                assert status == 200
                                results[url] = body
                    return results

                return await asyncio.gather(*(_one_client(i) for i in range(6)))

        all_results = asyncio.run(_scenario())
        assert len(all_results) == 6
        first = all_results[0]
        for other in all_results[1:]:  # every client saw identical bytes
            assert other == first

        for url, counts in expected.items():
            body = first[url]
            assert body["exact"] is True
            assert [c["count"] for c in body["categories"]] == counts
        volumes = first[f"/volumes?vantage={busiest}"]
        assert volumes["series"] == expected_series
        cardinality = first[f"/cardinality?vantage={busiest}"]
        assert cardinality["distinct_sources"][busiest] == expected_cardinality
        compare = first["/compare?characteristic=username&k=3"]
        assert compare["chi_square"]["statistic"] == float(expected_chi.statistic)
        assert compare["chi_square"]["p_value"] == float(expected_chi.p_value)
        assert compare["chi_square"]["phi"] == float(expected_chi.phi)
        assert compare["chi_square"]["dof"] == int(expected_chi.dof)
        classified = first[f"/ip?ip={malicious_ip}"]
        assert classified["reputation"] == "malicious"
        assert classified["seen"] is True
        assert classified["asn"] == int(oracle._seen_ips[malicious_ip])
        assert first["/healthz"]["events"] == expected_events

    def test_alarms_match_streaming_leak_alarm_on_batch_tables(self, run_dir, batch):
        from repro.stream.windows import StreamingLeakAlarm

        backend = RunDirBackend(run_dir)
        hours = _WINDOWS[TINY.year].hours
        alarm = StreamingLeakAlarm(batch.deployment.leak_experiment, hours)
        watermark = 0.0
        for vantage_id in sorted(batch.dataset.tables):
            table = batch.dataset.tables[vantage_id]
            alarm.observe(table.dst_ip, table.dst_port,
                          table.src_asn, table.timestamps)
            if len(table):
                watermark = max(watermark, float(table.timestamps.max()))
        alarm.windows.watermark = max(alarm.windows.watermark, watermark)
        expected = alarm.evaluate(None)
        assert expected, "fixture must produce at least one alarm row"

        body = backend.handle("/alarms", {})
        assert body["enabled"] is True
        assert len(body["alarms"]) == len(expected)
        for got, want in zip(body["alarms"], expected):
            assert got["service"] == want.service
            assert got["group"] == want.group
            assert got["fold"] == float(want.fold)
            assert got["mwu_p"] == float(want.mwu_p)
            assert got["ks_p"] == float(want.ks_p)
            assert got["stochastically_greater"] == bool(want.stochastically_greater)

    def test_unknown_run_dir_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunDirBackend(tmp_path / "nope")

    def test_top_and_compare_answers_are_pinned(self, run_dir):
        """Every exact count answer of the tiny run dir, byte for byte:
        ``/top`` for each vantage × characteristic at k = 3 and 64, and
        ``/compare`` for each characteristic at k = 3."""
        backend = RunDirBackend(run_dir)
        digest = hashlib.sha256()
        characteristics = [member.value for member in Characteristic]
        for vantage in sorted(backend.dataset.tables):
            for characteristic in characteristics:
                for k in ("3", "64"):
                    body = backend.handle("/top", {
                        "vantage": vantage, "characteristic": characteristic, "k": k,
                    })
                    digest.update(json.dumps(body, sort_keys=True).encode())
        for characteristic in characteristics:
            body = backend.handle("/compare", {"characteristic": characteristic, "k": "3"})
            digest.update(json.dumps(body, sort_keys=True).encode())
        assert digest.hexdigest() == RUN_DIR_COUNT_ANSWERS


# ---------------------------------------------------------------------------
# the wire: structured 400s, 404/405, ETag/304, caching
# ---------------------------------------------------------------------------


class TestWire:
    @pytest.fixture(scope="class")
    def server_port(self, run_dir):
        backend = RunDirBackend(run_dir)
        loop = asyncio.new_event_loop()
        server = QueryServer(backend, ServeOptions())
        loop.run_until_complete(server.start())
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        yield server.port, server
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        assert not thread.is_alive()
        loop.close()

    def _get(self, port: int, path: str, headers: dict | None = None):
        return asyncio.run(_one_shot(port, path, headers))

    def test_bad_ip_is_structured_400(self, server_port):
        port, _server = server_port
        status, _headers, body = self._get(port, "/ip?ip=999.1.2.3")
        assert status == 400
        assert body["error"] == "validation"
        assert body["errors"][0]["field"] == "ip"

    def test_unknown_vantage_is_structured_400(self, server_port):
        port, _server = server_port
        status, _headers, body = self._get(
            port, "/top?vantage=gn-mars-XX-0&characteristic=as"
        )
        assert status == 400
        assert body["errors"][0]["message"] == "unknown vantage"

    def test_out_of_range_k_is_structured_400(self, server_port):
        port, _server = server_port
        status, _headers, body = self._get(
            port, "/compare?characteristic=as&k=4096"
        )
        assert status == 400
        assert body["errors"][0]["field"] == "k"

    def test_unknown_path_404_and_method_405(self, server_port):
        port, _server = server_port
        status, _headers, body = self._get(port, "/telemetry")
        assert status == 404 and body["error"] == "not found"

        async def _post():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"POST /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            line = await reader.readline()
            writer.close()
            return int(line.split()[1])

        assert asyncio.run(_post()) == 405

    def test_etag_round_trip_yields_304(self, server_port):
        port, server = server_port
        status, headers, body = self._get(port, "/vantages")
        assert status == 200 and body is not None
        etag = headers["etag"]
        hits_before = server.stats.cache_hits
        status, headers, body = self._get(port, "/vantages",
                                          {"If-None-Match": etag})
        assert status == 304
        assert body is None
        status, _headers, _body = self._get(port, "/vantages")
        assert status == 200
        assert server.stats.cache_hits > hits_before
        assert server.stats.not_modified >= 1

    def test_duplicate_parameter_rejected(self, server_port):
        port, _server = server_port
        status, _headers, body = self._get(port, "/cardinality?vantage=a&vantage=b")
        assert status == 400
        assert body["errors"][0]["message"] == "duplicate parameter"

    def test_stats_is_recomputed_on_every_read(self, server_port, batch):
        """/stats reports moving counters: never an ETag, never a cache
        hit, and the wire's ServerStats ride along."""
        port, _server = server_port
        status, headers, first = self._get(port, "/stats")
        assert status == 200 and "etag" not in headers
        vantage = sorted(batch.dataset.tables)[0]
        for characteristic in ("as", "username"):
            self._get(port, f"/top?vantage={vantage}&characteristic={characteristic}")
        _status, _headers, second = self._get(port, "/stats")
        assert second["memoized_counters"] >= first["memoized_counters"] + 1
        assert (second["server"]["requests_served"]
                >= first["server"]["requests_served"] + 3)
        assert second["server"]["cache_misses"] > first["server"]["cache_misses"]


# ---------------------------------------------------------------------------
# live backend: queries during ingest, zero drops
# ---------------------------------------------------------------------------


class TestLiveBackend:
    def test_queries_during_ingest_cause_zero_drops(self, batch):
        from repro.deployment.fleet import build_full_deployment
        from repro.scanners.population import PopulationConfig, build_population
        from repro.sim.engine import SimulationConfig, run_simulation
        from repro.sim.rng import RngHub

        # A fresh deployment: the cached context's must not be re-simulated.
        deployment = build_full_deployment(
            RngHub(TINY.seed), num_telescope_slash24s=TINY.telescope_slash24s
        )
        bus, analyzer, tracker, backend = build_live_pipeline(
            _WINDOWS[TINY.year].hours,
            leak_experiment=deployment.leak_experiment,
        )
        population = build_population(
            PopulationConfig(year=TINY.year, scale=TINY.scale)
        )

        async def _scenario():
            async with QueryServer(backend, ServeOptions()) as server:
                ingest = threading.Thread(
                    target=lambda: (
                        run_simulation(
                            deployment,
                            population,
                            SimulationConfig(seed=TINY.seed,
                                             window=_WINDOWS[TINY.year]),
                            tap=bus.publish,
                        ),
                        bus.close(),
                    ),
                    daemon=True,
                )
                ingest.start()
                queries = 0
                while True:
                    report = await run_load(
                        "127.0.0.1", server.port,
                        ["/healthz", "/vantages", "/stats", "/cardinality"],
                        connections=8, duration_seconds=0.3,
                    )
                    queries += report.requests
                    assert report.errors == 0
                    if not ingest.is_alive():
                        break
                ingest.join()
                return queries

        queries = asyncio.run(_scenario())
        assert queries > 0
        # The acceptance bar: live-mode queries during ingest cause zero
        # stream drops at the default queue size.
        assert bus.stats.dropped_events == 0
        assert bus.stats.dropped_chunks == 0
        assert analyzer.events_consumed == bus.stats.published_events
        assert analyzer.events_consumed == batch.result.total_events()

    def test_live_answers_are_labeled_estimates(self, batch):
        from repro.stream.watch import stream_table

        bus, analyzer, tracker, backend = build_live_pipeline(
            _WINDOWS[TINY.year].hours
        )
        tables = batch.dataset.tables
        busiest = max(tables, key=lambda v: len(tables[v]))
        stream_table(bus, tables[busiest], 1024)
        bus.close()

        body = backend.handle(
            "/top", {"vantage": busiest, "characteristic": "as", "k": "3"}
        )
        assert body["exact"] is False
        assert body["error_bound"] >= 0.0
        assert len(body["categories"]) == 3
        stats = backend.handle("/stats", {})
        assert stats["bus"]["dropped_events"] == 0
        assert stats["reputation"]["tracked_ips"] == len(tracker)

    def test_tracker_matches_batch_reputation_for_malicious_ips(self, batch):
        from repro.stream.watch import stream_table

        bus, _analyzer, tracker, backend = build_live_pipeline(
            _WINDOWS[TINY.year].hours
        )
        for vantage_id in sorted(batch.dataset.tables):
            stream_table(bus, batch.dataset.tables[vantage_id], 4096)
        bus.close()

        oracle = batch.dataset.reputation_oracle()
        sample = sorted(oracle.malicious_ips())[:25]
        for ip in sample:
            answer = backend.handle("/ip", {"ip": str(ip)})
            assert answer["seen"] is True
            assert answer["reputation"] == "malicious"

    def test_tracker_capacity_is_bounded(self):
        from repro.io.table import EventTable
        from repro.net.packets import Transport
        from repro.serve.backends import ReputationTracker
        from repro.stream.bus import StreamBus
        from repro.stream.watch import stream_table

        tracker = ReputationTracker(capacity=10)
        bus = StreamBus()
        bus.subscribe(tracker)
        table = EventTable("t", "aws", None, "US-CA")
        # 50 distinct benign sources through a capacity-10 tracker.
        count = 50
        table.append_batch(
            timestamps=np.linspace(0.0, 1.0, count),
            src_ips=np.arange(1, count + 1, dtype=np.uint32),
            src_asns=np.full(count, 64500, dtype=np.uint32),
            dst_ips=np.full(count, 1, dtype=np.uint32),
            dst_port=80,
            transport=Transport.TCP,
            handshake=True,
            payloads=b"",
        )
        stream_table(bus, table, 16)
        bus.close()
        assert len(tracker) == 10
        assert tracker.evicted == 40


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------


class TestDrain:
    def test_stop_drains_idle_keepalive_connections(self, run_dir):
        backend = RunDirBackend(run_dir)

        async def _scenario():
            server = QueryServer(
                backend, ServeOptions(drain_timeout=0.5, read_timeout=30.0)
            )
            await server.start()
            client = _Client(server.port)
            await client.__aenter__()
            status, _headers, _body = await client.get("/healthz")
            assert status == 200
            # The connection now idles in keep-alive; stop() must not
            # hang for the full read timeout.
            loop = asyncio.get_running_loop()
            started = loop.time()
            await server.stop()
            elapsed = loop.time() - started
            assert elapsed < 5.0
            assert server.stats.active_connections == 0
            await client.__aexit__()

        asyncio.run(_scenario())

    def test_connections_beyond_cap_get_503(self, run_dir):
        backend = RunDirBackend(run_dir)

        async def _scenario():
            async with QueryServer(
                backend, ServeOptions(max_connections=2)
            ) as server:
                first = _Client(server.port)
                second = _Client(server.port)
                await first.__aenter__()
                await second.__aenter__()
                assert (await first.get("/healthz"))[0] == 200
                assert (await second.get("/healthz"))[0] == 200
                status, _headers, body = await _one_shot(server.port, "/healthz")
                assert status == 503
                assert body["error"] == "overloaded"
                await first.__aexit__()
                await second.__aexit__()
                assert server.stats.rejected_connections == 1

        asyncio.run(_scenario())

    def test_stop_waits_for_rejected_handlers(self, run_dir, monkeypatch):
        """A 503'd connection is not an active one, but its handler must
        still finish before stop() returns."""
        backend = RunDirBackend(run_dir)
        close_quietly = http._close_quietly
        release = asyncio.Event()
        parked, finished = [], []

        async def _park_first_close(writer):
            if parked:
                await close_quietly(writer)
                return
            parked.append(writer)
            await release.wait()
            await close_quietly(writer)
            finished.append(writer)

        monkeypatch.setattr(http, "_close_quietly", _park_first_close)

        async def _until(condition):
            while not condition():
                await asyncio.sleep(0.01)

        async def _scenario():
            server = QueryServer(backend, ServeOptions(max_connections=1))
            await server.start()
            async with _Client(server.port) as first:
                assert (await first.get("/healthz"))[0] == 200
                status, _headers, _body = await _one_shot(server.port, "/healthz")
                assert status == 503
            await asyncio.wait_for(
                _until(lambda: server.stats.active_connections == 0), timeout=5
            )
            assert parked and not finished  # the rejected handler is parked
            asyncio.get_running_loop().call_later(0.2, release.set)
            await asyncio.wait_for(server.stop(), timeout=15)
            assert finished

        asyncio.run(_scenario())


class TestSignalStop:
    def test_sigint_drains_when_started_with_sigint_ignored(self, run_dir):
        """A background job of a non-interactive shell starts with SIGINT
        ignored; ``serve`` must still stop on SIGINT, drain and exit 0."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        ))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--run-dir", str(run_dir),
             "--port", "0", "--duration", "120"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            assert server.stdout.readline().startswith("serving ")
            server.send_signal(signal.SIGINT)
            output, _ = server.communicate(timeout=15)
        finally:
            server.kill()
            server.wait()
        assert server.returncode == 0
        assert "drained cleanly" in output
