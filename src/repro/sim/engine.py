"""The traffic-simulation engine.

The engine interprets a declarative :class:`~repro.scanners.base.ScannerSpec`
population against a deployed vantage fleet:

1. **Source allocation** — each campaign gets stable source IPs inside
   its origin AS.
2. **Crawl phase** — the Censys/Shodan models crawl every responding
   vantage point (subject to the leak experiment's blocklists) and build
   their service indexes.
3. **Attack phase** — per (campaign, port), a weight vector over all
   observable destinations is computed from the campaign's strategy;
   session counts are Poisson draws; the sessions toward honeypots form
   one :class:`~repro.sim.events.IntentBatch` whose per-vantage runs are
   captured column-wise by each vantage's capture stack.  Telescope
   destinations are recorded through the aggregated
   :class:`~repro.honeypots.telescope.TelescopeCapture` (telescopes
   never capture payloads, so none are synthesized).
4. **Search-engine-driven phase** — campaigns that mine an index send
   spike bursts at the services it lists (or, in ``avoid`` mode, have
   already had listed destinations zeroed out of their weights).

Everything is deterministic given (seed, population, deployment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro.honeypots.base import VantageCapture, VantagePoint
from repro.io.table import ConsolidationGroup, EventTable

if TYPE_CHECKING:  # imported lazily to avoid a deployment<->sim cycle
    from repro.deployment.fleet import Deployment
from repro.honeypots.telescope import TelescopeCapture
from repro.net.asn import ASRegistry, default_registry
from repro.net.ports import IANA_ASSIGNMENTS
from repro.scanners.base import PayloadGrid, PortPlan, ScannerSpec
from repro.scanners.strategies import KIND_INDEX, TargetSet
from repro.searchengines.index import SearchEngine
from repro.sim.clock import ObservationWindow, WEEK_2021
from repro.sim.rng import RngHub

__all__ = ["SimulationConfig", "SimulationResult", "Simulator", "run_simulation"]

#: Hour the search engines crawled the fleet: a day before the window.
_CRAWL_TIME = -24.0
#: Hour they crawl the leak experiment's services: at experiment start.
_LEAK_CRAWL_TIME = 2.0


@dataclass
class SimulationConfig:
    """Tunable simulation parameters."""

    seed: int = 20230701
    window: ObservationWindow = WEEK_2021
    max_sessions_per_pair: int = 512  # safety valve against runaway rates


@dataclass
class SimulationResult:
    """Everything a simulation produced.

    ``captures`` maps vantage_id → honeypot capture; ``telescope`` is the
    aggregated telescope dataset; ``engines`` are the post-crawl search
    engines.  ``population`` and ``source_ips`` are ground truth for
    calibration/validation only — analyses must not read them.
    """

    config: SimulationConfig
    deployment: Deployment
    registry: ASRegistry
    captures: dict[str, VantageCapture]
    telescope: Optional[TelescopeCapture]
    engines: dict[str, SearchEngine]
    population: list[ScannerSpec]
    source_ips: dict[str, np.ndarray]

    @property
    def window(self) -> ObservationWindow:
        return self.config.window

    def events(self) -> Iterable:
        """All honeypot events across vantages (telescope excluded),
        streamed: no table keeps the row objects."""
        for capture in self.captures.values():
            yield from capture.table.iter_events()

    def tables(self) -> dict[str, "EventTable"]:
        """Columnar per-vantage event tables (the zero-copy view)."""
        return {
            vantage_id: capture.table for vantage_id, capture in self.captures.items()
        }

    def honeypot_vantages(self) -> list[VantagePoint]:
        return list(self.deployment.honeypots)

    def total_events(self) -> int:
        return sum(len(capture) for capture in self.captures.values())


class Simulator:
    """Drives one simulation run.  See module docstring for phases."""

    def __init__(
        self,
        deployment: Deployment,
        population: Sequence[ScannerSpec],
        config: SimulationConfig | None = None,
        registry: ASRegistry | None = None,
        spec_slice: Optional[tuple[int, int]] = None,
        enforcer: Optional[object] = None,
    ) -> None:
        self.deployment = deployment
        self.population = list(population)
        self.config = config or SimulationConfig()
        self.registry = registry or default_registry()
        #: Optional mid-run blocklist (anything with ``keep_mask(timestamps,
        #: src_asns, src_ips)``, e.g. :class:`repro.incident.ActiveBlocklist`).
        #: Applied to honeypot intent batches *after* every RNG draw, so an
        #: enforced run consumes the identical random stream as the baseline
        #: and captures exactly the baseline's events minus the blocked rows.
        #: The telescope is passive and stays unfiltered.  Deliberately a
        #: run parameter, not part of :class:`SimulationConfig` — config
        #: digests (orchestrator manifests, caches) name the *traffic*,
        #: which enforcement does not change.
        self.enforcer = enforcer
        if spec_slice is not None:
            lo, hi = spec_slice
            if not 0 <= lo <= hi <= len(self.population):
                raise ValueError(
                    f"spec_slice {spec_slice!r} out of range for "
                    f"{len(self.population)} specs"
                )
        #: Half-open ``[lo, hi)`` population slice to simulate (None =
        #: everything).  Shard workers use this: source allocation still
        #: covers the *full* population in order — the AS registry's
        #: allocation cursor is order-dependent — and every per-campaign
        #: RNG stream is forked by (seed, scanner_id, port), so the slice
        #: produces exactly the events the full run would produce for
        #: those campaigns.
        self.spec_slice = spec_slice
        self.hub = RngHub(self.config.seed)
        self._target_sets: dict[int, TargetSet] = {}
        self._honeypot_counts: dict[int, int] = {}
        # Per port: honeypot vantages in index order + an int32 array
        # mapping each honeypot target index to its vantage's ordinal
        # (vantages occupy contiguous index runs by construction).
        self._port_vantages: dict[int, list[VantagePoint]] = {}
        self._vantage_positions: dict[int, np.ndarray] = {}
        self._honeypot_ip_cache: Optional[dict[int, VantagePoint]] = None
        # Sorted listed-IP arrays per (engine, port) for avoidance masks.
        self._listed_ip_cache: dict[tuple[str, int], np.ndarray] = {}
        # Columnar (ips, ports, first_indexed) view of an engine's index.
        self._engine_entry_cache: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # Rendered payloads per (payload key, honeypot address), filled
        # lazily by every campaign's intent batches.
        self._payload_grid: Optional[PayloadGrid] = None
        # Per port, for the current run: each port vantage's capture, its
        # table's group ordinal, and its capture-policy id (see :meth:`_route`).
        self._routes: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # phase 1: sources
    # ------------------------------------------------------------------

    def _allocate_sources(self) -> dict[str, np.ndarray]:
        return {
            spec.scanner_id: self.registry.allocate_sources(spec.asn, spec.num_sources)
            for spec in self.population
        }

    # ------------------------------------------------------------------
    # phase 2: crawl
    # ------------------------------------------------------------------

    def _build_engines(self) -> dict[str, SearchEngine]:
        engines = {
            "censys": SearchEngine("censys", crawler_asn=398324),
            "shodan": SearchEngine("shodan", crawler_asn=10439),
        }
        experiment = self.deployment.leak_experiment
        if experiment is not None:
            self._configure_leak_blocking(engines, experiment)
        # Membership is a property of the vantage, not the engine: compute
        # the experiment crawl time once per vantage instead of re-scanning
        # the experiment IP set per (engine, vantage) pair.
        if experiment is not None:
            experiment_ips = np.sort(np.fromiter(experiment.all_ips, dtype=np.int64))
        else:
            experiment_ips = np.empty(0, dtype=np.int64)
        crawl_times = {}
        for vantage in self.deployment.honeypots:
            in_experiment = bool(
                np.isin(vantage.ips.astype(np.int64), experiment_ips).any()
            )
            # Experiment honeypots come online (and leak) at the start
            # of the window; the rest of the fleet was indexed long ago.
            crawl_times[vantage.vantage_id] = (
                _LEAK_CRAWL_TIME if in_experiment else _CRAWL_TIME
            )
        for engine in engines.values():
            for vantage in self.deployment.honeypots:
                engine.crawl_vantage(
                    vantage, crawl_times[vantage.vantage_id], IANA_ASSIGNMENTS
                )
            if self.deployment.telescope is not None:
                engine.crawl_vantage(
                    self.deployment.telescope, _CRAWL_TIME, IANA_ASSIGNMENTS
                )
        return engines

    def _configure_leak_blocking(
        self, engines: dict[str, SearchEngine], experiment
    ) -> None:
        """Apply the Section 4.3 blocklists.

        Control and previously-leaked IPs block both engines outright
        (previously-leaked ones additionally carry a years-old historical
        HTTP/80 index entry).  Each leaked IP blocks everything except its
        group's (engine, port) combination.
        """
        for engine in engines.values():
            engine.block(experiment.control_ips)
            engine.block(experiment.previously_leaked_ips)
        for ip in experiment.previously_leaked_ips:
            for engine in engines.values():
                engine.seed_historical(ip, 80, "http", hours_before=2 * 365 * 24)
        for group in experiment.leak_groups:
            for ip in group.ips:
                for engine_name, engine in engines.items():
                    for port in engine.crawl_ports:
                        if engine_name == group.engine and port == group.port:
                            continue
                        engine.block_service(ip, port)

    # ------------------------------------------------------------------
    # phase 3: targets
    # ------------------------------------------------------------------

    def _target_set_for(self, port: int) -> TargetSet:
        cached = self._target_sets.get(port)
        if cached is not None:
            return cached

        port_vantages = [
            vantage for vantage in self.deployment.honeypots if vantage.stack.observes(port)
        ]
        # Honeypot indices first, in deployment order; the telescope (the
        # aggregated bulk path) occupies the tail.
        members = list(port_vantages)
        if self.deployment.telescope is not None:
            members.append(self.deployment.telescope)
        if not members:
            raise RuntimeError(f"no vantage observes port {port}")
        counts = [vantage.num_ips for vantage in members]

        def _per_index(values: list, dtype) -> np.ndarray:
            return np.repeat(np.array(values, dtype=dtype), counts)

        targets = TargetSet(
            ips=np.concatenate([vantage.ips for vantage in members]),
            kind_codes=_per_index([KIND_INDEX[vantage.kind] for vantage in members], np.int8),
            regions=_per_index([vantage.region_code for vantage in members], object),
            continents=_per_index([vantage.continent for vantage in members], object),
            networks=_per_index([vantage.network for vantage in members], object),
        )
        self._target_sets[port] = targets
        self._honeypot_counts[port] = sum(counts[: len(port_vantages)])
        self._port_vantages[port] = port_vantages
        self._vantage_positions[port] = np.repeat(
            np.arange(len(port_vantages), dtype=np.int32), counts[: len(port_vantages)]
        )
        return targets

    # ------------------------------------------------------------------
    # phase 4: traffic
    # ------------------------------------------------------------------

    def run(
        self,
        source_ips: Optional[dict[str, np.ndarray]] = None,
        engines: Optional[dict[str, SearchEngine]] = None,
        tap: Optional[callable] = None,
    ) -> SimulationResult:
        """Run the simulation, optionally reusing precomputed phase-1/2 state.

        ``source_ips`` and ``engines`` accept the products of
        :meth:`_allocate_sources` and :meth:`_build_engines` computed by
        an equivalent simulator (same deployment, population, and
        config).  Both phases are deterministic, so injecting them is
        purely an optimization — the orchestrator's forked shard workers
        inherit them from the parent instead of re-crawling per process.

        ``tap`` is an append hook (``tap(table, columns, start, stop)``,
        see :meth:`repro.io.table.EventTable.set_append_hook`) installed
        on every honeypot capture table for the duration of the run —
        the streaming subsystem's engine ingest
        (``run(tap=bus.publish)``).  It is detached before the result
        is returned.
        """
        if source_ips is None:
            source_ips = self._allocate_sources()
        if engines is None:
            engines = self._build_engines()
        captures = {
            vantage.vantage_id: VantageCapture(vantage)
            for vantage in self.deployment.honeypots
        }
        # The run's tables share column sets run by run; consolidating
        # them as one group gathers each column once for all of them, and
        # a batch's per-vantage runs append through it in one call.
        group = ConsolidationGroup(capture.table for capture in captures.values())
        self._routes = {}
        telescope_capture = (
            TelescopeCapture(self.deployment.telescope)
            if self.deployment.telescope is not None
            else None
        )
        if tap is not None:
            for capture in captures.values():
                capture.table.set_append_hook(tap)

        try:
            lo, hi = self.spec_slice if self.spec_slice is not None else (0, len(self.population))
            for spec in self.population[lo:hi]:
                self._run_spec(
                    spec, source_ips[spec.scanner_id], engines, captures, telescope_capture, group
                )
        finally:
            if tap is not None:
                for capture in captures.values():
                    capture.table.set_append_hook(None)

        return SimulationResult(
            config=self.config,
            deployment=self.deployment,
            registry=self.registry,
            captures=captures,
            telescope=telescope_capture,
            engines=engines,
            population=self.population,
            source_ips=source_ips,
        )

    def _run_spec(
        self,
        spec: ScannerSpec,
        sources: np.ndarray,
        engines: dict[str, SearchEngine],
        captures: dict[str, VantageCapture],
        telescope_capture: Optional[TelescopeCapture],
        group: ConsolidationGroup,
    ) -> None:
        for plan in spec.plans:
            rng = self.hub.fork("scan", spec.scanner_id, plan.port)
            targets = self._target_set_for(plan.port)
            weights = spec.strategy.weights(self.hub, spec.scanner_id, targets)
            weights = self._apply_search_avoidance(spec, plan, targets, weights, engines)
            weights = self._apply_honeypot_evasion(spec, plan, weights)

            expected = np.minimum(plan.rate * weights, self.config.max_sessions_per_pair)
            sessions = rng.poisson(expected)
            if sessions.sum() == 0 and spec.search_engine is None:
                continue

            self._emit_honeypot_sessions(
                spec, plan, rng, sources, sessions, targets, captures, group
            )
            if telescope_capture is not None:
                self._emit_telescope_sessions(
                    spec, plan, rng, sources, sessions, telescope_capture
                )
            if spec.search_engine is not None and spec.search_engine.mode == "target":
                self._emit_search_spikes(spec, plan, rng, sources, engines, captures)

    def _apply_search_avoidance(
        self,
        spec: ScannerSpec,
        plan: PortPlan,
        targets: TargetSet,
        weights: np.ndarray,
        engines: dict[str, SearchEngine],
    ) -> np.ndarray:
        use = spec.search_engine
        if use is None or use.mode != "avoid":
            return weights
        listed = self._listed_ips(engines[use.engine], plan.port)
        if len(listed) == 0:
            return weights
        weights = weights.copy()
        mask = np.isin(targets.ips.astype(np.int64), listed)
        weights[mask] = 0.0
        return weights

    def _listed_ips(self, engine: SearchEngine, port: int) -> np.ndarray:
        """Sorted array of IPs the engine lists on ``port`` (cached).

        The index is frozen once the crawl phase finishes, so the cache
        never goes stale during the attack phase.
        """
        key = (engine.name, port)
        cached = self._listed_ip_cache.get(key)
        if cached is None:
            cached = np.unique(
                np.fromiter(
                    (entry.ip for entry in engine.index.services_on_port(port)),
                    dtype=np.int64,
                )
            )
            self._listed_ip_cache[key] = cached
        return cached

    def _apply_honeypot_evasion(
        self, spec: ScannerSpec, plan: PortPlan, weights: np.ndarray
    ) -> np.ndarray:
        """Fingerprinting attackers withhold traffic from honeypots.

        The telescope cannot be fingerprinted (it never responds), so its
        slice of the index space — the tail — keeps full weight: evasive
        campaigns remain telescope-visible while vanishing from honeypot
        datasets, the bias Section 7 warns about.
        """
        evasion = spec.honeypot_evasion
        if evasion <= 0.0:
            return weights
        honeypot_count = self._honeypot_counts[plan.port]
        weights = weights.copy()
        weights[:honeypot_count] *= 1.0 - evasion
        return weights

    def _emit_honeypot_sessions(
        self,
        spec: ScannerSpec,
        plan: PortPlan,
        rng: np.random.Generator,
        sources: np.ndarray,
        sessions: np.ndarray,
        targets: TargetSet,
        captures: dict[str, VantageCapture],
        group: ConsolidationGroup,
    ) -> None:
        # Telescope destinations occupy the tail of the index space and are
        # handled by the aggregated bulk path; only walk honeypot indices.
        honeypot_count = self._honeypot_counts[plan.port]
        active = np.flatnonzero(sessions[:honeypot_count])
        if len(active) == 0:
            return
        counts = sessions[active].astype(np.int64)
        total = int(counts.sum())
        hours = float(self.config.window.hours)
        source_asns = self._source_asns(spec, sources)

        # Fixed columnar draw order: per-destination timestamps first,
        # then source picks for every session, then the plan's batch
        # draws (payload/credential/command choices) inside
        # ``build_intent_batch``.  Destinations are visited in target-set
        # index order.
        timestamps = plan.temporal.sample_times_grouped(rng, counts, hours)
        source_indices = rng.integers(len(sources), size=total)
        dst_index = np.repeat(active, counts)
        batch = plan.build_intent_batch(
            rng,
            timestamps=timestamps,
            src_ips=np.asarray(sources, dtype=np.int64)[source_indices],
            dst_ips=targets.ips[dst_index].astype(np.int64),
            dst_regions=targets.regions[dst_index],
            payload_grid=self._payloads(),
        )
        batch_asns = source_asns[source_indices]

        if self.enforcer is not None:
            keep = self.enforcer.keep_mask(batch.timestamps, batch_asns, batch.src_ips)
            if not keep.all():
                if not keep.any():
                    return
                kept = np.flatnonzero(keep)
                batch = batch.take(kept)
                batch_asns = batch_asns[kept]
                dst_index = dst_index[kept]
                total = len(kept)

        # Dispatch contiguous per-vantage runs (vantages occupy contiguous
        # index ranges, so sorting is unnecessary; enforcement filtering
        # preserves order, so runs stay contiguous).
        positions = self._vantage_positions[plan.port][dst_index]
        boundaries = np.flatnonzero(np.diff(positions)) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [total]))
        run_vantages = positions[starts]
        self._append_runs(
            plan.port, batch, batch_asns, run_vantages, starts, stops, captures, group
        )

    def _route(self, port: int, captures: dict[str, VantageCapture]) -> tuple:
        """``(captures, members, policies, stacks)`` for one port, built
        once per run: each port vantage's capture and its table's ordinal
        in the run's consolidation group, its capture-policy id (-1 for
        stacks without a shareable batch policy), and one representative
        stack per policy id."""
        route = self._routes.get(port)
        if route is None:
            port_captures = [
                captures[vantage.vantage_id] for vantage in self._port_vantages[port]
            ]
            members = np.array(
                [capture.table._ordinal for capture in port_captures], dtype=np.int64
            )
            policy_ids: dict[tuple, int] = {}
            stacks: list = []
            policies = np.empty(len(port_captures), dtype=np.int64)
            for ordinal, capture in enumerate(port_captures):
                stack = capture.vantage.stack
                key = stack.batch_policy_key(port)
                if key is None:
                    policies[ordinal] = -1
                    continue
                if key not in policy_ids:
                    policy_ids[key] = len(stacks)
                    stacks.append(stack)
                policies[ordinal] = policy_ids[key]
            route = self._routes[port] = (port_captures, members, policies, stacks)
        return route

    def _append_runs(
        self,
        port: int,
        batch,
        batch_asns: np.ndarray,
        run_vantages: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
        captures: dict[str, VantageCapture],
        group: ConsolidationGroup,
    ) -> None:
        """Capture a batch's per-vantage runs into their tables, in run order.

        Capture columns are computed once per distinct stack *policy* in
        the batch — every GreyNoise sensor on a non-Cowrie port shares one
        column set, etc. — and every run appends a zero-copy
        ``[start, stop)`` view of its policy's columns through one bulk
        :meth:`ConsolidationGroup.append_runs` call.  Runs on stacks
        without a shareable policy go through ``record_batch`` in place,
        between bulk calls, so rows and tap notifications keep run order.
        """
        port_captures, members, policies, stacks = self._route(port, captures)
        run_policies = policies[run_vantages]
        # One slot per policy plus a trailing empty one that policy -1
        # (a per-run stack) indexes.
        column_sets = np.empty(len(stacks) + 1, dtype=object)
        for policy in np.unique(run_policies).tolist():
            if policy >= 0:
                column_sets[policy] = stacks[policy].capture_batch_columns(batch, batch_asns)
        run_members = members[run_vantages]
        run_columns = column_sets[run_policies]
        lo = 0
        for run in np.flatnonzero(run_policies < 0).tolist():
            group.append_runs(
                run_members[lo:run], run_columns[lo:run], starts[lo:run], stops[lo:run]
            )
            start, stop = int(starts[run]), int(stops[run])
            port_captures[int(run_vantages[run])].record_batch(
                batch.slice(start, stop), batch_asns[start:stop]
            )
            lo = run + 1
        group.append_runs(run_members[lo:], run_columns[lo:], starts[lo:], stops[lo:])

    def _emit_telescope_sessions(
        self,
        spec: ScannerSpec,
        plan: PortPlan,
        rng: np.random.Generator,
        sources: np.ndarray,
        sessions: np.ndarray,
        telescope_capture: TelescopeCapture,
    ) -> None:
        telescope = telescope_capture.vantage
        telescope_sessions = sessions[len(sessions) - telescope.num_ips:]
        total_hits = int(telescope_sessions.sum())
        if total_hits == 0:
            return
        # Split total hits across the campaign's sources.
        if len(sources) == 1:
            per_source = np.asarray([total_hits], dtype=np.int64)
        else:
            per_source = rng.multinomial(total_hits, np.full(len(sources), 1.0 / len(sources)))
        source_asns = self._source_asns(spec, sources)
        telescope_capture.record_source_hits(plan.port, sources, source_asns, per_source)
        # Distinct sources per destination: a campaign with S sources that
        # sends h packets to one dark IP exposes min(h, S) of them.
        distinct = np.minimum(telescope_sessions, len(sources)).astype(np.int64)
        telescope_capture.record_destination_sources(plan.port, distinct)

    def _emit_search_spikes(
        self,
        spec: ScannerSpec,
        plan: PortPlan,
        rng: np.random.Generator,
        sources: np.ndarray,
        engines: dict[str, SearchEngine],
        captures: dict[str, VantageCapture],
    ) -> None:
        use = spec.search_engine
        assert use is not None and use.mode == "target"
        engine = engines[use.engine]
        hours = float(self.config.window.hours)
        source_asns = self._source_asns(spec, sources)
        vantage_by_ip = self._honeypot_by_ip()

        boosted_plan = self._boost_credentials(plan, use.unique_credential_boost)
        # One discovery roll per indexed *IP*: take the entry giving this
        # campaign's port the best selection probability so that an IP
        # indexed on many ports is not multiply counted (ties keep the
        # earliest-indexed entry).  Candidates are processed in ascending
        # IP order — part of the documented draw order.
        entry_ips, entry_ports, first_indexed = self._engine_entries(engine)
        if len(entry_ips) == 0:
            return
        probabilities = use.selection_probabilities(
            first_indexed, entry_ports == plan.port
        )
        order = np.lexsort((np.arange(len(entry_ips)), -probabilities, entry_ips))
        candidate_ips, first_of_ip = np.unique(entry_ips[order], return_index=True)
        chosen = order[first_of_ip]
        probabilities = probabilities[chosen]
        visible_from = np.maximum(first_indexed[chosen], 0.0)

        # Telescope IPs never respond, so they are never indexed as
        # honeypot candidates; drop any IP without a vantage.
        candidate_vantages = [vantage_by_ip.get(int(ip)) for ip in candidate_ips]
        backed = np.fromiter(
            (vantage is not None for vantage in candidate_vantages),
            dtype=bool,
            count=len(candidate_vantages),
        )
        if not backed.all():
            keep = np.flatnonzero(backed)
            candidate_ips = candidate_ips[keep]
            probabilities = probabilities[keep]
            visible_from = visible_from[keep]
            candidate_vantages = [candidate_vantages[int(k)] for k in keep]
        if len(candidate_ips) == 0:
            return

        # Vectorized draw order: discovery rolls for every candidate,
        # exponential discovery delays for the selected ones, per-spike
        # session counts, then one uniform block for all timestamps.
        selected = np.flatnonzero(rng.random(len(candidate_ips)) < probabilities)
        if len(selected) == 0:
            return
        discovery = visible_from[selected] + rng.exponential(12.0, size=len(selected))
        within = np.flatnonzero(discovery < hours)
        if len(within) == 0:
            return
        selected = selected[within]
        discovery = discovery[within]
        counts = 1 + rng.poisson(use.spike_sessions, size=len(selected))
        total = int(counts.sum())
        limits = np.minimum(discovery + use.spike_hours, hours)
        lows = np.repeat(discovery, counts)
        spans = np.repeat(limits - discovery, counts)
        timestamps = lows + rng.random(total) * spans
        source_indices = rng.integers(len(sources), size=total)
        batch = boosted_plan.build_intent_batch(
            rng,
            timestamps=timestamps,
            src_ips=np.asarray(sources, dtype=np.int64)[source_indices],
            dst_ips=np.repeat(candidate_ips[selected].astype(np.int64), counts),
            dst_regions=np.repeat(
                np.array(
                    [candidate_vantages[int(i)].region_code for i in selected],
                    dtype=object,
                ),
                counts,
            ),
            payload_grid=self._payloads(),
        )
        batch_asns = source_asns[source_indices]
        # Candidate (vantage) index per row; ``selected`` ascends, so the
        # rows form contiguous per-vantage runs that survive filtering.
        row_candidates = np.repeat(selected, counts)

        if self.enforcer is not None:
            keep = self.enforcer.keep_mask(batch.timestamps, batch_asns, batch.src_ips)
            if not keep.all():
                if not keep.any():
                    return
                kept = np.flatnonzero(keep)
                batch = batch.take(kept)
                batch_asns = batch_asns[kept]
                row_candidates = row_candidates[kept]

        boundaries = np.flatnonzero(np.diff(row_candidates)) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [len(row_candidates)]))
        for start, stop in zip(starts.tolist(), stops.tolist()):
            vantage = candidate_vantages[int(row_candidates[start])]
            captures[vantage.vantage_id].record_batch(
                batch.slice(start, stop), batch_asns[start:stop]
            )

    def _engine_entries(
        self, engine: SearchEngine
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columnar (ips, ports, first_indexed) view of an index (cached)."""
        cached = self._engine_entry_cache.get(engine.name)
        if cached is None:
            entries = list(engine.index.entries())
            ips = np.fromiter((entry.ip for entry in entries), dtype=np.int64, count=len(entries))
            ports = np.fromiter((entry.port for entry in entries), dtype=np.int64, count=len(entries))
            first = np.fromiter(
                (entry.first_indexed for entry in entries), dtype=np.float64, count=len(entries)
            )
            self._engine_entry_cache[engine.name] = cached = (ips, ports, first)
        return cached

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _source_asns(self, spec: ScannerSpec, sources: np.ndarray) -> np.ndarray:
        # All of a campaign's sources live in its origin AS by construction.
        return np.full(len(sources), spec.asn, dtype=np.int64)

    def _payloads(self) -> PayloadGrid:
        if self._payload_grid is None:
            self._payload_grid = PayloadGrid(
                np.concatenate([vantage.ips for vantage in self.deployment.honeypots])
                if self.deployment.honeypots
                else np.empty(0, dtype=np.int64)
            )
        return self._payload_grid

    def _honeypot_by_ip(self) -> dict[int, VantagePoint]:
        if self._honeypot_ip_cache is None:
            self._honeypot_ip_cache = {
                int(ip): vantage
                for vantage in self.deployment.honeypots
                for ip in vantage.ips
            }
        return self._honeypot_ip_cache

    @staticmethod
    def _boost_credentials(plan: PortPlan, boost: float) -> PortPlan:
        """Search-engine-driven sessions try ~3x more unique credentials."""
        if not plan.interactive or boost <= 1.0:
            return plan
        low, high = plan.credential_attempts
        return PortPlan(
            port=plan.port,
            protocol=plan.protocol,
            rate=plan.rate,
            transport=plan.transport,
            http_payloads=plan.http_payloads,
            http_weights=plan.http_weights,
            credential_dialect=plan.credential_dialect,
            credential_attempts=(
                max(1, int(low * boost)),
                max(1, int(high * boost)),
            ),
            distinct_credentials=True,
            banner_only_fraction=plan.banner_only_fraction,
            region_dialects=plan.region_dialects,
            temporal=plan.temporal,
        )


def run_simulation(
    deployment: Deployment,
    population: Sequence[ScannerSpec],
    config: SimulationConfig | None = None,
    registry: ASRegistry | None = None,
    spec_slice: Optional[tuple[int, int]] = None,
    source_ips: Optional[dict[str, np.ndarray]] = None,
    engines: Optional[dict[str, SearchEngine]] = None,
    tap: Optional[callable] = None,
    enforcer: Optional[object] = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it.

    ``spec_slice`` restricts the attack phase to a contiguous population
    slice (the orchestrator's shard workers use this); deployment, crawl,
    and source allocation still cover the full population so the slice's
    events are identical to the corresponding events of a full run.
    ``source_ips``/``engines`` inject precomputed phase-1/2 state (see
    :meth:`Simulator.run`); ``tap`` streams every capture-table append
    to an observer for the duration of the run; ``enforcer`` filters
    honeypot batches against an active blocklist post-draw (see
    :class:`Simulator`), the closed-loop response hook.
    """
    return Simulator(deployment, population, config, registry, spec_slice, enforcer=enforcer).run(
        source_ips=source_ips, engines=engines, tap=tap
    )
