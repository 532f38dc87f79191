"""Cross-cutting property-based tests (hypothesis).

Deeper invariants than the per-module suites: strategy weight algebra,
union-table structure, bootstrap coverage, rule-engine consistency, and
intent validity over randomized plans.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.net.addresses import MAX_IPV4
from repro.scanners.base import PortPlan
from repro.scanners.strategies import (
    KIND_INDEX,
    CoverageModel,
    StructureBias,
    TargetSet,
    TargetStrategy,
)
from repro.sim.events import NetworkKind
from repro.sim.rng import RngHub
from repro.stats.bootstrap import bootstrap_proportion
from repro.stats.contingency import chi_square_test
from repro.stats.topk import top_k, union_table

HUB = RngHub(77)

ips_strategy = st.lists(
    st.integers(min_value=0, max_value=MAX_IPV4), min_size=1, max_size=64, unique=True
)


def make_targets(ips):
    n = len(ips)
    kinds = [list(KIND_INDEX.values())[i % 3] for i in range(n)]
    return TargetSet(
        ips=np.asarray(ips, dtype=np.uint32),
        kind_codes=np.asarray(kinds, dtype=np.int8),
        regions=np.asarray(["US-CA", "AP-SG", "EU-DE"][:1] * n, dtype=object),
        continents=np.asarray(["NA"] * n, dtype=object),
        networks=np.asarray(["aws"] * n, dtype=object),
    )


class TestStrategyProperties:
    @given(ips_strategy, st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=40)
    def test_weights_nonnegative_and_bounded_by_coverage(self, ips, fraction):
        strategy = TargetStrategy(coverage=CoverageModel(fraction))
        weights = strategy.weights(HUB, "s", make_targets(ips))
        assert (weights >= 0).all()
        assert (weights <= 1.0).all()  # no boosts configured

    @given(ips_strategy)
    @settings(max_examples=30)
    def test_kind_zeroing_is_total(self, ips):
        strategy = TargetStrategy(
            kind_weights={kind: 0.0 for kind in NetworkKind}
        )
        weights = strategy.weights(HUB, "s", make_targets(ips))
        assert (weights == 0).all()

    @given(ips_strategy, st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=30)
    def test_structure_bias_never_negative(self, ips, factor):
        bias = StructureBias(any_255_factor=factor, trailing_255_factor=factor,
                             slash16_first_factor=1.0 / factor)
        weights = bias.weights(np.asarray(ips, dtype=np.uint32))
        assert (weights > 0).all()

    @given(ips_strategy, st.integers(min_value=1, max_value=5))
    @settings(max_examples=30)
    def test_latch_exclusive_count_bounded(self, ips, count):
        strategy = TargetStrategy(latch_count=count, latch_multiplier=3.0,
                                  latch_exclusive=True)
        weights = strategy.weights(HUB, "s", make_targets(ips))
        assert 0 < (weights > 0).sum() <= count


class TestTopKProperties:
    counters_strategy = st.dictionaries(
        st.text(min_size=1, max_size=4),
        st.dictionaries(st.integers(min_value=0, max_value=50),
                        st.integers(min_value=1, max_value=100),
                        min_size=1, max_size=10),
        min_size=2, max_size=6,
    )

    @given(counters_strategy, st.integers(min_value=1, max_value=5))
    @settings(max_examples=40)
    def test_union_table_dimensions(self, groups, k):
        table, group_order, categories = union_table(groups, k=k)
        assert table.shape == (len(groups), len(categories))
        assert set(group_order) == set(groups)
        # every category is in someone's top-k
        for column, category in enumerate(categories):
            assert any(category in top_k(counts, k) for counts in groups.values())

    @given(counters_strategy)
    @settings(max_examples=40)
    def test_identical_groups_never_significant(self, groups):
        first = next(iter(groups.values()))
        cloned = {"a": Counter(first), "b": Counter(first)}
        result = chi_square_test(union_table(cloned, 3)[0])
        if result.valid:
            assert not result.significant()
            assert result.phi < 1e-6


class TestBootstrapProperties:
    @given(st.lists(st.booleans(), min_size=5, max_size=200))
    @settings(max_examples=40)
    def test_interval_contains_estimate(self, flags):
        ci = bootstrap_proportion(flags, resamples=200)
        assert ci.low <= ci.estimate <= ci.high
        assert 0.0 <= ci.low and ci.high <= 100.0

    @given(st.integers(min_value=5, max_value=100))
    @settings(max_examples=20)
    def test_degenerate_all_true(self, size):
        ci = bootstrap_proportion([True] * size, resamples=100)
        assert ci.estimate == ci.low == ci.high == 100.0


class TestIntentProperties:
    ports = st.sampled_from([22, 23, 80, 443, 8080])
    protocols = st.sampled_from(["http", "ssh", "telnet", "tls", "smb", ""])

    @given(ports, protocols, st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=0, max_value=8))
    @settings(max_examples=60)
    def test_build_intent_always_valid(self, port, protocol, seed, sessions):
        """Every session of a synthesized batch is a valid intent."""
        rng = np.random.default_rng(seed)
        kwargs = {}
        if protocol == "http":
            kwargs = {"http_payloads": ("root-get",), "http_weights": (1.0,)}
        elif protocol in ("ssh", "telnet"):
            kwargs = {"credential_dialect": f"global-{protocol}",
                      "credential_attempts": (1, 3)}
        plan = PortPlan(port, protocol, 1.0, **kwargs)
        batch = plan.build_intent_batch(rng, np.full(sessions, 12.0),
                                        np.arange(1, sessions + 1), np.full(sessions, 2))
        intents = list(batch.intents())
        assert len(intents) == sessions
        for intent in intents:
            assert intent.dst_port == port
            assert intent.timestamp == 12.0
            assert len(intent.credentials) <= 3
            assert all(isinstance(u, str) and isinstance(p, str)
                       for u, p in (c.as_tuple() for c in intent.credentials))
            if protocol == "":
                assert intent.payload == b""


class TestRuleEngineProperties:
    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=60)
    def test_verdict_stable(self, payload):
        from repro.detection.engine import RuleEngine

        engine = RuleEngine()
        assert engine.is_malicious(payload) == engine.is_malicious(payload)

    @given(st.text(alphabet="abcdefghij /", min_size=0, max_size=60))
    @settings(max_examples=40)
    def test_benign_text_rarely_alerts(self, text):
        """Plain lowercase text without exploit markers never alerts."""
        from repro.detection.engine import RuleEngine

        payload = f"GET /{text} HTTP/1.1\r\n\r\n".encode()
        assume("/.env" not in f"/{text}")
        assume("/.git/config" not in f"/{text}")
        engine = RuleEngine()
        assert not engine.is_malicious(payload)
