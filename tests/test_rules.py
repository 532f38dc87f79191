"""Tests for the Suricata-style rule DSL and matching engine."""

import pytest
from hypothesis import given, strategies as st

from repro.detection.engine import RuleEngine, load_default_rules
from repro.detection.rules import (
    ALLOWED_CLASSTYPES,
    Rule,
    RuleParseError,
    parse_rule,
    parse_rules,
)
from repro.scanners.payloads import HTTP_CORPUS


BASIC = (
    'alert http any any -> any any (msg:"test rule"; content:"/GponForm/"; '
    "classtype:web-application-attack; sid:1;)"
)


class TestParser:
    def test_basic_rule(self):
        rule = parse_rule(BASIC)
        assert rule.msg == "test rule"
        assert rule.sid == 1
        assert rule.classtype == "web-application-attack"
        assert rule.dst_ports is None
        assert len(rule.contents) == 1

    def test_port_list(self):
        rule = parse_rule(BASIC.replace("-> any any", "-> any [80,8080]"))
        assert rule.dst_ports == frozenset({80, 8080})

    def test_port_range(self):
        rule = parse_rule(BASIC.replace("-> any any", "-> any 8000:8003"))
        assert rule.dst_ports == frozenset({8000, 8001, 8002, 8003})

    def test_nocase_modifier(self):
        rule = parse_rule(
            'alert http any any -> any any (msg:"m"; content:"JNDI"; nocase; '
            "classtype:attempted-admin; sid:2;)"
        )
        assert rule.contents[0].nocase
        assert rule.matches(b"x ${jndi:ldap} y")

    def test_hex_content(self):
        rule = parse_rule(
            'alert tcp any any -> any any (msg:"smb"; content:"|ff 53 4d 42|"; '
            "classtype:misc-activity; sid:3;)"
        )
        assert rule.contents[0].needle == b"\xffSMB"
        assert rule.matches(b"\x00\x00\xffSMB\x72")

    def test_semicolon_inside_quotes(self):
        rule = parse_rule(
            'alert http any any -> any any (msg:"a;b"; content:"x;y"; '
            "classtype:misc-activity; sid:4;)"
        )
        assert rule.msg == "a;b"
        assert rule.contents[0].needle == b"x;y"

    def test_pcre(self):
        rule = parse_rule(
            'alert tcp any any -> any any (msg:"p"; pcre:"/wget\\s+http/i"; '
            "classtype:bad-unknown; sid:5;)"
        )
        assert rule.matches(b"; WGET  http://evil/")
        assert not rule.matches(b"wgethttp")

    def test_multiple_contents_all_required(self):
        rule = parse_rule(
            'alert http any any -> any any (msg:"m"; content:"aaa"; content:"bbb"; '
            "classtype:misc-activity; sid:6;)"
        )
        assert rule.matches(b"bbb...aaa")
        assert not rule.matches(b"aaa only")

    @pytest.mark.parametrize(
        "bad",
        [
            "not a rule",
            'alert http any any -> any any (content:"x"; classtype:misc-activity; sid:7;)',
            'alert http any any -> any any (msg:"m"; content:"x"; classtype:misc-activity;)',
            'alert http any any -> any any (msg:"m"; content:"x"; classtype:not-a-type; sid:8;)',
            'alert http any any -> any any (msg:"m"; pcre:"broken"; classtype:misc-activity; sid:9;)',
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(RuleParseError):
            parse_rule(bad)

    def test_parse_rules_skips_comments(self):
        text = "# comment\n\n" + BASIC + "\n"
        assert len(parse_rules(text)) == 1

    def test_parse_rules_rejects_duplicate_sids(self):
        with pytest.raises(RuleParseError):
            parse_rules(BASIC + "\n" + BASIC)

    def test_unknown_options_tolerated(self):
        rule = parse_rule(
            'alert http any any -> any any (msg:"m"; flow:established,to_server; '
            'content:"x"; depth:10; classtype:misc-activity; sid:10;)'
        )
        assert rule.matches(b"...x...")


class TestRuleMatching:
    def test_empty_payload_never_matches(self):
        rule = parse_rule(BASIC)
        assert not rule.matches(b"")

    def test_port_filter(self):
        rule = parse_rule(BASIC.replace("-> any any", "-> any 80"))
        assert rule.matches(b"/GponForm/", dst_port=80)
        assert not rule.matches(b"/GponForm/", dst_port=8080)
        assert rule.matches(b"/GponForm/")  # no port given -> no filter

    def test_contentless_rule_never_matches(self):
        rule = Rule(
            action="alert", protocol="tcp", dst_ports=None, msg="m",
            classtype="misc-activity", sid=1,
        )
        assert not rule.matches(b"anything")

    @given(st.binary(min_size=0, max_size=256))
    def test_match_implies_all_contents_present(self, payload):
        """Soundness: an alert means every content string is in the payload."""
        for rule in load_default_rules():
            if rule.pcres:
                continue
            if rule.matches(payload):
                for content in rule.contents:
                    needle = content.needle.lower() if content.nocase else content.needle
                    haystack = payload.lower() if content.nocase else payload
                    assert needle in haystack


class TestDefaultRuleset:
    def test_loads_and_is_vetted(self):
        rules = load_default_rules()
        assert len(rules) >= 15
        assert all(rule.classtype in ALLOWED_CLASSTYPES for rule in rules)

    def test_sids_unique(self):
        sids = [rule.sid for rule in load_default_rules()]
        assert len(sids) == len(set(sids))

    def test_corpus_ground_truth_agreement(self):
        """The ruleset reproduces the corpus labels without reading them."""
        engine = RuleEngine()
        for entry in HTTP_CORPUS:
            assert engine.is_malicious(entry.render()) == entry.malicious, entry.name


class TestRuleEngine:
    def test_alerts_carry_metadata(self):
        engine = RuleEngine()
        alerts = engine.alerts(b"GET / HTTP/1.1\r\nUA: ${jndi:ldap://x}\r\n\r\n")
        assert any("log4j" in alert.msg.lower() for alert in alerts)
        assert all(alert.classtype in ALLOWED_CLASSTYPES for alert in alerts)

    def test_verdicts_memoized(self):
        engine = RuleEngine()
        payload = b"GET /.env HTTP/1.1\r\n\r\n"
        first = engine.alerts(payload)
        second = engine.alerts(payload)
        assert first is second  # cached object identity

    def test_empty_payload(self):
        assert RuleEngine().alerts(b"") == ()

    def test_custom_ruleset(self):
        engine = RuleEngine([parse_rule(BASIC)])
        assert engine.is_malicious(b"POST /GponForm/diag HTTP/1.1")
        assert not engine.is_malicious(b"GET / HTTP/1.1")


#: A ruleset exercising what the shipped one lacks: port-scoped rules, a
#: nocase content beside a case-sensitive one, pcres with and without
#: contents (one anchored), and a binary content.
SCOPED_RULES = r"""
alert http any any -> any 80 (msg:"scoped content"; content:"/admin"; classtype:attempted-recon; sid:101;)
alert tcp any any -> any [22,2222] (msg:"scoped nocase"; content:"root"; nocase; classtype:attempted-user; sid:102;)
alert tcp any any -> any any (msg:"pcre only"; pcre:"/(wget|curl)[^\r\n]{0,20}\/tmp\//i"; classtype:bad-unknown; sid:103;)
alert http any any -> any 8000:8100 (msg:"content and anchored pcre"; content:"GET"; pcre:"/^GET \/[a-z]+\.php/"; classtype:web-application-attack; sid:104;)
alert tcp any any -> any 23 (msg:"mixed case contents"; content:"busybox"; content:"ECCHI"; nocase; classtype:trojan-activity; sid:105;)
alert tcp any any -> any any (msg:"binary content"; content:"|00 ff|x"; classtype:misc-activity; sid:106;)
alert http any any -> any any (msg:"log4j any port"; content:"${jndi:"; nocase; classtype:attempted-admin; sid:107;)
"""

RULESETS = {"shipped": load_default_rules(), "scoped": parse_rules(SCOPED_RULES)}


def _needles(rules) -> list[bytes]:
    needles = [content.needle for rule in rules for content in rule.contents]
    return needles + [b"wget /tmp/", b"curl -o /tmp/x", b"GET /index.php", b"\r\n"]


def _flip_case(needle: bytes, flips: list[bool]) -> bytes:
    return bytes(
        byte ^ 0x20 if flip and (65 <= byte <= 90 or 97 <= byte <= 122) else byte
        for byte, flip in zip(needle, flips)
    )


@st.composite
def payload_batches(draw, rules):
    """Payloads cut from one stream of rule needles, their case variants
    and binary noise, so needles straddle neighbouring payloads; repeated
    cuts give empty payloads, and some payloads repeat."""
    needle = st.sampled_from(_needles(rules))
    fragment = st.one_of(
        needle,
        needle.flatmap(
            lambda text: st.lists(st.booleans(), min_size=len(text), max_size=len(text))
            .map(lambda flips: _flip_case(text, flips))
        ),
        st.binary(max_size=6),
    )
    stream = b"".join(draw(st.lists(fragment, max_size=12)))
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=8)))
    bounds = [0, *cuts, len(stream)]
    payloads = [stream[start:stop] for start, stop in zip(bounds, bounds[1:])]
    repeats = draw(st.lists(st.sampled_from(payloads), max_size=3))
    return payloads + repeats


class TestBatchMatching:
    """``alerts_batch`` is ``[alerts(p) for p in payloads]``, cache included."""

    @pytest.mark.parametrize("name", sorted(RULESETS))
    @given(data=st.data())
    def test_equals_per_payload_alerts(self, name, data):
        rules = RULESETS[name]
        payloads = data.draw(payload_batches(rules))
        warm = data.draw(st.lists(st.sampled_from(payloads), max_size=2)) if payloads else []
        reference, batch = RuleEngine(rules), RuleEngine(rules)
        for payload in warm:
            reference.alerts(payload)
            batch.alerts(payload)
        expected = [reference.alerts(payload) for payload in payloads]
        assert batch.alerts_batch(payloads) == expected
        assert list(batch._verdict_cache.items()) == list(reference._verdict_cache.items())

    @given(data=st.data())
    def test_port_scope_filters_batch_alerts(self, data):
        rules = RULESETS["scoped"]
        scopes = {rule.sid: rule.dst_ports for rule in rules}
        payloads = data.draw(payload_batches(rules))
        engine = RuleEngine(rules)
        for payload, alerts in zip(payloads, engine.alerts_batch(payloads)):
            for port in (22, 23, 80, 8080, 443):
                assert engine.alerts(payload, port) == tuple(
                    alert for alert in alerts
                    if scopes[alert.sid] is None or port in scopes[alert.sid]
                )

    def test_straddling_needle_does_not_fire(self):
        engine = RuleEngine(RULESETS["scoped"])
        assert engine.alerts_batch([b"xx/ad", b"min", b"/admin"]) == [
            (), (), engine.alerts(b"/admin")
        ]
        assert engine.alerts(b"/admin")

    def test_cache_cap_keeps_first_entries(self, monkeypatch):
        import repro.detection.engine as engine_module

        monkeypatch.setattr(engine_module, "_VERDICT_CACHE_CAP", 3)
        payloads = [b"a", b"GET /.env", b"", b"a", b"b", b"c", b"d"]
        reference, batch = RuleEngine(), RuleEngine()
        expected = [reference.alerts(payload) for payload in payloads]
        assert batch.alerts_batch(payloads) == expected
        assert list(batch._verdict_cache) == list(reference._verdict_cache)
        assert len(batch._verdict_cache) == 3
