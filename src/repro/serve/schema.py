"""Typed request/response contracts for the serving layer.

Validation-first, in the FastSim ``SimulationPayload`` style: every
request a client can make — and every simulation configuration the CLI
accepts — is described by a strictly typed dataclass whose fields are
validated *before* any engine or sketch work happens.  Malformed input
never reaches a backend; it is rejected at the boundary with a
structured error naming each offending field.

Two contract families live here:

* **Query contracts** (:class:`TopQuery`, :class:`IpQuery`, ...) — one
  dataclass per endpoint, each built through :meth:`~Contract.parse`
  from the raw query-string mapping.  Unknown parameters, missing
  required fields, values outside their documented bounds, and
  syntactically invalid IPs all raise :class:`SchemaError`, which the
  HTTP layer renders as a structured 400.
* **:class:`SimulationPayload`** — the single self-contained contract
  for a simulation run (year / scale / telescope size / seed).  The CLI
  funnels every subcommand's simulation arguments through it, so a bad
  ``--scale`` fails with the same structured message whether it arrives
  over HTTP or argv.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Optional

from repro.deployment import fleet
from repro.stream.windows import MAX_TRAILING_HOURS

__all__ = [
    "SchemaError",
    "Characteristic",
    "MAX_TOP_K",
    "MAX_TRAILING_HOURS",
    "MAX_BLOCKLIST_BYTES",
    "Contract",
    "TopQuery",
    "CardinalityQuery",
    "VolumesQuery",
    "CompareQuery",
    "IpQuery",
    "AlarmsQuery",
    "IncidentsQuery",
    "ActionsQuery",
    "NoParamsQuery",
    "SimulationPayload",
    "validate_simulation_config",
    "validate_blocklist_file",
]

#: Largest ``k`` a top-k / comparison query may request (the Space-Saving
#: sketches monitor at most 64 categories, so larger asks are undefined).
MAX_TOP_K = 64


class Characteristic(str, enum.Enum):
    """The §3.3 characteristics a vantage point is sketched on."""

    AS = "as"
    USERNAME = "username"
    PASSWORD = "password"
    PAYLOAD = "payload"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class SchemaError(ValueError):
    """A request (or config) violated its contract.

    ``errors`` is a list of ``{"field", "message", "value"}`` records —
    the exact JSON body of the structured 400 the server answers with.
    """

    def __init__(self, errors: list[dict]) -> None:
        self.errors = errors
        super().__init__("; ".join(
            f"{item['field']}: {item['message']}" for item in errors
        ))

    @classmethod
    def single(cls, field: str, message: str, value=None) -> "SchemaError":
        return cls([{"field": field, "message": message, "value": value}])

    def as_dict(self) -> dict:
        return {"error": "validation", "errors": self.errors}


# ---------------------------------------------------------------------------
# field parsers (each returns the parsed value or records an error)
# ---------------------------------------------------------------------------


def _parse_int(text: str, field: str, lo: int, hi: int, errors: list[dict]) -> Optional[int]:
    try:
        value = int(text)
    except (TypeError, ValueError):
        errors.append({"field": field, "message": "expected an integer", "value": text})
        return None
    if not lo <= value <= hi:
        errors.append({
            "field": field,
            "message": f"out of range [{lo}, {hi}]",
            "value": value,
        })
        return None
    return value


def parse_ip(text: str, field: str = "ip") -> int:
    """Parse a dotted-quad IPv4 address (or its integer form).

    >>> parse_ip("10.0.0.1") == (10 << 24) + 1
    True
    >>> parse_ip("999.0.0.1")
    Traceback (most recent call last):
        ...
    repro.serve.schema.SchemaError: ip: octet out of range [0, 255]
    """
    text = (text or "").strip()
    if not text:
        raise SchemaError.single(field, "required", None)
    if "." in text:
        parts = text.split(".")
        if len(parts) != 4:
            raise SchemaError.single(field, "expected a dotted quad", text)
        value = 0
        for part in parts:
            if not part.isdigit():
                raise SchemaError.single(field, "expected a dotted quad", text)
            octet = int(part)
            if octet > 255:
                raise SchemaError.single(field, "octet out of range [0, 255]", text)
            value = (value << 8) | octet
        return value
    if text.isdigit():
        value = int(text)
        if value >= 1 << 32:
            raise SchemaError.single(field, "out of range for IPv4", text)
        return value
    raise SchemaError.single(field, "expected a dotted quad or integer", text)


# ---------------------------------------------------------------------------
# query contracts
# ---------------------------------------------------------------------------


class Contract:
    """Base class: strict query-string parsing into typed dataclasses.

    Subclasses define ``PARAMS`` — ``name -> (required, parser)`` where
    the parser maps ``(raw_text, errors_list)`` to a parsed value.  Any
    parameter not named in ``PARAMS`` is itself a contract violation
    (strictness is what keeps typo'd queries from silently meaning
    something else).
    """

    PARAMS: dict[str, tuple[bool, Callable]] = {}

    @classmethod
    def parse(cls, params: Mapping[str, str]):
        errors: list[dict] = []
        values: dict = {}
        for name in params:
            if name not in cls.PARAMS:
                errors.append({
                    "field": name,
                    "message": "unexpected parameter",
                    "value": params[name],
                })
        for name, (required, parser) in cls.PARAMS.items():
            raw = params.get(name)
            if raw is None or raw == "":
                if required:
                    errors.append({"field": name, "message": "required", "value": None})
                continue
            try:
                values[name] = parser(raw, errors)
            except SchemaError as error:
                errors.extend(error.errors)
        if errors:
            raise SchemaError(errors)
        return cls(**values)  # type: ignore[call-arg]


def _k_param(raw: str, errors: list[dict]):
    return _parse_int(raw, "k", 1, MAX_TOP_K, errors)


def _vantage_param(raw: str, errors: list[dict]):
    if len(raw) > 128:
        errors.append({"field": "vantage", "message": "too long", "value": raw[:32]})
        return None
    return raw


def _characteristic_param(raw: str, errors: list[dict]):
    try:
        return Characteristic(raw)
    except ValueError:
        errors.append({
            "field": "characteristic",
            "message": f"unknown (choose from {', '.join(c.value for c in Characteristic)})",
            "value": raw,
        })
        return None


def _ip_param(raw: str, errors: list[dict]):
    return parse_ip(raw)


def _trailing_param(raw: str, errors: list[dict]):
    return _parse_int(raw, "trailing_hours", 1, MAX_TRAILING_HOURS, errors)


@dataclass(frozen=True)
class TopQuery(Contract):
    """``GET /top?vantage=...&characteristic=...&k=...``"""

    vantage: str
    characteristic: Characteristic
    k: int = 3

    PARAMS = {
        "vantage": (True, _vantage_param),
        "characteristic": (True, _characteristic_param),
        "k": (False, _k_param),
    }


@dataclass(frozen=True)
class CardinalityQuery(Contract):
    """``GET /cardinality[?vantage=...]``"""

    vantage: Optional[str] = None

    PARAMS = {"vantage": (False, _vantage_param)}


@dataclass(frozen=True)
class VolumesQuery(Contract):
    """``GET /volumes?vantage=...``"""

    vantage: str

    PARAMS = {"vantage": (True, _vantage_param)}


@dataclass(frozen=True)
class CompareQuery(Contract):
    """``GET /compare?characteristic=...&k=...``"""

    characteristic: Characteristic
    k: int = 3

    PARAMS = {
        "characteristic": (True, _characteristic_param),
        "k": (False, _k_param),
    }


@dataclass(frozen=True)
class IpQuery(Contract):
    """``GET /ip?ip=...``"""

    ip: int

    PARAMS = {"ip": (True, _ip_param)}


@dataclass(frozen=True)
class AlarmsQuery(Contract):
    """``GET /alarms[?trailing_hours=...]``"""

    trailing_hours: Optional[int] = None

    PARAMS = {"trailing_hours": (False, _trailing_param)}


#: Incident lifecycle states a filter may name.
INCIDENT_STATUSES = ("open", "acknowledged", "resolved")

#: Runbook action kinds a filter may name.
ACTION_KINDS = ("block", "rotate", "reweight")


def _status_param(raw: str, errors: list[dict]):
    if raw not in INCIDENT_STATUSES:
        errors.append({
            "field": "status",
            "message": f"unknown (choose from {', '.join(INCIDENT_STATUSES)})",
            "value": raw,
        })
        return None
    return raw


def _action_param(raw: str, errors: list[dict]):
    if raw not in ACTION_KINDS:
        errors.append({
            "field": "action",
            "message": f"unknown (choose from {', '.join(ACTION_KINDS)})",
            "value": raw,
        })
        return None
    return raw


@dataclass(frozen=True)
class IncidentsQuery(Contract):
    """``GET /incidents[?status=...]``"""

    status: Optional[str] = None

    PARAMS = {"status": (False, _status_param)}


@dataclass(frozen=True)
class ActionsQuery(Contract):
    """``GET /actions[?action=...]``"""

    action: Optional[str] = None

    PARAMS = {"action": (False, _action_param)}


@dataclass(frozen=True)
class NoParamsQuery(Contract):
    """Endpoints that accept no parameters at all."""

    PARAMS = {}


# ---------------------------------------------------------------------------
# the simulation configuration contract (CLI boundary)
# ---------------------------------------------------------------------------

#: Observation windows the population model is calibrated for.
VALID_YEARS = (2020, 2021, 2022)


@dataclass(frozen=True)
class SimulationPayload:
    """The self-contained contract for one simulation run.

    Mirrors :class:`repro.experiments.context.ExperimentConfig` field
    for field, but carries the validation the engine assumes: a
    calibrated year, a strictly positive bounded scale, a sane telescope
    size, and a non-negative seed.  ``validate()`` returns the full list
    of violations (not just the first), and ``to_config()`` only
    succeeds on a valid payload.
    """

    year: int = 2021
    scale: float = 0.5
    telescope_slash24s: int = 16
    seed: int = 20230701

    #: Bounds: scale 0 would build an empty population; above 100 the
    #: columnar pipeline would need >100x the calibrated memory budget.
    #: The telescope bound is the one ``build_telescope`` enforces.
    MAX_SCALE = 100.0
    MAX_TELESCOPE_SLASH24S = fleet.MAX_TELESCOPE_SLASH24S

    def validate(self) -> list[dict]:
        errors: list[dict] = []
        if not isinstance(self.year, int) or self.year not in VALID_YEARS:
            errors.append({
                "field": "year",
                "message": f"must be one of {VALID_YEARS}",
                "value": self.year,
            })
        if not isinstance(self.scale, (int, float)) or isinstance(self.scale, bool) \
                or not 0.0 < float(self.scale) <= self.MAX_SCALE:
            errors.append({
                "field": "scale",
                "message": f"must be in (0, {self.MAX_SCALE:g}]",
                "value": self.scale,
            })
        if not isinstance(self.telescope_slash24s, int) or isinstance(self.telescope_slash24s, bool) \
                or not 1 <= self.telescope_slash24s <= self.MAX_TELESCOPE_SLASH24S:
            errors.append({
                "field": "telescope_slash24s",
                "message": f"must be in [1, {self.MAX_TELESCOPE_SLASH24S}]",
                "value": self.telescope_slash24s,
            })
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or not 0 <= self.seed < 1 << 63:
            errors.append({
                "field": "seed",
                "message": "must be a non-negative 63-bit integer",
                "value": self.seed,
            })
        return errors

    def to_config(self):
        """Validate, then build the engine-facing configuration."""
        errors = self.validate()
        if errors:
            raise SchemaError(errors)
        from repro.experiments.context import ExperimentConfig

        return ExperimentConfig(
            year=self.year,
            scale=float(self.scale),
            telescope_slash24s=self.telescope_slash24s,
            seed=self.seed,
        )


def validate_simulation_config(
    year: int = 2021,
    scale: float = 0.5,
    telescope_slash24s: int = 16,
    seed: int = 20230701,
):
    """One-shot helper: validated :class:`ExperimentConfig` or SchemaError.

    Every CLI subcommand that accepts simulation arguments goes through
    here, so the engine never starts on a configuration the contract
    rejects.
    """
    return SimulationPayload(
        year=year, scale=scale, telescope_slash24s=telescope_slash24s, seed=seed
    ).to_config()


# -- blocklist files --------------------------------------------------------

#: Size cap on an external blocklist file; anything larger is rejected
#: before a single line is parsed.
MAX_BLOCKLIST_BYTES = 4 << 20


def validate_blocklist_file(path) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Parse and validate an external blocklist file.

    Line format (the shape ``cloudwatching respond --blocklist-out``
    emits, so paper-static baselines and closed-loop output round-trip
    through one parser):

    * blank lines and ``#`` comments are skipped;
    * ``AS<number>`` blocks a source AS (e.g. ``AS4134``);
    * anything else must be a dotted-quad (or integer) IPv4 source.

    Returns sorted, deduplicated ``(ips, asns)`` tuples.  All problems —
    missing file, oversized file, malformed lines — surface as a single
    :class:`SchemaError` carrying one structured entry per bad line, so
    callers (CLI, experiment drivers) report every defect at once.
    """
    import os

    path = os.fspath(path)
    try:
        size = os.path.getsize(path)
    except OSError:
        raise SchemaError.single("blocklist", "file not found", path) from None
    if size > MAX_BLOCKLIST_BYTES:
        raise SchemaError.single(
            "blocklist", f"file exceeds {MAX_BLOCKLIST_BYTES} bytes", path
        )
    errors: list[dict] = []
    ips: set[int] = set()
    asns: set[int] = set()
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            field = f"blocklist:{lineno}"
            if line[:2].upper() == "AS":
                number = _parse_int(line[2:], field, 0, (1 << 32) - 1, errors)
                if number is not None:
                    asns.add(number)
                continue
            try:
                ips.add(parse_ip(line, field=field))
            except SchemaError as exc:
                errors.extend(exc.errors)
    if errors:
        raise SchemaError(errors)
    return tuple(sorted(ips)), tuple(sorted(asns))
