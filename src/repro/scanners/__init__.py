"""Scanner population models: strategies, payloads, credentials, campaigns."""

from repro.scanners.base import PortPlan, ScannerSpec, SearchEngineUse, TemporalProfile
from repro.scanners.credentials import DIALECTS, CredentialDialect, dialect
from repro.scanners.payloads import (
    HTTP_CORPUS,
    HttpPayload,
    LZR_PROTOCOLS,
    http_payload,
    protocol_first_payload,
    strip_ephemeral_headers,
)
from repro.scanners.population import PopulationConfig, build_population
from repro.scanners.strategies import CoverageModel, StructureBias, TargetSet, TargetStrategy

__all__ = [
    "PortPlan", "ScannerSpec", "SearchEngineUse", "TemporalProfile",
    "DIALECTS", "CredentialDialect", "dialect",
    "HTTP_CORPUS", "HttpPayload", "LZR_PROTOCOLS", "http_payload",
    "protocol_first_payload", "strip_ephemeral_headers",
    "PopulationConfig", "build_population",
    "CoverageModel", "StructureBias", "TargetSet", "TargetStrategy",
]
