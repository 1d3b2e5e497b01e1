"""The paper's contribution: stealthy censorship-measurement techniques.

Section 3 (mimicking population traffic): :class:`ScanMeasurement`,
:class:`SpamMeasurement`, :class:`DDoSMeasurement`.  Section 4
(manipulating population traffic): :class:`StatelessSpoofedDNSMeasurement`,
:class:`SpoofedSYNReachability`, :class:`StatefulMimicryMeasurement`.
Baseline: :class:`OvertDNSMeasurement`, :class:`OvertHTTPMeasurement`.
:mod:`repro.core.evaluation` builds the paper's Figure-1 environment that
every technique is evaluated in.
"""

from .ddos import DDoSMeasurement
from .dupdetect import DuplicateResponseDetector, ResponsePair
from .evaluation import Environment, build_environment
from .keywords import KeywordIsolator, KeywordProbeMeasurement
from .longitudinal import LongitudinalCampaign
from .measurement import MeasurementContext, MeasurementTechnique, RetryPolicy
from .overt import OvertDNSMeasurement, OvertHTTPMeasurement, interpret_dns
from .residual import ResidualBlockingMeasurement
from .results import (
    MeasurementResult,
    Verdict,
    aggregate_attempts,
    blocked_verdicts,
    summarize,
)
from .risk import RiskAssessment, assess_risk
from .scanning import ScanMeasurement, ScanTarget, top_ports
from .sni import TLSReachabilityMeasurement
from .spam import SpamMeasurement
from .spoofing_stateful import MimicryServer, StatefulMimicryMeasurement, shared_isn
from .spoofing_stateless import SpoofedSYNReachability, StatelessSpoofedDNSMeasurement

__all__ = [
    "DDoSMeasurement",
    "DuplicateResponseDetector",
    "Environment",
    "KeywordIsolator",
    "KeywordProbeMeasurement",
    "LongitudinalCampaign",
    "MeasurementContext",
    "MeasurementResult",
    "MeasurementTechnique",
    "MimicryServer",
    "OvertDNSMeasurement",
    "OvertHTTPMeasurement",
    "ResidualBlockingMeasurement",
    "ResponsePair",
    "RetryPolicy",
    "RiskAssessment",
    "ScanMeasurement",
    "ScanTarget",
    "SpamMeasurement",
    "SpoofedSYNReachability",
    "StatefulMimicryMeasurement",
    "StatelessSpoofedDNSMeasurement",
    "TLSReachabilityMeasurement",
    "Verdict",
    "aggregate_attempts",
    "assess_risk",
    "blocked_verdicts",
    "build_environment",
    "interpret_dns",
    "shared_isn",
    "summarize",
    "top_ports",
]
