"""Countermeasures against the poisoning attacks (§VII) and their baselines."""

from repro.defenses.base import (
    Defense,
    DetectionQuality,
    detection_quality,
    remove_flagged_pairs,
    resample_flagged_rows,
)
from repro.defenses.degree_consistency import DegreeConsistencyDefense
from repro.defenses.evaluation import DefendedOutcome, evaluate_defended_attack
from repro.defenses.frequent_itemset import FrequentItemsetDefense
from repro.defenses.hybrid import HybridDefense
from repro.defenses.naive import NaiveDegreeTailsDefense, NaiveTopDegreeDefense

__all__ = [
    "HybridDefense",
    "Defense",
    "DetectionQuality",
    "detection_quality",
    "remove_flagged_pairs",
    "resample_flagged_rows",
    "DegreeConsistencyDefense",
    "DefendedOutcome",
    "evaluate_defended_attack",
    "FrequentItemsetDefense",
    "NaiveDegreeTailsDefense",
    "NaiveTopDegreeDefense",
]
