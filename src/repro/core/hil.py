"""Human-in-the-loop review hooks.

Cocoon is designed as a human-in-the-loop process: for every error-detection
and cleaning step the system presents the LLM's reasoning and asks a human to
verify or adjust (Appendix A of the paper).  The hooks here model that
interaction point.  The experiments in the paper skip the human and accept
the LLM output directly ("we skip these and use the LLM provided ground
truth"); :class:`AutoApprove` reproduces that mode and is the default.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.result import DetectionFinding


@dataclass
class ReviewDecision:
    """Outcome of one review: approve, reject, or approve with edits."""

    approved: bool
    # For cleaning reviews: an edited value mapping that replaces the LLM's.
    # Honoured by every step whose payload carries a mapping — string and
    # pattern outlier value maps, casts and FD repairs — and ignored by
    # disguised-missing nulling, numeric ranges, duplication and uniqueness.
    edited_mapping: Optional[Dict[str, str]] = None
    note: str = ""


class HumanInTheLoop(abc.ABC):
    """Interface the pipeline calls before acting on LLM output."""

    @abc.abstractmethod
    def review_detection(self, finding: DetectionFinding) -> ReviewDecision:
        """Review a semantic detection result (should cleaning proceed?)."""

    @abc.abstractmethod
    def review_cleaning(
        self, finding: DetectionFinding, mapping: Dict[str, str], sql: str
    ) -> ReviewDecision:
        """Review the proposed value mapping / SQL before it is executed."""


class AutoApprove(HumanInTheLoop):
    """Accept every LLM decision (the mode used for the paper's experiments)."""

    def __init__(self) -> None:
        self.reviewed: List[DetectionFinding] = []

    def review_detection(self, finding: DetectionFinding) -> ReviewDecision:
        self.reviewed.append(finding)
        return ReviewDecision(approved=True)

    def review_cleaning(
        self, finding: DetectionFinding, mapping: Dict[str, str], sql: str
    ) -> ReviewDecision:
        return ReviewDecision(approved=True)


class CallbackReviewer(HumanInTheLoop):
    """Route review decisions through user-supplied callbacks.

    This is what an interactive front end (the paper's HTML UI) plugs into;
    tests use it to simulate a human rejecting or editing specific steps.
    """

    def __init__(
        self,
        on_detection: Optional[Callable[[DetectionFinding], ReviewDecision]] = None,
        on_cleaning: Optional[Callable[[DetectionFinding, Dict[str, str], str], ReviewDecision]] = None,
    ):
        self._on_detection = on_detection
        self._on_cleaning = on_cleaning
        self.detection_log: List[DetectionFinding] = []
        self.cleaning_log: List[DetectionFinding] = []

    def review_detection(self, finding: DetectionFinding) -> ReviewDecision:
        self.detection_log.append(finding)
        if self._on_detection is None:
            return ReviewDecision(approved=True)
        return self._on_detection(finding)

    def review_cleaning(
        self, finding: DetectionFinding, mapping: Dict[str, str], sql: str
    ) -> ReviewDecision:
        self.cleaning_log.append(finding)
        if self._on_cleaning is None:
            return ReviewDecision(approved=True)
        return self._on_cleaning(finding, mapping, sql)
