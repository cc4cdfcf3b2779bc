"""Drift-anchored recalibration: separating aging from manufacturing.

The design-time sensing model ties mobility to threshold through the
foundry's manufacturing correlation (a fast-V_t die is a high-mobility
die).  BTI aging breaks that tie: it raises thresholds *without* touching
mobility.  A sensor that re-extracts an aged die against the plain model
therefore misattributes part of the drift to mobility and loses accuracy
(measured in experiment R-E2's "naive" column).

The fix costs one register pair: store the **time-zero extraction** as the
die's manufacturing anchor.  At later power-ons, evaluate the model with

* mobility coupled to the *anchor* (the manufacturing point, where the
  coupling is physically valid), and
* thresholds at the *current* hypothesis (anchor + drift, where drift is
  V_t-only — exactly BTI's physics).

:class:`DriftAnchoredModel` is that model; running the unchanged
self-calibration engine on it recovers both the temperature accuracy class
and the true drift magnitude on aged dies.  This is a reconstruction
extension (flagged in DESIGN.md), but a small one: it reuses every piece of
the paper's machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.sensing_model import SensingModel
from repro.variation import corners


@dataclass(frozen=True)
class DriftAnchoredModel(SensingModel):
    """Sensing model with mobility frozen at a manufacturing anchor.

    Attributes:
        anchor_dvtn: Time-zero extracted NMOS threshold shift, volts.
        anchor_dvtp: Time-zero extracted PMOS threshold-magnitude shift,
            volts.
    """

    anchor_dvtn: float = 0.0
    anchor_dvtp: float = 0.0

    @classmethod
    def from_time_zero(
        cls, model: SensingModel, anchor_dvtn: float, anchor_dvtp: float
    ) -> "DriftAnchoredModel":
        """Anchor a plain model at a die's time-zero extraction."""
        return cls(
            technology=model.technology,
            config=model.config,
            vt_box=model.vt_box,
            anchor_dvtn=anchor_dvtn,
            anchor_dvtp=anchor_dvtp,
        )

    def mobility_scales(self, dvtn, dvtp):
        """Mobility coupled to the anchor, whatever the current thresholds."""
        return corners.mobility_scales(self.anchor_dvtn, self.anchor_dvtp)

    def drift_from(self, dvtn: float, dvtp: float) -> tuple:
        """Aging drift implied by a current extraction, volts."""
        return dvtn - self.anchor_dvtn, dvtp - self.anchor_dvtp
