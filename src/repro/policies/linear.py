"""The paper's linear predictor as a :class:`ModePolicy` (the default).

This is the exact Fig. 6 rule that used to live inline in
``AdaptiveMSS._check_mode``: record the sample in the sliding
:class:`~repro.core.nfc.NFCWindow`, linearly extrapolate the
free-primary count one round-trip (``horizon = 2T``) ahead, enter
borrowing below θ_l, leave at or above θ_h.  Scenarios with
``policy="linear"`` are bit-identical to the pre-registry simulator.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Optional

from ..core.nfc import NFCWindow
from .base import ModePolicy, register_policy

__all__ = ["LinearPolicy"]


@register_policy
class LinearPolicy(ModePolicy):
    """Fig. 6: threshold test on the NFC linear extrapolation."""

    name = "linear"

    def __init__(self, **context: Any) -> None:
        super().__init__(**context)
        self.nfc = NFCWindow(self.window, initial=self.initial)

    def decide(self, t: float, s: int, borrowing: bool) -> Optional[bool]:
        nfc = self.nfc
        nfc.add(t, s)
        predicted = nfc.predict(t, self.horizon)
        if not borrowing and predicted < self.theta_low:
            return True
        if borrowing and predicted >= self.theta_high:
            return False
        return None

    def predict_at(self, t: float) -> Optional[float]:
        return self.nfc.predict(t, self.horizon)

    def reset(self, initial: int) -> None:
        self.nfc = NFCWindow(self.window, initial=initial)

    def state_dict(self) -> Dict[str, Any]:
        return {"samples": [list(sample) for sample in self.nfc._samples]}

    def load_state(self, data: Dict[str, Any]) -> None:
        self.nfc._samples = deque(
            (float(t), int(s)) for t, s in data["samples"]
        )
