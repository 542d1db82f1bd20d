"""Canonical emotion label sets.

Seven-class target domain with a fixed project-wide ordering; labels are
serialized by name, never by index. The nine-class predictor domain adds
``other`` and ``unknown``, which only ever map to Neutral downstream.
"""

from __future__ import annotations

from enum import IntEnum

from .errors import DataError


class EmotionLabel(IntEnum):
    NEUTRAL = 0
    HAPPY = 1
    SAD = 2
    ANGRY = 3
    SURPRISED = 4
    FEARFUL = 5
    DISGUSTED = 6

    @property
    def canonical_name(self) -> str:
        return self.name.capitalize()

    @staticmethod
    def from_name(name: str) -> "EmotionLabel":
        try:
            return EmotionLabel[name.strip().upper()]
        except (KeyError, AttributeError):
            raise DataError(f"unknown emotion label {name!r}") from None


EMOTIONS = tuple(EmotionLabel)
NUM_CLASSES = len(EMOTIONS)

# Six non-neutral emotions: agreement inside this set yields a pseudo-label.
EMOTIONAL_SET = frozenset(label for label in EMOTIONS if label != EmotionLabel.NEUTRAL)

# Predictor output domain: the seven targets plus catch-all classes.
PREDICTOR_LABELS = frozenset(
    [label.name.lower() for label in EMOTIONS] + ["other", "unknown"]
)


def parse_predictor_label(name: str) -> str:
    """Validate a 9-class predictor label, returning its lowercase form."""
    cleaned = name.strip().lower() if isinstance(name, str) else None
    if cleaned not in PREDICTOR_LABELS:
        raise DataError(f"unknown predictor label {name!r}")
    return cleaned
