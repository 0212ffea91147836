"""Outlier screening for voltage measurements.

Gross voltage errors (dropouts, scaled or stuck readings) sit at the
extremes of the sorted voltage set. The screen repeatedly removes whichever
extreme value, min or max, cuts the population SD of the remaining set
below half of the current SD, and substitutes the mean of the remaining
values. Power and current entries pass through untouched.

Removal candidates are additionally gated by a plausibility band: healthy
feeders legitimately spread several percent below the slack voltage, which
also halves the SD when removed, so only readings outside the fixed band
``PLAUSIBLE_V_MIN`` to ``PLAUSIBLE_V_MAX`` (0.8 to 1.2 pu) qualify as
outliers. Gross errors like dropouts to zero or 150 % readings fall outside
the band; clean profiles are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurements import MeasurementSet, MeasurementSpec

SD_DROP_THRESHOLD = 0.5
MIN_VOLTAGE_ENTRIES = 3
PLAUSIBLE_V_MIN = 0.8
PLAUSIBLE_V_MAX = 1.2

KEPT = "kept"
REPLACED = "replaced"


@dataclass(frozen=True)
class CorrectionReport:
    measurements: MeasurementSet
    flags: tuple[str, ...]  # per voltage entry, spec order
    substitutes: tuple[float, ...]  # replacement value per replaced entry
    skipped: bool  # True when fewer than MIN_VOLTAGE_ENTRIES voltages exist

    @property
    def n_replaced(self) -> int:
        return sum(1 for f in self.flags if f == REPLACED)


def correct_voltages(ms: MeasurementSet, spec: MeasurementSpec) -> CorrectionReport:
    """Detect and replace voltage outliers; other entries are bit-identical."""
    if spec.spec_hash != ms.spec_hash:
        raise ValueError("measurement set does not belong to this spec")
    v_idx = spec.indices("v_bus")
    if len(v_idx) < MIN_VOLTAGE_ENTRIES:
        return CorrectionReport(ms, tuple(KEPT for _ in v_idx), (), skipped=True)

    values = ms.values.copy()
    flags, substitutes = _screen(values, v_idx)
    return CorrectionReport(
        measurements=ms.replaced(values),
        flags=tuple(flags[i] for i in v_idx),
        substitutes=tuple(substitutes),
        skipped=False,
    )


def correct_rows(values: np.ndarray, spec: MeasurementSpec) -> None:
    """Screen each row of readings ``(B, m)`` in place, as
    :func:`correct_voltages` screens one vector.

    Only a reading outside the plausibility band can be removed, so only the
    rows with a voltage outside it (NaN counts as outside) are screened; the
    others would come back unchanged.
    """
    v_idx = spec.indices("v_bus")
    if len(v_idx) < MIN_VOLTAGE_ENTRIES:
        return
    v = values[:, v_idx]
    outside = ~((v >= PLAUSIBLE_V_MIN) & (v <= PLAUSIBLE_V_MAX))
    for row in np.flatnonzero(outside.any(axis=1)):
        _screen(values[row], v_idx)


def _screen(values, v_idx):
    """Screen ``values`` in place; the flag per voltage entry and the
    substitutes in the order made."""
    flags = {i: KEPT for i in v_idx}
    substitutes: list[float] = []
    # repeat whole screening passes until a pass replaces nothing, so that
    # substitutes which still look like outliers get cleaned up as well;
    # this makes the screen idempotent even for multi-fault inputs
    for _ in range(16 * len(v_idx)):
        if not _screen_pass(values, v_idx, flags, substitutes):
            break
    return flags, substitutes


def _screen_pass(values, v_idx, flags, substitutes) -> int:
    active = list(v_idx)
    replaced = 0
    while len(active) > MIN_VOLTAGE_ENTRIES - 1:
        work = np.array([values[i] for i in active])
        sd_now = float(np.std(work))  # population SD
        order = np.argsort(work, kind="stable")
        candidates = []
        for pos in (order[0], order[-1]):  # tentative min then max removal
            if PLAUSIBLE_V_MIN <= work[pos] <= PLAUSIBLE_V_MAX:
                continue
            remaining = np.delete(work, pos)
            sd_removed = float(np.std(remaining))
            if sd_removed < SD_DROP_THRESHOLD * sd_now:
                candidates.append((sd_removed, pos, float(np.mean(remaining))))
        if not candidates:
            break
        # when both extremes qualify, the removal with the larger SD drop wins
        sd_removed, pos, substitute = min(candidates)
        entry = active[pos]
        values[entry] = substitute
        flags[entry] = REPLACED
        substitutes.append(substitute)
        active.remove(entry)
        replaced += 1
    return replaced
