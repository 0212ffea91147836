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

import numpy as np

from .measurements import MeasurementSpec

SD_DROP_THRESHOLD = 0.5
MIN_VOLTAGE_ENTRIES = 3
PLAUSIBLE_V_MIN = 0.8
PLAUSIBLE_V_MAX = 1.2


def correct_rows(values: np.ndarray, spec: MeasurementSpec) -> None:
    """Screen each row of readings ``(B, m)`` in place: each row's voltage
    outliers are replaced; other entries are bit-identical.

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


def _screen(values, v_idx) -> None:
    """Screen ``values`` in place."""
    # repeat whole screening passes until a pass replaces nothing, so that
    # substitutes which still look like outliers get cleaned up as well;
    # this makes the screen idempotent even for multi-fault inputs
    for _ in range(16 * len(v_idx)):
        if not _screen_pass(values, v_idx):
            break


def _screen_pass(values, v_idx) -> int:
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
        active.remove(entry)
        replaced += 1
    return replaced
