"""Walk through the enhancement-quality assessment on hand-sized maps.

Two 3x3 attention maps stand in for the low-light frame and its enhanced
version. The script prints every intermediate: raw difference, filtering,
temporal variation over the rolling window, and the final Q score.
"""

import numpy as np

from camsched.camq import (
    CamMap,
    QualityState,
    commit_slot,
    enhancement_quality,
    filter_cam,
    record_accuracy,
)

np.set_printoptions(precision=3, suppress=True)

# A low-light frame pays attention to little; the enhanced frame recovers
# the object in the center. Values are attention mass per cell.
lowlight = CamMap(np.array([
    [0.10, 0.20, 0.10],
    [0.15, 0.30, 0.10],
    [0.05, 0.10, 0.05],
]))
enhanced = CamMap(np.array([
    [0.10, 0.25, 0.10],
    [0.20, 0.95, 0.60],
    [0.05, 0.55, 0.10],
]))

print("raw difference (enhanced - lowlight):",
      round(float(np.sum(enhanced.values - lowlight.values)), 4))

# Filtering keeps only cells strictly above the threshold, so weak noise
# stops contributing to the score.
gamma = 0.4
fe = filter_cam(enhanced, gamma)
fl = filter_cam(lowlight, gamma)
print("\nenhanced after the", gamma, "filter:")
print(fe.values)
print("lowlight after the filter (all mass below threshold):")
print(fl.values)
print("filtered difference:", round(float(np.sum(fe.values - fl.values)), 4))

# The denominator is how much the filtered map moved against the recent
# window. A static scene gives a small denominator and a big Q; a busy
# scene dilutes the same difference.
window = [
    filter_cam(CamMap(np.array([
        [0.10, 0.20, 0.10],
        [0.15, 0.90, 0.55],
        [0.05, 0.50, 0.10],
    ])), gamma),
    filter_cam(CamMap(np.array([
        [0.10, 0.25, 0.10],
        [0.20, 0.85, 0.65],
        [0.05, 0.60, 0.10],
    ])), gamma),
]
variation = sum(float(np.sum(np.abs(fe.values - past.values))) for past in window)
print("\ntemporal variation vs a 2-slot window:", round(variation, 4))

# The same computation through the stateful assessor: commit the window,
# record an accuracy observation, then score the new frame.
state = QualityState(num_devices=1, num_algorithms=1)
for past in window:
    commit_slot(state, 0, 1, past)
record_accuracy(state, 0, 0.9)

q = enhancement_quality(state, 0, 1, enhanced, lowlight, threshold=gamma)
print("\nQ for algorithm 1 on device 0:", round(q, 4))
print("Q for skipping enhancement is always:",
      enhancement_quality(state, 0, 0, enhanced, lowlight))

# A denominator pinned at the floor sends the ratio to the cap.
fresh = QualityState(num_devices=1, num_algorithms=1)
commit_slot(fresh, 0, 1, fe)  # identical window entry: zero variation
print("\nstatic window pins the denominator at its floor; Q clamps to:",
      enhancement_quality(fresh, 0, 1, enhanced, lowlight, threshold=gamma))
