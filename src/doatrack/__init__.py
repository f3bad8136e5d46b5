"""Identity-assignment evaluation toolkit for sound-source tracking.

Simulates acoustic scenes with intermittent, position-jumping speakers
at the track level, runs baseline trackers over noisy
direction-of-arrival observations, and computes frame-level (TSR, TFR,
IDSW, MOTA, OSPA, localization error) and global association metrics
(AssA, AssPr, AssRe) under angular-distance matching.
"""
