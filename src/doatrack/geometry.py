"""Directions on the unit sphere: representation, distance, sampling.

A direction is an (azimuth, elevation) pair in radians. The stored
containers (trackmodel.TrackSet and trackmodel.ObservationSet) hold it
as two angle columns only; matching and the PF derive unit vectors from
them with unit_vectors_from_angles, once per scene. Scene simulation,
the walk and the trackers work on the two angles as floats. Direction
objects remain only at the edges: the samplers here, the inputs of
match_frame and ospa_frame, and angular_distance. External interfaces (CSV files,
CLI flags, JSON configs) carry angles in degrees and convert exactly at
the boundary (multiply by pi/180).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FeasibilityExhausted

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Direction:
    """A point on the unit sphere.

    azimuth is wrapped into [-pi, pi); elevation must lie in
    [-pi/2, pi/2]. The implied unit vector is
    (cos el * cos az, cos el * sin az, sin el).
    """

    azimuth: float
    elevation: float

    def __post_init__(self):
        el = float(self.elevation)
        if not -math.pi / 2 - 1e-12 <= el <= math.pi / 2 + 1e-12:
            raise ValueError(f"elevation {el!r} outside [-pi/2, pi/2]")
        object.__setattr__(self, "azimuth", wrap_azimuth(float(self.azimuth)))
        object.__setattr__(self, "elevation", min(math.pi / 2, max(-math.pi / 2, el)))

    @staticmethod
    def from_degrees(azimuth_deg: float, elevation_deg: float) -> "Direction":
        return Direction(math.radians(azimuth_deg), math.radians(elevation_deg))


def wrap_azimuth(az: float) -> float:
    """An azimuth in radians wrapped into [-pi, pi); values already there come back unchanged.

    Raises ValueError on NaN and, from math.remainder, on an infinity.
    """
    if math.isnan(az):
        raise ValueError("azimuth is NaN")
    az = math.remainder(az, TWO_PI)
    if az >= math.pi:  # remainder() yields (-pi, pi]; the convention is [-pi, pi)
        az -= TWO_PI
    return az


def unit_xyz(azimuth: float, elevation: float) -> tuple[float, float, float]:
    """Unit vector of an (azimuth, elevation) pair in radians, as three floats."""
    ce = math.cos(elevation)
    return ce * math.cos(azimuth), ce * math.sin(azimuth), math.sin(elevation)


def unit_vectors_from_angles(azimuth: list[float], elevation: list[float]) -> np.ndarray:
    """(n, 3) unit vectors of azimuth/elevation lists in radians, as a
    Direction holds them.

    Row i equals unit_xyz of direction i bit for bit: the same math
    calls and products. numpy's own sin and cos need not round as math
    does on every host.
    """
    n = len(azimuth)
    ce = np.fromiter(map(math.cos, elevation), float, n)
    unit = np.empty((n, 3))
    unit[:, 0] = ce * np.fromiter(map(math.cos, azimuth), float, n)
    unit[:, 1] = ce * np.fromiter(map(math.sin, azimuth), float, n)
    unit[:, 2] = np.fromiter(map(math.sin, elevation), float, n)
    return unit


def angles_of_unit_vector(x: float, y: float, z: float) -> tuple[float, float]:
    """(azimuth, elevation) of a (near-)unit 3-vector, wrapped and
    clamped as a Direction stores them.

    Elevation comes from atan2 against the horizontal norm rather than
    asin(z), which is ill-conditioned near the poles.
    """
    el = math.atan2(z, math.hypot(x, y))
    return wrap_azimuth(math.atan2(y, x)), min(math.pi / 2, max(-math.pi / 2, el))


def angular_distance(a: Direction, b: Direction) -> float:
    """Great-circle angle between two directions, in [0, pi].

    Mathematically the arccos of the clamped dot product of the unit
    vectors; computed as atan2(|u_a x u_b|, u_a . u_b), which is exact
    for identical inputs and stable near both 0 and pi, where arccos of
    a rounded dot product loses ~1e-8 of precision.
    """
    ax, ay, az = unit_xyz(a.azimuth, a.elevation)
    bx, by, bz = unit_xyz(b.azimuth, b.elevation)
    cx = ay * bz - az * by
    cy = az * bx - ax * bz
    cz = ax * by - ay * bx
    dot = ax * bx + ay * by + az * bz
    return math.atan2(math.hypot(cx, cy, cz), dot)


def pairwise_angular_distance(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Angular distances between two sets of unit vectors.

    ua has shape (..., na, 3) and ub (..., nb, 3); the result has shape
    (..., na, nb), one distance matrix per index of the shared leading
    dimensions. Same stable atan2 form as angular_distance. A stack of
    matrices gives, bit for bit, the matrices of separate calls: the
    dot products go through one stacked matmul, never a reordered sum.
    """
    dots = ua @ np.swapaxes(ub, -1, -2)
    cross = np.cross(ua[..., :, None, :], ub[..., None, :, :])
    return np.arctan2(np.linalg.norm(cross, axis=-1), dots)


def sample_direction(rng: np.random.Generator) -> Direction:
    """Draw one direction uniformly on the sphere (area measure)."""
    az = rng.uniform(-math.pi, math.pi)
    el = math.asin(rng.uniform(-1.0, 1.0))
    return Direction(az, el)


def sample_separated_set(
    n: int,
    min_sep: float,
    rng: np.random.Generator,
    max_attempts: int = 200,
) -> list[Direction]:
    """Sample n directions with all pairwise angular distances >= min_sep.

    Whole-set rejection with per-point retry: points are placed one at
    a time, each with up to max_attempts draws; if a point cannot be
    placed the whole set is restarted, for at most max_attempts rounds.
    Geometric feasibility is the caller's responsibility.

    Raises:
        FeasibilityExhausted: all rounds failed (over-constrained request).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < min_sep <= math.pi:
        raise ValueError("min_sep must lie in (0, pi]")
    for _ in range(max_attempts):
        chosen: list[Direction] = []
        for _ in range(n):
            for _ in range(max_attempts):
                cand = sample_direction(rng)
                if all(angular_distance(cand, d) >= min_sep for d in chosen):
                    chosen.append(cand)
                    break
            else:
                break  # point placement exhausted; restart the set
        if len(chosen) == n:
            return chosen
    raise FeasibilityExhausted(
        f"could not place {n} directions with min separation "
        f"{math.degrees(min_sep):.1f} deg in {max_attempts} rounds"
    )


def move_along_great_circle(
    azimuth: float, elevation: float, heading: float, arc: float
) -> tuple[float, float]:
    """Advance an (azimuth, elevation) pair in radians by `arc` radians
    along the great circle with initial tangent at angle `heading`
    (measured from east toward north); the result is wrapped and clamped
    as a Direction stores it.

    Successive calls with arcs k*step for k = 0, 1, ... trace the circle
    at exactly `step` angular spacing.
    """
    sa, ca = math.sin(azimuth), math.cos(azimuth)
    se, ce = math.sin(elevation), math.cos(elevation)
    ch, sh = math.cos(heading), math.sin(heading)
    # tangent = ch * east + sh * north; east = (-sa, ca, 0), north = (-se ca, -se sa, ce)
    tx = ch * -sa + sh * (-se * ca)
    ty = ch * ca + sh * (-se * sa)
    tz = ch * 0.0 + sh * ce  # the zero term fixes the sign of a zero tz
    cr, sr = math.cos(arc), math.sin(arc)
    return angles_of_unit_vector(
        cr * (ce * ca) + sr * tx, cr * (ce * sa) + sr * ty, cr * se + sr * tz
    )


def perturb_direction(
    azimuth: float, elevation: float, sigma: float, rng: np.random.Generator
) -> tuple[float, float]:
    """Isotropically perturb an (azimuth, elevation) pair in radians.

    Rotates by a folded-normal magnitude (|N(0, sigma)|) toward a
    uniform tangent heading. The mean deflection is sigma * sqrt(2/pi).
    """
    # Both draws happen regardless of sigma so the stream position does
    # not depend on the noise setting.
    heading = rng.uniform(0.0, TWO_PI)
    arc = abs(rng.normal(0.0, sigma))
    if arc == 0.0:
        return azimuth, elevation
    return move_along_great_circle(azimuth, elevation, heading, arc)
