"""Exception types shared across the toolkit, and the checker of JSON
values that raises InvalidConfig."""

import math
import sys
from typing import get_args, get_origin


class DoatrackError(Exception):
    """Base class for all toolkit-specific errors."""


class FeasibilityExhausted(DoatrackError):
    """Rejection sampling failed to place a separated direction set.

    Signals an over-constrained request (too many points for the
    requested minimum separation), not a transient failure.
    """


class ParseError(DoatrackError):
    """Malformed row in a track/observation CSV file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateEntry(ParseError):
    """Repeated (track_id, frame_index) pair in the input."""


class GridMismatch(DoatrackError):
    """Two containers that must share a FrameGrid do not."""


class InvalidConfig(DoatrackError, ValueError):
    """A scenario/tracker configuration violates its invariants."""


class MissingTags(DoatrackError):
    """Oracle tracker received observations without source tags."""


class InvalidK(DoatrackError, ValueError):
    """Splitter fan-out exceeds the frames available on a track."""


class InsufficientData(DoatrackError):
    """The data holds too little for the computation asked of it: a
    bootstrap aggregation needs at least two defined values, a swapper
    at least two tracks in the scene."""


_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def coerce(value, hint, key: str):
    """Check one JSON value against a field type; never truncate or reinterpret.

    An integral float passes as an int; bools pass only as bools.
    Raises InvalidConfig naming key.
    """
    args = get_args(hint)
    if type(None) in args:
        return None if value is None else coerce(value, args[0], key)
    if get_origin(hint) is tuple:
        if not isinstance(value, list) or len(value) != len(args):
            raise InvalidConfig(f"{key} must be a list of {len(args)} numbers, got {value!r}")
        return tuple(coerce(v, t, key) for v, t in zip(value, args))
    if hint in (bool, str):
        ok = isinstance(value, hint)
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        if ok and isinstance(value, float):
            ok = math.isfinite(value) and (hint is float or value.is_integer())
        elif ok and hint is float:
            ok = abs(value) <= sys.float_info.max  # float() of a larger int overflows
    if not ok:
        raise InvalidConfig(f"{key} must be {_TYPE_NAMES[hint]}, got {value!r}")
    return hint(value)
