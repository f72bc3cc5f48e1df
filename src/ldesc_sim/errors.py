"""Exception types shared across the simulator, and the messages of three
input errors that config and trace parsing share."""

import sys
from pathlib import Path


class LdescError(Exception):
    """Base class for all descriptor/simulation errors."""


class MisalignedBase(LdescError):
    """Data structure base address is not 64 KiB page aligned."""


class InvalidTileSemantics(LdescError):
    """Tile dims or compute-data map violate the 1:1 tile contract."""


class OverlapConflict(LdescError):
    """Two descriptors over overlapping address ranges share a priority."""


class OutOfGrid(LdescError):
    """CTA coordinates lie outside the compute grid."""


class OutOfRange(LdescError):
    """Tile index lies outside its tile space."""


class UnplacedPage(LdescError):
    """First-touch lookup for a page no CTA has accessed yet."""


class MshrFull(LdescError):
    """No MSHR entry available; the access must stall and retry."""


class UnknownStream(LdescError):
    """Attempt to retire a data tile that has no active prefetch stream."""


class ConfigMismatch(LdescError):
    """Schedule, workload and system configuration disagree."""


class ConfigError(Exception):
    """Malformed experiment configuration or trace input (CLI exit 2)."""


def undecodable(path, exc: UnicodeDecodeError) -> ConfigError:
    """The ConfigError for a file that ``exc``'s codec cannot decode, naming
    the line of its first bad byte (``exc`` may hold only part of the file)."""
    data = Path(path).read_bytes()
    try:
        data.decode(exc.encoding)
    except UnicodeDecodeError as whole:
        exc = whole
    line = data.count(b"\n", 0, exc.start) + 1
    return ConfigError(f"{path}:{line}: byte {data[exc.start]:#04x} is not valid {exc.encoding}")


# What a RecursionError from ``json.loads`` means.
TOO_DEEP = "a JSON value is nested too deeply"


def too_long_int() -> str:
    """What a ValueError from ``json.loads`` other than a JSONDecodeError
    means: an integer with more digits than ``int()`` converts."""
    return f"an integer has more than {sys.get_int_max_str_digits()} digits"
