"""Exception types shared across the simulator."""


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
