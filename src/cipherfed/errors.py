"""Exception types shared across the package.

Exit-code contract for the CLI: ConfigError maps to 2, ProtocolError and
other runtime failures to 3, OS-level IO errors to 4.
"""


class CipherfedError(Exception):
    """Base class for all package errors."""


class ParameterError(CipherfedError):
    """Encryption parameters violate an invariant, or objects from
    incompatible parameter sets were mixed."""


class CapacityError(CipherfedError):
    """More values than a plaintext holds, in slots or coefficients."""


class DomainError(CipherfedError):
    """Value outside the operation's domain (non-finite input, wrong
    polynomial domain tag, label out of range, ...)."""


class LevelError(CipherfedError):
    """Modulus chain exhausted or level out of range."""


class AlignmentError(CipherfedError):
    """Operands disagree on level, scale, or chunking."""


class ShapeError(CipherfedError):
    """Array or layer shapes do not chain consistently."""


class ConfigError(CipherfedError):
    """Invalid run configuration; rejected before any work starts."""


class IngestionError(CipherfedError):
    """CSV ingestion failure (missing file, bad cell, unknown column)."""


class ProtocolError(CipherfedError):
    """Federation protocol violation (round mismatch, client failure,
    corrupted frame)."""


class FormatError(CipherfedError):
    """Serialized artifact has an unknown magic or malformed layout."""
