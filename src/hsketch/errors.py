"""Exception types shared across the package, and the integer check that raises them."""

import operator


class HSketchError(Exception):
    """Base class for all hsketch errors."""


class InvalidGroupError(HSketchError):
    """Group descriptor is malformed (order < 2, empty, or too large)."""


class GroupMismatchError(HSketchError):
    """Operands belong to different groups."""


class InvalidConfigError(HSketchError):
    """Sketch configuration violates its invariants."""


class CannotCombineError(HSketchError):
    """Sketches do not share the configuration required for a product."""


class CorruptSketchError(HSketchError):
    """Serialized sketch bytes are malformed or truncated."""


class RegisterOverflowError(HSketchError):
    """Integer register would exceed the checked 64-bit workload bound."""


class DomainError(HSketchError):
    """Special-function argument outside the supported domain."""


class InvalidRHatError(HSketchError):
    """Support-distribution transform table violates |value| <= 1."""


class SaturatedError(HSketchError):
    """Cardinality estimator has no empty levels left to work with."""


class NoSamplesError(HSketchError):
    """Sampling-based estimate requested but no singletons were detected."""


class InvalidWorkloadError(HSketchError):
    """Workload specification is inconsistent (counts exceed universe, ...)."""


class SchemaError(HSketchError):
    """CSV rows do not match the expected schema."""


def _checked_int(name: str, value, lo: int, hi: int | None = None, error=InvalidConfigError) -> int:
    """``value`` as an int in [lo, hi), or >= lo if ``hi`` is None; anything else raises ``error``."""
    try:
        value = operator.index(value)  # int() would truncate 4.5 to 4
    except TypeError:
        raise error(f"{name}={value!r} is not an integer") from None
    if value < lo or (hi is not None and value >= hi):
        raise error(f"{name}={value} must be >= {lo}" + ("" if hi is None else f" and < {hi}"))
    return value
