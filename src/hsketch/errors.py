"""Exception types shared across the package."""


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
