"""Exception hierarchy shared across the package."""


class UfndError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(UfndError):
    """An input file is missing a required column or has a bad header."""


class DataError(UfndError):
    """A data row is malformed (e.g. unmappable label)."""


class EmptyCorpusError(DataError):
    """A dataset file contained no usable rows."""


class ArgumentError(UfndError, ValueError):
    """An argument violates an operation's precondition."""


class ShapeError(ArgumentError):
    """Tensor shapes are incompatible for the requested operation."""


class ContractError(UfndError):
    """A runtime contract was violated (e.g. fully masked sample)."""


class NonFiniteError(UfndError):
    """Checked mode detected a NaN or Inf value."""

    def __init__(self, name: str):
        super().__init__(f"non-finite value detected in '{name}'")
        self.name = name

    def __reduce__(self):
        # The default rebuilds from `args`, the formatted message.
        return type(self), (self.name,)


class IntegrityError(UfndError):
    """A checkpoint file is corrupt (checksum or structure mismatch)."""


class VersionError(UfndError):
    """A checkpoint file has an unsupported format version."""


class IncompatibilityError(UfndError):
    """A checkpoint does not match the corpus/config it is used with."""
