"""Exception hierarchy shared across segkit modules.

Two families matter to callers: FormatError for malformed files or byte
streams, PreconditionError for invalid arguments and for valid files fed to
an operation whose preconditions they do not meet. The CLI maps them to
distinct exit codes (2 and 3). PreconditionError is also a ValueError, so
callers that catch ValueError for bad arguments keep working.
"""


class SegkitError(Exception):
    """Base class for all segkit exceptions."""


class FormatError(SegkitError):
    """A file or byte stream violates its format definition."""


class PreconditionError(SegkitError, ValueError):
    """An argument is out of range, or an operation's precondition does not
    hold for the given input."""


# raster
class BadMagic(FormatError):
    pass


class TruncatedData(FormatError):
    pass


class UnsupportedMaxval(FormatError):
    pass


# threshold / features
class EvenWindow(PreconditionError):
    pass


class NoTwoPeaks(PreconditionError):
    pass


class EmptyHistogram(PreconditionError):
    pass


# clustering
class TooFewPoints(PreconditionError):
    pass


# region
class NoSeeds(PreconditionError):
    pass


class EmptySeeds(PreconditionError):
    pass


class IncompleteLabels(PreconditionError):
    pass


# features
class NoExemplars(PreconditionError):
    pass


# retrieval
class DimensionMismatch(PreconditionError):
    pass


class EmptyIndex(PreconditionError):
    pass


class BadHeader(FormatError):
    pass


class BadRecord(FormatError):
    pass


# predict
class MissingFeature(PreconditionError):
    pass


class RuleSyntaxError(FormatError):
    pass


class BadKnots(FormatError):
    pass


class DuplicateFeatureInRule(FormatError):
    pass


class EmptyRuleBase(FormatError):
    pass
