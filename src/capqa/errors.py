"""Exception types shared across the toolkit."""


class CapqaError(Exception):
    """Base class for all toolkit errors."""


class MalformedInput(CapqaError):
    """Input file or record does not match its documented format."""


class EmptyCorpus(CapqaError):
    """No usable caption annotations were found."""


class UnknownWord(CapqaError):
    """Word not present in the embedding store."""


class ZeroVector(CapqaError):
    """Vector has zero norm, similarity undefined."""


class RewriterUnavailable(CapqaError):
    """Configured rewriter endpoint or subprocess cannot be reached."""


class EmptyVocab(CapqaError):
    """No phrase met the vocabulary frequency threshold."""


class EmptyStream(CapqaError):
    """Statistics requested over an empty pair stream."""


class BadDims(CapqaError):
    """Image dimensions missing or non-positive."""

