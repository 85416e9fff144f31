"""Exception taxonomy shared across the pipeline."""


class CardiopromptError(Exception):
    """Base class for all package errors."""


class ParseError(CardiopromptError):
    """Malformed input file (bad arity, non-numeric cell, bad target)."""


class ValidationError(CardiopromptError):
    """Contract violation in an operation's inputs."""


class ImputationError(CardiopromptError):
    """Imputation cannot proceed (e.g. a column with no observed values)."""


class StratificationError(CardiopromptError):
    """A class is too small to stratify."""


class WorkerError(CardiopromptError):
    """A worker process died before it returned its result."""


class SamplingError(CardiopromptError):
    """Not enough members of a class to draw in-context examples."""


class TransportError(CardiopromptError):
    """Network failure that survived all retries."""


class AuthError(CardiopromptError):
    """HTTP 401/403 or missing API key; never retried."""


class ProtocolError(CardiopromptError):
    """Response body does not match the chat-completions wire format."""
