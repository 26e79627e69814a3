"""Exception types shared across the package."""


class AsymlabError(Exception):
    """Base class for all package errors."""


class ValidationError(AsymlabError, ValueError):
    """A state, operator, channel or argument failed a consistency check."""


class ResourceError(AsymlabError, RuntimeError):
    """A request exceeds a size cap; the message names the cap that fired."""


class ConfigError(AsymlabError, ValueError):
    """An experiment configuration is malformed or inconsistent."""
