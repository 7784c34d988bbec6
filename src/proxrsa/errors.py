"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so raising the right class
matters more than the message text.  Each class's exit code is its
`exit_code` attribute, which subclasses inherit.
"""


class ProxRsaError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParameterError(ProxRsaError):
    """A precondition on user-supplied parameters was violated."""

    exit_code = 3


class InfeasibleError(ParameterError):
    """Requested residue count cannot exist for the given modulus."""


class SearchExhaustedError(ProxRsaError):
    """A bounded search ran out of candidates."""

    exit_code = 2


class StreamExhaustedError(SearchExhaustedError):
    """A seed stream's 64-bit counter overflowed."""


class NumericalError(ProxRsaError):
    """A numerical bracket could not decide, e.g. the validator's entropy budget."""


class RangeTooLargeError(ParameterError):
    """Sieve or census range exceeds the supported budget."""
