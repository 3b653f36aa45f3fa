"""Exception types shared across the package."""


class XlMimoError(Exception):
    """Base class for all xlmimo errors."""


class ConfigurationError(XlMimoError, ValueError):
    """Invalid or inconsistent configuration values."""


class GeometryInfeasibleError(XlMimoError, RuntimeError):
    """Rejection sampling could not satisfy the geometric constraints."""


class NotHpdError(XlMimoError, ValueError):
    """Matrix expected to be Hermitian positive definite is not."""


class NonFiniteError(XlMimoError, ValueError):
    """Input holds an inf or NaN."""


class DegenerateChannelError(XlMimoError, ValueError):
    """Channel block carries no energy; power control undefined."""


class AssemblyError(XlMimoError, ValueError):
    """Block shapes inconsistent during matrix assembly."""
