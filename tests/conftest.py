"""Import the package first, so that it pins BLAS to one thread before any
test module imports numpy (see ``xlmimo/__init__.py``)."""

import xlmimo  # noqa: F401
