"""Set-up shared by every test module.

A failing hypothesis test imports ``hypothesis.extra._patching`` to write its
report, inside pytest's report hook.  That import loads libcst, which
declares a ``mypy_extensions.TypedDict``, and mypy_extensions warns that its
TypedDict is deprecated.  Under ``-W error`` (the tier-1 command) the warning
is raised in the hook, and pytest stops with INTERNALERROR (exit 3) in place
of a failure report.  The module is imported here once, with that one
warning ignored, so the report finds it loaded.  Where hypothesis has no
patching support (libcst missing) there is nothing to import.
"""

import warnings
from contextlib import suppress

with warnings.catch_warnings(), suppress(ImportError):
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
