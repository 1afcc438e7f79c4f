"""Session set-up shared by the test modules.

When a ``@given`` test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to suggest a patch.  That imports libcst,
which touches ``mypy_extensions.TypedDict`` and so raises a
DeprecationWarning; the strict ``filterwarnings`` of pyproject.toml makes
it an error, and the whole session would end in INTERNALERROR at the first
failing property test.  Importing the module once here, with that warning
ignored for this import only, leaves the filter strict for everything else.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst absent: the plugin then skips the patch too
        pass
