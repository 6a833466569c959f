"""Suite-wide pytest settings."""

import pytest

# When a hypothesis test fails, its reporter imports libcst, which warns that
# mypy_extensions.TypedDict is deprecated. A mark outranks the command line,
# so `-W error` still turns every other warning, qkostant's included, into an
# error, while that one import no longer aborts the run with INTERNALERROR.
_LIBCST_IMPORT_WARNING = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning:"
    "libcst.metadata.type_inference_provider"
)


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(_LIBCST_IMPORT_WARNING)
