"""The package's public surface: what the pipeline, the CLI and the
benchmark call."""
import types

import artifact as af


def test_all_has_no_duplicates_and_is_sorted():
    assert len(af.__all__) == len(set(af.__all__))
    assert af.__all__ == sorted(af.__all__)


def test_all_is_the_public_namespace():
    # a stale export or a forgotten one fails; submodules are not exports
    public = {name for name, obj in vars(af).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert set(af.__all__) == public
