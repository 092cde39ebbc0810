import types

import subsetid


def test_all_lists_exactly_the_public_names():
    # every public name the package imports is exported, and nothing else
    public = {
        name for name, value in vars(subsetid).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(subsetid.__all__) == sorted(public)
    assert len(set(subsetid.__all__)) == len(subsetid.__all__)
