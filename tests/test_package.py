from collections import Counter

import curvelab


def test_public_names_are_listed_once_and_resolve():
    repeated = [name for name, n in Counter(curvelab.__all__).items() if n > 1]
    assert repeated == []
    missing = [name for name in curvelab.__all__ if not hasattr(curvelab, name)]
    assert missing == []
