import polyperim


def test_every_export_resolves_once():
    names = polyperim.__all__
    assert len(set(names)) == len(names), [n for n in names if names.count(n) > 1]
    missing = [n for n in names if not hasattr(polyperim, n)]
    assert missing == []
