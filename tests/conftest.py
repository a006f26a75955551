import pytest

from framestarters import GroupSpec, corpus, cyclic_subgroup, make_starter


@pytest.fixture(scope="session")
def corpus_entries():
    return corpus.load_entries()


@pytest.fixture(scope="session")
def corpus_by_id(corpus_entries):
    return {e.entry_id: e for e in corpus_entries}


@pytest.fixture(scope="session")
def strong_3_7():
    """The strong, non-skew 3^7 starter that a strong search finds first."""
    z21 = GroupSpec((21,))
    return make_starter(z21, cyclic_subgroup(z21, 3), [
        (1, 2), (3, 9), (4, 6), (5, 17), (8, 18), (10, 13), (11, 16),
        (12, 20), (15, 19)])
