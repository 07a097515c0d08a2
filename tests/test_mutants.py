"""The committed mutants of tests/mutants.py still apply to the source."""

import mutants


def test_every_mutant_old_text_occurs_once_in_its_module():
    # a stale entry would otherwise show only when the mutants are run
    assert mutants.stale() == []
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
