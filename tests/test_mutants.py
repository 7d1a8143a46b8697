"""The mutant list in tests/mutants.py stays runnable."""

from mutants import MUTANTS, ROOT, run


def test_every_original_text_occurs_once():
    # so that no mutant silently stops applying when its module changes
    for mutant in MUTANTS:
        text = (ROOT / "src" / "dsfusion" / mutant.file).read_text(encoding="utf-8")
        assert text.count(mutant.original) == 1, mutant
        assert mutant.mutant != mutant.original, mutant
        assert all((ROOT / test).is_file() for test in mutant.tests), mutant


def test_zero_filter_mutant_is_killed():
    [mutant] = [m for m in MUTANTS if "if 0.0 in masses.values()" in m.original]
    assert run(mutant)[0] == "killed"
    # the unmutated copy passes the same tests, so the kill is the mutant's
    assert run(mutant._replace(mutant=mutant.original))[0] == "survived"
