"""The mutation gate's list (`tests/mutants.py`) is well formed: each
mutant's text occurs exactly once in its file under `src/`, changes it,
and has an expected outcome, with a reason if it is equivalent."""

from mutants import KILLED, MUTANTS, ROOT


def test_every_mutant_applies_once_and_says_what_it_expects():
    names = [name for name, *_ in MUTANTS]
    assert len(set(names)) == len(names)
    for name, path, old, new, expected in MUTANTS:
        assert path.startswith("src/mexec/"), name
        text = (ROOT / path).read_text(encoding="utf-8")
        assert text.count(old) == 1, name
        assert new != old, name
        reason = expected.removeprefix("equivalent:").strip()
        assert expected == KILLED or (
            expected.startswith("equivalent: ") and reason), name
