"""Byte-for-byte `export_text()` goldens of small explored models.

They pin the explorer's micro-step semantics: state numbering, action
names, branch weights and tags.  To regenerate them deliberately, run
`PYTHONPATH=src python tests/test_explore_golden.py` from the repository
root and review the diff.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rcprob.build import build_markov, instantiate
from rcprob.model import parse_model
from rcprob.props import DefinitionsDecl, parse_spec

import test_build as TB

GOLDEN_DIR = Path(__file__).parent / "fixtures" / "exports"
OP_DEFS = """
defs D:
  poperation bump(d) = { (OpMod::P::x = OpMod::P::x + ``d) and (OpMod::P::y = ``d * 2) }
"""

# name -> (model text, kind)
FIXTURE_MODELS = {
    "sync": (TB.SYNC_MODEL, "mdp"),
    "trigger_sync": (TB.TRIGGER_SYNC_MODEL, "mdp"),
    "input": (TB.INPUT_MODEL, "mdp"),
    "exit": (TB.EXIT_MODEL, "dtmc"),
    "choice": (TB.CHOICE_MODEL, "mdp"),
    "op": (TB.OP_MODEL, "dtmc"),
    "chained_junction": (TB.CHAINED_JUNCTION_MODEL, "dtmc"),
    "ab": (TB.AB_MODEL, "mdp"),
}


def closed_model(name: str):
    fixtures = Path(__file__).parent / "fixtures"
    if name == "srw_2_4":
        spec = parse_spec((fixtures / "srw.rcp").read_text())
        return instantiate(parse_model((fixtures / "srw.rcm").read_text()),
                           {"MaxDist": 2, "MaxSteps": 4, "Pl": Fraction(1, 2)},
                           spec.find(DefinitionsDecl, "D_recharge"), None, "dtmc", spec)
    text, kind = FIXTURE_MODELS[name]
    defs = parse_spec(OP_DEFS).statements[0] if name == "op" else None
    return instantiate(parse_model(text), {}, defs, None, kind)


def build(name: str):
    return build_markov(closed_model(name))


NAMES = sorted(FIXTURE_MODELS) + ["srw_2_4"]


@pytest.mark.parametrize("name", NAMES)
def test_export_matches_golden(name):
    mm = build(name)
    text = mm.export_text()
    assert text == (GOLDEN_DIR / f"{name}.txt").read_text()
    # one transition line per branch of the move store
    assert mm.num_transitions() == sum(line[0].isdigit() for line in text.splitlines())


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in NAMES:
        (GOLDEN_DIR / f"{name}.txt").write_text(build(name).export_text())
