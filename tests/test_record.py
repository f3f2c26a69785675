"""The record base (`rcprob.record`): the semantics its AST, model and engine
classes rely on."""

import pytest

from rcprob import ast as A
from rcprob.build import Step, Term
from rcprob.lexer import tokenize
from rcprob.model import Machine
from rcprob.props import DefinitionsDecl
from rcprob.record import Record, fields, replace
from rcprob.resolve import Resolver, weight_only_constants


def test_equality_ignores_positions_and_unfrozen_records_are_unhashable():
    assert A.Lit(1, pos=(3, 4)) == A.Lit(1)
    assert A.Lit(1) != A.Lit(2)
    assert A.Lit(1) != A.LabelRef("x")  # another class is never equal
    assert A.DeadlockRef(pos=(1, 1)) == A.DeadlockRef()  # no compared field
    with pytest.raises(TypeError):
        hash(A.Lit(1))


def test_frozen_records_hash_on_their_compared_fields_and_refuse_assignment():
    a, b = A.QName(("M", "x")), A.QName(("M", "x"), pos=(2, 5))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, A.QName(("M", "y"))}) == 2
    with pytest.raises(AttributeError):
        a.segments = ("y",)
    with pytest.raises(AttributeError):
        del a.pos
    assert a.segments == ("M", "x")


def test_post_init_runs_last():
    with pytest.raises(ValueError, match="at least one segment"):
        A.QName(())


def test_records_with_eq_false_compare_and_hash_by_identity():
    step = Step("t", "A", None, None, ())
    assert step != Step("t", "A", None, None, ()) and step == step
    assert hash(step) == object.__hash__(step)
    term = Term(A.Lit(1), None, (), False, "lambda s: 1", {})
    assert term != Term(A.Lit(1), None, (), False, "lambda s: 1", {})
    assert term.fn(None) == 1  # a cached_property on a frozen record


def test_init_takes_defaults_factories_and_keyword_only_positions():
    lit = A.Lit(1, pos=(3, 4))
    assert (lit.value, lit.pos) == (1, (3, 4))
    assert A.Lit().value is None and A.Lit().pos == (0, 0)
    with pytest.raises(TypeError):
        A.Lit(1, (3, 4))
    first, second = Machine("a"), Machine("b")
    assert first.states == [] and first.states is not second.states
    with pytest.raises(TypeError):
        Machine()


def test_repr_is_unchanged():
    expr = A.Binary("+", A.Lit(1, pos=(1, 2)),
                    A.Binary("*", A.Ref(A.QName(("x",), pos=(1, 6))), A.Lit(2)), pos=(1, 1))
    assert repr(expr) == (
        "Binary(pos=(1, 1), op='+', left=Lit(pos=(1, 2), value=1), right=Binary(pos=(0, 0), "
        "op='*', left=Ref(pos=(0, 0), name=QName(segments=('x',), pos=(1, 6))), "
        "right=Lit(pos=(0, 0), value=2)))")
    assert repr(tokenize("x + 2.5")) == (
        "[Token(name, 'x', 1:1), Token(op, '+', 1:3), Token(number, '2.5', 1:5), "
        "Token(eof, '', 1:8)]")
    # a field left out of the repr
    assert "namespace" not in repr(Term(A.Lit(1), None, (), False, "1", {"big": 0}))


def test_fields_and_replace():
    assert fields(A.Binary) == ("pos", "op", "left", "right")
    assert fields(A.SimMethodSpec()) == ("method", "params", "pathlen", "pos")
    lit = A.Lit(1, pos=(3, 4))
    copy = replace(lit, value=2)
    assert (copy.value, copy.pos, lit.value) == (2, (3, 4), 1)
    assert isinstance(copy, Record)


def test_weight_only_constants_of_the_srw_fixture(srw_model, srw_spec):
    # visits every field of every model and property record, the weights apart
    resolver = Resolver(srw_model, srw_spec)
    for defs in [None, *srw_spec.of_kind(DefinitionsDecl)]:
        assert weight_only_constants(resolver, defs, ["MaxDist", "MaxSteps", "Pl"]) == {"Pl"}
