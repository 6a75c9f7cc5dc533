import pytest

from ramseykit.errors import InputError, ParseError
from ramseykit.problems import (
    Book,
    Clique,
    GeneralizedProblem,
    TwoColorProblem,
    Wheel,
    parse_problem,
    parse_shape,
)


def test_shape_grammar():
    assert parse_shape("B2") == Book(2)
    assert parse_shape("W7") == Wheel(7)
    assert parse_shape("K3") == Clique(3)


@pytest.mark.parametrize("bad", ["", "B", "X3", "B2.5", "b2", "B 2"])
def test_shape_grammar_rejections(bad):
    with pytest.raises(ParseError):
        parse_shape(bad)


def test_shape_tokens_tolerate_surrounding_space():
    # flag values arrive with stray spaces; "B2, B8" should parse
    assert parse_shape(" K3 ") == Clique(3)
    assert parse_problem("B2, B8") == TwoColorProblem(Book(2), Book(8))


def test_shape_range_validation():
    with pytest.raises(InputError):
        Book(0)
    with pytest.raises(InputError):
        Wheel(3)  # a wheel needs a rim cycle, so at least 4 vertices
    with pytest.raises(InputError):
        Clique(1)


def test_two_color_parsing():
    p = parse_problem("B2,B8")
    assert p == TwoColorProblem(Book(2), Book(8))
    assert p.r == 2
    assert parse_problem("W5,W9") == TwoColorProblem(Wheel(5), Wheel(9))
    assert parse_problem("K3,B2") == TwoColorProblem(Clique(3), Book(2))


def test_generalized_parsing():
    p = parse_problem("GR:3,K4,2")
    assert p == GeneralizedProblem(3, 4, 2)
    assert (p.r, p.s, p.t) == (3, 4, 2)


@pytest.mark.parametrize("bad", ["", "B2", "B2,B3,B4", "GR:3,W4,2", "GR:3,K4", "gr:3,K4,2", "B2;B3"])
def test_problem_grammar_rejections(bad):
    with pytest.raises(ParseError):
        parse_problem(bad)


def test_problem_range_rejections():
    # well-formed text, inconsistent numbers
    with pytest.raises(InputError):
        parse_problem("B0,B1")
    with pytest.raises(InputError):
        parse_problem("W3,W5")
    with pytest.raises(InputError):
        parse_problem("GR:2,K4,2")  # needs r > t
    with pytest.raises(InputError):
        parse_problem("GR:3,K2,1")  # s below 3
    with pytest.raises(InputError):
        parse_problem("GR:7,K4,6")  # t must stay below C(s,2)
    with pytest.raises(InputError):
        parse_problem("GR:9,K4,2")  # more than 8 colors
    assert parse_problem("GR:3,K4,2").r == 3


def test_gr_t_upper_bound_edge():
    # t = C(s,2) - 1 is the largest legal value
    assert GeneralizedProblem(6, 4, 5).t == 5
    with pytest.raises(InputError):
        GeneralizedProblem(7, 4, 6)
