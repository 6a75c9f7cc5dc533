"""Target shapes and Ramsey-style problem specifications.

A two-color problem names a left shape and a right shape; a witness on n
vertices is a graph with no left shape whose complement has no right shape.
A generalized problem GR(r, K_s, t) asks for an r-coloring of K_n in which
every K_s spans at least t+1 edge colors; a witness violates nothing, i.e.
contains no K_s using at most t colors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb

from .errors import InputError, ParseError


@dataclass(frozen=True)
class Book:
    """B_k: two spine vertices joined to each other and to k page vertices."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InputError("book page count must be at least 1")

    def __str__(self) -> str:
        return f"B{self.k}"


@dataclass(frozen=True)
class Wheel:
    """W_k: a hub joined to every vertex of a (k-1)-cycle; k vertices total."""

    k: int

    def __post_init__(self):
        if self.k < 4:
            raise InputError("wheel order must be at least 4")

    def __str__(self) -> str:
        return f"W{self.k}"


@dataclass(frozen=True)
class Clique:
    """K_k."""

    k: int

    def __post_init__(self):
        if self.k < 2:
            raise InputError("clique order must be at least 2")

    def __str__(self) -> str:
        return f"K{self.k}"


Shape = Book | Wheel | Clique


@dataclass(frozen=True)
class TwoColorProblem:
    left: Shape
    right: Shape

    @property
    def r(self) -> int:
        return 2

    def __str__(self) -> str:
        return f"{self.left},{self.right}"


@dataclass(frozen=True)
class GeneralizedProblem:
    """GR(r, K_s, t): no K_s may span t or fewer colors."""

    r: int
    s: int
    t: int

    def __post_init__(self):
        if self.s < 3:
            raise InputError("generalized problems need cliques of order at least 3")
        if not 1 <= self.t < comb(self.s, 2):
            raise InputError(f"t must satisfy 1 <= t < C({self.s},2)")
        if self.r < self.t + 1:
            raise InputError("color count must exceed t")
        if self.r > 8:
            raise InputError("supported color counts are 1..8")

    def __str__(self) -> str:
        return f"GR:{self.r},K{self.s},{self.t}"


Problem = TwoColorProblem | GeneralizedProblem

_SHAPE_RE = re.compile(r"([BWK])(\d+)\Z")
_GR_RE = re.compile(r"GR:(\d+),K(\d+),(\d+)\Z")


def parse_shape(token: str) -> Shape:
    m = _SHAPE_RE.match(token.strip())
    if not m:
        raise ParseError(f"bad shape token {token!r}; expected B<i>, W<i>, or K<i>")
    kind, num = m.group(1), int(m.group(2))
    if kind == "B":
        return Book(num)
    if kind == "W":
        return Wheel(num)
    return Clique(num)


def parse_problem(text: str) -> Problem:
    """Parse "B2,B8", "W5,W7", "K3,K3", mixed pairs, or "GR:<r>,K<s>,<t>"."""
    text = text.strip()
    if text.startswith("GR:"):
        m = _GR_RE.match(text)
        if not m:
            raise ParseError(f"bad generalized problem {text!r}; expected GR:<r>,K<s>,<t>")
        return GeneralizedProblem(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"bad problem {text!r}; expected two comma-separated shapes")
    return TwoColorProblem(parse_shape(parts[0]), parse_shape(parts[1]))
