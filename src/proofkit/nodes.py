"""The node core: symbols, terms, formulas and the walks over them that
the certificate checker rests on.  It imports only errors and the standard
library, so a certified verdict trusts it, the checker and errors alone;
syntax builds the reader, substitution and the infix printer on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Union

from .errors import ArityError

# ---------------------------------------------------------------------------
# symbols


class _Symbol:
    """A function or predicate symbol: a frozen dataclass whose hash, the
    one the generated dataclass hash would return, is stored once, since
    every App or Atom built hashes its symbol.  Each symbol class names
    `__hash__` in its body, so that the dataclass decorator keeps it."""

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.name, self.arity)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class FnSym(_Symbol):
    name: str
    arity: int
    __hash__ = _Symbol.__hash__


@dataclass(frozen=True)
class PredSym(_Symbol):
    name: str
    arity: int
    __hash__ = _Symbol.__hash__


EQ = PredSym("=", 2)


# ---------------------------------------------------------------------------
# terms and formulas


class Term:
    __slots__ = ()


class Formula:
    __slots__ = ()


def _node(cls):
    """Make `cls` a frozen, slotted dataclass hashed by a stored `_hash`
    field, set once to the hash of the tuple of its compare fields (the
    value the generated dataclass hash returns).  Children are built
    first, so that costs O(arity), never a tree walk.

    The class writes its own `__init__`: it makes the class's checks, then
    stores each field and `_hash` through the setters `_setters` returns,
    which write the slots past the frozen `__setattr__`."""
    cls.__annotations__["_hash"] = int
    cls._hash = field(init=False, repr=False, compare=False)
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    cls.__hash__ = lambda node: node._hash
    return cls


def _setters(cls):
    """The `__set__` of each field's slot of a `_node` class, `_hash`'s last."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@_node
class Var(Term):
    name: str

    def __init__(self, name):
        _var_name(self, name)
        _var_hash(self, hash((name,)))


_var_name, _var_hash = _setters(Var)


@_node
class App(Term):
    fn: FnSym
    args: tuple[Term, ...] = ()

    def __init__(self, fn, args=()):
        if len(args) != fn.arity:
            raise ArityError(f"{fn.name} expects {fn.arity} arguments")
        _app_fn(self, fn)
        _app_args(self, args)
        _app_hash(self, hash((fn, args)))


_app_fn, _app_args, _app_hash = _setters(App)


@_node
class SpecialConst(Term):
    """The special constant for a closed instantiation: its subscript alone."""

    subscript: "Formula"

    def __init__(self, subscript):
        if not isinstance(subscript, Exists):
            raise ArityError("special-constant subscript must be an instantiation")
        if free_vars(subscript):
            raise ArityError("special-constant subscript must be closed")
        _sc_subscript(self, subscript)
        _sc_hash(self, hash((subscript,)))


_sc_subscript, _sc_hash = _setters(SpecialConst)


@_node
class Atom(Formula):
    pred: PredSym
    args: tuple[Term, ...] = ()

    def __init__(self, pred, args=()):
        if len(args) != pred.arity:
            raise ArityError(f"{pred.name} expects {pred.arity} arguments")
        _atom_pred(self, pred)
        _atom_args(self, args)
        _atom_hash(self, hash((pred, args)))


_atom_pred, _atom_args, _atom_hash = _setters(Atom)


@_node
class Not(Formula):
    body: Formula

    def __init__(self, body):
        _not_body(self, body)
        _not_hash(self, hash((body,)))


_not_body, _not_hash = _setters(Not)


@_node
class Or(Formula):
    left: Formula
    right: Formula

    def __init__(self, left, right):
        _or_left(self, left)
        _or_right(self, right)
        _or_hash(self, hash((left, right)))


_or_left, _or_right, _or_hash = _setters(Or)


@_node
class Exists(Formula):
    var: str
    body: Formula

    def __init__(self, var, body):
        _exists_var(self, var)
        _exists_body(self, body)
        _exists_hash(self, hash((var, body)))


_exists_var, _exists_body, _exists_hash = _setters(Exists)


Node = Union[Term, Formula]


# the node-shape table: each class's immediate subnodes, left to right.  A
# special constant's subscript is not a subnode; a walk enters it only on
# purpose.
_CHILDREN = {
    Var: lambda n: (),
    SpecialConst: lambda n: (),
    App: lambda n: n.args,
    Atom: lambda n: n.args,
    Not: lambda n: (n.body,),
    Or: lambda n: (n.left, n.right),
    Exists: lambda n: (n.body,),
}


def children(node: Node) -> tuple:
    """The immediate subnodes, left to right."""
    kids = _CHILDREN.get(type(node))
    if kids is None:
        raise TypeError(node)
    return kids(node)


# pattern views for the abbreviations


def as_and(f: Formula):
    if (
        isinstance(f, Not)
        and isinstance(f.body, Or)
        and isinstance(f.body.left, Not)
        and isinstance(f.body.right, Not)
    ):
        return f.body.left.body, f.body.right.body
    return None


def disjuncts(f: Formula) -> list[Formula]:
    """The leaves of f's tree of disjunctions, left to right.  The right
    spine is followed in a loop, so a long clause built by `disj` costs no
    recursion; only a left operand that is itself a disjunction recurses."""
    out: list[Formula] = []
    while isinstance(f, Or):
        left = f.left
        if isinstance(left, Or):
            out += disjuncts(left)
        else:
            out.append(left)
        f = f.right
    out.append(f)
    return out


def is_elementary(f: Formula) -> bool:
    """Atomic or beginning with the existential quantifier."""
    return isinstance(f, (Atom, Exists))


# ---------------------------------------------------------------------------
# structural measures (cached; nodes are immutable)


@lru_cache(maxsize=None)
def free_vars(node: Node) -> tuple[str, ...]:
    """Free variables in order of first free occurrence (over the desugared
    prefix form).  Special-constant subscripts are closed and contribute
    nothing."""
    out: list[str] = []

    def walk(n, bound):
        # Dispatch on the exact class, the most frequent first: no node
        # class has a subclass.
        cls = type(n)
        if cls is Var:
            if n.name not in bound and n.name not in out:
                out.append(n.name)
        elif cls is App or cls is Atom:
            for a in n.args:
                walk(a, bound)
        elif cls is Not:
            walk(n.body, bound)
        elif cls is Or:
            walk(n.left, bound)
            walk(n.right, bound)
        elif cls is Exists:
            walk(n.body, bound | {n.var})

    walk(node, frozenset())
    return tuple(out)


@lru_cache(maxsize=None)
def occurring_var_names(node: Node) -> frozenset[str]:
    """Variable names occurring, free or bound; special constants are atomic
    (their subscripts are not written out for mere occurrence)."""
    if isinstance(node, Var):
        return frozenset({node.name})
    out = frozenset().union(*map(occurring_var_names, children(node)))
    return out | {node.var} if isinstance(node, Exists) else out


def is_variable_free(node: Node) -> bool:
    return not occurring_var_names(node)


# ---------------------------------------------------------------------------
# printing


def render(node: Node) -> str:
    """The parenthesized prefix form, a special constant's subscript
    written out."""
    if isinstance(node, Var):
        return node.name
    if isinstance(node, App):
        if not node.args:
            return node.fn.name
        return "(" + " ".join([node.fn.name] + [render(a) for a in node.args]) + ")"
    if isinstance(node, SpecialConst):
        return "(sc " + render(node.subscript) + ")"
    if isinstance(node, Atom):
        if not node.args:
            return node.pred.name
        return "(" + " ".join([node.pred.name] + [render(a) for a in node.args]) + ")"
    if isinstance(node, Not):
        return "(not " + render(node.body) + ")"
    if isinstance(node, Or):
        return "(or " + render(node.left) + " " + render(node.right) + ")"
    if isinstance(node, Exists):
        return "(exists " + node.var + " " + render(node.body) + ")"
    raise TypeError(node)
