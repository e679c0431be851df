"""Terms, formulas, parsing, printing, substitution, and structural measures.

Formulas are immutable trees over the primitive operators not/or/exists;
the derived connectives and/imp/iff/forall and the bounded quantifiers exist
only as parser sugar and printer styles.  Special constants are index-0
function symbols carrying a closed instantiation as subscript; two special
constants are the same constant exactly when their subscripts are
structurally identical.
"""

from __future__ import annotations

import itertools
import re
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from operator import is_not as _is_not
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import ArityError, CaptureError, ParseError

# ---------------------------------------------------------------------------
# symbols


@dataclass(frozen=True)
class FnSym:
    name: str
    arity: int


@dataclass(frozen=True)
class PredSym:
    name: str
    arity: int


EQ = PredSym("=", 2)

# the nonlogical symbols of string arithmetic, fixed here because the
# concrete grammar names them
EPS = FnSym("eps", 0)
S0 = FnSym("s0", 1)
S1 = FnSym("s1", 1)
PD = FnSym("pd", 1)
CAT = FnSym("cat", 2)
ZPROD = FnSym("zprod", 2)


@dataclass(frozen=True)
class Language:
    """Ordered nonlogical symbols plus the distinguished constant (the
    symbol playing the role of 0; for string arithmetic it is eps)."""

    functions: tuple[FnSym, ...]
    predicates: tuple[PredSym, ...]
    zero: FnSym

    def __post_init__(self):
        names = [s.name for s in self.functions + self.predicates]
        if len(set(names)) != len(names):
            raise ArityError("duplicate symbol names in language")
        if self.zero not in self.functions:
            raise ArityError("language must contain its distinguished constant")
        if self.zero.arity != 0:
            raise ArityError("distinguished constant must have index 0")
        if any(p.name == "=" for p in self.predicates):
            raise ArityError("= is logical and never part of a language")

    def extend(self, functions=(), predicates=()):
        return Language(
            self.functions + tuple(functions),
            self.predicates + tuple(predicates),
            self.zero,
        )

    def fn(self, name):
        for f in self.functions:
            if f.name == name:
                return f
        return None

    def pred(self, name):
        for p in self.predicates:
            if p.name == name:
                return p
        return None


# ---------------------------------------------------------------------------
# terms and formulas


class Term:
    __slots__ = ()


class Formula:
    __slots__ = ()


def _node(cls):
    """Make `cls` a frozen, slotted dataclass hashed by a stored `_hash`
    field, which its `__post_init__` sets once to the hash of the tuple of
    its compare fields (the value the generated dataclass hash returns).
    Children are built first, so that costs O(arity), never a tree walk."""
    cls.__annotations__["_hash"] = int
    cls._hash = field(init=False, repr=False, compare=False)
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__hash__ = lambda node: node._hash
    return cls


@_node
class Var(Term):
    name: str

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.name,)))


@_node
class App(Term):
    fn: FnSym
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        if len(self.args) != self.fn.arity:
            raise ArityError(f"{self.fn.name} expects {self.fn.arity} arguments")
        object.__setattr__(self, "_hash", hash((self.fn, self.args)))


@_node
class SpecialConst(Term):
    """The special constant for a closed instantiation; identity is by
    subscript, the alias is presentation only."""

    subscript: "Formula"
    alias: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        if not isinstance(self.subscript, Exists):
            raise ArityError("special-constant subscript must be an instantiation")
        if free_vars(self.subscript):
            raise ArityError("special-constant subscript must be closed")
        object.__setattr__(self, "_hash", hash((self.subscript,)))


@_node
class Atom(Formula):
    pred: PredSym
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        if len(self.args) != self.pred.arity:
            raise ArityError(f"{self.pred.name} expects {self.pred.arity} arguments")
        object.__setattr__(self, "_hash", hash((self.pred, self.args)))


@_node
class Not(Formula):
    body: Formula

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.body,)))


@_node
class Or(Formula):
    left: Formula
    right: Formula

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.left, self.right)))


@_node
class Exists(Formula):
    var: str
    body: Formula

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.var, self.body)))


Node = Union[Term, Formula]


# the node-shape table: each class's immediate subnodes, left to right, and
# how to rebuild a node of that class from new ones.  A special constant's
# subscript is not a subnode; a walk enters it only on purpose.
_SHAPES = {
    Var: (lambda n: (), None),
    SpecialConst: (lambda n: (), None),
    App: (lambda n: n.args, lambda n, kids: App(n.fn, kids)),
    Atom: (lambda n: n.args, lambda n, kids: Atom(n.pred, kids)),
    Not: (lambda n: (n.body,), lambda n, kids: Not(*kids)),
    Or: (lambda n: (n.left, n.right), lambda n, kids: Or(*kids)),
    Exists: (lambda n: (n.body,), lambda n, kids: Exists(n.var, *kids)),
}


def _shape(node):
    shape = _SHAPES.get(type(node))
    if shape is None:
        raise TypeError(node)
    return shape


def children(node: Node) -> tuple:
    """The immediate subnodes, left to right."""
    return _shape(node)[0](node)


def node_at(node: Node, path: Sequence[int]) -> Node:
    """The subnode a path of child indices leads to."""
    for i in path:
        node = children(node)[i]
    return node


def replace_at(node: Node, path: Sequence[int], new: Node) -> Node:
    """node with the subnode at path replaced by new."""
    if not path:
        return new
    kids = list(children(node))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return _rebuild(node, tuple(kids))


def _rebuild(node: Node, kids: tuple) -> Node:
    """A node of node's class and labels with kids as its children."""
    return _shape(node)[1](node, kids)


# constructors for the defined connectives (desugared on the spot)


def fand(a: Formula, b: Formula) -> Formula:
    return Not(Or(Not(a), Not(b)))


def fimp(a: Formula, b: Formula) -> Formula:
    return Or(Not(a), b)


def fiff(a: Formula, b: Formula) -> Formula:
    return fand(Or(Not(a), b), Or(a, Not(b)))


def fall(x: str, a: Formula) -> Formula:
    return Not(Exists(x, Not(a)))


def eq(a: Term, b: Term) -> Formula:
    return Atom(EQ, (a, b))


def conj(parts: Sequence[Formula]) -> Formula:
    """Right-associated conjunction of a nonempty sequence."""
    parts = list(parts)
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = fand(p, out)
    return out


def disj(parts: Sequence[Formula]) -> Formula:
    parts = list(parts)
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Or(p, out)
    return out


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


def as_all(f: Formula):
    if isinstance(f, Not) and isinstance(f.body, Exists) and isinstance(f.body.body, Not):
        return f.body.var, f.body.body.body
    return None


def as_imp(f: Formula):
    if isinstance(f, Or) and isinstance(f.left, Not):
        return f.left.body, f.right
    return None


def as_iff(f: Formula):
    pair = as_and(f)
    if pair is None:
        return None
    a, b = pair
    if not isinstance(a, Or) or not isinstance(b, Or):
        return None
    if not isinstance(a.left, Not) or not isinstance(b.right, Not):
        return None
    if a.left.body == b.left and a.right == b.right.body:
        return a.left.body, a.right
    return None


def conjuncts(f: Formula) -> list[Formula]:
    pair = as_and(f)
    if pair is None:
        return [f]
    return conjuncts(pair[0]) + conjuncts(pair[1])


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
        if isinstance(n, Var):
            if n.name not in bound and n.name not in out:
                out.append(n.name)
        elif isinstance(n, App):
            for a in n.args:
                walk(a, bound)
        elif isinstance(n, SpecialConst):
            pass
        elif isinstance(n, Atom):
            for a in n.args:
                walk(a, bound)
        elif isinstance(n, Not):
            walk(n.body, bound)
        elif isinstance(n, Or):
            walk(n.left, bound)
            walk(n.right, bound)
        elif isinstance(n, Exists):
            walk(n.body, bound | {n.var})

    walk(node, frozenset())
    return tuple(out)


def _subformulas(f: Formula) -> tuple:
    """The immediate subformulas; an atom has none, its arguments being
    terms."""
    if isinstance(f, Atom):
        return ()
    if isinstance(f, Formula):
        return children(f)
    raise TypeError(f)


def _names(measure, node: Node) -> frozenset[str]:
    """The union of a name measure over node's children, with the variable
    node binds when it is a quantifier."""
    out = frozenset().union(*map(measure, children(node)))
    return out | {node.var} if isinstance(node, Exists) else out


@lru_cache(maxsize=None)
def bound_vars(node: Node) -> frozenset[str]:
    return _names(bound_vars, node)


@lru_cache(maxsize=None)
def all_var_names(node: Node) -> frozenset[str]:
    """Every variable name occurring, free or bound (subscripts included,
    since fresh-name generation must avoid them)."""
    if isinstance(node, Var):
        return frozenset({node.name})
    if isinstance(node, SpecialConst):
        return all_var_names(node.subscript)
    return _names(all_var_names, node)


@lru_cache(maxsize=None)
def occurring_var_names(node: Node) -> frozenset[str]:
    """Variable names occurring, free or bound; special constants are atomic
    (their subscripts are not written out for mere occurrence)."""
    if isinstance(node, Var):
        return frozenset({node.name})
    return _names(occurring_var_names, node)


def is_variable_free(node: Node) -> bool:
    return not occurring_var_names(node)


def is_closed(f: Formula) -> bool:
    return not free_vars(f)


def is_open(f: Formula) -> bool:
    """No existential quantifier occurs."""
    return not isinstance(f, Exists) and all(map(is_open, _subformulas(f)))


@lru_cache(maxsize=None)
def is_plain(node: Node) -> bool:
    """No special constant appears, including transitively inside subscripts."""
    return not isinstance(node, SpecialConst) and all(map(is_plain, children(node)))


def height(f: Formula) -> int:
    """Number of logical-operator occurrences."""
    return (not isinstance(f, Atom)) + sum(map(height, _subformulas(f)))


def index(f: Formula) -> int:
    return len(free_vars(f))


@lru_cache(maxsize=None)
def unnested_rank(f: Formula) -> int:
    """Number of occurrences of the existential quantifier (special
    constants opaque)."""
    return isinstance(f, Exists) + sum(map(unnested_rank, _subformulas(f)))


@lru_cache(maxsize=None)
def nested_rank(f: Formula) -> int:
    """Maximal un-nested rank over instantiations occurring in the formula."""
    own = unnested_rank(f) if isinstance(f, Exists) else 0
    return max([own, *map(nested_rank, _subformulas(f))])


def const_rank(c: SpecialConst) -> int:
    return nested_rank(c.subscript)


@lru_cache(maxsize=None)
def const_level(c: SpecialConst) -> int:
    inner = special_constants(c.subscript)
    if not inner:
        return 1
    return 1 + max(const_level(r) for r in inner)


@lru_cache(maxsize=None)
def special_constants(node: Node) -> frozenset[SpecialConst]:
    """Special constants occurring (one level; subscripts opaque)."""
    if isinstance(node, SpecialConst):
        return frozenset({node})
    return frozenset().union(*map(special_constants, children(node)))


@lru_cache(maxsize=None)
def appearing_constants(node: Node) -> frozenset[SpecialConst]:
    """Special constants appearing: transitive through subscripts."""
    out = set()
    todo = list(special_constants(node))
    while todo:
        c = todo.pop()
        if c in out:
            continue
        out.add(c)
        todo.extend(special_constants(c.subscript))
    return frozenset(out)


@lru_cache(maxsize=None)
def appearing_symbols(node: Node) -> frozenset:
    """Nonlogical symbols appearing (transitive through subscripts)."""
    out = set()
    todo = [node]
    while todo:
        n = todo.pop()
        if isinstance(n, SpecialConst):
            todo.append(n.subscript)
        elif isinstance(n, App):
            out.add(n.fn)
        elif isinstance(n, Atom) and n.pred != EQ:
            out.add(n.pred)
        todo.extend(children(n))
    return frozenset(out)


def appearing_vars(node: Node) -> frozenset[str]:
    """Variables appearing (transitive through subscripts): the paper's
    example is that x appears in q(r) when r is special for exists x q(x)."""
    out = set(all_var_names(node))
    for c in appearing_constants(node):
        out |= all_var_names(c.subscript)
    return frozenset(out)


@dataclass(frozen=True)
class SyntaxProfile:
    free: tuple[str, ...]
    index: int
    height: int
    open: bool
    closed: bool
    plain: bool
    elementary: bool
    nested_rank: int
    unnested_rank: int
    appearing_symbols: frozenset
    appearing_vars: frozenset[str]
    bound: frozenset[str]


def analyze(f: Formula) -> SyntaxProfile:
    return SyntaxProfile(
        free=free_vars(f),
        index=index(f),
        height=height(f),
        open=is_open(f),
        closed=is_closed(f),
        plain=is_plain(f),
        elementary=is_elementary(f),
        nested_rank=nested_rank(f),
        unnested_rank=unnested_rank(f),
        appearing_symbols=appearing_symbols(f),
        appearing_vars=appearing_vars(f),
        bound=bound_vars(f),
    )


# ---------------------------------------------------------------------------
# the special-constant canonicalizer

_sc_lock = threading.Lock()
_sc_table: dict[Exists, SpecialConst] = {}
_sc_counter = itertools.count(1)


def special_constant(subscript: Formula, alias: Optional[str] = None) -> SpecialConst:
    """Insert-or-get the canonical constant for a closed instantiation."""
    if not isinstance(subscript, Exists):
        raise ArityError("special constant requires an instantiation subscript")
    if free_vars(subscript):
        raise ArityError("special constant requires a closed subscript")
    with _sc_lock:
        got = _sc_table.get(subscript)
        if got is not None:
            return got
        c = SpecialConst(subscript, alias if alias is not None else f"c{next(_sc_counter)}")
        _sc_table[subscript] = c
        return c


def special_axiom(c: SpecialConst) -> Formula:
    e = c.subscript
    return fimp(e, subst(e.body, {e.var: c}))


# ---------------------------------------------------------------------------
# substitution and replacement


def substitutable(term: Term, x: str, f: Formula) -> Optional[str]:
    """None if term is substitutable for x in f, else the offending binder."""
    names = occurring_var_names(term)

    def walk(g, binders):
        if isinstance(g, Atom):
            return None
        if isinstance(g, Not):
            return walk(g.body, binders)
        if isinstance(g, Or):
            return walk(g.left, binders) or walk(g.right, binders)
        if isinstance(g, Exists):
            if g.var == x:
                return None  # no free occurrence below
            if occurs_free(g.body, x) and g.var in names:
                return g.var
            return walk(g.body, binders)
        raise TypeError(g)

    return walk(f, ())


def occurs_free(f: Formula, x: str) -> bool:
    return x in free_vars(f)


def subst(node: Node, binding: Mapping[str, Term], check: bool = True) -> Node:
    """Simultaneous substitution of terms for free variables.  Raises
    CaptureError unless every term is substitutable for its variable."""
    if check and isinstance(node, Formula):
        for x, t in binding.items():
            bad = substitutable(t, x, node)
            if bad is not None:
                raise CaptureError(x, bad)

    def walk(n, shadowed):
        if isinstance(n, Var):
            if n.name in binding and n.name not in shadowed:
                return binding[n.name]
            return n
        if isinstance(n, SpecialConst):
            return n  # subscripts are closed
        if isinstance(n, App):
            return App(n.fn, tuple(walk(a, shadowed) for a in n.args))
        if isinstance(n, Atom):
            return Atom(n.pred, tuple(walk(a, shadowed) for a in n.args))
        if isinstance(n, Not):
            return Not(walk(n.body, shadowed))
        if isinstance(n, Or):
            return Or(walk(n.left, shadowed), walk(n.right, shadowed))
        if isinstance(n, Exists):
            return Exists(n.var, walk(n.body, shadowed | {n.var}))
        raise TypeError(n)

    return walk(node, frozenset())


def substitute(f: Formula, bindings: Sequence[tuple[str, Term]]) -> Formula:
    """The instance A_{x1..xn}(a1..an); bindings apply simultaneously."""
    return subst(f, dict(bindings))


def rewrite(node: Node, app=None, atom=None, exists=None, const=None) -> Node:
    """The bottom-up homomorphism given by hooks on rebuilt nodes.

    Children are rewritten first, left to right; then app, atom or exists,
    when given, maps the rebuilt App, Atom or Exists.  A node whose children
    all come back as the same objects is kept as it is.  const, when given,
    maps each special constant and its result is final.  Without it a
    special constant's subscript goes through the same hooks and is
    re-canonicalised under the constant's alias; the constant is kept when
    its subscript is unchanged."""

    def walk(n):
        if isinstance(n, App):
            args = tuple(map(walk, n.args))
            if any(map(_is_not, args, n.args)):
                n = App(n.fn, args)
            return n if app is None else app(n)
        if isinstance(n, Var):
            return n
        if isinstance(n, SpecialConst):
            if const is not None:
                return const(n)
            return _resubscript(n, walk(n.subscript))
        if isinstance(n, Atom):
            args = tuple(map(walk, n.args))
            if any(map(_is_not, args, n.args)):
                n = Atom(n.pred, args)
            return n if atom is None else atom(n)
        if isinstance(n, Not):
            body = walk(n.body)
            return n if body is n.body else Not(body)
        if isinstance(n, Or):
            left, right = walk(n.left), walk(n.right)
            return n if left is n.left and right is n.right else Or(left, right)
        if isinstance(n, Exists):
            body = walk(n.body)
            if body is not n.body:
                n = Exists(n.var, body)
            return n if exists is None else exists(n)
        raise TypeError(n)

    return walk(node)


def replace_const(node: Node, c: SpecialConst, a: Term) -> Node:
    """Replace c by a everywhere it appears, including inside subscripts of
    other special constants (rebuilding them canonically)."""

    def on_const(n):
        return a if n == c else _resubscript(n, rewrite(n.subscript, const=on_const))

    return rewrite(node, const=on_const)


def _resubscript(c: SpecialConst, sub: Formula) -> SpecialConst:
    """c itself when sub is its subscript, else the canonical constant for
    sub under c's alias."""
    return c if sub == c.subscript else special_constant(sub, c.alias)


def replace_subformula(f: Formula, old: Formula, new: Formula) -> Formula:
    """Replace every occurrence of old as a subformula (tree level; special
    constants are atomic for occurrence)."""
    if f == old:
        return new
    subs = _subformulas(f)
    if not subs:
        return f
    return _rebuild(f, tuple(replace_subformula(g, old, new) for g in subs))


def has_subformula(f: Formula, olds) -> bool:
    """Whether some subformula of f is in the set olds: whether
    replace_subformula would replace anything (special constants are
    atomic for occurrence)."""
    todo = [f]
    while todo:
        g = todo.pop()
        if g in olds:
            return True
        todo.extend(_subformulas(g))
    return False


def map_atoms(f: Formula, fn) -> Formula:
    """Homomorphism determined by its action on atomic formulas (subscripts
    untouched)."""
    return rewrite(f, atom=fn, const=lambda c: c)


# ---------------------------------------------------------------------------
# closure, variants, fresh names


def closure(f: Formula) -> Formula:
    out = f
    for x in reversed(free_vars(f)):
        out = fall(x, out)
    return out


_SUFFIX = re.compile(r"^(.*?)(\d*)$")


def fresh_name(base: str, used: Iterable[str]) -> str:
    """Smallest unused numeric suffix of base, for deterministic output."""
    used = set(used)
    if base not in used:
        return base
    stem = _SUFFIX.match(base).group(1) or "x"
    for k in itertools.count(1):
        cand = f"{stem}{k}"
        if cand not in used:
            return cand
    raise AssertionError


def make_adjusted_variant(f: Formula, avoid: Iterable[str] = ()) -> Formula:
    """A variant of f that is adjusted (distinct binders, no variable both
    free and bound) with no bound variable in avoid."""
    avoid = set(avoid)
    used = set(free_vars(f)) | avoid
    taken = set(used)

    def walk(g, ren):
        if isinstance(g, Atom):
            return subst(g, ren, check=False)
        if isinstance(g, Exists):
            name = g.var
            if name in taken:
                name = fresh_name(g.var, taken)
            taken.add(name)
            ren2 = dict(ren)
            ren2[g.var] = Var(name)
            return Exists(name, walk(g.body, ren2))
        return _rebuild(g, tuple(walk(h, ren) for h in _subformulas(g)))

    return walk(f, {})


def is_adjusted(f: Formula) -> bool:
    seen = set()
    free = set(free_vars(f))

    def walk(g):
        if isinstance(g, Exists):
            if g.var in seen or g.var in free:
                return False
            seen.add(g.var)
        return all(map(walk, _subformulas(g)))

    return walk(f)


def is_variant(a: Formula, b: Formula) -> bool:
    """Variant relation, decided by simultaneous structural walk with binder
    correspondence."""

    def walk(x, y, m, n):
        if type(x) is not type(y):
            return False
        if isinstance(x, Atom):
            return (
                x.pred == y.pred
                and len(x.args) == len(y.args)
                and all(walk_t(s, t, m, n) for s, t in zip(x.args, y.args))
            )
        if isinstance(x, Not):
            return walk(x.body, y.body, m, n)
        if isinstance(x, Or):
            return walk(x.left, y.left, m, n) and walk(x.right, y.right, m, n)
        if isinstance(x, Exists):
            return walk(x.body, y.body, m + ((x.var, y.var),), n + ((y.var, x.var),))
        return False

    def walk_t(s, t, m, n):
        if type(s) is not type(t):
            return False
        if isinstance(s, Var):
            for a, b2 in reversed(m):
                if s.name == a:
                    return t.name == b2
                if t.name == b2:
                    return False
            for a, b2 in reversed(n):
                if t.name == a:
                    return False
            return s.name == t.name
        if isinstance(s, App):
            return s.fn == t.fn and all(walk_t(p, q, m, n) for p, q in zip(s.args, t.args))
        if isinstance(s, SpecialConst):
            return s == t
        return False

    return walk(a, b, (), ())


# ---------------------------------------------------------------------------
# names and numerals


def name_term(bits: str) -> Term:
    """The canonical name of a bit string: beta_1 ... beta_nu eps with each
    beta the matching successor."""
    out: Term = App(EPS)
    for b in reversed(bits):
        if b == "0":
            out = App(S0, (out,))
        elif b == "1":
            out = App(S1, (out,))
        else:
            raise ParseError(f"not a bit: {b!r}")
    return out


def numeral(n: int) -> Term:
    out: Term = App(EPS)
    for _ in range(n):
        out = App(S0, (out,))
    return out


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_IDENT = re.compile(r"[a-z][a-z0-9_']*$")


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, int, int]] = []
        # a token holds no newline, so only the gap before it can start a
        # line; line_start is the index of the current line's first character
        line, line_start, end = 1, 0, 0
        for m in _TOKEN.finditer(text):
            start = m.start()
            breaks = text.count("\n", end, start)
            if breaks:
                line += breaks
                line_start = text.rfind("\n", end, start) + 1
            self.toks.append((m.group(0), line, start - line_start + 1))
            end = m.end()
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return t

    def read_sexpr(self):
        tok, line, col = self.next()
        if tok == "(":
            items = []
            while True:
                nxt = self.peek()
                if nxt is None:
                    raise ParseError("unclosed parenthesis", line, col)
                if nxt[0] == ")":
                    self.next()
                    return (items, line, col)
                items.append(self.read_sexpr())
        if tok == ")":
            raise ParseError("unbalanced ')'", line, col)
        return (tok, line, col)


class SymbolTable:
    """Resolves identifiers while parsing: function and predicate symbols of
    the language plus registered definitions; unknown identifiers in term
    position are variables.  With auto_predicates, unknown identifiers in
    formula position become predicate symbols of the arity they are first
    used at (handy for ad-hoc propositional work on the command line)."""

    def __init__(self, language: Language, order: Optional[PredSym] = None, auto_predicates: bool = False):
        self.language = language
        self.order = order  # the binary order symbol the bounded sugar expands with
        self.auto_predicates = auto_predicates
        self._auto: dict[str, PredSym] = {}

    def fn(self, name):
        return self.language.fn(name)

    def pred(self, name):
        got = self.language.pred(name)
        if got is None:
            got = self._auto.get(name)
        return got

    def auto_pred(self, name, arity):
        if not self.auto_predicates or not _IDENT.match(name):
            return None
        got = self._auto.get(name)
        if got is None:
            got = PredSym(name, arity)
            self._auto[name] = got
        return got if got.arity == arity else None


def _parse_term(sx, symbols: SymbolTable, env: Mapping[str, Term]):
    body, line, col = sx
    if isinstance(body, str):
        if body in env:
            return env[body]
        f = symbols.fn(body)
        if f is not None:
            if f.arity != 0:
                raise ArityError(f"{body} expects {f.arity} arguments")
            return App(f)
        if not _IDENT.match(body):
            raise ParseError(f"bad identifier {body!r}", line, col)
        if symbols.pred(body) is not None:
            raise ParseError(f"{body} is a predicate symbol, not a term", line, col)
        return Var(body)
    if not body:
        raise ParseError("empty term", line, col)
    head, hline, hcol = body[0]
    if not isinstance(head, str):
        raise ParseError("term must start with a symbol", hline, hcol)
    if head == "sc":
        if len(body) != 2:
            raise ParseError("sc takes one subscript formula", line, col)
        sub = _parse_formula(body[1], symbols, env)
        if not isinstance(sub, Exists) or free_vars(sub):
            raise ParseError("sc subscript must be a closed instantiation", line, col)
        return special_constant(sub)
    f = symbols.fn(head)
    if f is None:
        raise ParseError(f"unknown function symbol {head!r}", hline, hcol)
    args = body[1:]
    if len(args) != f.arity:
        raise ParseError(
            f"{head} expects {f.arity} arguments, got {len(args)}", line, col
        )
    return App(f, tuple(_parse_term(a, symbols, env) for a in args))


def _parse_formula(sx, symbols: SymbolTable, env: Mapping[str, Term]):
    body, line, col = sx
    if isinstance(body, str):
        p = symbols.pred(body)
        if p is None:
            p = symbols.auto_pred(body, 0)
        if p is not None:
            if p.arity != 0:
                raise ParseError(f"{body} expects {p.arity} arguments", line, col)
            return Atom(p)
        raise ParseError(f"expected a formula, got {body!r}", line, col)
    if not body:
        raise ParseError("empty formula", line, col)
    head, hline, hcol = body[0]
    if not isinstance(head, str):
        raise ParseError("formula must start with an operator", hline, hcol)
    args = body[1:]

    def need(n):
        if len(args) != n:
            raise ParseError(f"{head} expects {n} arguments, got {len(args)}", line, col)

    if head == "not":
        need(1)
        return Not(_parse_formula(args[0], symbols, env))
    if head == "or":
        need(2)
        return Or(_parse_formula(args[0], symbols, env), _parse_formula(args[1], symbols, env))
    if head == "and":
        need(2)
        return fand(_parse_formula(args[0], symbols, env), _parse_formula(args[1], symbols, env))
    if head == "imp":
        need(2)
        return fimp(_parse_formula(args[0], symbols, env), _parse_formula(args[1], symbols, env))
    if head == "iff":
        need(2)
        return fiff(_parse_formula(args[0], symbols, env), _parse_formula(args[1], symbols, env))
    if head in ("exists", "forall"):
        need(2)
        vtok = args[0][0]
        if not isinstance(vtok, str) or not _IDENT.match(vtok):
            raise ParseError("quantifier expects a variable", line, col)
        inner_env = {k: v for k, v in env.items() if k != vtok}
        sub = _parse_formula(args[1], symbols, inner_env)
        return Exists(vtok, sub) if head == "exists" else fall(vtok, sub)
    if head in ("exists<=", "forall<="):
        need(3)
        if symbols.order is None:
            raise ParseError("no order symbol registered for bounded quantifiers", line, col)
        vtok = args[0][0]
        if not isinstance(vtok, str) or not _IDENT.match(vtok):
            raise ParseError("bounded quantifier expects a variable", line, col)
        bound = _parse_term(args[1], symbols, env)
        if vtok in occurring_var_names(bound):
            raise ParseError(
                f"capture in sugar expansion: {vtok} occurs in its own bound", line, col
            )
        inner_env = {k: v for k, v in env.items() if k != vtok}
        sub = _parse_formula(args[2], symbols, inner_env)
        guard = Atom(symbols.order, (Var(vtok), bound))
        if head == "exists<=":
            return Exists(vtok, fand(guard, sub))
        return Not(Exists(vtok, Not(fimp(guard, sub))))
    if head == "=":
        need(2)
        return eq(_parse_term(args[0], symbols, env), _parse_term(args[1], symbols, env))
    p = symbols.pred(head)
    if p is None:
        p = symbols.auto_pred(head, len(args))
    if p is not None:
        need(p.arity)
        return Atom(p, tuple(_parse_term(a, symbols, env) for a in args))
    raise ParseError(f"unknown predicate or operator {head!r}", hline, hcol)


def parse(text: str, kind: str, symbols: SymbolTable, env: Optional[Mapping[str, Term]] = None):
    """Parse a term or formula from the parenthesized prefix grammar."""
    env = env or {}
    reader = _Reader(text)
    sx = reader.read_sexpr()
    if reader.peek() is not None:
        tok, line, col = reader.peek()
        raise ParseError(f"trailing input {tok!r}", line, col)
    if kind == "term":
        return _parse_term(sx, symbols, env)
    if kind == "formula":
        return _parse_formula(sx, symbols, env)
    raise ParseError(f"unknown parse kind {kind!r}")


# ---------------------------------------------------------------------------
# printing


def render(node: Node, style: str = "prefix-canonical") -> str:
    if style == "prefix-canonical":
        return _render_prefix(node)
    if style == "infix-pretty":
        return _render_infix(node)
    raise ParseError(f"unknown render style {style!r}")


def _render_prefix(node: Node) -> str:
    if isinstance(node, Var):
        return node.name
    if isinstance(node, App):
        if not node.args:
            return node.fn.name
        return "(" + " ".join([node.fn.name] + [_render_prefix(a) for a in node.args]) + ")"
    if isinstance(node, SpecialConst):
        return "(sc " + _render_prefix(node.subscript) + ")"
    if isinstance(node, Atom):
        if not node.args:
            return node.pred.name
        return "(" + " ".join([node.pred.name] + [_render_prefix(a) for a in node.args]) + ")"
    if isinstance(node, Not):
        return "(not " + _render_prefix(node.body) + ")"
    if isinstance(node, Or):
        return "(or " + _render_prefix(node.left) + " " + _render_prefix(node.right) + ")"
    if isinstance(node, Exists):
        return "(exists " + node.var + " " + _render_prefix(node.body) + ")"
    raise TypeError(node)


# infix precedence: not / exists bind tightly; or and & bind tighter than
# imp and iff; infix operators associate right to left
_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_UNARY = 10, 20, 30, 40


def _render_infix(node: Node, prec: int = 0) -> str:
    if isinstance(node, Term):
        return _render_term_infix(node)
    if isinstance(node, Atom):
        if node.pred == EQ:
            return f"{_render_term_infix(node.args[0])} = {_render_term_infix(node.args[1])}"
        if not node.args:
            return node.pred.name
        return node.pred.name + "(" + ", ".join(_render_term_infix(a) for a in node.args) + ")"
    if isinstance(node, Not):
        inner = node.body
        if isinstance(inner, Atom) and inner.pred == EQ:
            s = f"{_render_term_infix(inner.args[0])} != {_render_term_infix(inner.args[1])}"
            return _paren(s, _PREC_UNARY, prec)
        pair = as_all(node)
        if pair is not None:
            x, b = pair
            return _paren(f"forall {x} {_render_infix(b, _PREC_UNARY)}", _PREC_UNARY, prec)
        pair = as_iff(node)
        if pair is not None:
            a, b = pair
            s = f"{_render_infix(a, _PREC_IFF + 1)} <-> {_render_infix(b, _PREC_IFF)}"
            return _paren(s, _PREC_IFF, prec)
        pair = as_and(node)
        if pair is not None:
            a, b = pair
            s = f"{_render_mixed(a, 'and')} & {_render_mixed(b, 'and', right=True)}"
            return _paren(s, _PREC_OR, prec)
        return _paren("-" + _render_infix(node.body, _PREC_UNARY + 1), _PREC_UNARY, prec)
    if isinstance(node, Or):
        pair = as_imp(node)
        if pair is not None:
            a, b = pair
            s = f"{_render_infix(a, _PREC_IMP + 1)} -> {_render_infix(b, _PREC_IMP)}"
            return _paren(s, _PREC_IMP, prec)
        s = f"{_render_mixed(node.left, 'or')} v {_render_mixed(node.right, 'or', right=True)}"
        return _paren(s, _PREC_OR, prec)
    if isinstance(node, Exists):
        return _paren(
            f"exists {node.var} {_render_infix(node.body, _PREC_UNARY)}", _PREC_UNARY, prec
        )
    raise TypeError(node)


def _paren(s: str, mine: int, outer: int) -> str:
    return "[" + s + "]" if mine < outer else s


def _render_mixed(child: Formula, parent_op: str, right: bool = False) -> str:
    """Operand of v or &: bracket the other connective of equal binding."""
    is_and = as_and(child) is not None and as_iff(child) is None
    is_or = isinstance(child, Or) and as_imp(child) is None
    mixing = (parent_op == "and" and is_or) or (parent_op == "or" and is_and)
    same = (parent_op == "and" and is_and) or (parent_op == "or" and is_or)
    if mixing or (same and not right):
        return "[" + _render_infix(child, 0) + "]"
    return _render_infix(child, _PREC_OR if right else _PREC_OR + 1)


def _render_term_infix(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, SpecialConst):
        return t.alias or "c?"
    if isinstance(t, App):
        if not t.args:
            return t.fn.name
        if t.fn == CAT:
            return "(" + _render_term_infix(t.args[0]) + " ++ " + _render_term_infix(t.args[1]) + ")"
        if t.fn == ZPROD:
            return "(" + _render_term_infix(t.args[0]) + " ** " + _render_term_infix(t.args[1]) + ")"
        return t.fn.name + "(" + ", ".join(_render_term_infix(a) for a in t.args) + ")"
    raise TypeError(t)
