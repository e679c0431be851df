"""Parsing, printing, substitution and structural measures over nodes.

Formulas are immutable trees over the primitive operators not/or/exists;
the derived connectives and/imp/iff/forall and the bounded quantifiers exist
only as parser sugar and printer styles.  Special constants are index-0
function symbols carrying a closed instantiation as subscript: a special
constant is its subscript alone, and has no name but the one its printer
gives it.
"""

from __future__ import annotations

import itertools
import re
import threading
from dataclasses import dataclass
from functools import lru_cache
from operator import is_not as _is_not
from typing import Iterable, Mapping, Optional, Sequence

from . import nodes
from .errors import ArityError, CaptureError, ParseError
from .nodes import (
    EQ, App, Atom, Exists, FnSym, Formula, Node, Not, Or, PredSym, SpecialConst, Term, Var,
    as_and, as_imp, children, free_vars, occurring_var_names,
)

# core names that syntax's callers reach through it, unused in syntax itself
conjuncts, disjuncts = nodes.conjuncts, nodes.disjuncts
is_elementary, is_variable_free = nodes.is_elementary, nodes.is_variable_free

# ---------------------------------------------------------------------------
# symbols

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
        # fn and pred look a name up in these tables
        fns = {f.name: f for f in self.functions}
        preds = {p.name: p for p in self.predicates}
        if len(fns.keys() | preds.keys()) != len(self.functions) + len(self.predicates):
            raise ArityError("duplicate symbol names in language")
        object.__setattr__(self, "_fns", fns)
        object.__setattr__(self, "_preds", preds)
        if self.zero not in self.functions:
            raise ArityError("language must contain its distinguished constant")
        if self.zero.arity != 0:
            raise ArityError("distinguished constant must have index 0")
        if "=" in preds:
            raise ArityError("= is logical and never part of a language")

    def extend(self, functions=(), predicates=()):
        return Language(
            self.functions + tuple(functions),
            self.predicates + tuple(predicates),
            self.zero,
        )

    def fn(self, name):
        return self._fns.get(name)

    def pred(self, name):
        return self._preds.get(name)


# how to rebuild a node of each class from new immediate subnodes
_REBUILDS = {
    App: lambda n, kids: App(n.fn, kids),
    Atom: lambda n, kids: Atom(n.pred, kids),
    Not: lambda n, kids: Not(*kids),
    Or: lambda n, kids: Or(*kids),
    Exists: lambda n, kids: Exists(n.var, *kids),
}


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
    return _REBUILDS[type(node)](node, kids)


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


def as_all(f: Formula):
    if isinstance(f, Not) and isinstance(f.body, Exists) and isinstance(f.body.body, Not):
        return f.body.var, f.body.body.body
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


# ---------------------------------------------------------------------------
# structural measures (cached; nodes are immutable)


def _subformulas(f: Formula) -> tuple:
    """The immediate subformulas; an atom has none, its arguments being
    terms."""
    if isinstance(f, Atom):
        return ()
    if isinstance(f, Formula):
        return children(f)
    raise TypeError(f)


@lru_cache(maxsize=None)
def all_var_names(node: Node) -> frozenset[str]:
    """Every variable name occurring, free or bound (subscripts included,
    since fresh-name generation must avoid them)."""
    if isinstance(node, Var):
        return frozenset({node.name})
    if isinstance(node, SpecialConst):
        return all_var_names(node.subscript)
    out = frozenset().union(*map(all_var_names, children(node)))
    return out | {node.var} if isinstance(node, Exists) else out


def is_open(f: Formula) -> bool:
    """No existential quantifier occurs."""
    return not isinstance(f, Exists) and all(map(is_open, _subformulas(f)))


@lru_cache(maxsize=None)
def is_plain(node: Node) -> bool:
    """No special constant appears, including transitively inside subscripts."""
    return not isinstance(node, SpecialConst) and all(map(is_plain, children(node)))


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


# ---------------------------------------------------------------------------
# the special-constant intern table

_sc_lock = threading.Lock()
_sc_table: dict[Exists, SpecialConst] = {}


def special_constant(subscript: Formula) -> SpecialConst:
    """Insert-or-get the canonical constant for a closed instantiation."""
    with _sc_lock:
        got = _sc_table.get(subscript)
        if got is None:
            got = _sc_table[subscript] = SpecialConst(subscript)
        return got


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
            if x in free_vars(g.body) and g.var in names:
                return g.var
            return walk(g.body, binders)
        raise TypeError(g)

    return walk(f, ())


def subst(node: Node, binding: Mapping[str, Term], check: bool = True) -> Node:
    """Simultaneous substitution of terms for free variables.  Raises
    CaptureError unless every term is substitutable for its variable."""
    if check and isinstance(node, Formula):
        for x, t in binding.items():
            bad = substitutable(t, x, node)
            if bad is not None:
                raise CaptureError(x, bad)

    def walk(n, shadowed):
        # Dispatch on the exact class, the most frequent first: no node
        # class has a subclass.
        cls = type(n)
        if cls is Var:
            if n.name in binding and n.name not in shadowed:
                return binding[n.name]
            return n
        if cls is App:
            return App(n.fn, tuple(walk(a, shadowed) for a in n.args))
        if cls is Atom:
            return Atom(n.pred, tuple(walk(a, shadowed) for a in n.args))
        if cls is Not:
            return Not(walk(n.body, shadowed))
        if cls is Or:
            return Or(walk(n.left, shadowed), walk(n.right, shadowed))
        if cls is Exists:
            return Exists(n.var, walk(n.body, shadowed | {n.var}))
        if cls is SpecialConst:
            return n  # subscripts are closed
        raise TypeError(n)

    return walk(node, frozenset())


def rewrite(node: Node, app=None, atom=None, exists=None, const=None) -> Node:
    """The bottom-up homomorphism given by hooks on rebuilt nodes.

    Children are rewritten first, left to right; then app, atom or exists,
    when given, maps the rebuilt App, Atom or Exists.  A node whose children
    all come back as the same objects is kept as it is.  const, when given,
    maps each special constant and its result is final.  Without it a
    special constant's subscript goes through the same hooks and the
    constant of the result takes its place; the constant is kept when its
    subscript is unchanged."""

    def walk(n):
        # Dispatch on the exact class, the most frequent first: no node
        # class has a subclass.
        cls = type(n)
        if cls is Var:
            return n
        if cls is App:
            args = tuple(map(walk, n.args))
            if any(map(_is_not, args, n.args)):
                n = App(n.fn, args)
            return n if app is None else app(n)
        if cls is Atom:
            args = tuple(map(walk, n.args))
            if any(map(_is_not, args, n.args)):
                n = Atom(n.pred, args)
            return n if atom is None else atom(n)
        if cls is Not:
            body = walk(n.body)
            return n if body is n.body else Not(body)
        if cls is Or:
            left, right = walk(n.left), walk(n.right)
            return n if left is n.left and right is n.right else Or(left, right)
        if cls is Exists:
            body = walk(n.body)
            if body is not n.body:
                n = Exists(n.var, body)
            return n if exists is None else exists(n)
        if cls is SpecialConst:
            if const is not None:
                return const(n)
            return _resubscript(n, walk(n.subscript))
        raise TypeError(n)

    return walk(node)


def replace_const(node: Node, c: SpecialConst, a: Term) -> Node:
    """Replace c by a everywhere it appears, including inside subscripts of
    other special constants (rebuilding them canonically)."""

    def on_const(n):
        return a if n == c else _resubscript(n, rewrite(n.subscript, const=on_const))

    return rewrite(node, const=on_const)


def _resubscript(c: SpecialConst, sub: Formula) -> SpecialConst:
    """c itself when sub is its subscript, else sub's constant."""
    return c if sub == c.subscript else special_constant(sub)


def has_subformula(f: Formula, olds) -> bool:
    """Whether some subformula of f is in the set olds (special constants
    are atomic for occurrence)."""
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


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_IDENT = re.compile(r"[a-z][a-z0-9_']*$")


class _Misread(Exception):
    """A parse error as (message, index of the token it is at).  `parse`
    raises it again as a ParseError at the token's line and column, which
    are worked out only then."""


class _Reader:
    """A text's tokens, read one s-expression at a time.  An s-expression
    is (body, index): the body is a token or the list of the s-expressions
    between a parenthesis and its match, and the index is that of its
    first token."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.pos = 0

    def where(self, index: int) -> tuple[int, int]:
        """The line and column, both counted from 1, of the index-th token."""
        offset = next(itertools.islice(_TOKEN.finditer(self.text), index, None)).start()
        line_start = self.text.rfind("\n", 0, offset) + 1
        return self.text.count("\n", 0, line_start) + 1, offset - line_start + 1

    def peek(self):
        """The next token, None at the end."""
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def read_sexpr(self):
        toks, start = self.toks, self.pos
        if start == len(toks):
            raise ParseError("unexpected end of input")
        tok = toks[start]
        self.pos += 1
        if tok == "(":
            items = []
            while True:
                if self.pos == len(toks):
                    raise _Misread("unclosed parenthesis", start)
                if toks[self.pos] == ")":
                    self.pos += 1
                    return (items, start)
                items.append(self.read_sexpr())
        if tok == ")":
            raise _Misread("unbalanced ')'", start)
        return (tok, start)


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
    body, index = sx
    if isinstance(body, str):
        if body in env:
            return env[body]
        f = symbols.fn(body)
        if f is not None:
            if f.arity != 0:
                raise _Misread(f"{body} expects {f.arity} arguments, got 0", index)
            return App(f)
        if not _IDENT.match(body):
            raise _Misread(f"bad identifier {body!r}", index)
        if symbols.pred(body) is not None:
            raise _Misread(f"{body} is a predicate symbol, not a term", index)
        return Var(body)
    if not body:
        raise _Misread("empty term", index)
    head, head_index = body[0]
    if not isinstance(head, str):
        raise _Misread("term must start with a symbol", head_index)
    if head == "sc":
        if len(body) != 2:
            raise _Misread("sc takes one subscript formula", index)
        sub = _parse_formula(body[1], symbols, env)
        if not isinstance(sub, Exists) or free_vars(sub):
            raise _Misread("sc subscript must be a closed instantiation", index)
        return special_constant(sub)
    f = symbols.fn(head)
    if f is None:
        raise _Misread(f"unknown function symbol {head!r}", head_index)
    args = body[1:]
    if len(args) != f.arity:
        raise _Misread(
            f"{head} expects {f.arity} arguments, got {len(args)}", index
        )
    return App(f, tuple(_parse_term(a, symbols, env) for a in args))


def _parse_formula(sx, symbols: SymbolTable, env: Mapping[str, Term]):
    body, index = sx
    if isinstance(body, str):
        p = symbols.pred(body)
        if p is None:
            p = symbols.auto_pred(body, 0)
        if p is not None:
            if p.arity != 0:
                raise _Misread(f"{body} expects {p.arity} arguments, got 0", index)
            return Atom(p)
        raise _Misread(f"expected a formula, got {body!r}", index)
    if not body:
        raise _Misread("empty formula", index)
    head, head_index = body[0]
    if not isinstance(head, str):
        raise _Misread("formula must start with an operator", head_index)
    args = body[1:]

    def need(n):
        if len(args) != n:
            raise _Misread(f"{head} expects {n} arguments, got {len(args)}", index)

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
            raise _Misread("quantifier expects a variable", index)
        inner_env = {k: v for k, v in env.items() if k != vtok}
        sub = _parse_formula(args[1], symbols, inner_env)
        return Exists(vtok, sub) if head == "exists" else fall(vtok, sub)
    if head in ("exists<=", "forall<="):
        need(3)
        if symbols.order is None:
            raise _Misread("no order symbol registered for bounded quantifiers", index)
        vtok = args[0][0]
        if not isinstance(vtok, str) or not _IDENT.match(vtok):
            raise _Misread("bounded quantifier expects a variable", index)
        bound = _parse_term(args[1], symbols, env)
        if vtok in occurring_var_names(bound):
            raise _Misread(
                f"capture in sugar expansion: {vtok} occurs in its own bound", index
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
    raise _Misread(f"unknown predicate or operator {head!r}", head_index)


def parse(text: str, kind: str, symbols: SymbolTable, env: Optional[Mapping[str, Term]] = None):
    """Parse a term or formula from the parenthesized prefix grammar."""
    env = env or {}
    reader = _Reader(text)
    try:
        sx = reader.read_sexpr()
        if reader.peek() is not None:
            raise _Misread(f"trailing input {reader.peek()!r}", reader.pos)
        if kind == "term":
            return _parse_term(sx, symbols, env)
        if kind == "formula":
            return _parse_formula(sx, symbols, env)
    except _Misread as e:
        message, index = e.args
        raise ParseError(message, *reader.where(index)) from None
    raise ParseError(f"unknown parse kind {kind!r}")


# ---------------------------------------------------------------------------
# printing


def render(node: Node, style: str = "prefix-canonical", names: Optional[dict] = None) -> str:
    """Prefix form writes a special constant's subscript out.  Infix form
    writes its name in names, else the first of c1, c2, ... not yet in
    names, which it adds there: one dict passed to each call of one output
    names the constants of that output in order of first appearance."""
    if style == "prefix-canonical":
        return nodes.render(node)
    if style == "infix-pretty":
        return _render_infix(node, {} if names is None else names)
    raise ParseError(f"unknown render style {style!r}")


# infix precedence: not / exists bind tightly; or and & bind tighter than
# imp and iff; infix operators associate right to left
_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_UNARY = 10, 20, 30, 40
_INFIX_FNS = {CAT: "++", ZPROD: "**"}


def _paren(s: str, mine: int, outer: int) -> str:
    return "[" + s + "]" if mine < outer else s


def _render_infix(node: Node, names: dict) -> str:
    def formula(node, prec):
        if isinstance(node, Term):
            return term(node)
        if isinstance(node, Atom):
            if node.pred == EQ:
                return f"{term(node.args[0])} = {term(node.args[1])}"
            if not node.args:
                return node.pred.name
            return node.pred.name + "(" + ", ".join(map(term, node.args)) + ")"
        if isinstance(node, Not):
            inner = node.body
            if isinstance(inner, Atom) and inner.pred == EQ:
                s = f"{term(inner.args[0])} != {term(inner.args[1])}"
                return _paren(s, _PREC_UNARY, prec)
            pair = as_all(node)
            if pair is not None:
                x, b = pair
                return _paren(f"forall {x} {formula(b, _PREC_UNARY)}", _PREC_UNARY, prec)
            pair = as_iff(node)
            if pair is not None:
                a, b = pair
                s = f"{formula(a, _PREC_IFF + 1)} <-> {formula(b, _PREC_IFF)}"
                return _paren(s, _PREC_IFF, prec)
            pair = as_and(node)
            if pair is not None:
                a, b = pair
                s = f"{mixed(a, 'and')} & {mixed(b, 'and', right=True)}"
                return _paren(s, _PREC_OR, prec)
            return _paren("-" + formula(node.body, _PREC_UNARY + 1), _PREC_UNARY, prec)
        if isinstance(node, Or):
            pair = as_imp(node)
            if pair is not None:
                a, b = pair
                s = f"{formula(a, _PREC_IMP + 1)} -> {formula(b, _PREC_IMP)}"
                return _paren(s, _PREC_IMP, prec)
            s = f"{mixed(node.left, 'or')} v {mixed(node.right, 'or', right=True)}"
            return _paren(s, _PREC_OR, prec)
        if isinstance(node, Exists):
            return _paren(
                f"exists {node.var} {formula(node.body, _PREC_UNARY)}", _PREC_UNARY, prec
            )
        raise TypeError(node)

    def mixed(child, parent_op, right=False):
        """Operand of v or &: bracket the other connective of equal binding."""
        is_and = as_and(child) is not None and as_iff(child) is None
        is_or = isinstance(child, Or) and as_imp(child) is None
        mixing = (parent_op == "and" and is_or) or (parent_op == "or" and is_and)
        same = (parent_op == "and" and is_and) or (parent_op == "or" and is_or)
        if mixing or (same and not right):
            return "[" + formula(child, 0) + "]"
        return formula(child, _PREC_OR if right else _PREC_OR + 1)

    def term(t):
        if isinstance(t, Var):
            return t.name
        if isinstance(t, SpecialConst):
            if t not in names:
                taken = set(names.values())
                names[t] = next(f"c{k}" for k in itertools.count(1) if f"c{k}" not in taken)
            return names[t]
        if isinstance(t, App):
            if not t.args:
                return t.fn.name
            if t.fn in _INFIX_FNS:
                return f"({term(t.args[0])} {_INFIX_FNS[t.fn]} {term(t.args[1])})"
            return t.fn.name + "(" + ", ".join(map(term, t.args)) + ")"
        raise TypeError(t)

    return formula(node, 0)
