"""String arithmetic: the theory, its definitions and induction schema, the
concrete bit-string interpreter that serves as an independent semantic
oracle, and the proof-script corpus driver.

The corpus driver reports each script's own verdict
(kernel.scripts.ScriptVerdict), with the oracle's added, and registers the
goal that check_script parsed.

Strings are Python str over '0'/'1', leftmost bit first.  The interpreter
gives a formula's truth, or a term's value, under an environment that binds
every free variable of it; other keys are ignored, and a missing one is
refused ("unbound variable x", the first missing in free_vars order) before
anything is evaluated.  It turns the formula, once, into the source of one
Python function of its free variables and compiles it: terms and
connectives become one expression (a10 reads `x + (y + z) == (x + y) + z`),
each builtin written out from its template in BUILTINS, and a defined
symbol is a call of its own function with positional arguments.  All
syntax, witness strategies included, is analysed while generating, and the
code only computes values.  Each formula's and definiens's code is kept on
the TheoryBundle (its `compiled` memo), so a bundle's copy starts empty and
the code goes with the bundle.  Evaluation order and the other errors are
those of a direct recursive evaluation: a special constant, an
uninterpretable symbol or an unbounded quantifier raises only when
reached.  An equationally determined witness is a local assigned outright,
an order-bounded one ranges over the strings up to the bound's length, and
one that appears only under length functions over all-zero strings, of the
one length its body's equations allow when they fix it.  The length
functions are worked out from the definitions: zprod, and each explicitly
defined symbol whose body's variables appear only under length functions
defined before it.  Any other search is bounded by the lengths of the
values in scope plus 4, which the code adds up in place.  meta.extensions
reads a witness's bound by the same functions.

Random strings are drawn as rng.randint(0, maxlen) and then one
rng.choice("01") per bit would draw them, so a seed samples the same
strings as it always has.  A reader that owns its generator reads the
32-bit words ahead in blocks, marks each word accepted or drawn again, and
finds where a string of n bits ends with one regular-expression match over
the marks.  It draws a batch of strings in one call, as many calls one
after another would (fuzz_axioms draws each axiom's samples so);
random_string draws one string through a reader from a shared generator
and leaves the generator where those calls would have."""

from __future__ import annotations

import array
import functools
import itertools
import random
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .errors import ArityError, CheckError, ParseError, ProofkitError
from . import extend, propcalc
from . import syntax as sx
from .kernel import Registry, Theory, bsi_template, scripts as kscripts
from .syntax import (
    App,
    Atom,
    Exists,
    Formula,
    Not,
    Or,
    PredSym,
    Term,
    Var,
    EPS,
    S0,
    S1,
    PD,
    CAT,
    ZPROD,
)

DATA_DIR = Path(__file__).parent / "data"

S_LANGUAGE = (EPS, S0, S1, PD, CAT, ZPROD)  # the base function symbols


# ---------------------------------------------------------------------------
# the interpreter: each formula is compiled to one Python function per bundle


# the builtin function symbols, each a Python expression over its arguments'
# values {0} and {1}, which generated code writes out in place
BUILTINS = {
    "eps": "''",
    "s0": "'0' + {0}",
    "s1": "'1' + {0}",
    "pd": "{0}[1:]",
    "cat": "{0} + {1}",
    "zprod": "'0' * (len({0}) * len({1}))",
}


# each builtin's length, a Counter from monomials (sorted tuples of names
# whose lengths are variables) to coefficients, over its arguments' lengths
# (see term_length); pd's is unknown
LENGTHS = {
    "eps": Counter,
    "s0": Counter({(): 1}).__add__,
    "s1": Counter({(): 1}).__add__,
    "cat": Counter.__add__,
    "zprod": lambda a, b: sum(
        (Counter({tuple(sorted(m + k)): i * j}) for m, i in a.items() for k, j in b.items()), Counter()
    ),
}


def term_length(t: Term, lens: dict, rules: dict, defined: dict, seen: Optional[list] = None):
    """t's length by `rules` (LENGTHS, or LENGTH_BOUNDS for the longest
    value), each variable's from `lens`.  An explicitly defined symbol of
    `defined` (a chain's) is measured through its body, whose variables bind
    the arguments' lengths as in apply; a special constant, or a symbol with
    neither a rule nor an explicit body, has None.  Each length worked out
    along the way is appended to `seen`."""
    if isinstance(t, Var):
        return lens[t.name]
    if isinstance(t, sx.SpecialConst):
        return None
    args = [term_length(a, lens, rules, defined, seen) for a in t.args]
    rule = rules.get(t.fn.name)
    body = getattr(defined.get(t.fn), "explicit_body", None)  # None without a stage
    if rule is None and body is not None:
        rule = lambda *args: term_length(body, dict(zip(sx.free_vars(body), args)), rules, defined, seen)
    n = None if rule is None or None in args else rule(*args)
    if seen is not None and n is not None:
        seen.append(n)
    return n


# Parentheses one generated expression may nest (CPython refuses 200): a
# deeper node becomes a function of its own.
_MAX_DEPTH = 50


def _raise(message: str):
    raise CheckError(message)


def _zeros(local: int, *pins):
    """The all-zero strings a length-only witness ranges over: the length
    needed under the zero product is at worst quadratic.  The first pin
    (c, k) with c not 0 allows only n = k / c, if whole and in range."""
    top = max(local, (local - 4) * (local - 4) + 4)
    for c, k in pins:
        if c:
            n, r = divmod(k, c)
            return ("0" * n,) if not r and 0 <= n <= top else ()
    return map("0".__mul__, range(top + 1))


def _all_strings(maxlen: int):
    out = [""]
    frontier = [""]
    for _ in range(maxlen):
        frontier = [s + b for s in frontier for b in "01"]
        out.extend(frontier)
    return out


def occurs_outside_length(z: str, f: Formula, length_funs) -> bool:
    """Whether z occurs free in f other than under one of the functions
    named in length_funs (see length_functions): if not, only its length
    matters."""
    todo = [f]
    while todo:
        n = todo.pop()
        if isinstance(n, Var):
            if n.name == z:
                return True
        elif isinstance(n, App):
            if n.fn.name not in length_funs:
                todo += n.args
        elif isinstance(n, Atom):
            todo += n.args
        elif isinstance(n, Not):
            todo.append(n.body)
        elif isinstance(n, Or):
            todo += (n.left, n.right)
        elif isinstance(n, Exists) and n.var != z:
            todo.append(n.body)
    return False


def length_functions(defined: dict) -> set:
    """The names of the functions whose value is the all-zero string of a
    length that their arguments' lengths fix: zprod, and each explicitly
    defined symbol of `defined` (a chain's, in definition order) whose
    body's variables occur only under those found before it."""
    out = {ZPROD.name}
    for symbol, stage in defined.items():
        body = stage.explicit_body
        if body is not None and not any(occurs_outside_length(x, body, out) for x in sx.free_vars(body)):
            out.add(symbol.name)
    return out


def witness_bound(z: str, parts: list, order) -> Optional[tuple]:
    """How the conjuncts `parts` of an existential's body bound its witness
    z: (b, True) when z is b's value, for the first conjunct z = b or b = z
    with z not in b; else (b, False) when z ranges up to b's length, the
    first conjunct being the order's z <= b with z not in b; else None.  A
    first conjunct not (or (not a) c), which forall<= gives, is read as a."""
    eqs = [p.args for p in parts if isinstance(p, Atom) and p.pred == sx.EQ]
    found = [(b, True) for args in eqs for a, b in (args, args[::-1]) if a == Var(z)]
    head = parts[0]
    if isinstance(head, Not) and isinstance(head.body, Or) and isinstance(head.body.left, Not):
        head = head.body.left.body
    if isinstance(head, Atom) and head.pred == order and head.args[0] == Var(z):
        found.append((head.args[1], False))
    return next(((b, one) for b, one in found if z not in sx.occurring_var_names(b)), None)


def _defines(f: Formula, z: str, b: Term) -> bool:
    """Whether f is the equation z = b or b = z."""
    return isinstance(f, Atom) and f.pred == sx.EQ and f.args in ((Var(z), b), (b, Var(z)))


class _Code:
    """The generated function `fn` of one memo entry, positional in the
    entry's free variables `params`.  Called on an environment, it reads the
    parameters from it; other keys are ignored, and a missing one raises
    before any code runs.  `raises` counts the places where `fn`, or code it
    calls, can raise."""

    __slots__ = ("fn", "params", "raises")

    def __init__(self, node, bundle, strict):
        gen = _Generator(bundle, strict)
        (self.fn, self.params), self.raises = gen.unit(node), gen.raises

    def __call__(self, env: dict):
        try:
            args = [*map(env.__getitem__, self.params)]
        except KeyError as missing:
            raise CheckError(f"unbound variable {missing.args[0]}") from None
        return self.fn(*args)


class _Generator:
    """Python source for one memo entry, compiled once.  Variables become
    parameters `v<i>` and witnesses locals `w<i>`; messages, names and other
    entries' functions are constants `c<i>` of the code's namespace, so no
    text of the input is written into the source.  A function `f<i>` takes
    every variable in scope, each bound to a string."""

    def __init__(self, bundle, strict):
        self.bundle, self.strict = bundle, strict
        self.defined = (bundle.schema or bundle.definitions).defined  # symbol -> stage
        self.length_funs = length_functions(self.defined)
        self.ns = {"_raise": _raise, "_zeros": _zeros, "_all_strings": _all_strings}
        self.consts: dict = {}
        self.defs: list[str] = []
        self.count = 0
        self.raises = 0  # as _Code's

    def unit(self, node):
        """The entry's function and its parameters' names."""
        names = sx.free_vars(node)
        scope = {x: self.fresh("v") for x in names}
        text, _ = self.term(node, scope) if isinstance(node, Term) else self.formula(node, scope)
        name = text.partition("(")[0]
        if text != self.call_text(name, scope):  # not a function of the parameters yet
            name = self.call(scope, f"    return {text}")[0].partition("(")[0]
        exec(compile("\n".join(self.defs), "<interpreter>", "exec"), self.ns)
        return self.ns[name], names

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def const(self, value) -> str:
        key = (type(value), value)
        name = self.consts.get(key)
        if name is None:
            name = self.consts[key] = self.fresh("c")
            self.ns[name] = value
        return name

    def call(self, scope: dict, body: str):
        """A call of a new function with `body`, on the variables in scope."""
        name = self.fresh("f")
        self.defs.append(f"def {name}({', '.join(scope.values())}):\n{body}")
        return self.call_text(name, scope), 1

    @staticmethod
    def call_text(name: str, scope: dict) -> str:
        return f"{name}({', '.join(scope.values())})"

    def fits(self, text: str, depth: int, scope: dict):
        """The expression, or a call of a function returning it when it
        nests too deeply."""
        if depth <= _MAX_DEPTH:
            return text, depth
        return self.call(scope, f"    return {text}")

    def fail(self, message: str):
        self.raises += 1
        return f"_raise({self.const(message)})", 1

    def apply(self, code: _Code, args: tuple, scope: dict):
        """A defined symbol's function on its arguments' values.  The
        symbol's arity is its definiens's free-variable count, so the
        arguments bind the function's parameters one for one."""
        self.raises += code.raises
        texts = [self.term(a, scope) for a in args]
        depth = 1 + max((d for _, d in texts), default=0)
        return self.fits(f"{self.const(code.fn)}({', '.join(t for t, _ in texts)})", depth, scope)

    def code(self, node, strict) -> _Code:
        """A definiens's code, kept on the bundle."""
        return _compiled(self.bundle, node, strict)

    def term(self, t: Term, scope: dict):
        if isinstance(t, Var):
            return scope[t.name], 0
        if isinstance(t, sx.SpecialConst):
            return self.fail("special constants are uninterpretable")
        template = BUILTINS.get(t.fn.name)
        if template is not None:
            args = [self.term(a, scope) for a in t.args]
            # at most as deep as the template's own brackets over its deepest argument
            depth = 1 + template.count("(") + template.count("[") + max((d for _, d in args), default=0)
            return self.fits(f"({template.format(*(a for a, _ in args))})", depth, scope)
        body = getattr(self.defined.get(t.fn), "explicit_body", None)  # None without a stage
        if body is None:
            return self.fail(f"uninterpretable symbol {t.fn.name}")
        return self.apply(self.code(body, None), t.args, scope)

    def formula(self, f: Formula, scope: dict):
        """Its truth as an expression (see eval_formula)."""
        if isinstance(f, Atom):
            if f.pred == sx.EQ:
                (x, dx), (y, dy) = (self.term(a, scope) for a in f.args)
                return self.fits(f"({x} == {y})", 1 + max(dx, dy), scope)
            stage = self.defined.get(f.pred)
            if stage is None:
                return self.fail(f"uninterpretable predicate {f.pred.name}")
            return self.apply(self.code(stage.definiens, self.strict), f.args, scope)
        if isinstance(f, Not):
            pair = sx.as_and(f)
            if pair is not None:
                (a, da), (b, db) = (self.formula(p, scope) for p in pair)
                return self.fits(f"({a} and {b})", 1 + max(da, db), scope)
            if isinstance(f.body, Not):
                return self.formula(f.body.body, scope)
            a, da = self.formula(f.body, scope)
            return self.fits(f"(not {a})", 1 + da, scope)
        if isinstance(f, Or):
            (a, da), (b, db) = self.formula(f.left, scope), self.formula(f.right, scope)
            return self.fits(f"({a} or {b})", 1 + max(da, db), scope)
        if isinstance(f, Exists):
            return self.exists(f, scope)
        raise TypeError(f)

    def exists(self, e: Exists, scope: dict):
        """The witness z is, in order of preference: b's value or every
        string up to b's length, as witness_bound reads the body; an
        all-zero string, when z occurs only under length functions (see
        length_functions); else, unless strict, any string up to a capped
        length.  Every variable in scope is bound, so the first candidate is
        taken.

        When the body's code cannot raise, a length-only z is tried only at
        the length the first of pins' equations with a coefficient not 0 at
        run time allows (see _zeros).  The body implies each equation: a
        conjunction implies its conjuncts, a defined v is b, and equal
        strings have equal lengths.  So no other candidate makes it true, and
        none can raise."""
        z, parts = e.var, sx.conjuncts(e.body)
        first = witness_bound(z, parts, self.bundle.symbols.order)
        length_only = not occurs_outside_length(z, e.body, self.length_funs)
        if self.strict and not (first or length_only):
            return self.fail(f"unbounded quantifier: {sx.render(e)[:80]}")
        w = self.fresh("w")
        inner = {**scope, z: w}
        if first:
            b, one = first
            value, dv = self.term(b, scope)
            if one:
                # z = b holds once z is b's value, which is computed again alike
                given, dg = self.conjunction([p for p in parts if not _defines(p, z, b)], inner)
                return self.fits(f"(({w} := {value}), {given})[1]", 2 + max(dv, dg), scope)
            space = f"_all_strings(len({value}))"
        raises = self.raises
        body = self.formula(e.body, inner)[0]
        if not first:
            # the lengths of the values in scope, a witness in place of the name it rebinds
            local = "".join(f"len({v}) + " for v in scope.values()) + "4"
            space = f"_all_strings(min({local}, 10))"
            if length_only:
                lens = {x: Counter({(v,): 1}) for x, v in inner.items()}
                pins = self.pins(w, parts, lens) if self.raises == raises else []
                space = f"_zeros({', '.join([local, *pins])})"
        lines = (
            f"    for {w} in {space}:",
            f"        if {body}:",
            "            return True",
            "    return False",
        )
        return self.call(scope, "\n".join(lines))

    def pins(self, w: str, parts: list, lens: dict) -> list:
        """(c, k) for each equation among `parts`, or in a conjunct exists v
        [v = b & ...] that witness_bound reads as defining v, whose sides'
        lengths differ by c*n - k, n being w's length and c not identically
        0."""
        out = []
        length = lambda t: term_length(t, lens, LENGTHS, self.defined)
        for p in parts:
            if isinstance(p, Exists):
                inner = sx.conjuncts(p.body)
                b, one = witness_bound(p.var, inner, self.bundle.symbols.order) or (None, False)
                if one:  # v = b itself gives no pin: its sides' lengths are equal
                    out += self.pins(w, inner, {**lens, p.var: length(b)})
            elif isinstance(p, Atom) and p.pred == sx.EQ:
                left, right = map(length, p.args)
                if left is None or right is None:
                    continue
                diff = Counter(left)
                diff.subtract(right)
                terms = [
                    (m.count(w), f"{i}" + "".join(f" * len({x})" for x in m if x != w))
                    for m, i in diff.items() if i
                ]
                c, k = (" + ".join(t for d, t in terms if d == deg) or "0" for deg in (1, 0))
                if c != "0" and all(d < 2 for d, _ in terms):
                    out.append(f"({c}, -({k}))")
        return out

    def conjunction(self, parts: list, scope: dict):
        """The conjunction of `parts`, left to right; True when empty."""
        texts = [self.formula(p, scope) for p in parts]
        if len(texts) < 2:
            return texts[0] if texts else ("True", 0)
        depth = 1 + max(d for _, d in texts)
        return self.fits(f"({' and '.join(t for t, _ in texts)})", depth, scope)


def _compiled(bundle, node, strict) -> _Code:
    """The code for (node, strict), compiled once per bundle.  It relies on
    no stage or order changing once looked up."""
    code = bundle.compiled.get((node, strict))
    if code is None:
        code = bundle.compiled[node, strict] = _Code(node, bundle, strict)
    return code


def eval_term(t: Term, env: Optional[dict], bundle: "TheoryBundle") -> str:
    """`t`'s value under env, which binds every free variable of `t` (see
    the module docstring)."""
    return _Code(t, bundle, None)(env or {})


def eval_formula(
    f: Formula,
    env: Optional[dict],
    bundle: "TheoryBundle",
    strict: bool = True,
) -> bool:
    """Truth of a formula on concrete strings, under env, which binds every
    free variable of `f` (see the module docstring).  With strict=True only
    definitional and order-bounded quantifiers are admitted; otherwise
    capped enumeration is used as a last resort (for translated formulas)."""
    return _compiled(bundle, f, strict)(env or {})


def evaluable(f: Formula, bundle, strict: bool = True) -> bool:
    try:
        env = {x: "01" for x in sx.free_vars(f)}
        eval_formula(f, env, bundle, strict=strict)
        return True
    except CheckError:
        return False


# ---------------------------------------------------------------------------
# the theory bundle and its file format


@dataclass
class TheoryBundle:
    """A loaded theory, each fact kept once: the axioms and checked theorems
    in `registry`, the base theory in `definitions.base`, each defined
    symbol's stage in the chain's `defined` (the schema chain's maps every
    one), the order symbol in `symbols.order`."""

    symbols: sx.SymbolTable
    registry: Registry
    definitions: extend.DefinitionRegistry  # main chain
    schema: Optional[extend.DefinitionRegistry] = None  # continues the main chain over phi
    compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def register_theorem(self, label: str, statement: Formula):
        """Record a checked theorem, tagging it with the schema section when
        it mentions the uninterpreted predicate's closure layers.  A label
        names one statement: registering the same theorem again does
        nothing, and any other reuse of a label is refused."""
        got = self.registry.entries.get(label)
        if got is not None:
            if got.kind == "theorem" and got.statement == statement:
                return
            raise CheckError(f"label {label!r} is already taken by {got.kind} {label}")
        only_schema = self.schema.defined.keys() - self.definitions.defined.keys() if self.schema else ()
        preds = {s for s in sx.appearing_symbols(statement) if isinstance(s, PredSym)}
        section = "schema" if preds & {PredSym("phi", 1), *only_schema} else "base"
        self.registry.add(kscripts.Entry(label, "theorem", statement, section))


def read_file(path, parse):
    """parse(text) for the file's text.  An error in the file, bytes that
    are not UTF-8 text included, names its path, as an OSError does."""
    try:
        return parse(Path(path).read_text())
    except UnicodeDecodeError as e:
        raise ProofkitError(f"{path}: {e}") from None
    except ProofkitError as e:
        e.args = (f"{path}: {e}",)
        raise


def load_theory(path: Optional[Path] = None) -> TheoryBundle:
    """The theory file at `path` (the bundled theory_s.th by default)."""
    return read_file(path or (DATA_DIR / "theory_s.th"), _parse_theory)


def _parse_theory(text: str) -> TheoryBundle:
    """A theory file's bundle.  Its axioms come first: the base theory is
    frozen at the first other line, or at the end of the file, and a later
    axiom is refused."""
    symbols = sx.SymbolTable(S_LANGUAGE)
    registry = Registry(symbols)
    bundle = TheoryBundle(symbols, registry, None)
    axioms: list[Formula] = []
    chain: Optional[extend.DefinitionRegistry] = None  # where definitions go
    pending_phi: list[tuple[str, str, int]] = []  # (label, predicate, line)

    def base_chain():
        theory = Theory("S", tuple(axioms), EPS)
        return extend.DefinitionRegistry(theory, declared=S_LANGUAGE)

    def add(symbol, what: str, lineno: int):
        try:
            symbols.add(symbol)
        except ArityError as e:
            raise ParseError(f"{what}: {e}", lineno, 1) from None

    def define(label: str, lineno: int, make, *args):
        logged = len(chain.stages)
        stage = make(label, *args)
        if len(chain.stages) == logged:  # an earlier line made it
            message = f"definition {label} repeats the definiens of {stage.label}"
            raise ParseError(message, lineno, 1)
        add(stage.symbol, f"definition {label}", lineno)
        registry.add_definition(label, stage.axiom, "schema" if chain is bundle.schema else "base")

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("theory "):
            continue
        m = re.match(r"axiom\s+([a-z0-9_']+)\s*:\s*(.+)$", line)
        if m:
            if chain is not None:
                message = f"axiom {m.group(1)} after a definition or directive: axioms come first"
                raise ParseError(message, lineno, 1)
            f = sx.parse(m.group(2), "formula", symbols)
            axioms.append(f)
            registry.add_axiom(m.group(1), f)
            continue
        if chain is None:
            chain = bundle.definitions = base_chain()
        m = re.match(r"define\s+pred\s+([a-z0-9_']+)\s+([a-z0-9_']+)\s*:\s*(.+)$", line)
        if m:
            label, name, body = m.groups()
            definiens = sx.parse(body, "formula", symbols)
            define(label, lineno, chain.define_predicate, name, definiens)
            continue
        m = re.match(r"define\s+fun\s+([a-z0-9_']+)\s+([a-z0-9_']+)\s*:=\s*(.+)$", line)
        if m:
            label, name, body = m.groups()
            term = sx.parse(body, "term", symbols)
            define(label, lineno, chain.define_function_explicit, name, term)
            continue
        m = re.match(
            r"define\s+fun\s+([a-z0-9_']+)\s+([a-z0-9_']+)\s*:\s*(.+?)\s+using\s+"
            r"([a-z0-9_']+)\s+([a-z0-9_']+)$",
            line,
        )
        if m:
            label, name, body, ec_label, uc_label = m.groups()
            existential = sx.parse(body, "formula", symbols)
            ec, uc = registry.lookup(ec_label), registry.lookup(uc_label)
            define(label, lineno, chain.define_function, name, existential, ec, uc)
            continue
        m = re.match(r"order\s+([a-z0-9_']+)$", line)
        if m:
            p = symbols.pred(m.group(1))
            if p is None:
                raise ParseError(f"unknown order symbol {m.group(1)}", lineno, 1)
            symbols.order = p
            continue
        m = re.match(r"phi\s+([a-z0-9_']+)\s*:\s*([a-z0-9_']+)$", line)
        if m:
            pending_phi.append((m.group(1), m.group(2), lineno))
            continue
        if line == "bsi":
            registry.enable_bsi(bsi_template())
            continue
        if line == "schema phi":
            phi = PredSym("phi", 1)
            add(phi, "schema phi", lineno)
            chain = bundle.schema = bundle.definitions.continued(phi)
            continue
        raise ParseError(f"unrecognized theory line: {line!r}", lineno, 1)
    if chain is None:
        bundle.definitions = base_chain()
    for phi_label, pred_name, lineno in pending_phi:
        p = symbols.pred(pred_name)
        if p is None:
            raise ParseError(f"unknown predicate {pred_name} for phi {phi_label}", lineno, 1)
        if p.arity != 1:
            message = f"phi {phi_label} needs a unary predicate; {pred_name} expects {p.arity} arguments"
            raise ParseError(message, lineno, 1)
        try:
            registry.register_phi(phi_label, Atom(p, (Var("x"),)))
        except CheckError:  # the registry refuses a repeated label
            first = next(n for label, _, n in pending_phi if label == phi_label)
            raise ParseError(f"phi {phi_label} repeats the label of line {first}", lineno, 1) from None
    return bundle


# ---------------------------------------------------------------------------
# schema instances


def bsi_instance(bundle: TheoryBundle, phi_label: str, t: Term) -> Formula:
    """The closed induction instance for a registered unary formula at a
    term."""
    stmt = bundle.registry.bsi_statement(phi_label)
    return sx.subst(stmt, {"x": t})


# ---------------------------------------------------------------------------
# axiom fuzzing


class FuzzReport(NamedTuple):
    checked: int
    counterexamples: list

    @property
    def ok(self) -> bool:
        return not self.counterexamples


# rng.choice("01") reads one 32-bit word per try and keeps its top two bits
# when they are below 2: a high byte 0x00-0x3F gives '0', 0x40-0x7F '1', and
# 0x80-0xFF is drawn again.  These tables map each high byte to its bit, and
# to its mark: a for accepted, r for drawn again.
_BIT_OF_HIGH_BYTE = bytes.maketrans(bytes(range(128)), b"0" * 64 + b"1" * 64)
_REJECTED_HIGH_BYTES = bytes(range(128, 256))
_MARK_OF_HIGH_BYTE = bytes.maketrans(bytes(range(256)), b"a" * 128 + b"r" * 128)

# the fewest words a reader takes from its generator at once
_BLOCK_WORDS = 1024
# an array type code of 32-bit words
_WORD = next(code for code in "IL" if array.array(code).itemsize == 4)


@functools.lru_cache(maxsize=1024)
def _bits_end(n: int):
    """Matches the marks of the words that give the next n bits."""
    return re.compile(b"(?:r*a){%d}" % n).match


class _StringReader:
    """Draws the strings that rng.randint(0, maxlen) and then one
    rng.choice("01") per bit would draw from `rng`, reading its 32-bit words
    ahead in blocks.  The reader owns `rng`: words read and never used are
    dropped with it."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        # the words read and not yet dropped, their high bytes and their marks
        self.words = array.array(_WORD)
        self.high = self.marks = b""
        self.pos = 0  # the first of them not yet used
        self.dropped = 0  # the words used before them

    def refill(self):
        """Reads a block of words, or as many as are unused if that is more,
        so that a long string is read in few blocks; drops the used ones."""
        pos, count = self.pos, max(_BLOCK_WORDS, len(self.marks) - self.pos)
        new = self.rng.getrandbits(32 * count).to_bytes(4 * count, "little")
        words = array.array(_WORD, new)
        if sys.byteorder == "big":
            words.byteswap()
        high = new[3::4]
        self.words = self.words[pos:] + words
        self.high = self.high[pos:] + high
        self.marks = self.marks[pos:] + high.translate(_MARK_OF_HIGH_BYTE)
        self.dropped += pos
        self.pos = 0

    def length(self, maxlen: int) -> int:
        """rng.randint(0, maxlen).  CPython keeps the top k bits of one word,
        k the bit length of maxlen + 1, and draws again while they are more
        than maxlen."""
        if not 0 <= maxlen < 2**32 - 1:
            raise CheckError(f"string length bound {maxlen} is outside 0..{2**32 - 2}")
        span = maxlen + 1
        shift = 32 - span.bit_length()
        while True:
            if self.pos == len(self.marks):
                self.refill()
            n = self.words[self.pos] >> shift
            self.pos += 1
            if n < span:
                return n

    def strings(self, maxlen: int, count: int) -> list[str]:
        """`count` strings of random length up to maxlen, one after another:
        each one's words end where the marks hold as many accepted words as
        it has bits."""
        length = self.length
        out = []
        for _ in range(count):
            end = _bits_end(length(maxlen))
            found = end(self.marks, self.pos)
            while found is None:
                self.refill()
                found = end(self.marks, self.pos)
            start, self.pos = self.pos, found.end()
            out.append(self.high[start : self.pos].translate(_BIT_OF_HIGH_BYTE, _REJECTED_HIGH_BYTES))
        return [*map(bytes.decode, out)]

    def draw(self, maxlen: int) -> str:
        return self.strings(maxlen, 1)[0]


def random_string(rng: random.Random, maxlen: int) -> str:
    """The string that rng.randint(0, maxlen) and then one rng.choice("01")
    per bit would give, with `rng` left in the same state: a reader draws it,
    then `rng` is set back and passed over the words the string used."""
    state = rng.getstate()
    reader = _StringReader(rng)
    out = reader.draw(maxlen)
    rng.setstate(state)
    rng.getrandbits(32 * (reader.dropped + reader.pos))
    return out


# the most assignments, random bits, or characters of one value that
# fuzz_axioms allows an axiom
MAX_EXHAUSTIVE = 10**8

# each builtin's longest value, given its arguments' longest values
LENGTH_BOUNDS = {
    "eps": lambda: 0,
    "s0": lambda a: a + 1,
    "s1": lambda a: a + 1,
    "pd": lambda a: a,
    "cat": lambda a, b: a + b,
    "zprod": lambda a, b: a * b,
}


def _longest_value(f: Formula, maxlen: int, bundle) -> int:
    """The most characters a term of f can hold when each variable holds at
    most maxlen: an explicitly defined symbol's through its body.  A term
    with no value (a special constant, or a symbol without an explicit body,
    which evaluation refuses) counts nothing."""
    lens = dict.fromkeys(sx.occurring_var_names(f), maxlen)
    defined = (bundle.schema or bundle.definitions).defined
    seen = [0]
    todo = [f]
    while todo:
        node = todo.pop()
        if isinstance(node, Atom):
            for a in node.args:
                term_length(a, lens, LENGTH_BOUNDS, defined, seen)
        else:
            todo += sx.children(node)
    return max(seen)


def fuzz_axioms(
    bundle: TheoryBundle,
    samples: int = 200,
    maxlen: int = 16,
    seed: int = 0,
    exhaustive_len: int = 0,
) -> FuzzReport:
    """Evaluate every axiom on random assignments (and exhaustively over all
    strings up to exhaustive_len); any counterexample is reported.  Each
    axiom's samples are drawn in one batch, and each assignment is passed
    to its code as a tuple; only a counterexample becomes a dict.  A run
    whose samples could hold more than MAX_EXHAUSTIVE random bits for the
    widest axiom, or whose exhaustive length gives it more than
    MAX_EXHAUSTIVE assignments or the strings up to that length more than
    MAX_EXHAUSTIVE characters, or where a term of an axiom could be more
    than MAX_EXHAUSTIVE characters long, is refused before anything is
    drawn or built."""
    axioms = [(lbl, bundle.registry.entries[lbl].statement) for lbl in bundle.registry.order
              if bundle.registry.entries[lbl].kind == "axiom"]
    width = max((len(sx.free_vars(f)) for _, f in axioms), default=0)
    bits = samples * width * maxlen
    if bits > MAX_EXHAUSTIVE:
        raise CheckError(
            f"{samples} samples of strings up to {maxlen} bits long for an axiom's "
            f"{width} variables may draw {bits} bits, more than {MAX_EXHAUSTIVE}"
        )
    strings = ()
    if exhaustive_len and width:
        # past length 63 the count is far over the limit; it is not computed
        count = (2 ** (exhaustive_len + 1) - 1) ** width if exhaustive_len < 64 else None
        if count is None or count > MAX_EXHAUSTIVE:
            shown = count if count is not None else f"(2^{exhaustive_len + 1}-1)^{width}"
            raise CheckError(
                f"exhaustive length {exhaustive_len} gives {shown} assignments to an "
                f"axiom's {width} variables, more than {MAX_EXHAUSTIVE}"
            )
        # the 2^k strings of each length k <= n hold k * 2^k characters,
        # (n - 1) * 2^(n + 1) + 2 in all
        chars = (exhaustive_len - 1) * 2 ** (exhaustive_len + 1) + 2
        if chars > MAX_EXHAUSTIVE:
            raise CheckError(
                f"exhaustive length {exhaustive_len} builds strings of {chars} "
                f"characters in all, more than {MAX_EXHAUSTIVE}"
            )
        strings = _all_strings(exhaustive_len)
    top = max(maxlen, exhaustive_len)
    for label, f in axioms:
        longest = _longest_value(f, top, bundle)
        if longest > MAX_EXHAUSTIVE:
            raise CheckError(
                f"axiom {label} has a term that may be {longest} characters long on strings "
                f"up to {top} bits long, more than {MAX_EXHAUSTIVE}"
            )
    reader = _StringReader(random.Random(seed))
    checked = 0
    bad = []
    for label, f in axioms:
        fv = sx.free_vars(f)
        drawn = iter(reader.strings(maxlen, samples * len(fv)))
        drawn = [*zip(*[drawn] * len(fv))] if fv else [()] * samples  # a row per sample
        checked += samples
        if exhaustive_len:
            checked += len(strings) ** len(fv)
        rows = lambda: itertools.chain(
            drawn, itertools.product(strings, repeat=len(fv)) if exhaustive_len else ()
        )
        fn = _compiled(bundle, f, True).fn
        # walked again, in the same order, only to collect the counterexamples
        if not all(itertools.starmap(fn, rows())):
            bad += [(label, dict(zip(fv, row))) for row in rows() if not fn(*row)]
    return FuzzReport(checked, bad)


# ---------------------------------------------------------------------------
# the corpus


CORPUS_FILES = ("s20.prf", "s21.prf", "s22.prf")


def load_corpus(paths: Optional[Sequence[Path]] = None) -> list[kscripts.Script]:
    if paths is None:
        paths = [DATA_DIR / "corpus" / name for name in CORPUS_FILES]
    out = []
    for p in paths:
        out.extend(read_file(p, kscripts.parse_script_file))
    return out


class CorpusReport(NamedTuple):
    entries: list[kscripts.ScriptVerdict]
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "elapsed": self.elapsed,
            "scripts": [
                {
                    "label": e.label,
                    "ok": e.ok,
                    "message": e.message,
                    "elapsed": e.elapsed,
                    "instances": len(e.instances),
                    "oracle": e.oracle,
                    "spent": e.spent,
                }
                for e in self.entries
            ],
        }


def check_corpus(
    bundle: TheoryBundle,
    scripts: Optional[Sequence[kscripts.Script]] = None,
    budget: int = propcalc.DEFAULT_BUDGET,
    oracle_samples: int = 0,
    seed: int = 0,
    halt_on_failure: bool = True,
) -> CorpusReport:
    """Dependency-ordered verification of the corpus, optionally
    cross-validating every evaluable statement against the interpreter.  A
    script the interpreter disagrees with fails, and is not registered.
    Each entry is the script's own verdict, with the oracle's added."""
    scripts = load_corpus() if scripts is None else scripts
    strings = _StringReader(random.Random(seed)).strings if oracle_samples > 0 else None
    entries = []
    start = time.perf_counter()
    for script in scripts:
        v = kscripts.check_script(bundle.registry, script, budget)
        if v.ok and strings is not None:
            oracle, disagreement = _oracle_check(bundle, v.statement, oracle_samples, strings)
            v = v._replace(ok=not disagreement, message=disagreement, oracle=oracle)
        if v.ok:
            try:
                bundle.register_theorem(script.label, v.statement)
            except CheckError as e:
                v = v._replace(ok=False, message=str(e))
        entries.append(v)
        if not v.ok and halt_on_failure:
            break
    return CorpusReport(entries, time.perf_counter() - start)


def _oracle_check(bundle, stmt: Formula, samples: int, strings) -> tuple[str, str]:
    """The interpreter's verdict on `stmt` over `samples` assignments of
    strings up to 8 bits long from `strings` (a reader's), and a message
    naming the first assignment that falsifies it ("" when none does).  A
    statement the interpreter refuses, on the probe of `evaluable` or on a
    sample, is skipped."""
    if not evaluable(stmt, bundle):
        return "skipped", ""
    fn = _compiled(bundle, stmt, True).fn
    fv = sx.free_vars(stmt)
    try:
        for _ in range(samples):
            values = strings(8, len(fv))
            if not fn(*values):
                env = dict(zip(fv, values))
                return "disagrees", f"oracle disagrees on {sx.render(stmt)} at {env}"
    except CheckError:
        return "skipped", ""
    return "agrees", ""
