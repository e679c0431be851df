"""String arithmetic: the theory, its definitions and induction schema, the
concrete bit-string interpreter that serves as an independent semantic
oracle, and the proof-script corpus driver.

Strings are Python str over '0'/'1', leftmost bit first.  The interpreter
compiles a formula once into closures from an environment to its value,
analysing all syntax, witness strategies included, at compile time.  The
code for each formula and definiens is kept on the TheoryBundle (its
`compiled` memo), so a bundle's copy starts empty and the code goes with
the bundle.  A conjunction, in its `not (or (not a) (not b))` shape, and a
double negation compile to the code of their parts, with the same order of
evaluation and the same lazy errors.  An equationally determined witness
is computed outright, an order-bounded one ranges over the strings up to
the bound's length, and one that appears only under the zero product over
all-zero strings.

Random strings are drawn as one rng.choice("01") per bit would draw them,
but read from the generator's words in batches (see random_string), so a
seed samples the same strings as it always has."""

from __future__ import annotations

import itertools
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .errors import CheckError, ParseError
from . import extend
from . import syntax as sx
from .kernel import Registry, Theory, bsi_template, scripts as kscripts
from .syntax import (
    App,
    Atom,
    Exists,
    FnSym,
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

S_LANGUAGE = sx.Language((EPS, S0, S1, PD, CAT, ZPROD), (), EPS)


# ---------------------------------------------------------------------------
# the interpreter: each formula is compiled into closures once per bundle


LENGTH_FUNS = {"zprod", "zee"}

# the builtin function symbols, each a closure over its compiled arguments
BUILTINS = {
    "eps": lambda: lambda env: "",
    "s0": lambda x: lambda env: "0" + x(env),
    "s1": lambda x: lambda env: "1" + x(env),
    "pd": lambda x: lambda env: x(env)[1:],
    "cat": lambda x, y: lambda env: x(env) + y(env),
    "zprod": lambda x, y: lambda env: "0" * (len(x(env)) * len(y(env))),
}


def _raiser(message: str):
    def fail(env):
        raise CheckError(message)

    return fail


def _memo(bundle, key, build):
    """The code for `key` = (node, strict, cap), compiled once per bundle.
    It relies on no stage or order changing once looked up."""
    if bundle is None:
        return build()
    code = bundle.compiled.get(key)
    if code is None:
        code = bundle.compiled[key] = build()
    return code


def _call(code, body, args):
    """`code`, a defined symbol's compiled body, on its compiled arguments."""
    pairs = tuple(zip(sx.free_vars(body), args))
    if len(pairs) == 1:
        ((p, a),) = pairs
        return lambda env: code({p: a(env)})
    if len(pairs) == 2:
        (p, a), (q, b) = pairs
        return lambda env: code({p: a(env), q: b(env)})
    return lambda env: code({p: a(env) for p, a in pairs})


def compile_term(t: Term, bundle=None):
    """A closure from an environment to the value of `t`.  Errors are
    raised when the closure reaches them."""
    if isinstance(t, Var):
        name = t.name

        def var(env):
            try:
                return env[name]
            except KeyError:
                raise CheckError(f"unbound variable {name}") from None

        return var
    if isinstance(t, sx.SpecialConst):
        return _raiser("special constants are uninterpretable")
    assert isinstance(t, App)
    args = [compile_term(a, bundle) for a in t.args]
    if t.fn.name in BUILTINS:
        return BUILTINS[t.fn.name](*args)
    stage = bundle.fn_stages.get(t.fn) if bundle is not None else None
    if stage is None or stage.explicit_body is None:
        return _raiser(f"uninterpretable symbol {t.fn.name}")
    body = stage.explicit_body
    return _call(_memo(bundle, (body, None, None), lambda: compile_term(body, bundle)), body, args)


def compile_formula(f: Formula, bundle=None, strict: bool = True, cap: Optional[int] = None):
    """A closure from an environment to the truth of `f` (see eval_formula).
    Syntax is analysed here; the closure checks only which variables are
    bound."""
    if isinstance(f, Atom):
        args = [compile_term(a, bundle) for a in f.args]
        if f.pred == sx.EQ:
            x, y = args
            return lambda env: x(env) == y(env)
        stage = bundle.pred_stages.get(f.pred) if bundle is not None else None
        if stage is None:
            return _raiser(f"uninterpretable predicate {f.pred.name}")
        d = stage.definiens
        code = _memo(bundle, (d, strict, cap), lambda: compile_formula(d, bundle, strict, cap))
        return _call(code, d, args)
    if isinstance(f, Not):
        pair = sx.as_and(f)
        if pair is not None:
            left = compile_formula(pair[0], bundle, strict, cap)
            right = compile_formula(pair[1], bundle, strict, cap)
            return lambda env: left(env) and right(env)
        if isinstance(f.body, Not):
            return compile_formula(f.body.body, bundle, strict, cap)
        inner = compile_formula(f.body, bundle, strict, cap)
        return lambda env: not inner(env)
    if isinstance(f, Or):
        left = compile_formula(f.left, bundle, strict, cap)
        right = compile_formula(f.right, bundle, strict, cap)
        return lambda env: left(env) or right(env)
    if isinstance(f, Exists):
        return _compile_exists(f, bundle, strict, cap)
    raise TypeError(f)


def _compile_exists(e: Exists, bundle, strict: bool, cap: Optional[int]):
    """The witness z is, in order of preference: b, for the first conjunct
    z = b or b = z whose b is bound; every string up to the length of b,
    when the first conjunct is the order's z <= b and b is bound; an
    all-zero string, when z is length-only; else, unless strict, any
    string up to a capped length."""
    z, parts = e.var, sx.conjuncts(e.body)
    eqs = [p.args for p in parts if isinstance(p, Atom) and p.pred == sx.EQ]
    found = [(b, _one) for args in eqs for a, b in (args, args[::-1]) if a == Var(z)]
    head, order = parts[0], bundle.order if bundle is not None else None
    if isinstance(head, Atom) and head.pred == order and head.args[0] == Var(z):
        found.append((head.args[1], lambda w: _all_strings(len(w))))
    candidates = [
        (frozenset(sx.free_vars(b)), compile_term(b, bundle), space)
        for b, space in found
        if z not in sx.occurring_var_names(b)
    ]
    # a witness that occurs only under the zero product: only its length matters
    erased = sx.rewrite(
        e.body, app=lambda t: App(EPS) if t.fn.name in LENGTH_FUNS else t, const=lambda c: c
    )
    length_only = z not in sx.free_vars(erased)
    unbounded = f"unbounded quantifier: {sx.render(e)[:80]}"
    if strict and not (candidates or length_only):
        return _raiser(unbounded)
    body = compile_formula(e.body, bundle, strict, cap)

    def exists(env: dict) -> bool:
        for need, term, space_of in candidates:
            if need <= env.keys():
                w = term(env)
                if space_of is _one:
                    return body({**env, z: w})
                space = space_of(w)
                break
        else:
            local = cap if cap is not None else sum(map(len, env.values())) + 4
            if length_only:
                # zero-product growth: the length needed is at worst quadratic
                quad = max(local, (local - 4) * (local - 4) + 4)
                space = ("0" * k for k in range(quad + 1))
            elif strict:
                raise CheckError(unbounded)
            else:
                space = _all_strings(min(local, 10))
        env = dict(env)
        for val in space:
            env[z] = val
            if body(env):
                return True
        return False

    return exists


def _one(w: str):
    """The witness space of an equation z = b: b's value alone, at which
    `exists` evaluates its body directly."""
    return (w,)


def _all_strings(maxlen: int):
    out = [""]
    frontier = [""]
    for _ in range(maxlen):
        frontier = [s + b for s in frontier for b in "01"]
        out.extend(frontier)
    return out


def eval_term(t: Term, env: Optional[dict] = None, bundle: "TheoryBundle" = None) -> str:
    return compile_term(t, bundle)(env or {})


def eval_formula(
    f: Formula,
    env: Optional[dict] = None,
    bundle: "TheoryBundle" = None,
    cap: Optional[int] = None,
    strict: bool = True,
) -> bool:
    """Truth of a formula on concrete strings.  With strict=True only
    definitional and order-bounded quantifiers are admitted; otherwise
    capped enumeration is used as a last resort (for translated formulas)."""
    code = _memo(bundle, (f, strict, cap), lambda: compile_formula(f, bundle, strict, cap))
    return code(env or {})


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
    theory: Theory  # the axioms
    symbols: sx.SymbolTable
    registry: Registry
    definitions: extend.DefinitionRegistry  # main chain
    schema: Optional[extend.DefinitionRegistry] = None  # chain over phi
    order: Optional[PredSym] = None
    fn_stages: dict = field(default_factory=dict)
    pred_stages: dict = field(default_factory=dict)
    schema_symbols: tuple = ()
    compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def register_theorem(self, label: str, statement: Formula):
        """Record a checked theorem, tagging it with the schema section when
        it mentions the uninterpreted predicate's closure layers."""
        if label in self.registry.entries:
            self.registry.entries[label].checked = True
            return
        schema_preds = set(self.schema_symbols) | {PredSym("phi", 1)}
        section = (
            "schema"
            if sx.appearing_symbols(statement) & schema_preds
            else "base"
        )
        self.registry.add(kscripts.Entry(label, "theorem", statement, section, checked=True))


def load_theory(path: Optional[Path] = None) -> TheoryBundle:
    path = path or (DATA_DIR / "theory_s.th")
    text = Path(path).read_text()
    lang = S_LANGUAGE
    symbols = sx.SymbolTable(lang)
    axioms: list[Formula] = []
    axiom_labels: list[tuple[str, Formula]] = []
    registry: Optional[Registry] = None
    definitions: Optional[extend.DefinitionRegistry] = None
    schema: Optional[extend.DefinitionRegistry] = None
    bundle = TheoryBundle(
        Theory("S", (), EPS), symbols, Registry(symbols), None
    )
    in_schema = False
    pending_phi: list[tuple[str, str]] = []

    def current_defs():
        return schema if in_schema else definitions

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("theory "):
            continue
        m = re.match(r"axiom\s+([a-z0-9_']+)\s*:\s*(.+)$", line)
        if m:
            f = sx.parse(m.group(2), "formula", symbols)
            axioms.append(f)
            axiom_labels.append((m.group(1), f))
            continue
        if definitions is None and not line.startswith("axiom"):
            # first non-axiom line: freeze the base theory
            theory = Theory("S", tuple(axioms), EPS)
            bundle.theory = theory
            definitions = extend.DefinitionRegistry(theory, declared=lang.functions)
            registry = Registry(symbols)
            bundle.registry = registry
            bundle.definitions = definitions
            for lbl, f in axiom_labels:
                registry.add_axiom(lbl, f)
        m = re.match(r"define\s+pred\s+([a-z0-9_']+)\s+([a-z0-9_']+)\s*:\s*(.+)$", line)
        if m:
            label, name, body = m.groups()
            definiens = sx.parse(body, "formula", symbols)
            stage = current_defs().define_predicate(label, name, definiens)
            symbols.language = symbols.language.extend(predicates=[stage.symbol])
            bundle.pred_stages[stage.symbol] = stage
            registry.add_definition(label, stage.axiom, "schema" if in_schema else "base")
            if in_schema:
                bundle.schema_symbols += (stage.symbol,)
            continue
        m = re.match(r"define\s+fun\s+([a-z0-9_']+)\s+([a-z0-9_']+)\s*:=\s*(.+)$", line)
        if m:
            label, name, body = m.groups()
            term = sx.parse(body, "term", symbols)
            stage = current_defs().define_function_explicit(label, name, term)
            symbols.language = symbols.language.extend(functions=[stage.symbol])
            bundle.fn_stages[stage.symbol] = stage
            registry.add_definition(label, stage.axiom, "schema" if in_schema else "base")
            continue
        m = re.match(
            r"define\s+fun\s+([a-z0-9_']+)\s+([a-z0-9_']+)\s*:\s*(.+?)\s+using\s+"
            r"([a-z0-9_']+)\s+([a-z0-9_']+)$",
            line,
        )
        if m:
            label, name, body, ec_label, uc_label = m.groups()
            existential = sx.parse(body, "formula", symbols)
            stage = _define_fun_by_citation(
                current_defs(), registry, label, name, existential, ec_label, uc_label
            )
            symbols.language = symbols.language.extend(functions=[stage.symbol])
            bundle.fn_stages[stage.symbol] = stage
            registry.add_definition(label, stage.axiom, "schema" if in_schema else "base")
            continue
        m = re.match(r"order\s+([a-z0-9_']+)$", line)
        if m:
            p = symbols.pred(m.group(1))
            if p is None:
                raise ParseError(f"unknown order symbol {m.group(1)}", lineno, 1)
            symbols.order = p
            bundle.order = p
            continue
        m = re.match(r"phi\s+([a-z0-9_']+)\s*:\s*([a-z0-9_']+)$", line)
        if m:
            pending_phi.append((m.group(1), m.group(2)))
            continue
        if line == "bsi":
            registry.enable_bsi(bsi_template())
            continue
        if line == "schema phi":
            in_schema = True
            phi = PredSym("phi", 1)
            symbols.language = symbols.language.extend(predicates=[phi])
            schema = extend.DefinitionRegistry(
                definitions.theory(), declared=tuple(lang.functions) + (phi,)
            )
            # carry over the main-chain definitions for language checks
            schema.stages = list(definitions.stages)
            schema._by_definiens = dict(definitions._by_definiens)
            bundle.schema = schema
            continue
        raise ParseError(f"unrecognized theory line: {line!r}", lineno, 1)
    for phi_label, pred_name in pending_phi:
        p = symbols.pred(pred_name)
        if p is None:
            raise ParseError(f"unknown predicate {pred_name} for phi {phi_label}")
        registry.register_phi(phi_label, Atom(p, (Var("x"),)))
    return bundle


def _define_fun_by_citation(
    defs, registry, label, name, existential, ec_label, uc_label
):
    """The `define fun ... : (exists y D) using <ec> <uc>` form: the
    existence and uniqueness conditions are discharged by citing checked
    registry entries whose statements match them."""
    if not isinstance(existential, Exists):
        raise CheckError("function definition wants an existential formula")
    y = existential.var
    d = existential.body
    yp = sx.fresh_name(y + "'", sx.occurring_var_names(d))
    uc = sx.fimp(
        sx.fand(d, sx.subst(d, {y: sx.Var(yp)})), sx.eq(sx.Var(y), sx.Var(yp))
    )
    for lbl, want, what in ((ec_label, existential, "existence"), (uc_label, uc, "uniqueness")):
        entry = registry.lookup(lbl)
        if not entry.checked:
            raise CheckError(f"{what} citation {lbl!r} is unchecked")
        if entry.statement != want:
            raise CheckError(
                f"{what} citation {lbl!r} states {sx.render(entry.statement)}, "
                f"need {sx.render(want)}"
            )
    args = sx.free_vars(existential)
    f = FnSym(name, len(args))
    axiom = sx.fiff(
        sx.eq(sx.App(f, tuple(sx.Var(x) for x in args)), sx.Var(y)), d
    )
    stage = extend.Stage("f", label, axiom, symbol=f, definiens=d, out_var=y)
    defs.stages.append(stage)
    defs._by_definiens[("f", existential)] = stage
    return stage


# ---------------------------------------------------------------------------
# schema instances


def bsi_instance(bundle: TheoryBundle, phi_label: str, t: Term) -> Formula:
    """The closed induction instance for a registered unary formula at a
    term."""
    stmt = bundle.registry.bsi_statement(phi_label)
    return sx.subst(stmt, {"x": t})


# ---------------------------------------------------------------------------
# axiom fuzzing


@dataclass
class FuzzReport:
    checked: int
    counterexamples: list

    @property
    def ok(self) -> bool:
        return not self.counterexamples


# rng.choice("01") reads one 32-bit word per try and keeps its top two bits
# when they are below 2: a high byte 0x00-0x3F gives '0', 0x40-0x7F '1', and
# 0x80-0xFF is drawn again.  This table maps each high byte to its bit.
_BIT_OF_HIGH_BYTE = bytes.maketrans(bytes(range(128)), b"0" * 64 + b"1" * 64)
_REJECTED_HIGH_BYTES = bytes(range(128, 256))


def random_string(rng: random.Random, maxlen: int) -> str:
    """The string that `n` calls of rng.choice("01") would give, with `rng`
    left in the same state: the same words are read in batches, never more
    words than bits still wanted."""
    n = rng.randint(0, maxlen)
    out = b""
    while len(out) < n:
        need = n - len(out)
        high = rng.getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
        out += high.translate(_BIT_OF_HIGH_BYTE, _REJECTED_HIGH_BYTES)
    return out.decode()


def fuzz_axioms(
    bundle: TheoryBundle,
    samples: int = 200,
    maxlen: int = 16,
    seed: int = 0,
    exhaustive_len: int = 0,
) -> FuzzReport:
    """Evaluate every axiom on random assignments (and exhaustively over all
    strings up to exhaustive_len); any counterexample is reported.  The
    exhaustive assignments are made as they are checked, not held in a list."""
    rng = random.Random(seed)
    checked = 0
    bad = []
    axioms = [(lbl, bundle.registry.entries[lbl].statement) for lbl in bundle.registry.order
              if bundle.registry.entries[lbl].kind == "axiom"]
    for label, f in axioms:
        fv = sx.free_vars(f)
        envs = [{x: random_string(rng, maxlen) for x in fv} for _ in range(samples)]
        checked += len(envs)
        if exhaustive_len:
            strings = _all_strings(exhaustive_len)
            checked += len(strings) ** len(fv)
            every = itertools.product(strings, repeat=len(fv))
            envs = itertools.chain(envs, (dict(zip(fv, values)) for values in every))
        code = _memo(bundle, (f, True, None), lambda: compile_formula(f, bundle))
        bad += [(label, env) for env in envs if not code(env)]
    return FuzzReport(checked, bad)


# ---------------------------------------------------------------------------
# the corpus


CORPUS_FILES = ("s20.prf", "s21.prf", "s22.prf")


def load_corpus(paths: Optional[Sequence[Path]] = None) -> list[kscripts.Script]:
    if paths is None:
        paths = [DATA_DIR / "corpus" / name for name in CORPUS_FILES]
    out = []
    for p in paths:
        out.extend(kscripts.parse_script_file(Path(p).read_text()))
    return out


@dataclass
class CorpusEntryReport:
    label: str
    ok: bool
    message: str
    elapsed: float
    instance_count: int
    oracle: Optional[str] = None  # "agrees" | "disagrees" | "skipped"
    spent: int = 0  # refutation budget used, summed over segments


@dataclass
class CorpusReport:
    entries: list[CorpusEntryReport]
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
                    "instances": e.instance_count,
                    "oracle": e.oracle,
                    "spent": e.spent,
                }
                for e in self.entries
            ],
        }


def check_corpus(
    bundle: TheoryBundle,
    scripts: Optional[Sequence[kscripts.Script]] = None,
    budget: int = kscripts.DEFAULT_SCRIPT_BUDGET,
    oracle_samples: int = 0,
    seed: int = 0,
    halt_on_failure: bool = True,
) -> CorpusReport:
    """Dependency-ordered verification of the corpus, optionally
    cross-validating every evaluable statement against the interpreter.  A
    script the interpreter disagrees with fails, and is not registered."""
    scripts = load_corpus() if scripts is None else scripts
    rng = random.Random(seed)
    entries = []
    start = time.perf_counter()
    for script in scripts:
        v = kscripts.check_script(bundle.registry, script, budget)
        ok, message, oracle = v.ok, v.message, None
        if v.ok:
            stmt = sx.parse(script.statement_text, "formula", bundle.registry.symbols)
            if oracle_samples:
                oracle, disagreement = _oracle_check(bundle, stmt, oracle_samples, rng)
                if disagreement:
                    ok, message = False, disagreement
            if ok:
                bundle.register_theorem(script.label, stmt)
        entries.append(
            CorpusEntryReport(
                script.label, ok, message, v.elapsed, len(v.instances), oracle, v.spent
            )
        )
        if not ok and halt_on_failure:
            break
    return CorpusReport(entries, time.perf_counter() - start)


def _oracle_check(bundle, stmt: Formula, samples: int, rng) -> tuple[str, str]:
    """The interpreter's verdict on `stmt` over `samples` random assignments,
    and a message naming the first assignment that falsifies it ("" when
    none does)."""
    if not evaluable(stmt, bundle):
        return "skipped", ""
    code = _memo(bundle, (stmt, True, None), lambda: compile_formula(stmt, bundle))
    fv = sx.free_vars(stmt)
    for _ in range(samples):
        env = {x: random_string(rng, 8) for x in fv}
        if not code(env):
            return "disagrees", f"oracle disagrees on {sx.render(stmt)} at {env}"
    return "agrees", ""


# ---------------------------------------------------------------------------
# the schema re-instantiation device


class _RemapSymbols(sx.SymbolTable):
    """Resolves the uninterpreted schema names to their instantiated
    predicate symbols, leaving everything else alone."""

    def __init__(self, inner: sx.SymbolTable, override: dict):
        super().__init__(inner.language, inner.order)
        self._override = override

    def pred(self, name):
        got = self._override.get(name)
        if got is not None:
            return got
        return super().pred(name)


def instantiate_schema(bundle: TheoryBundle, phi_label: str) -> Registry:
    """A parallel registry in which the schema definitions are re-registered
    with the uninterpreted predicate replaced by a registered concrete
    unary formula; the schema scripts must re-check against it unchanged."""
    phi = bundle.registry.phi_formulas[phi_label]
    out = Registry(bundle.symbols)
    out.phi_formulas = dict(bundle.registry.phi_formulas)
    if bundle.registry.bsi_template is not None:
        out.bsi_template = bundle.registry.bsi_template
    reg2 = extend.DefinitionRegistry(
        bundle.definitions.theory(),
        declared=tuple(S_LANGUAGE.functions) + bundle.schema_symbols,
    )
    reg2.stages = list(bundle.definitions.stages)
    reg2._by_definiens = dict(bundle.definitions._by_definiens)
    lang = bundle.symbols.language
    mapping = {}
    for label in bundle.registry.order:
        entry = bundle.registry.entries[label]
        if entry.section != "schema":
            out.add(kscripts.Entry(entry.label, entry.kind, entry.statement, entry.section, entry.checked))
            continue
        if entry.kind == "theorem":
            continue  # re-proved against the instantiated statements
        stages = bundle.schema.stages if bundle.schema else []
        stage = next((s for s in stages if s.label == label), None)
        if stage is None or stage.kind != "p":
            raise CheckError(f"cannot re-instantiate schema entry {label}")
        definiens = kscripts._instantiate_phi(stage.definiens, phi)

        def swap(atom):
            repl = mapping.get(atom.pred)
            if repl is not None:
                return Atom(repl, atom.args)
            return atom

        definiens = sx.map_atoms(definiens, swap)
        name = f"{stage.symbol.name}_{phi_label}"
        st2 = reg2.define_predicate(f"{label}_{phi_label}", name, definiens)
        if lang.pred(name) is None:
            bundle.symbols.language = bundle.symbols.language.extend(predicates=[st2.symbol])
            lang = bundle.symbols.language
        bundle.pred_stages[st2.symbol] = st2
        mapping[stage.symbol] = st2.symbol
        out.add(kscripts.Entry(label, "definition", st2.axiom, "schema"))
    override = {old.name: new for old, new in mapping.items()}
    if isinstance(phi, Atom) and len(phi.args) == 1 and phi.args[0] == Var("x"):
        override["phi"] = phi.pred
    out.symbols = _RemapSymbols(bundle.symbols, override)
    return out
