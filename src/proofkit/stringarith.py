"""String arithmetic: the theory, its definitions and induction schema, the
concrete bit-string interpreter that serves as an independent semantic
oracle, and the proof-script corpus driver.

Strings are Python str over '0'/'1', leftmost bit first.  The interpreter
evaluates defined predicates by unfolding their definientia with bounded
witness search: an existential witness that appears only under the zero
product is searched over all-zero strings (only its length matters), an
equationally determined witness is computed outright, and order-bounded
quantifiers enumerate strings up to the bound's length."""

from __future__ import annotations

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
# the interpreter


LENGTH_FUNS = {"zprod", "zee"}


def eval_term(t: Term, env: Optional[dict] = None, bundle: "TheoryBundle" = None) -> str:
    env = env or {}
    if isinstance(t, Var):
        if t.name not in env:
            raise CheckError(f"unbound variable {t.name}")
        return env[t.name]
    if isinstance(t, sx.SpecialConst):
        raise CheckError("special constants are uninterpretable")
    assert isinstance(t, App)
    name = t.fn.name
    if name == "eps":
        return ""
    if name == "s0":
        return "0" + eval_term(t.args[0], env, bundle)
    if name == "s1":
        return "1" + eval_term(t.args[0], env, bundle)
    if name == "pd":
        return eval_term(t.args[0], env, bundle)[1:]
    if name == "cat":
        return eval_term(t.args[0], env, bundle) + eval_term(t.args[1], env, bundle)
    if name == "zprod":
        x = eval_term(t.args[0], env, bundle)
        y = eval_term(t.args[1], env, bundle)
        return "0" * (len(x) * len(y))
    if bundle is not None:
        stage = bundle.fn_stages.get(t.fn)
        if stage is not None and stage.explicit_body is not None:
            params = sx.free_vars(stage.explicit_body)
            inner = {
                p: eval_term(a, env, bundle) for p, a in zip(params, t.args)
            }
            return eval_term(stage.explicit_body, inner, bundle)
    raise CheckError(f"uninterpretable symbol {name}")


def _search_space(e: Exists, env: dict, bundle, cap: int):
    """Choose the witness search strategy for an existential."""
    z = e.var
    parts = sx.conjuncts(e.body)
    # equationally determined witness
    for p in parts:
        if isinstance(p, Atom) and p.pred == sx.EQ:
            for a, b in (p.args, p.args[::-1]):
                if (
                    a == Var(z)
                    and z not in sx.occurring_var_names(b)
                    and set(sx.free_vars(b)) <= set(env)
                ):
                    return [eval_term(b, env, bundle)]
    # order-bounded (exists z <= b ...)
    head = parts[0]
    if (
        isinstance(head, Atom)
        and bundle is not None
        and bundle.order is not None
        and head.pred == bundle.order
        and head.args[0] == Var(z)
        and z not in sx.occurring_var_names(head.args[1])
        and set(sx.free_vars(head.args[1])) <= set(env)
    ):
        bound = len(eval_term(head.args[1], env, bundle))
        return _all_strings(bound)
    # length-only witness (only occurs under the zero product): zero-product
    # growth makes the needed length at worst quadratic in the environment
    if _length_only_var(e):
        quad = max(cap, (cap - 4) * (cap - 4) + 4)
        return ["0" * k for k in range(quad + 1)]
    return None


def _length_only_var(e: Exists) -> bool:
    z = e.var

    def term_ok(t: Term, shielded=False) -> bool:
        if isinstance(t, Var) and t.name == z:
            return shielded
        if isinstance(t, App):
            inner = shielded or t.fn.name in LENGTH_FUNS
            return all(term_ok(a, inner) for a in t.args)
        return True

    def walk(g: Formula) -> bool:
        if isinstance(g, Atom):
            return all(term_ok(t) for t in g.args)
        if isinstance(g, Not):
            return walk(g.body)
        if isinstance(g, Or):
            return walk(g.left) and walk(g.right)
        if isinstance(g, Exists):
            return True if g.var == z else walk(g.body)
        raise TypeError(g)

    return walk(e.body)


def _all_strings(maxlen: int):
    out = [""]
    frontier = [""]
    for _ in range(maxlen):
        frontier = [s + b for s in frontier for b in "01"]
        out.extend(frontier)
    return out


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
    env = env or {}

    def local_cap(env: dict) -> int:
        if cap is not None:
            return cap
        return sum(len(v) for v in env.values()) + 4

    def ev(g: Formula, env: dict) -> bool:
        if isinstance(g, Atom):
            if g.pred == sx.EQ:
                return eval_term(g.args[0], env, bundle) == eval_term(
                    g.args[1], env, bundle
                )
            stage = bundle.pred_stages.get(g.pred) if bundle else None
            if stage is None:
                raise CheckError(f"uninterpretable predicate {g.pred.name}")
            params = sx.free_vars(stage.definiens)
            inner = {p: eval_term(a, env, bundle) for p, a in zip(params, g.args)}
            return ev(stage.definiens, inner)
        if isinstance(g, Not):
            return not ev(g.body, env)
        if isinstance(g, Or):
            return ev(g.left, env) or ev(g.right, env)
        if isinstance(g, Exists):
            space = _search_space(g, env, bundle, local_cap(env))
            if space is None:
                if strict:
                    raise CheckError(
                        f"unbounded quantifier: {sx.render(g)[:80]}"
                    )
                space = _all_strings(min(local_cap(env), 10))
            for val in space:
                env2 = dict(env)
                env2[g.var] = val
                if ev(g.body, env2):
                    return True
            return False
        raise TypeError(g)

    return ev(f, env)


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
        from .kernel import scripts as _ks

        self.registry.add(_ks.Entry(label, "theorem", statement, section, checked=True))


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
# names, numerals, schema instances

name_term = sx.name_term
numeral = sx.numeral


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


def random_string(rng: random.Random, maxlen: int) -> str:
    n = rng.randint(0, maxlen)
    return "".join(rng.choice("01") for _ in range(n))


def fuzz_axioms(
    bundle: TheoryBundle,
    samples: int = 200,
    maxlen: int = 16,
    seed: int = 0,
    exhaustive_len: int = 0,
) -> FuzzReport:
    """Evaluate every axiom on random assignments (and exhaustively over all
    strings up to exhaustive_len); any counterexample is reported."""
    rng = random.Random(seed)
    checked = 0
    bad = []
    axioms = [(lbl, bundle.registry.entries[lbl].statement) for lbl in bundle.registry.order
              if bundle.registry.entries[lbl].kind == "axiom"]
    for label, f in axioms:
        fv = sx.free_vars(f)
        for _ in range(samples):
            env = {x: random_string(rng, maxlen) for x in fv}
            checked += 1
            if not eval_formula(f, env, bundle):
                bad.append((label, env))
        if exhaustive_len:
            space = _all_strings(exhaustive_len)
            envs = [{}]
            for x in fv:
                envs = [dict(e, **{x: s}) for e in envs for s in space]
            for env in envs:
                checked += 1
                if not eval_formula(f, env, bundle):
                    bad.append((label, env))
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
    oracle: Optional[str] = None  # "agrees" | "skipped"
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
    cross-validating every evaluable statement against the interpreter."""
    scripts = load_corpus() if scripts is None else scripts
    rng = random.Random(seed)
    entries = []
    start = time.perf_counter()
    for script in scripts:
        v = kscripts.check_script(bundle.registry, script, budget)
        oracle = None
        if v.ok:
            stmt = sx.parse(script.statement_text, "formula", bundle.registry.symbols)
            bundle.register_theorem(script.label, stmt)
            if oracle_samples:
                oracle = _oracle_check(bundle, stmt, oracle_samples, rng)
        entries.append(
            CorpusEntryReport(
                script.label, v.ok, v.message, v.elapsed, len(v.instances), oracle, v.spent
            )
        )
        if not v.ok and halt_on_failure:
            break
    return CorpusReport(entries, time.perf_counter() - start)


def _oracle_check(bundle, stmt: Formula, samples: int, rng) -> str:
    if not evaluable(stmt, bundle):
        return "skipped"
    fv = sx.free_vars(stmt)
    for _ in range(samples):
        env = {x: random_string(rng, 8) for x in fv}
        if not eval_formula(stmt, env, bundle):
            raise CheckError(f"oracle disagrees on {sx.render(stmt)} at {env}")
    return "agrees"


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
        stage = None
        for s in (bundle.schema.stages if bundle.schema else []):
            if s.label == label:
                stage = s
                break
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
