"""Batch front end.

Exit status: 0 when every verdict passes, 1 on verification failure, 2 on
usage errors.  --format, --budget, --seed and --theory are global flags and
go before the subcommand: `proofkit --seed 3 fuzz-axioms`, not
`proofkit fuzz-axioms --seed 3`.  Every randomized subcommand draws from
--seed (default 0), and reports carry the same verdict set in text and JSON
form."""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .errors import BudgetExhausted, CheckError, ProofkitError
from . import checker, extend, hilbertack, machines, normform, propcalc, stringarith
from . import syntax as sx
from .kernel import scripts as kscripts


def _bundle(args):
    path = getattr(args, "theory", None)
    return stringarith.load_theory(Path(path) if path else None)


def _emit(args, payload: dict, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


def _budget(args, default: int = kscripts.DEFAULT_SCRIPT_BUDGET) -> int:
    """The global --budget, or the command's own default when it is not given."""
    return default if args.budget is None else args.budget


def _loose_symbols(bundle):
    st = sx.SymbolTable(bundle.symbols.language, bundle.symbols.order, auto_predicates=True)
    return st


def cmd_parse(args) -> int:
    bundle = _bundle(args)
    node = sx.parse(args.text, args.kind, _loose_symbols(bundle))
    rendered = sx.render(node, args.style)
    _emit(args, {"ok": True, "rendered": rendered}, [rendered])
    return 0


def cmd_nf(args) -> int:
    bundle = _bundle(args)
    f = sx.parse(args.text, "formula", _loose_symbols(bundle))
    if args.mode == "negation":
        out = normform.to_negation_form(f)
    elif args.mode == "prenex":
        out = normform.to_prenex(f)
    elif args.mode == "conjunctive":
        out = normform.to_conjunctive(f)
    else:
        out = normform.to_normal_form(f)
    rendered = sx.render(out)
    _emit(args, {"ok": True, "mode": args.mode, "rendered": rendered}, [rendered])
    return 0


def cmd_check_corpus(args) -> int:
    bundle = _bundle(args)
    paths = [Path(p) for p in args.paths] if args.paths else None
    if paths and len(paths) == 1 and paths[0].is_dir():
        paths = sorted(paths[0].glob("*.prf"))
    scripts = stringarith.load_corpus(paths)
    if not scripts:
        raise ProofkitError(f"no scripts in {' '.join(args.paths)}")
    report = stringarith.check_corpus(
        bundle, scripts, budget=_budget(args), oracle_samples=args.oracle, seed=args.seed
    )
    oracle = args.oracle > 0
    header = f"{'label':<8} {'verdict':<8} {'lines':>6} {'time':>8}"
    lines = [header + ("  oracle" if oracle else "")]
    for e in report.entries:
        lines.append(
            f"{e.label:<8} {'pass' if e.ok else 'FAIL':<8} {len(e.instances):>6} {e.elapsed:>7.3f}s"
            + (f"  {e.oracle or '-'}" if oracle else "")
            + (f"  {e.message}" if not e.ok else "")
        )
    lines.append(
        f"{len(report.entries)} scripts, {'all pass' if report.ok else 'FAILURES'}, {report.elapsed:.2f}s"
    )
    _emit(args, report.to_json(), lines)
    return 0 if report.ok else 1


def cmd_check_proof(args) -> int:
    bundle = _bundle(args)
    scripts = kscripts.parse_script_file(Path(args.file).read_text())
    if not scripts:
        raise ProofkitError(f"no scripts in {args.file}")
    if args.with_corpus:
        stringarith.check_corpus(bundle, budget=_budget(args))
    report = stringarith.check_corpus(bundle, scripts, budget=_budget(args), halt_on_failure=False)
    _emit(
        args,
        report.to_json(),
        [f"{e.label:<8} {'pass' if e.ok else 'FAIL'}  {e.message}" for e in report.entries],
    )
    return 0 if report.ok else 1


def cmd_ha_reduce(args) -> int:
    if args.demo == "rank1":
        theory, seq = hilbertack.demo_rank1()
    else:
        rng = random.Random(args.seed)
        theory, seq = hilbertack.generate_inconsistent_case(rng, 2)
    try:
        result = hilbertack.ha_run(theory, seq, budget=_budget(args))
    except BudgetExhausted as e:
        _emit(args, {"ok": False, "message": str(e)}, [f"FAIL: {e}"])
        return 1
    final = list(result.final.formulas)
    refuted = propcalc.ground_refute(final, want_cert=True)
    refutable = isinstance(refuted, propcalc.Refutation)
    failure = None
    if refutable:
        try:
            checker.replay(refuted, final)
        except CheckError as e:
            refutable = False
            failure = f"the refutation's certificate does not replay: {e}"
    lines = [f"{'step':>4} {'mode':<10} {'rho':>3} {'lam':>4} {'kap':>4} {'|seq|':>6} {'out':>5}"]
    p0 = result.profile_in
    lines.append(f"{0:>4} {'input':<10} {p0.rho:>3} {p0.lam:>4} {p0.kappa:>4} {len(seq.formulas):>6} {'':>5}")
    for i, t in enumerate(result.trace, 1):
        lines.append(
            f"{i:>4} {t.mode:<10} {t.profile_out.rho:>3} {t.profile_out.lam:>4} "
            f"{t.profile_out.kappa:>4} {t.size_in:>6} {t.size_out:>5}"
        )
    lines.append(
        f"final: {len(result.final.formulas)} formulas; ground-refutable={refutable}; "
        f"bound {result.bound} = "
        f"{result.bound_value if result.bound_value is not None else 'symbolic'}; "
        f"observed max {result.observed_max}"
        + ("" if result.within_bound is None else f"; within bound: {result.within_bound}")
    )
    if failure is not None:
        lines.append(f"FAIL: {failure}")
    payload = {
        "ok": failure is None,
        "steps": len(result.trace),
        "final_size": len(result.final.formulas),
        "refutable": refutable,
        "bound": str(result.bound),
        "bound_value": result.bound_value,
        "observed_max": result.observed_max,
        "within_bound": result.within_bound,
        "trace": [
            {
                "mode": t.mode,
                "size_in": t.size_in,
                "size_out": t.size_out,
                "rho": t.profile_out.rho,
                "lam": t.profile_out.lam,
                "kappa": t.profile_out.kappa,
            }
            for t in result.trace
        ],
    }
    if failure is not None:
        payload["message"] = failure
    _emit(args, payload, lines)
    return 0 if failure is None else 1


def cmd_translate(args) -> int:
    bundle = _bundle(args)
    f = sx.parse(args.text, "formula", bundle.symbols)
    res = extend.translate_out(bundle.definitions, f)
    rendered = sx.render(res.formula)
    lines = [rendered]
    if args.verbose:
        # Prefix form shows each special constant's subscript; infix shows
        # only a name.
        for label, ob in res.obligations:
            before, after = sx.as_iff(ob)
            lines.append(f"obligation [{label}]: {sx.render(before)} <-> {sx.render(after)}")
    _emit(
        args,
        {"ok": True, "rendered": rendered, "obligations": [l for l, _ in res.obligations]},
        lines,
    )
    return 0


def cmd_reduce(args) -> int:
    bundle = _bundle(args)
    f = sx.parse(args.text, "formula", bundle.symbols)
    out = extend.reduce_image(bundle.definitions, f)
    rendered = sx.render(out)
    _emit(args, {"ok": True, "rendered": rendered}, [rendered])
    return 0


def cmd_rm_run(args) -> int:
    machine = machines.parse_machine(Path(args.file).read_text())
    outcome = machines.run(machine, args.inputs, _budget(args), mode=args.mode)
    payload = {
        "ok": outcome.halted,
        "halted": outcome.halted,
        "output": outcome.output,
        "steps": outcome.steps,
    }
    lines = [
        f"halted={outcome.halted} steps={outcome.steps} output={outcome.output!r}"
        if outcome.halted
        else f"budget exhausted after {outcome.steps} steps"
    ]
    _emit(args, payload, lines)
    return 0 if outcome.halted else 1


def cmd_rm_kbound(args) -> int:
    budget = _budget(args, machines.KBOUND_BUDGET)
    search = machines.k_search(args.target, args.len_cap, budget)
    got = search.bound
    if got is None:
        _emit(
            args,
            {"ok": False, "found": False, "budget_cut": search.budget_cut},
            [
                "no machine found under the caps",
                f"runs cut off by the {budget}-step budget: {search.budget_cut}",
            ],
        )
        return 1
    payload = {
        "ok": True,
        "found": True,
        "length": got.length,
        "encoding": got.encoding,
        "encoding_version": machines.ENCODING_VERSION,
    }
    _emit(
        args,
        payload,
        [f"upper bound: {got.length} bits (encoding v{machines.ENCODING_VERSION}): {got.encoding}"],
    )
    return 0


def cmd_fuzz_axioms(args) -> int:
    bundle = _bundle(args)
    report = stringarith.fuzz_axioms(
        bundle,
        samples=args.samples,
        maxlen=args.maxlen,
        seed=args.seed,
        exhaustive_len=args.exhaustive,
    )
    payload = {
        "ok": report.ok,
        "checked": report.checked,
        "counterexamples": [
            {"axiom": lbl, "assignment": env} for lbl, env in report.counterexamples
        ],
    }
    lines = [f"{report.checked} instances checked; counterexamples: {len(report.counterexamples)}"]
    for lbl, env in report.counterexamples:
        lines.append(f"  {lbl}: {env}")
    _emit(args, payload, lines)
    return 0 if report.ok else 1


def _positive_int(text: str) -> int:
    """argparse type for budgets and caps, which must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for sample counts and string lengths, which must be at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="proofkit")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument(
        "--budget",
        type=_positive_int,
        help=f"steps per run for rm-kbound (default {machines.KBOUND_BUDGET}), "
        f"else the refutation or run budget (default {kscripts.DEFAULT_SCRIPT_BUDGET})",
    )
    ap.add_argument(
        "--seed", type=int, default=0, help="seed of every randomized subcommand"
    )
    ap.add_argument("--theory", help="theory file (defaults to the bundled one)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and re-render a term or formula")
    p.add_argument("--kind", choices=("term", "formula"), default="formula")
    p.add_argument("--style", choices=("prefix-canonical", "infix-pretty"), default="prefix-canonical")
    p.add_argument("text")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("nf", help="normal forms")
    p.add_argument("--mode", choices=("negation", "prenex", "conjunctive", "normal"), default="prenex")
    p.add_argument("text")
    p.set_defaults(fn=cmd_nf)

    p = sub.add_parser("check-proof", help="check the scripts in one file")
    p.add_argument("file")
    p.add_argument("--with-corpus", action="store_true")
    p.set_defaults(fn=cmd_check_proof)

    p = sub.add_parser("check-corpus", help="verify the proof corpus")
    p.add_argument("paths", nargs="*")
    p.add_argument(
        "--oracle", type=_non_negative_int, default=0, help="oracle samples per theorem"
    )
    p.set_defaults(fn=cmd_check_corpus)

    p = sub.add_parser("ha-reduce", help="run the quantifier eliminator")
    p.add_argument("--demo", choices=("rank1", "rank2"), default="rank1")
    p.set_defaults(fn=cmd_ha_reduce)

    p = sub.add_parser("translate", help="translate a formula into the base language")
    p.add_argument("text")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("reduce", help="reduce a formula through the extension chain")
    p.add_argument("text")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("rm-run", help="run a register machine")
    p.add_argument("file")
    p.add_argument("inputs", nargs="*")
    p.add_argument("--mode", choices=("direct", "compiled"), default="direct")
    p.set_defaults(fn=cmd_rm_run)

    p = sub.add_parser("rm-kbound", help="bounded complexity upper bound")
    p.add_argument("target")
    p.add_argument("--len-cap", type=_positive_int, default=16)
    p.set_defaults(fn=cmd_rm_kbound)

    p = sub.add_parser("fuzz-axioms", help="evaluate the axioms on random strings")
    p.add_argument("--samples", type=_non_negative_int, default=200)
    p.add_argument("--maxlen", type=_non_negative_int, default=16)
    p.add_argument("--exhaustive", type=_non_negative_int, default=0)
    p.set_defaults(fn=cmd_fuzz_axioms)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ProofkitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
