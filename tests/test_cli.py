import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import demo_valid_28_atoms
from proofkit import checker, cli, hilbertack, machines, stringarith
from proofkit.errors import CheckError, ParseError
from proofkit.kernel import scripts as kscripts
from proofkit.stringarith import DATA_DIR


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_and_nf(capsys):
    code, out, _ = run(capsys, "parse", "(imp a b)")
    assert code == 0 and out.strip() == "(or (not a) b)"
    code, out, _ = run(capsys, "nf", "--mode", "prenex", "(or p (exists x (q x)))")
    assert code == 0 and out.strip() == "(exists x (or p (q x)))"


_NF_INPUT = "(imp (forall x (p x)) (and q (exists y (r y))))"


@pytest.mark.parametrize(
    "mode, rendered",
    [
        ("negation", "(or (exists x (not (p x))) (not (or (not q) (not (exists y (r y))))))"),
        (
            "conjunctive",
            "(not (or (not (or (exists x (not (p x))) q)) "
            "(not (or (exists x (not (p x))) (exists y (r y))))))",
        ),
        (
            "normal",
            "(exists x (exists y (not (or (not (or (not (p x)) q)) (not (or (not (p x)) (r y)))))))",
        ),
    ],
)
def test_nf_modes_are_pinned(capsys, mode, rendered):
    code, out, _ = run(capsys, "nf", "--mode", mode, _NF_INPUT)
    assert (code, out) == (0, rendered + "\n")
    code, jout, _ = run(capsys, "--format", "json", "nf", "--mode", mode, _NF_INPUT)
    assert code == 0 and json.loads(jout) == {"ok": True, "mode": mode, "rendered": rendered}


def test_usage_error_exit_code(capsys):
    assert cli.main(["nosuch-command"]) == 2
    code, _, err = run(capsys, "rm-run", "/nonexistent/machine.rm")
    assert code == 2
    for argv in (
        ("--budget", "0", "check-corpus"),
        ("--budget", "-5", "check-corpus"),
        ("rm-kbound", "", "--len-cap", "-1"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "must be at least 1" in err
    for argv in (
        ("fuzz-axioms", "--maxlen", "-3", "--samples", "3"),
        ("fuzz-axioms", "--samples", "-1"),
        ("fuzz-axioms", "--exhaustive", "-2"),
        ("check-corpus", "--oracle", "-3"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "must be at least 0" in err


def test_check_corpus_subset_text_and_json(capsys, tmp_path):
    subset = tmp_path / "subset.prf"
    text = (DATA_DIR / "corpus" / "s20.prf").read_text()
    cut = text.index("theorem t26")
    subset.write_text(text[:cut])
    code, out, _ = run(capsys, "check-corpus", str(subset))
    assert code == 0
    assert "t24" in out and "all pass" in out
    code, jout, _ = run(capsys, "--format", "json", "check-corpus", str(subset))
    assert code == 0
    payload = json.loads(jout)
    assert payload["ok"] and [s["label"] for s in payload["scripts"]] == ["t22", "t23", "t24"]
    code, out, _ = run(capsys, "check-corpus", "--oracle", "3", str(subset))
    assert code == 0
    assert out.splitlines()[0].split()[-1] == "oracle" and "agrees" in out


def test_oracle_disagreement_is_a_failing_verdict(capsys, tmp_path, monkeypatch):
    # The checker never runs s0; the interpreter's broken s0 falsifies t22.
    monkeypatch.setitem(stringarith.BUILTINS, "s0", "''")
    bundles = []
    monkeypatch.setattr(
        cli, "_bundle", lambda args: bundles.append(stringarith.load_theory()) or bundles[-1]
    )
    text = (DATA_DIR / "corpus" / "s20.prf").read_text()
    subset = tmp_path / "subset.prf"
    subset.write_text(text[: text.index("theorem t26")])
    code, jout, _ = run(capsys, "--format", "json", "check-corpus", str(subset))
    assert code == 0 and json.loads(jout)["ok"]
    code, jout, err = run(
        capsys, "--format", "json", "check-corpus", "--oracle", "20", str(subset)
    )
    assert code == 1 and err == ""
    [entry] = json.loads(jout)["scripts"]
    assert (entry["label"], entry["ok"], entry["oracle"]) == ("t22", False, "disagrees")
    assert entry["message"] == (
        "oracle disagrees on (not (= (cat (s0 x) y) eps)) at {'x': '0', 'y': ''}"
    )
    assert "t22" not in bundles[-1].registry.entries
    code, out, _ = run(capsys, "check-corpus", "--oracle", "20", str(subset))
    assert code == 1 and "FAIL" in out and "disagrees" in out


def test_oracle_skips_a_statement_refused_on_a_later_sample(capsys, tmp_path):
    # the probe's x = y = "01" stops at the first disjunct; a sample with x
    # and y apart reaches the unbounded quantifier, and the passing script's
    # verdict stands
    script = tmp_path / "u1.prf"
    script.write_text(
        "theorem u1 : (or (= x y) (or (exists z (= (cat z x) y)) (not (= x y))))\n"
        "proof\n  H : x : y\nqed\n"
    )
    code, jout, err = run(capsys, "--format", "json", "check-corpus", "--oracle", "5", str(script))
    assert (code, err) == (0, "")
    [entry] = json.loads(jout)["scripts"]
    assert (entry["label"], entry["ok"], entry["oracle"]) == ("u1", True, "skipped")


def test_failing_script_exit_one(capsys, tmp_path, monkeypatch):
    bundle = stringarith.load_theory()
    monkeypatch.setattr(cli, "_bundle", lambda args: bundle)
    text = (DATA_DIR / "corpus" / "s20.prf").read_text()
    bad = tmp_path / "bad.prf"
    bad.write_text(
        "theorem nope : (= eps (s0 eps))\nproof\n  H\n  use a20\nqed\n\n"
        + text[text.index("theorem t22") : text.index("theorem t23")]
    )
    code, out, _ = run(capsys, "check-proof", str(bad))
    assert code == 1 and "FAIL" in out
    assert "true in the surviving valuation: [pd(eps) = eps]" in out
    code, jout, _ = run(capsys, "--format", "json", "check-proof", str(bad))
    assert code == 1
    verdicts = [(s["label"], s["ok"]) for s in json.loads(jout)["scripts"]]
    assert verdicts == [("nope", False), ("t22", True)]
    assert bundle.registry.entries["t22"].kind == "theorem"


def test_a_label_names_one_statement(capsys, tmp_path, monkeypatch):
    # a theorem may not take an axiom's label, and the scripts after it
    # cite the axiom; the same file checked again gives the same verdicts
    bundle = stringarith.load_theory()
    monkeypatch.setattr(cli, "_bundle", lambda args: bundle)
    axiom = bundle.registry.entries["a20"]
    path = tmp_path / "a20.prf"
    path.write_text(
        "theorem a20 : (not (= (cat (s0 x) y) eps))\nproof\n  H : x : y\n"
        "  use a8 ; x ; y\n  use a1 ; (cat x y)\nqed\n\n"
        "theorem cites : (= (pd eps) eps)\nproof\n  H\n  use a20\nqed\n"
    )
    message = "label 'a20' is already taken by axiom a20"
    for _ in range(2):
        code, out, _ = run(capsys, "check-proof", str(path))
        assert (code, out) == (1, f"a20      FAIL  {message}\ncites    pass  \n")
    code, jout, _ = run(capsys, "--format", "json", "check-proof", str(path))
    verdicts = [(e["label"], e["ok"], e["message"]) for e in json.loads(jout)["scripts"]]
    assert code == 1 and verdicts == [("a20", False, message), ("cites", True, "")]
    assert bundle.registry.entries["a20"] is axiom
    # a theorem's label cannot be given to another statement either
    (other,) = kscripts.parse_script_file(
        "theorem cites : (not (= (s0 eps) eps))\nproof\n  H\n  use a1 ; eps\nqed\n"
    )
    (v,) = stringarith.check_corpus(bundle, [other]).entries
    assert not v.ok and v.message == "label 'cites' is already taken by theorem cites"


_CITES_T22 = "theorem mine : (not (= (cat (s0 eps) eps) eps))\nproof\n  H\n  use t22 ; eps ; eps\nqed\n"


def test_check_proof_with_corpus(capsys, tmp_path):
    path = tmp_path / "mine.prf"
    path.write_text(_CITES_T22)
    code, out, _ = run(capsys, "check-proof", str(path))
    assert (code, out) == (1, "mine     FAIL  unresolved label 't22'\n")
    code, out, _ = run(capsys, "check-proof", str(path), "--with-corpus")
    assert (code, out) == (0, "mine     pass  \n")
    code, jout, _ = run(capsys, "--format", "json", "check-proof", str(path), "--with-corpus")
    payload = json.loads(jout)
    assert code == 0 and payload["ok"] and [e["label"] for e in payload["scripts"]] == ["mine"]


def test_check_proof_with_a_failing_corpus_checks_no_file(capsys, tmp_path, monkeypatch):
    # under a budget of 5 the corpus fails at t24, and the file, which the
    # registry the corpus left would fail too, is not checked
    path = tmp_path / "mine.prf"
    path.write_text(_CITES_T22)
    checked = []
    check_script = kscripts.check_script
    monkeypatch.setattr(
        kscripts, "check_script", lambda reg, s, *a: checked.append(s.label) or check_script(reg, s, *a)
    )
    code, out, _ = run(capsys, "--budget", "5", "check-proof", str(path), "--with-corpus")
    assert code == 1
    assert out == "FAIL: the bundled corpus fails at t24: refutation budget exhausted (6)\n"
    assert "mine" not in checked and checked[-1] == "t24"
    code, jout, _ = run(
        capsys, "--format", "json", "--budget", "5", "check-proof", str(path), "--with-corpus"
    )
    assert code == 1 and json.loads(jout) == {
        "ok": False,
        "corpus_label": "t24",
        "message": "refutation budget exhausted (6)",
    }


_WITNESS_THEORY = """theory T
axiom a1 : (not (= (s0 x) eps))
axiom tex : (exists y (not (= y eps)))
"""


def _witness_script(name):
    return f"theorem g{name} : (= (s0 eps) eps)\nproof\n  H\n  use tex : {name}\nqed\n"


def _failure(name):
    return (
        f"g{name}       FAIL  refutation failed for goal: [{name} != eps; s0(eps) != eps]; "
        "true in the surviving valuation: []"
    )


def test_a_failure_message_names_the_scripts_own_witness(capsys, tmp_path):
    # two scripts cite the same existential axiom, so their witnesses are
    # one special constant; each message names it as its own script does
    theory = tmp_path / "t.th"
    theory.write_text(_WITNESS_THEORY)
    paths = {}
    for name in ("w", "v"):
        paths[name] = tmp_path / f"{name}.prf"
        paths[name].write_text(_witness_script(name))
    both = tmp_path / "both.prf"
    both.write_text(_witness_script("w") + _witness_script("v"))
    code, out, _ = run(capsys, "--theory", str(theory), "check-proof", str(both))
    assert code == 1 and out.splitlines() == [_failure("w"), _failure("v")]
    # the v script after the w script in one process, and in a fresh one
    for name in ("w", "v"):
        code, out, _ = run(capsys, "--theory", str(theory), "check-proof", str(paths[name]))
        assert code == 1 and out.splitlines() == [_failure(name)]
    src = Path(cli.__file__).resolve().parents[1]
    fresh = subprocess.run(
        [sys.executable, "-m", "proofkit.cli", "--theory", str(theory), "check-proof", str(paths["v"])],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert fresh.returncode == 1 and fresh.stdout == out


def test_spent_per_script(capsys, tmp_path):
    subset = tmp_path / "subset.prf"
    text = (DATA_DIR / "corpus" / "s20.prf").read_text()
    subset.write_text(text[: text.index("theorem t26")])
    code, jout, _ = run(capsys, "--format", "json", "--budget", "500", "check-corpus", str(subset))
    assert code == 0
    spent = [s["spent"] for s in json.loads(jout)["scripts"]]
    assert len(spent) == 3 and all(0 < n <= 500 for n in spent)
    explicit = tmp_path / "explicit.prf"
    explicit.write_text("theorem e1 : (not (= (s0 eps) eps))\nexplicit\n  special a1 ; eps\nqed\n")
    code, jout, _ = run(capsys, "--format", "json", "check-proof", str(explicit))
    assert code == 0
    assert [(s["label"], s["spent"]) for s in json.loads(jout)["scripts"]] == [("e1", 0)]


@pytest.mark.parametrize("command", ["translate", "parse"])
def test_deep_input_exit_two(capsys, command):
    term = "x"
    for _ in range(2_000):
        term = f"(s0 {term})"
    code, _, err = run(capsys, command, f"(= {term} eps)")
    assert code == 2
    assert err.strip() == "error: input nested too deeply"


def test_check_proof_tags_schema_theorems(capsys, tmp_path, monkeypatch):
    bundle = stringarith.load_theory()
    monkeypatch.setattr(cli, "_bundle", lambda args: bundle)
    assert stringarith.check_corpus(
        bundle, stringarith.load_corpus([DATA_DIR / "corpus" / "s20.prf"])
    ).ok
    text = (DATA_DIR / "corpus" / "s21.prf").read_text()
    ta3 = tmp_path / "ta3.prf"
    ta3.write_text(text[text.index("theorem ta3") : text.index("theorem ta4")])
    code, out, _ = run(capsys, "check-proof", str(ta3))
    assert code == 0 and "ta3" in out and "pass" in out
    assert bundle.registry.entries["ta3"].section == "schema"


@pytest.mark.parametrize("command", ["check-corpus", "check-proof"])
def test_a_check_of_no_scripts_is_a_usage_error(capsys, tmp_path, command):
    # a directory without a .prf file, or a file without a theorem block
    path = tmp_path / "empty"
    if command == "check-corpus":
        path.mkdir()
        (path / "notes.txt").write_text("theorem t1 : (= eps eps)\n")
    else:
        path.write_text("# nothing to check\n")
    code, out, err = run(capsys, "--format", "json", command, str(path))
    assert (code, out, err) == (2, "", f"error: no scripts in {path}\n")


def test_ha_reduce_demo(capsys):
    code, out, _ = run(capsys, "ha-reduce", "--demo", "rank1")
    assert code == 0
    assert "within bound: True" in out
    code, jout, _ = run(capsys, "--format", "json", "ha-reduce", "--demo", "rank1")
    payload = json.loads(jout)
    assert payload["steps"] == 1 and payload["trace"][0]["rho"] == 1
    assert payload["refutable"] is True and "ground-refutable=True" in out


HA_HEADER = "step mode       rho  lam  kap  |seq|   out"
HA_DEMOS = {
    "rank1": (
        [
            HA_HEADER,
            "   0 input        1    1    1      4      ",
            "   1 batch        1    1    0      4     3",
            "final: 3 formulas; ground-refutable=True; bound ((4 ^ (2 ^ 1)) ^ (2 ^ 2 ^ 2 ^ 1)) "
            "= 18446744073709551616; observed max 4; within bound: True",
        ],
        {
            "ok": True,
            "steps": 1,
            "final_size": 3,
            "refutable": True,
            "bound": "((4 ^ (2 ^ 1)) ^ (2 ^ 2 ^ 2 ^ 1))",
            "bound_value": 18446744073709551616,
            "observed_max": 4,
            "within_bound": True,
            "trace": [
                {"mode": "batch", "size_in": 4, "size_out": 3, "rho": 1, "lam": 1, "kappa": 0},
            ],
        },
    ),
    "rank2": (
        [
            HA_HEADER,
            "   0 input        2    2    1      6      ",
            "   1 batch        2    2    0      6     6",
            "   2 batch        2    2    0      6     5",
            "   3 batch        2    2    0      5     4",
            "final: 4 formulas; ground-refutable=True; bound ((6 ^ (2 ^ 2)) ^ (2 ^ 2 ^ 2 ^ 2 ^ 2)) "
            "= symbolic; observed max 8",
        ],
        {
            "ok": True,
            "steps": 3,
            "final_size": 4,
            "refutable": True,
            "bound": "((6 ^ (2 ^ 2)) ^ (2 ^ 2 ^ 2 ^ 2 ^ 2))",
            "bound_value": None,
            "observed_max": 8,
            "within_bound": None,
            "trace": [
                {"mode": "batch", "size_in": 6, "size_out": 6, "rho": 2, "lam": 2, "kappa": 0},
                {"mode": "batch", "size_in": 6, "size_out": 5, "rho": 2, "lam": 2, "kappa": 0},
                {"mode": "batch", "size_in": 5, "size_out": 4, "rho": 2, "lam": 2, "kappa": 0},
            ],
        },
    ),
}


@pytest.mark.parametrize("demo", sorted(HA_DEMOS))
def test_ha_reduce_demo_output_is_pinned(capsys, demo):
    # the whole report: the bound is a TowerExpr printed by its __str__, the
    # rows read each step's StepTrace and Profile
    text, payload = HA_DEMOS[demo]
    code, out, _ = run(capsys, "ha-reduce", "--demo", demo)
    assert code == 0 and out == "\n".join(text) + "\n"
    code, jout, _ = run(capsys, "--format", "json", "ha-reduce", "--demo", demo)
    assert code == 0 and jout == json.dumps(payload, indent=2) + "\n"


def test_ha_reduce_fails_when_the_certificate_does_not_replay(capsys, monkeypatch):
    def reject(cert, inputs):
        raise CheckError("step 3 does not follow")

    monkeypatch.setattr(checker, "replay", reject)
    code, out, _ = run(capsys, "ha-reduce", "--demo", "rank1")
    assert code == 1
    assert "ground-refutable=False" in out
    assert "FAIL: the refutation's certificate does not replay: step 3 does not follow" in out
    code, jout, _ = run(capsys, "--format", "json", "ha-reduce", "--demo", "rank1")
    payload = json.loads(jout)
    assert code == 1 and payload["ok"] is False and payload["refutable"] is False


def test_ha_reduce_reports_an_exhausted_budget(capsys, monkeypatch):
    # every validity check is bounded, the demo's own small ones included
    code, out, _ = run(capsys, "--budget", "2", "ha-reduce", "--demo", "rank1")
    assert code == 1 and out == "FAIL: budget exhausted (3 spent, budget 2)\n"
    case = demo_valid_28_atoms()
    monkeypatch.setattr(hilbertack, "demo_rank1", lambda: case)
    code, out, _ = run(capsys, "ha-reduce", "--demo", "rank1")
    assert code == 0 and "ground-refutable=True" in out
    code, out, err = run(capsys, "--budget", "5", "ha-reduce", "--demo", "rank1")
    assert code == 1 and out == "FAIL: budget exhausted (6 spent, budget 5)\n" and err == ""
    code, jout, _ = run(capsys, "--format", "json", "--budget", "5", "ha-reduce", "--demo", "rank1")
    assert code == 1
    assert json.loads(jout) == {"ok": False, "message": "budget exhausted (6 spent, budget 5)"}


def test_translate_and_reduce(capsys):
    code, out, _ = run(capsys, "translate", "(leq x eps)")
    assert code == 0 and "zprod" in out and "leq" not in out
    code, out2, _ = run(capsys, "reduce", "(leq x eps)")
    assert code == 0 and out2 == out


def test_translate_verbose_obligation_sides_differ(capsys):
    text = "(= (sc (exists y (leq y eps))) eps)"
    code, out, _ = run(capsys, "translate", "--verbose", text)
    obligations = [l for l in out.splitlines() if l.startswith("obligation [")]
    assert code == 0 and len(obligations) == 2
    for line in obligations:
        before, after = line.split(": ", 1)[1].split(" <-> ")
        assert before != after
    code, jout, _ = run(capsys, "--format", "json", "translate", "--verbose", text)
    assert code == 0 and json.loads(jout)["obligations"] == ["d27", "d25"]


# A defined predicate whose definiens binds z, free in the formula, so that
# an adjusted variant renames it, and a defined function: the output of
# `translate --verbose` and of `reduce`, recorded while translate_out still
# walked every stage of the chain.
LEQ_Z = (
    "(exists z1 (exists z2 (not (or (not (= z2 (zprod (s0 eps) (cat y z)))) (not (exists z3 "
    "(not (or (not (= z3 (zprod (s0 eps) z))) (not (exists z4 (not (or (not (= z4 (zprod "
    "(s0 eps) z1))) (not (= (cat z4 z3) z2))))))))))))))"
)
ZEE_CAT = (
    "(exists z1 (not (or (not (= z1 (zprod (s0 eps) z))) (not (exists z2 (not (or (not "
    "(= z2 (zprod (s0 eps) (cat x y)))) (not (= z2 z1)))))))))"
)
TRANSLATIONS = {
    "(leq z (cat y z))": (
        LEQ_Z,
        [
            "obligation [d27]: (leq z (cat y z)) <-> "
            "(exists z1 (= (cat (zee z1) (zee z)) (zee (cat y z))))",
            "obligation [d25]: (exists z1 (= (cat (zee z1) (zee z)) (zee (cat y z)))) <-> "
            + LEQ_Z,
        ],
    ),
    "(= (zee (cat x y)) (zee z))": (
        ZEE_CAT,
        ["obligation [d25]: (= (zee (cat x y)) (zee z)) <-> " + ZEE_CAT],
    ),
}


@pytest.mark.parametrize("text", sorted(TRANSLATIONS))
def test_translate_and_reduce_output_is_pinned(capsys, text):
    rendered, obligations = TRANSLATIONS[text]
    code, out, _ = run(capsys, "translate", "--verbose", text)
    assert code == 0 and out == "\n".join([rendered, *obligations]) + "\n"
    code, out, _ = run(capsys, "reduce", text)
    assert code == 0 and out == rendered + "\n"


@pytest.mark.parametrize(
    "target,cap,encoding",
    [
        ("0", "12", "0101001"),
        ("11", "14", "011101010110"),
        # the remaining targets of the benchmark's workbench workload
        ("", "8", "11"),
        ("1", "12", "0101011"),
        ("00", "14", "011100010010"),
        ("01", "14", "011101010010"),
        ("10", "14", "011100010110"),
        ("0110", "16", None),
        ("000", "16", None),
        ("101", "16", None),
    ],
)
def test_rm_kbound_pins(capsys, target, cap, encoding):
    argv = ("--format", "json", "--budget", "200", "rm-kbound", target, "--len-cap", cap)
    code, jout, _ = run(capsys, *argv)
    payload = json.loads(jout)
    if encoding is None:
        # 22 machines of at most 16 bits neither halt nor repeat a
        # configuration within 200 steps
        assert code == 1 and payload == {"ok": False, "found": False, "budget_cut": 22}
    else:
        # the whole JSON, byte for byte
        pinned = {
            "ok": True,
            "found": True,
            "length": len(encoding),
            "encoding": encoding,
            "encoding_version": 1,
        }
        assert code == 0 and jout == json.dumps(pinned, indent=2) + "\n"


def test_machine_strings_must_be_bits(capsys, tmp_path):
    code, out, err = run(capsys, "rm-kbound", "2", "--len-cap", "10")
    assert code == 2 and out == "" and err.strip() == "error: target must be a bit string, got '2'"
    mfile = tmp_path / "m.rm"
    mfile.write_text("machine i=1 m=2 k=2\nstate 1 : prepend0 1 -> 2 goto 2\n")
    code, out, err = run(capsys, "rm-run", str(mfile), "2a")
    assert code == 2 and out == ""
    assert err.strip() == "error: machine inputs must be bit strings, got '2a'"


def test_rm_kbound_default_budget(capsys, monkeypatch, tmp_path):
    """Without --budget, rm-kbound runs each machine for k_upper_bound's own
    200 steps, while rm-run keeps the 100,000-step default."""
    budgets = []
    real = machines.k_search

    def spy(target, len_cap, budget):
        budgets.append(budget)
        return real(target, len_cap, budget)

    monkeypatch.setattr(machines, "k_search", spy)
    code, out, _ = run(capsys, "rm-kbound", "11", "--len-cap", "14")
    assert code == 0 and out.split()[-1] == "011101010110" and budgets == [200]
    loop = tmp_path / "loop.rm"
    loop.write_text("machine i=1 m=2 k=2\nstate 1 : case 1 ? 1 1 1\n")
    code, out, _ = run(capsys, "rm-run", str(loop), "0")
    assert code == 1 and out.strip() == "budget exhausted after 100000 steps"


def test_rm_kbound_says_how_many_runs_the_budget_cut_off(capsys):
    code, out, _ = run(capsys, "rm-kbound", "0110", "--len-cap", "14")
    assert code == 1
    assert out == "no machine found under the caps\nruns cut off by the 200-step budget: 0\n"
    code, out, _ = run(capsys, "--budget", "1", "rm-kbound", "0110", "--len-cap", "12")
    assert code == 1
    assert out == "no machine found under the caps\nruns cut off by the 1-step budget: 9\n"
    argv = ("--format", "json", "--budget", "1", "rm-kbound", "0110", "--len-cap", "12")
    code, jout, _ = run(capsys, *argv)
    assert code == 1 and json.loads(jout) == {"ok": False, "found": False, "budget_cut": 9}


def test_rm_subcommands(capsys, tmp_path):
    mfile = tmp_path / "m.rm"
    mfile.write_text(
        "machine i=1 m=2 k=2\nstate 1 : prepend0 2 -> 2 goto 2\n"
    )
    code, out, _ = run(capsys, "rm-run", str(mfile), "11")
    assert code == 0 and "output='0'" in out
    code, out, _ = run(capsys, "rm-run", "--mode", "compiled", str(mfile), "11")
    assert code == 0 and "output='0'" in out
    code, jout, _ = run(capsys, "--format", "json", "rm-kbound", "", "--len-cap", "4")
    payload = json.loads(jout)
    assert code == 0 and payload["length"] == 2


def test_fuzz_axioms_cli(capsys):
    code, jout, _ = run(
        capsys, "--format", "json", "--seed", "7", "fuzz-axioms", "--samples", "10", "--maxlen", "8"
    )
    payload = json.loads(jout)
    assert code == 0 and payload["ok"] and payload["checked"] >= 210
    argv = ("--seed", "3", "fuzz-axioms", "--samples", "50", "--maxlen", "16", "--exhaustive", "2")
    code, jout, _ = run(capsys, "--format", "json", *argv)
    assert code == 0 and json.loads(jout) == {"ok": True, "checked": 2613, "counterexamples": []}


def test_fuzz_axioms_lists_each_counterexample(capsys, tmp_path):
    # x x = x holds only for the empty string
    path = tmp_path / "false.th"
    path.write_text("theory T\naxiom a1 : (not (= (s0 x) eps))\naxiom bad : (= (cat x x) x)\n")
    argv = ("--theory", str(path), "fuzz-axioms", "--samples", "0", "--exhaustive", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == (
        "6 instances checked; counterexamples: 2\n  bad: {'x': '0'}\n  bad: {'x': '1'}\n"
    )
    code, jout, _ = run(capsys, "--format", "json", *argv)
    assert code == 1 and json.loads(jout) == {
        "ok": False,
        "checked": 6,
        "counterexamples": [
            {"axiom": "bad", "assignment": {"x": "0"}},
            {"axiom": "bad", "assignment": {"x": "1"}},
        ],
    }


def test_theory_file_with_a_late_axiom_is_a_usage_error(capsys, tmp_path):
    late = tmp_path / "late.th"
    late.write_text(
        "theory T\n"
        "axiom a1 : (not (= (s0 x) eps))\n"
        "define fun d25 zee := (zprod (s0 eps) x)\n"
        "axiom a6 : (= (cat eps x) (s0 x))\n"
    )
    code, out, err = run(capsys, "--theory", str(late), "fuzz-axioms", "--samples", "10")
    assert code == 2 and not out and "axiom a6" in err and "4:1" in err


def test_theory_file_with_a_repeated_definiens_is_a_usage_error(capsys, tmp_path):
    dup = tmp_path / "dup.th"
    dup.write_text(
        "theory T\n"
        "axiom a1 : (not (= (s0 x) eps))\n"
        "define pred d1 p1 : (= x eps)\n"
        "define pred d2 p2 : (= x eps)\n"
    )
    code, out, err = run(capsys, "--theory", str(dup), "translate", "(p2 x)")
    assert code == 2 and out == ""
    assert err.strip() == f"error: {dup}: definition d2 repeats the definiens of d1 at 4:1"


@pytest.mark.parametrize(
    "lines, message",
    [
        (
            "define pred d1 p : (= x eps)\ndefine pred d2 p : (= x (s0 eps))\n",
            "definition d2: the name p is taken by p/1 at 4:1",
        ),
        ("define pred d1 eps : (= x eps)\n", "definition d1: the name eps is taken by eps/0 at 3:1"),
        ("define fun d1 s0 := (cat x x)\n", "definition d1: the name s0 is taken by s0/1 at 3:1"),
    ],
)
def test_theory_file_defining_a_taken_name_is_a_parse_error(capsys, tmp_path, lines, message):
    path = tmp_path / "clash.th"
    path.write_text(f"theory T\naxiom a1 : (not (= (s0 x) eps))\n{lines}")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {message}$"):
        stringarith.load_theory(path)
    code, out, err = run(capsys, "--theory", str(path), "translate", "(= x x)")
    assert code == 2 and out == "" and err.strip() == f"error: {path}: {message}"


def test_script_parse_errors_name_their_line(capsys, tmp_path):
    for body, message in (
        ("proof\n  H\n  use a2\nexplicit\n  special a1 ; eps\n", "second proof block in theorem e1 at 5:1"),
        ("proof\n  H\n  use a1 x\n", "stray citation arguments ' x' at 4:1"),
        ("proof\n  H\n  use a1 ;\n", "empty citation argument at 4:1"),
        ("explicit\n  special a1 ; eps ;\n", "empty citation argument at 3:1"),
    ):
        path = tmp_path / "e1.prf"
        path.write_text(f"theorem e1 : (not (= (s0 eps) eps))\n{body}qed\n")
        code, out, err = run(capsys, "check-proof", str(path))
        assert code == 2 and out == "" and err.strip() == f"error: {path}: {message}"


@pytest.mark.parametrize(
    "argv",
    [
        ("check-proof", "{}"),
        ("check-corpus", "{}"),
        pytest.param(
            ("check-corpus", str(DATA_DIR / "corpus" / "s20.prf"), "{}"), id="check-corpus-second"
        ),
        ("--theory", "{}", "translate", "(= x x)"),
        ("rm-run", "{}"),
    ],
    ids=lambda argv: argv[0],
)
def test_a_file_that_is_not_utf8_text_is_a_usage_error(capsys, tmp_path, argv):
    # the error names the file, also when it follows a good one
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\xff\xfe\x00bad")
    code, out, err = run(capsys, *(a.format(path) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0")
    assert "Traceback" not in err


_THEOREM = "theorem e1 : (not (= (s0 eps) eps))\n"

# reader, file text, exit status, and the error or the script's FAIL line
_INPUT_ERRORS = {
    "previous theorem open": (
        "check-proof", _THEOREM + _THEOREM, 2, "previous theorem not closed by qed at 2:1"
    ),
    "malformed header": ("check-proof", "theorem E1 : eps\n", 2, "malformed theorem header at 1:1"),
    "malformed header in a corpus file": (
        "check-corpus", "theorem E1 : eps\n", 2, "malformed theorem header at 1:1"
    ),
    "statement outside": (
        "check-proof", "proof\n", 2, "statement outside a theorem block: 'proof' at 1:1"
    ),
    "claim open": (
        "check-proof", _THEOREM + "proof\n  claim : (= eps eps)\nqed\n", 2,
        "claim block not closed by shown at 4:1",
    ),
    "malformed claim": ("check-proof", _THEOREM + "proof\n  claim\n", 2, "malformed claim at 3:1"),
    "shown without claim": (
        "check-proof", _THEOREM + "proof\n  shown\n", 2, "shown without claim at 3:1"
    ),
    "unexpected line": ("check-proof", _THEOREM + "H\n", 2, "unexpected line 'H' at 2:1"),
    "unterminated block": (
        "check-proof", _THEOREM + "proof\n  H\n", 2, "unterminated theorem block at 1:1"
    ),
    "malformed citation": (
        "check-proof", _THEOREM + "proof\n  use\n", 2, "malformed citation line 'use' at 3:1"
    ),
    "BSI without phi": (
        "check-proof", _THEOREM + "proof\n  use BSI ; eps\n", 2,
        "BSI citation needs (phi <label>) at 3:1",
    ),
    # a special step's own pattern takes any line that reaches it: its
    # arguments are what can be malformed
    "malformed special step": (
        "check-proof", _THEOREM + "explicit\n  special a1 eps\n", 2,
        "stray citation arguments ' eps' at 3:1",
    ),
    "malformed eqsub step": (
        "check-proof", _THEOREM + "explicit\n  eqsub ; eps ; eps\n", 2,
        "eqsub expects ; a ; b ; x ; A at 3:1",
    ),
    "malformed resolve step": (
        "check-proof", _THEOREM + "explicit\n  resolve 1\n", 2, "malformed resolve step at 3:1"
    ),
    "unknown explicit step": (
        "check-proof", _THEOREM + "explicit\n  split a1\n", 2,
        "unknown explicit step 'split a1' at 3:1",
    ),
    "open claim": (
        "check-proof", _THEOREM + "proof\n  H\n  claim : (= x x)\n  shown\nqed\n", 1,
        "e1       FAIL  claims must be variable free",
    ),
    "citation before a claim": (
        "check-proof",
        _THEOREM + "proof\n  H\n  use a1 ; eps\n  claim : (= eps eps)\n  shown\nqed\n", 1,
        "e1       FAIL  citation lines must follow the last claim",
    ),
    "special step of a definition": (
        "check-proof", _THEOREM + "explicit\n  special d25 ; eps\nqed\n", 1,
        "e1       FAIL  special steps cite nonlogical axioms only",
    ),
    "duplicate machine header": (
        "rm-run", "machine i=1 m=2 k=2\nmachine i=1 m=2 k=2\n", 2,
        "duplicate machine header at 2:1",
    ),
    "unrecognized machine line": (
        "rm-run", "machine i=1 m=2 k=2\nhalt\n", 2, "unrecognized machine line 'halt' at 2:1"
    ),
    "unknown order symbol": (
        "--theory", "theory T\naxiom a6 : (= (cat eps x) x)\norder leq\n", 2,
        "unknown order symbol leq at 3:1",
    ),
    "unrecognized theory line": (
        "--theory", "theory T\nlemma l1 : (= x x)\n", 2,
        "unrecognized theory line: 'lemma l1 : (= x x)' at 2:1",
    ),
}


@pytest.mark.parametrize("name", sorted(_INPUT_ERRORS))
def test_each_input_error_of_the_file_readers_is_reported(capsys, tmp_path, name):
    reader, text, status, message = _INPUT_ERRORS[name]
    path = tmp_path / "input"
    path.write_text(text)
    argv = (reader, str(path)) + (("translate", "(= x x)") if reader == "--theory" else ())
    code, out, err = run(capsys, *argv)
    assert code == status and "Traceback" not in err
    if status == 2:  # the error names the file
        assert out == "" and err == f"error: {path}: {message}\n"
    else:
        assert out == f"{message}\n" and err == ""


def test_theory_file_phi_errors_name_their_line(capsys, tmp_path):
    for target, message in (
        ("nosuch", "unknown predicate nosuch for phi b1 at 4:1"),
        ("two", "phi b1 needs a unary predicate; two expects 2 arguments at 4:1"),
    ):
        path = tmp_path / "phi.th"
        path.write_text(
            "theory T\n"
            "axiom a1 : (not (= (s0 x) eps))\n"
            "define pred d1 two : (= x y)\n"
            f"phi b1 : {target}\n"
        )
        code, out, err = run(capsys, "--theory", str(path), "translate", "(= x x)")
        assert code == 2 and out == "" and err.strip() == f"error: {path}: {message}"


def test_theory_file_with_axioms_only(capsys, tmp_path):
    path = tmp_path / "axioms.th"
    path.write_text("theory T\naxiom a1 : (not (= (s0 x) eps))\naxiom a6 : (= (cat eps x) x)\n")
    code, out, _ = run(capsys, "--theory", str(path), "fuzz-axioms", "--samples", "10")
    assert code == 0 and out.strip() == "20 instances checked; counterexamples: 0"
    code, out, _ = run(capsys, "--theory", str(path), "translate", "(= x x)")
    assert code == 0 and out.strip() == "(= x x)"


def test_fuzz_axioms_refuses_an_exhaustive_length_past_the_bound(capsys, monkeypatch):
    # The widest axioms have three variables: length 7 gives 255^3 =
    # 16,581,375 assignments, length 8 gives 511^3, over 10^8.  Nothing is
    # drawn or built before the refusal.
    def never(*args):
        raise AssertionError("drew or built strings before refusing")

    monkeypatch.setattr(stringarith, "_all_strings", never)
    monkeypatch.setattr(stringarith, "random_string", never)
    monkeypatch.setattr(stringarith._StringReader, "draw", never)
    for length, count in (
        ("8", str(511**3)),
        ("40", str((2**41 - 1) ** 3)),
        ("1000000000", "(2^1000000001-1)^3"),
    ):
        code, out, err = run(capsys, "fuzz-axioms", "--samples", "1", "--exhaustive", length)
        assert code == 2 and out == ""
        assert f"exhaustive length {length} gives {count} assignments" in err


_ONE_VARIABLE_AXIOMS = (
    "theory T\n"
    "axiom a20 : (= (pd eps) eps)\n"
    "axiom a21 : (imp (not (= x eps)) (or (= x (s0 (pd x))) (= x (s1 (pd x)))))\n"
)


def test_fuzz_axioms_refuses_an_exhaustive_list_past_the_bound(capsys, monkeypatch, tmp_path):
    # One variable: length 22 gives 2^23 - 1 assignments, under the bound,
    # but its strings hold 176,160,770 characters; length 21's hold
    # 83,886,082, and the list is built
    path = tmp_path / "one.th"
    path.write_text(_ONE_VARIABLE_AXIOMS)
    built = []

    def record(maxlen):
        built.append(maxlen)
        return [""]

    monkeypatch.setattr(stringarith, "_all_strings", record)
    argv = ("--theory", str(path), "fuzz-axioms", "--samples", "0", "--exhaustive")
    code, out, err = run(capsys, *argv, "21")
    assert code == 0 and built == [21]
    code, out, err = run(capsys, *argv, "22")
    assert code == 2 and out == "" and built == [21]
    assert err.strip() == (
        "error: exhaustive length 22 builds strings of 176160770 characters in all, "
        "more than 100000000"
    )


def test_fuzz_axioms_refuses_an_exhaustive_list_past_the_bound_under_a_memory_limit(tmp_path):
    path = tmp_path / "one.th"
    path.write_text(_ONE_VARIABLE_AXIOMS)
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from proofkit import cli\n"
        f"sys.exit(cli.main(['--theory', {str(path)!r}, 'fuzz-axioms', '--samples', '0',"
        " '--exhaustive', '23']))\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert "exhaustive length 23 builds strings" in done.stderr
    assert "out of memory" not in done.stderr


def test_fuzz_axioms_refuses_a_maxlen_past_the_bound(capsys, monkeypatch):
    # samples x 3 variables x maxlen random bits at most, refused past 10^8
    # before any word is read
    def never(*args):
        raise AssertionError("read random words before refusing")

    monkeypatch.setattr(stringarith._StringReader, "refill", never)
    for samples, maxlen in (("200", 166_667), ("1", 10**12), ("200", 2**32 - 1)):
        code, out, err = run(capsys, "fuzz-axioms", "--samples", samples, "--maxlen", str(maxlen))
        assert code == 2 and out == ""
        assert f"may draw {int(samples) * 3 * maxlen} bits, more than 100000000" in err


# fuzz-axioms --maxlen 3000 under a 1-GB address-space limit: a15, x times
# y times z, could build 2.7 * 10^10 characters, so the run is refused
# before anything is drawn, not ended by the limit
_FUZZ_UNDER_A_LIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from proofkit import cli
sys.exit(cli.main(["fuzz-axioms", "--maxlen", "3000"]))
"""


def test_fuzz_axioms_refuses_a_term_past_the_bound_under_a_memory_limit():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _FUZZ_UNDER_A_LIMIT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert "axiom a15" in done.stderr and "out of memory" not in done.stderr


def test_fuzz_axioms_out_of_memory_exit_two(capsys, monkeypatch):
    # --maxlen 33333333 passes the bit bound; the length bound refuses it,
    # and an exhaustion is simulated here, never run
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(stringarith, "fuzz_axioms", exhausted)
    code, out, err = run(capsys, "fuzz-axioms", "--samples", "1", "--maxlen", "33333333")
    assert code == 2 and out == ""
    assert err.strip() == "error: out of memory"
    assert "Traceback" not in err


# Commands whose JSON must not depend on the hash seed, that is on the order
# of a set or a dict keyed by nodes or strings.
_SEED_FREE_COMMANDS = (
    ("check-corpus", "--oracle", "50"),
    ("ha-reduce", "--demo", "rank1"),
    ("ha-reduce", "--demo", "rank2"),
    ("fuzz-axioms",),
)


def _without_elapsed(value):
    if isinstance(value, dict):
        return {k: _without_elapsed(v) for k, v in value.items() if k != "elapsed"}
    if isinstance(value, list):
        return [_without_elapsed(v) for v in value]
    return value


@pytest.mark.parametrize("argv", _SEED_FREE_COMMANDS, ids=" ".join)
def test_outputs_do_not_depend_on_the_hash_seed(argv):
    src = Path(cli.__file__).resolve().parents[1]
    runs = [
        subprocess.Popen(
            [sys.executable, "-m", "proofkit.cli", "--format", "json", *argv],
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE, text=True,
        )
        for seed in ("0", "1")
    ]
    outs = [run.communicate(timeout=60)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    first, second = (json.dumps(_without_elapsed(json.loads(out))) for out in outs)
    assert first == second
