import json

import pytest

from proofkit import cli, machines, propcalc, stringarith
from proofkit.errors import CheckError
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
    monkeypatch.setitem(stringarith.BUILTINS, "s0", lambda x: lambda env: "")
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
    assert bundle.registry.entries["t22"].checked


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


def test_ha_reduce_demo(capsys):
    code, out, _ = run(capsys, "ha-reduce", "--demo", "rank1")
    assert code == 0
    assert "within bound: True" in out
    code, jout, _ = run(capsys, "--format", "json", "ha-reduce", "--demo", "rank1")
    payload = json.loads(jout)
    assert payload["steps"] == 1 and payload["trace"][0]["rho"] == 1
    assert payload["refutable"] is True and "ground-refutable=True" in out


def test_ha_reduce_fails_when_the_certificate_does_not_replay(capsys, monkeypatch):
    def reject(cert, inputs):
        raise CheckError("step 3 does not follow")

    monkeypatch.setattr(propcalc, "replay", reject)
    code, out, _ = run(capsys, "ha-reduce", "--demo", "rank1")
    assert code == 1
    assert "ground-refutable=False" in out
    assert "FAIL: the refutation's certificate does not replay: step 3 does not follow" in out
    code, jout, _ = run(capsys, "--format", "json", "ha-reduce", "--demo", "rank1")
    payload = json.loads(jout)
    assert code == 1 and payload["ok"] is False and payload["refutable"] is False


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
        assert code == 1 and payload == {"ok": False, "found": False}
    else:
        assert code == 0 and payload["encoding"] == encoding and payload["length"] == len(encoding)


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
    real = machines.k_upper_bound

    def spy(target, len_cap, budget):
        budgets.append(budget)
        return real(target, len_cap, budget)

    monkeypatch.setattr(machines, "k_upper_bound", spy)
    code, out, _ = run(capsys, "rm-kbound", "11", "--len-cap", "14")
    assert code == 0 and out.split()[-1] == "011101010110" and budgets == [200]
    loop = tmp_path / "loop.rm"
    loop.write_text("machine i=1 m=2 k=2\nstate 1 : case 1 ? 1 1 1\n")
    code, out, _ = run(capsys, "rm-run", str(loop), "0")
    assert code == 1 and out.strip() == "budget exhausted after 100000 steps"


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
