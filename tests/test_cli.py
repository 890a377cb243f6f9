"""Command-line contract: verdicts, exit codes, JSON schema, corpus flows."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coincanon import greedy, is_tight, new_coin_system, optimal
from coincanon.cli import parse_coins, run
from coincanon.fastcheck import METHODS, TIGHT_METHODS


def out_lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_parse_coins():
    assert parse_coins("1,7,10,11").denoms == (1, 7, 10, 11)
    assert parse_coins(" 1 , 5 ,10 ").denoms == (1, 5, 10)
    from coincanon import InvalidSystem
    with pytest.raises(InvalidSystem, match="duplicate"):
        parse_coins("1,5,5,10")
    for text in ("1,5,x", "1,1_0", "1,\u0663", "1, +4"):  # ASCII digits only
        with pytest.raises(InvalidSystem):
            parse_coins(text)
    with pytest.raises(InvalidSystem):
        parse_coins("")
    for text in ("1,,5", "1,5,", ",1,5", "1, ,5"):
        with pytest.raises(InvalidSystem, match="empty"):
            parse_coins(text)


def test_check_non_canonical_known_values(capsys):
    code = run(["check", "1,7,10,11"])
    out = capsys.readouterr().out
    assert code == 1
    assert "non-canonical" in out
    assert "14" in out
    assert "(3,0,0,1) size 4" in out
    assert "(0,2,0,0) size 2" in out


def test_check_canonical(capsys):
    code = run(["check", "1,5,10,25"])
    assert code == 0
    assert out_lines(capsys) == ["canonical"]


def test_check_divergence_demo(capsys):
    coins = "1,5,10,25,50,100,220"
    assert run(["check", coins, "--method", "tight-verbatim"]) == 0
    assert out_lines(capsys) == ["canonical"]
    code = run(["check", coins, "--method", "oracle"])
    out = capsys.readouterr().out
    assert code == 1
    assert "non-canonical" in out and "300" in out


def test_check_methods_agree(capsys):
    for coins, expected in [
        ("1,2", 0),
        ("1,3,4", 1),
        ("1,5,10", 0),
        ("1,7,10,11", 1),
        ("1,5,10,25", 0),
        ("1,2,5,6,10", 0),
        ("1,2,5,6,11", 1),
        ("1,2,3,4,5,6,7", 0),  # the tight methods run on these last two
        ("1,2,4,6,8,9", 1),
    ]:
        system = parse_coins(coins)
        for method in METHODS:
            if method in TIGHT_METHODS:
                if system.m < 6:
                    continue
                assert is_tight(system)[0], coins
            assert run(["check", coins, "--method", method]) == expected, (coins, method)
    capsys.readouterr()


def test_check_json_schema_and_reverification(capsys):
    code = run(["check", "1,7,10,11", "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"system", "verdict", "witness", "method", "elapsed_ns"}
    assert payload["system"] == [1, 7, 10, 11]
    assert payload["verdict"] == "non-canonical"
    assert payload["method"] == "auto"
    assert isinstance(payload["elapsed_ns"], int)
    w = payload["witness"]
    assert set(w) == {"x", "greedy_counts", "greedy_size", "optimal_counts", "optimal_size"}
    # re-verify the witness against the named system
    system = new_coin_system(payload["system"])
    g = greedy(system, w["x"])
    assert list(g.counts) == w["greedy_counts"] and g.size == w["greedy_size"]
    o = optimal(system, w["x"])
    assert o.size == w["optimal_size"]
    value = sum(k * c for k, c in zip(w["optimal_counts"], system.denoms))
    assert value == w["x"]
    assert sum(w["optimal_counts"]) == w["optimal_size"]
    assert w["greedy_size"] > w["optimal_size"]


def test_check_json_canonical(capsys):
    assert run(["check", "1,5,10,25", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "canonical" and payload["witness"] is None


def test_witness_command(capsys):
    assert run(["witness", "1,7,10,11"]) == 1
    out = capsys.readouterr().out
    assert "smallest counterexample 14" in out
    assert run(["witness", "1,5,10,25"]) == 0
    assert out_lines(capsys) == ["canonical"]


def test_tight_command(capsys):
    assert run(["tight", "1,7,10,11"]) == 0
    assert out_lines(capsys) == ["tight"]
    assert run(["tight", "1,7,10,50"]) == 1
    out = capsys.readouterr().out
    assert "not tight" in out and "14" in out
    assert run(["tight", "1,7,10,50", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "not-tight" and payload["witness"]["x"] == 14


def test_usage_errors(capsys):
    assert run(["check", "5,10"]) == 2       # first coin not 1
    assert run(["check", "1,5,5"]) == 2      # duplicate
    assert run(["check", "abc"]) == 2
    assert run(["check", "1,,5"]) == 2      # empty field
    assert run(["check", "1,5,10", "--dp-budget", "-1"]) == 2
    assert run(["check", "1,5,10", "--method", "oracle", "--dp-budget", "0"]) == 2
    assert run(["check", "1,3,4", "--method", "tight-verbatim"]) == 2  # arity
    assert run(["check", "1,7,10,50,60,70", "--method", "tight-extended"]) == 2  # not tight
    assert run(["nonsense"]) == 2
    assert run([]) == 2
    capsys.readouterr()
    # The tight generator checks m and cmax before it draws, as the plain one does.
    for m, cmax in (("10", "5"), ("0", "5")):
        assert run(["gen", "--random", "--m", m, "--cmax", cmax, "--count", "1", "--tight"]) == 2
        assert capsys.readouterr().err == "error: need m >= 1 and cmax >= m\n"


def test_tight_method_with_skip(capsys):
    # not tight, but the user may bypass verification; verdicts then carry
    # only the no-false-positive guarantee
    code = run(["check", "1,7,10,50,60,70", "--method", "tight-extended",
                "--skip-tight-check"])
    assert code in (0, 1)
    capsys.readouterr()


def test_resource_exit_code(capsys):
    assert run(["check", "1,7,10,50000", "--method", "oracle", "--dp-budget", "100"]) == 3
    capsys.readouterr()
    # propagation_witness still refuses a bound c_m + c3 above the budget,
    # even when Pearson's scan finds the witness (6) without a table.
    for coins in ("1,3,4,5000000000", "1,3,4,10,5000000000"):
        assert run(["check", coins]) == 3
        assert "scan over 5000000004 amounts" in capsys.readouterr().err


def test_three_coin_witness_above_the_dp_budget(capsys):
    # The three-coin witness is closed form, so no table limits it.
    assert run(["check", "1,3000000000,4000000000", "--json"]) == 1
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness["x"] == 6_000_000_000
    assert witness["optimal_counts"] == [0, 2, 0]
    assert witness["greedy_counts"] == [2_000_000_000, 0, 1]


_PAIR = ("1,2,3,4,3000000000,4000000000", 6_000_000_000, [0, 0, 0, 0, 2, 0])


@pytest.mark.parametrize("coins,x,optimal_counts,args", [
    # one-point witness: k+1 copies of the prefix's top coin, built without a DP
    ("1,2,300000001,400000000", 600_000_002, [0, 0, 2, 0], []),
    # check_five's fallback scans only up to the four-coin prefix's witness
    ("1,2,4,5,300000000", 8, [0, 0, 2, 0, 0], []),
    # the tight check's pair-sum witness is closed form
    (*_PAIR, ["--method", "tight-verbatim", "--skip-tight-check"]),
    (*_PAIR, ["--method", "tight-extended", "--skip-tight-check"]),
])
def test_witness_without_a_table_above_the_dp_budget(capsys, coins, x, optimal_counts, args):
    assert run(["check", coins, "--json", *args]) == 1
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness["x"] == x
    assert witness["optimal_counts"] == optimal_counts


@pytest.mark.parametrize("module", ["coincanon", "coincanon.cli"])
def test_python_dash_m(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", module, "check", "1,7,10,11"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1
    assert done.stdout.startswith("non-canonical; counterexample 14:")


def test_gen_family(capsys):
    assert run(["gen", "--family", "fibonacci", "--m", "5"]) == 0
    assert out_lines(capsys) == ["1,2,3,5,8"]
    assert run(["gen", "--family", "arithmetic", "--m", "4", "--step", "3"]) == 0
    assert out_lines(capsys) == ["1,4,7,10"]
    assert run(["gen", "--family", "geometric", "--m", "4", "--ratio", "3"]) == 0
    assert out_lines(capsys) == ["1,3,9,27"]


def test_gen_enumerate(capsys):
    assert run(["gen", "--enumerate", "--m", "3", "--cmax", "4"]) == 0
    assert out_lines(capsys) == ["1,2,3", "1,2,4", "1,3,4"]


def test_gen_random_deterministic(capsys):
    assert run(["gen", "--random", "--m", "4", "--cmax", "30", "--count", "5",
                "--seed", "9"]) == 0
    first = out_lines(capsys)
    assert run(["gen", "--random", "--m", "4", "--cmax", "30", "--count", "5",
                "--seed", "9"]) == 0
    assert out_lines(capsys) == first
    assert len(first) == 5
    for count in ("0", "-1"):
        for tight in ([], ["--tight"]):
            assert run(["gen", "--random", "--m", "5", "--cmax", "40", "--count", count,
                        *tight]) == 2
    capsys.readouterr()


def test_gen_tight_corpus_annotations(capsys):
    assert run(["gen", "--random", "--m", "4", "--cmax", "12", "--count", "8",
                "--seed", "3", "--tight"]) == 0
    lines = out_lines(capsys)
    assert len(lines) == 8
    for line in lines:
        assert "# tight=1" in line and "canonical=" in line


def test_gen_json(capsys):
    assert run(["gen", "--enumerate", "--m", "3", "--cmax", "4", "--json"]) == 0
    rows = [json.loads(line) for line in out_lines(capsys)]
    assert rows[0] == {"system": [1, 2, 3]}
    assert run(["gen", "--random", "--m", "4", "--cmax", "12", "--count", "3",
                "--seed", "3", "--tight", "--json"]) == 0
    rows = [json.loads(line) for line in out_lines(capsys)]
    assert len(rows) == 3
    assert all(r["tight"] == 1 and "canonical" in r for r in rows)


def test_verify_flow(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    assert run(["gen", "--enumerate", "--m", "4", "--cmax", "12",
                "--out", str(corpus)]) == 0
    capsys.readouterr()
    assert run(["verify", "--corpus", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "thm1:" in out and "thm3:" in out and "lem13:" in out
    assert "fails=0" in out

    assert run(["verify", "--corpus", str(corpus), "--predicate", "thm3",
                "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 165  # C(11, 3)
    stats = payload["predicates"]["thm3"]
    assert stats["fails"] == 0
    assert stats["holds"] + stats["not_applicable"] == payload["total"]
    assert payload["failures"] == []


def test_bench_csv(capsys):
    assert run(["bench", "--methods", "auto,oracle", "--sizes", "8,16",
                "--trials", "2"]) == 0
    lines = out_lines(capsys)
    assert lines[0] == "method,m,c_max,trial,elapsed_ns,verdict"
    assert len(lines) == 1 + 2 * 2 * 2
    for line in lines[1:]:
        method, m, c_max, trial, elapsed, verdict = line.split(",")
        assert method in ("auto", "oracle")
        assert verdict == "canonical"
        assert int(elapsed) > 0
        assert m == c_max  # step-1 arithmetic family


def test_bench_rejects_bad_method(capsys):
    assert run(["bench", "--methods", "warp", "--sizes", "8"]) == 2
    assert run(["bench", "--methods", "tight-extended", "--sizes", "4,8"]) == 2
    assert run(["bench", "--methods", "oracle", "--sizes", "8", "--dp-budget", "5"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
