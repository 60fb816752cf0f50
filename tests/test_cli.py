import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trajhedge
from trajhedge.cli import main

from conftest import corpus_text


@pytest.fixture
def tree_file(tmp_path):
    p = tmp_path / "tree.txt"
    p.write_text(corpus_text("example-6-2.txt"))
    return str(p)


@pytest.fixture
def payoff_file(tmp_path):
    p = tmp_path / "payoff.txt"
    p.write_text(corpus_text("payoff-6-2-f.txt"))
    return str(p)


@pytest.fixture
def process_file(tmp_path):
    p = tmp_path / "process.txt"
    p.write_text(corpus_text("process-6-2-b.txt"))
    return str(p)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_classify(capsys, tree_file):
    rc, out, _ = run(capsys, "classify", tree_file)
    assert rc == 0
    assert "node u t=1 value=2 class=arbitrage-II L=fails good=no" in out


def test_analyze_json(capsys, tree_file):
    rc, out, _ = run(capsys, "analyze", tree_file, "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["l_ae"]["holds"] is True
    assert data["hypotheses"]["H2"]["holds"] is True
    assert "node u" in data["null_cover"]


def test_price_sigma(capsys, tree_file, payoff_file):
    rc, out, _ = run(capsys, "price", tree_file, payoff_file, "--op", "sigma")
    assert rc == 0
    assert out.startswith("0 (not attained)")


def test_price_ibar_json(capsys, tree_file, payoff_file):
    rc, out, _ = run(capsys, "price", tree_file, payoff_file, "--op", "ibar", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["value"] == "1/2"
    assert data["attained"] is True
    assert data["certificate"]["positions"][0]["h"] == "-1/2"


def test_price_at_node(capsys, tree_file, payoff_file):
    rc, out, _ = run(
        capsys, "price", tree_file, payoff_file, "--op", "sigma", "--node", "u"
    )
    assert rc == 0
    assert out.startswith("-inf")


def test_decompose_verify_round_trip(capsys, tmp_path, tree_file, process_file):
    out_file = str(tmp_path / "decomp.txt")
    rc, _, _ = run(
        capsys, "decompose", tree_file, process_file, "--delta", "1/10,1/10",
        "-o", out_file,
    )
    assert rc == 0
    rc, out, _ = run(capsys, "verify-decomp", tree_file, process_file, out_file)
    assert rc == 0 and out.strip() == "PASS"


def test_verify_decomp_fail_exit_code(capsys, tmp_path, tree_file, process_file):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "decomposition base=0\ndeltas 1/10,1/10\n"
        "hedge t=0 at r = 5\nhedge t=1 at u = 0\n"
        "alpha t=0 at u = 0\n"
        "alpha t=0 at-family down poly=0\n"
        "alpha t=1 at-family down poly=0\nalpha t=1 at-family uptail poly=0\n"
        "exception node u\nexception family uptail 1-inf\n"
    )
    rc, out, _ = run(capsys, "verify-decomp", tree_file, process_file, str(bad))
    assert rc == 1 and out.startswith("FAIL")


def test_oracle_dual(capsys, tmp_path):
    tree = tmp_path / "bin.txt"
    tree.write_text(
        "tree s0=0 horizon=1\nnode r t=0\nnode a t=1\nnode b t=1\n"
        "child r inc=1 -> a\nchild r inc=-1 -> b\n"
    )
    payoff = tmp_path / "f.txt"
    payoff.write_text("payoff maturity=1\nat a = 2\nat b = 0\n")
    rc, out, _ = run(capsys, "oracle", str(tree), str(payoff), "--check", "dual")
    assert rc == 0 and "PASS" in out
    rc, out, _ = run(
        capsys, "oracle", str(tree), str(payoff), "--check", "grid", "--step", "1/4"
    )
    assert rc == 0 and "PASS" in out


def test_corpus_runs_clean(capsys):
    rc, out, _ = run(capsys, "corpus")
    assert rc == 0
    assert "FAIL" not in out


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's trajhedge."""
    src = str(Path(trajhedge.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, timeout=300
    )


def test_corpus_output_unchanged_under_optimize():
    # library invariants must not rest on assert, which -O strips
    plain = _run_python("-m", "trajhedge.cli", "corpus")
    optimized = _run_python("-O", "-m", "trajhedge.cli", "corpus")
    assert plain.returncode == 0 and optimized.returncode == 0
    assert plain.stdout and optimized.stdout == plain.stdout


STDLIB_ONLY = """
import contextlib, io, sys
before = set(sys.modules)
import trajhedge
from trajhedge.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    if main(["corpus"]) != 0:
        sys.exit("corpus failed")
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"trajhedge"})))
"""


def test_runtime_imports_only_the_standard_library():
    done = _run_python("-c", STDLIB_ONLY)
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode().split() == []


def test_malformed_tree_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("tree s0=1 horizon=1\nnode r t=0\nchild r inc=x -> a\n")
    rc, _, err = run(capsys, "classify", str(bad))
    assert rc == 2 and "line 3" in err


# (document, line): each line is the third of its document
TRUNCATED_LINES = [
    ("tree", "child r inc=1 ->"),
    ("tree", "child"),
    ("tree", "family"),
    ("payoff", "at-family"),
    ("decomposition", "deltas"),
    ("decomposition", "hedge t=0 r = 1"),
    ("decomposition", "hedge t=0 at"),
    ("decomposition", "alpha t=0 u = 0"),
    ("decomposition", "alpha t=0 at-family"),
    ("decomposition", "alpha t=0 at-family nosuch poly=0"),
    ("decomposition", "exception"),
    ("decomposition", "exception node"),
    ("decomposition", "exception family"),
    ("decomposition", "exception family f x1-inf"),
    ("decomposition", "alpha t=1 at-family down poly=1/10 from=0"),
    ("decomposition", "alpha t=1 at-family down poly=1/10 from=5 to=3"),
    ("decomposition", "alpha t=1 at-family nosuch poly=0 from=1"),
]


@pytest.mark.parametrize(
    "document,line", [pytest.param(doc, line, id=line) for doc, line in TRUNCATED_LINES]
)
def test_truncated_tree_line_exits_2(
    capsys, tmp_path, tree_file, process_file, document, line
):
    bad = tmp_path / "bad.txt"
    if document == "tree":
        bad.write_text(f"tree s0=1 horizon=1\nnode r t=0\n{line}\n")
        argv = ["classify", str(bad)]
    elif document == "payoff":
        bad.write_text(f"payoff maturity=1\nat u = 0\n{line}\n")
        argv = ["price", tree_file, str(bad), "--op", "sigma"]
    else:
        bad.write_text(f"decomposition base=0\ndeltas 1/10,1/10\n{line}\n")
        argv = ["verify-decomp", tree_file, process_file, str(bad)]
    rc, _, err = run(capsys, *argv)
    assert rc == 2 and "line 3" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "windows,ok",
    [
        (("from=1", "from=1"), False),
        (("from=1 to=5", "from=3"), False),
        (("from=3", "from=1 to=3"), False),
        (("from=1 to=2", "from=3"), True),
    ],
)
def test_alpha_windows_of_one_family(
    capsys, tmp_path, tree_file, process_file, windows, ok
):
    good = tmp_path / "good.txt"
    rc, _, _ = run(
        capsys, "decompose", tree_file, process_file, "--delta", "1/10,1/10",
        "-o", str(good),
    )
    assert rc == 0
    line = "alpha t=1 at-family down poly=1/10 from=1"
    text = good.read_text()
    lines = text.splitlines()
    at = lines.index(line)
    split = "\n".join(f"alpha t=1 at-family down poly=1/10 {w}" for w in windows)
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace(line, split))
    rc, out, err = run(capsys, "verify-decomp", tree_file, process_file, str(bad))
    if ok:
        assert rc == 0 and out.strip() == "PASS"
    else:
        assert rc == 2 and f"line {at + 2}" in err and "overlap" in err


def test_determinism(capsys, tree_file, payoff_file):
    rc1, out1, _ = run(capsys, "analyze", tree_file)
    rc2, out2, _ = run(capsys, "analyze", tree_file)
    assert out1 == out2
    rc1, p1, _ = run(capsys, "price", tree_file, payoff_file, "--op", "ibar", "--json")
    rc2, p2, _ = run(capsys, "price", tree_file, payoff_file, "--op", "ibar", "--json")
    assert p1 == p2
