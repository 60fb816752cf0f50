import json

import pytest

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


def test_determinism(capsys, tree_file, payoff_file):
    rc1, out1, _ = run(capsys, "analyze", tree_file)
    rc2, out2, _ = run(capsys, "analyze", tree_file)
    assert out1 == out2
    rc1, p1, _ = run(capsys, "price", tree_file, payoff_file, "--op", "ibar", "--json")
    rc2, p2, _ = run(capsys, "price", tree_file, payoff_file, "--op", "ibar", "--json")
    assert p1 == p2
