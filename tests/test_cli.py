import ast
import json
import os
import random
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
    assert data["certificate"] == {
        "initial_capital": "1/2",
        "positions": [{"h": "-1/2", "node": "r", "t": 0}],
    }
    assert data["note"] == "model value (aggregated nonnegative-strategy program)"
    assert data["active"] == ["family:down:n=1", "node:u"]


def test_price_ibar_text(capsys, tree_file, payoff_file):
    rc, out, _ = run(capsys, "price", tree_file, payoff_file, "--op", "ibar")
    assert rc == 0
    assert out == (
        "1/2 (attained)\n"
        "note: model value (aggregated nonnegative-strategy program)\n"
        "certificate: V=1/2\n"
        "  hedge t=0 at r = -1/2\n"
        "active constraints:\n"
        "  family:down:n=1\n"
        "  node:u\n"
    )


def test_unattained_floored_step_is_refused(monkeypatch, capsys, tree_file, payoff_file,
                                            tree_6_2, payoff_6_2_f):
    # a floored step that moves wealth is always attained; a kernel that
    # claimed otherwise must stop the null operator, not lose its certificate
    import trajhedge.pricing as pricing

    real = pricing.solve_step

    def unattained(problem):
        step = real(problem)
        if problem.groups or any(p.slope != 0 for p in problem.fixed):
            return pricing.StepResult(step.value, False, None, [], [], "injected", problem)
        return step

    monkeypatch.setattr(pricing, "solve_step", unattained)
    with pytest.raises(pricing.PricingError, match="not attained"):
        pricing.i_bar(tree_6_2, payoff_6_2_f)
    with pytest.raises(pricing.PricingError, match="not attained"):
        pricing.i_bar_backward(tree_6_2, payoff_6_2_f)
    rc, out, err = run(capsys, "price", tree_file, payoff_file, "--op", "ibar")
    assert (rc, out) == (2, "")
    assert err == "error: floored step at node 'r' not attained\n"


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


def test_decompose_past_200_doublings_of_the_hedge(capsys, tmp_path, tree_file, process_file):
    # slack 2^-210 at the root needs |h| = 2^208
    out_file = str(tmp_path / "decomp.txt")
    delta = f"1/{2**210},1/10"
    rc, _, err = run(capsys, "decompose", tree_file, process_file, "--delta", delta, "-o", out_file)
    assert rc == 0, err
    rc, out, _ = run(capsys, "verify-decomp", tree_file, process_file, out_file)
    assert rc == 0 and out.strip() == "PASS"


FLAGSHIP_DECOMPOSITION = """\
decomposition base=0
deltas 1/10,1/10
hedge t=0 at r = -4
hedge t=1 at u = 0
alpha t=0 at u = 0
alpha t=0 at-family down poly=1/10,-1,4 from=1
alpha t=1 at-family down poly=1/10 from=1
alpha t=1 at-family uptail poly=0 from=1
exception node u
exception family uptail 1-inf
"""


def test_decompose_flagship_document(capsys, tree_file, process_file):
    # the root's position comes from the walk out along its drift
    rc, out, _ = run(capsys, "decompose", tree_file, process_file, "--delta", "1/10,1/10")
    assert rc == 0 and out == FLAGSHIP_DECOMPOSITION


def test_verify_decomp_on_split_process_pieces(capsys, tmp_path, tree_file, process_file):
    # f_1's 'down' piece written as two pieces with one polynomial: the
    # decomposition of the unsplit process, one alpha piece per family, holds
    process = tmp_path / "split.txt"
    process.write_text(Path(process_file).read_text().replace(
        "at-family down poly=0,1\n",
        "at-family down poly=0,1 to=5\nat-family down poly=0,1 from=6\n", 1,
    ))
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text(FLAGSHIP_DECOMPOSITION)
    bad.write_text(FLAGSHIP_DECOMPOSITION.replace(
        "alpha t=1 at-family down poly=1/10 ", "alpha t=1 at-family down poly=1/5 "
    ))
    rc, out, _ = run(capsys, "verify-decomp", tree_file, str(process), str(good))
    assert (rc, out) == (0, "PASS\n")
    rc, out, _ = run(capsys, "verify-decomp", tree_file, str(process), str(bad))
    assert (rc, out) == (1, "FAIL: reconstruction fails on 'down' members 1..None time 2\n")


@pytest.mark.parametrize("document, line, edited", [
    ("decomposition", "alpha t=0 at u = 0", "alpha t=0 at u = -inf"),
    ("decomposition", "alpha t=0 at u = 0", "alpha t=0 at u = inf"),
    ("decomposition", "hedge t=0 at r = -4", "hedge t=0 at r = -inf"),
    ("decomposition", "deltas 1/10,1/10", "deltas -inf,1/10"),
    ("decomposition", "decomposition base=0", "decomposition base=inf"),
    ("process", "at u = 0", "at u = -inf"),
])
def test_verify_decomp_non_rational_input_exits_2(
    capsys, tmp_path, tree_file, process_file, document, line, edited
):
    # infinite entries never reach the verifier's integer identities
    paths = {"decomposition": tmp_path / "decomp.txt", "process": tmp_path / "process.txt"}
    paths["decomposition"].write_text(FLAGSHIP_DECOMPOSITION)
    paths["process"].write_text(Path(process_file).read_text())
    text = paths[document].read_text()
    assert line + "\n" in text
    paths[document].write_text(text.replace(line + "\n", edited + "\n", 1))
    rc, out, err = run(capsys, "verify-decomp", tree_file, str(paths["process"]),
                       str(paths["decomposition"]))
    assert rc == 2 and out == "" and err.startswith("error: "), (rc, out, err)


def test_verify_decomp_zero_slack_fails(capsys, tmp_path, tree_file, process_file):
    bad = tmp_path / "bad.txt"
    bad.write_text(FLAGSHIP_DECOMPOSITION.replace("deltas 1/10,1/10", "deltas 0,1/10"))
    rc, out, _ = run(capsys, "verify-decomp", tree_file, process_file, str(bad))
    assert rc == 1 and out == "FAIL: slack sequence invalid\n"


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


def test_verify_decomp_fails_on_uncovered_members(
    capsys, tmp_path, tree_file, process_file
):
    # alpha pieces of a family must cover every member from n0 to the tail
    good = tmp_path / "good.txt"
    rc, _, _ = run(
        capsys, "decompose", tree_file, process_file, "--delta", "1/10,1/10",
        "-o", str(good),
    )
    assert rc == 0
    text = good.read_text()
    edits = [
        ("alpha t=1 at-family down poly=1/10 from=1", "from=1 to=3"),
        ("alpha t=0 at-family down poly=1/10,-1,4 from=1", "from=2"),
    ]
    for line, window in edits:
        assert line in text.splitlines()
        bad = tmp_path / "bad.txt"
        bad.write_text(text.replace(line, line.replace("from=1", window)))
        rc, out, _ = run(capsys, "verify-decomp", tree_file, process_file, str(bad))
        assert rc == 1, out
        assert out.startswith("FAIL: missing compensator increments on 'down'"), out


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


DEEP = 1000  # past Python's default recursion limit


@pytest.fixture(scope="module")
def deep_chain(tmp_path_factory):
    """Documents of a horizon-1000 chain of zero increments, alone and with a
    family at every node: trees, payoffs and a constant process."""
    d = tmp_path_factory.mktemp("deep")
    ids = [f"c{k}" for k in range(DEEP + 1)]
    tree = [f"tree s0=1 horizon={DEEP}"] + [f"node {n} t={k}" for k, n in enumerate(ids)]
    tree += [f"child {a} inc=0 -> {b}" for a, b in zip(ids, ids[1:])]
    payoff = [f"payoff maturity={DEEP}", f"at {ids[-1]} = 3"]
    docs = {
        "chain": tree,
        "chain-payoff": payoff,
        "family-chain": tree + [f"family {n} poly=0,1 n0=1 id=f{k}"
                                for k, n in enumerate(ids[:-1])],
        "family-chain-payoff": payoff + [f"at-family f{k} poly=1" for k in range(DEEP)],
        "process": [f"process horizon={DEEP}"] + [
            line for k, n in enumerate(ids) for line in (f"payoff maturity={k}", f"at {n} = 2")
        ],
    }
    for name, lines in docs.items():
        (d / f"{name}.txt").write_text("\n".join(lines) + "\n")
    return d


@pytest.mark.parametrize("chain", ["chain", "family-chain"])
@pytest.mark.parametrize("op", ["sigma", "ibar"])
def test_price_on_a_deep_chain(capsys, deep_chain, chain, op):
    rc, out, _ = run(capsys, "price", str(deep_chain / f"{chain}.txt"),
                     str(deep_chain / f"{chain}-payoff.txt"), "--op", op)
    assert rc == 0 and out.startswith("3 (attained)"), out


@pytest.mark.parametrize("check", ["dual", "grid"])
def test_oracle_on_a_deep_chain(capsys, deep_chain, check):
    rc, out, _ = run(capsys, "oracle", str(deep_chain / "chain.txt"),
                     str(deep_chain / "chain-payoff.txt"), "--check", check,
                     "--bound", "1", "--step", "1/2")
    assert rc == 0 and "PASS" in out, out


def test_decompose_and_verify_a_deep_chain(capsys, deep_chain, tmp_path):
    chain, process = str(deep_chain / "chain.txt"), str(deep_chain / "process.txt")
    decomposition = str(tmp_path / "decomposition.txt")
    rc, _, err = run(capsys, "decompose", chain, process, "--delta",
                     ",".join(["1/10"] * DEEP), "-o", decomposition)
    assert rc == 0, err
    rc, out, _ = run(capsys, "verify-decomp", chain, process, decomposition)
    assert (rc, out) == (0, "PASS\n")


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


LOADED_MODULES = """
import sys
{setup}
print(" ".join(sorted(m for m in sys.modules if m.startswith("trajhedge."))))
"""


def _loaded_after(setup: str) -> list:
    """trajhedge submodules a fresh interpreter holds after running ``setup``."""
    done = _run_python("-c", LOADED_MODULES.format(setup=setup))
    assert done.returncode == 0, done.stderr
    return done.stdout.decode().split()


def test_import_loads_no_submodule():
    assert _loaded_after("import trajhedge") == []


# the package namespace, pinned: defining module -> names
PUBLIC_NAMES = {
    "analysis": "Analysis EventSet FamilyAtom NodeAtom NodeClass analyze assumption_l_ae "
                "classify_node good_nodes_by_enumeration l_status null_cover render_report",
    "decomposition": "ConvergenceReport Decomposition DecompositionError HypothesisError "
                     "convergence_report decomposition_feasible decomposition_from_hedge "
                     "doob_decompose martingale_floor_check verify_decomposition",
    "fileformat": "ParseError parse_decomposition parse_payoff parse_process parse_tree "
                  "render_decomposition render_payoff render_process render_tree",
    "model": "HedgeSequence MINUS_INF ModelError PayoffSpec ProcessSequence SimpleStrategy "
             "StoppingTime TrajectoryTree abs_payoff add_payoffs scale_payoff "
             "first_time_value_geq stopped_process stopping_indicator "
             "supermartingale_transform uniform_positions wealth wealth_on_member",
    "oracle": "MeasureSet OracleError dual_price expectation explicit_reduction "
              "grid_superhedge i_bar_lp martingale_measures",
    "poly": "Poly parse_rat rat_str",
    "pricing": "Interval PriceResult PricingError UnconvergedError check_integrable "
               "check_supermartingale i_bar i_bar_backward i_bar_backward_all "
               "indicator_payoff is_null norm_j one_step_superhedge sigma_bar sigma_bar_all "
               "sigma_bar_payoff tower_check",
}

RESOLVE_NAMES = """
import importlib, json, sys
import trajhedge
pinned = json.loads(sys.argv[1])
assert sorted(trajhedge.__all__) == sorted(n for ns in pinned.values() for n in ns)
assert set(trajhedge.__all__) <= set(dir(trajhedge))
for module, names in pinned.items():
    mod = importlib.import_module("trajhedge." + module)
    for name in names:
        assert getattr(trajhedge, name) is getattr(mod, name), name
print(len(trajhedge.__all__))
"""


def test_public_names_resolve_to_their_defining_modules():
    pinned = {module: names.split() for module, names in PUBLIC_NAMES.items()}
    done = _run_python("-c", RESOLVE_NAMES, json.dumps(pinned))
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split() == ["77"]


def test_commands_load_only_their_modules(tree_file, payoff_file):
    run_command = (
        "import contextlib, io\n"
        "from trajhedge.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main({argv!r}) == 0\n"
    )
    analyze = _loaded_after(run_command.format(argv=["analyze", tree_file]))
    price = _loaded_after(
        run_command.format(argv=["price", tree_file, payoff_file, "--op", "sigma"])
    )
    common = ["trajhedge.analysis", "trajhedge.cli", "trajhedge.fileformat",
              "trajhedge.model", "trajhedge.poly"]
    assert analyze == common
    assert price == sorted(common + ["trajhedge.lp", "trajhedge.pricing"])


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


def test_only_pricing_builds_step_problems():
    # one way to build a node's one-step problem: pricing._build_step_problem
    builders = set()
    for path in Path(trajhedge.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("StepProblem", "ScanGroup"):
                    builders.add(path.name)
    assert builders == {"pricing.py"}


@pytest.mark.parametrize("bad", ["1_0", "\u0661", "1/-2"])
def test_off_grammar_rational_arguments_exit_2(capsys, tmp_path, tree_file, process_file, bad):
    rc, out, err = run(capsys, "decompose", tree_file, process_file, "--delta", f"1/10,{bad}")
    assert rc == 2 and out == "" and "argument --delta" in err, (rc, err)
    explicit = tmp_path / "bin.txt"
    explicit.write_text("tree s0=0 horizon=1\nnode r t=0\nchild r inc=1 -> a\n"
                        "child r inc=-1 -> b\n")
    payoff = tmp_path / "f.txt"
    payoff.write_text("payoff maturity=1\nat a = 2\nat b = 0\n")
    rc, out, err = run(capsys, "oracle", str(explicit), str(payoff), "--check", "grid",
                       "--bound", bad)
    assert rc == 2 and out == "" and "argument --bound" in err, (rc, err)
    explicit.write_text(explicit.read_text().replace("inc=-1", f"inc={bad}"))
    rc, out, err = run(capsys, "classify", str(explicit))
    assert rc == 2 and out == "" and "line 4, col 1: bad rational literal" in err, err


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
    ("payoff", "at-family down poly=0,1 from=0"),
    ("payoff", "at-family down poly=0,1 from=5 to=3"),
    ("payoff", "at-family down poly=0,1 from=1\nat-family down poly=0,2 from=1"),
    ("payoff", "at-family down poly=0,1 to=4\nat-family down poly=0,2 from=3"),
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
    # the error is reported at the entry's last line
    at = 2 + len(line.splitlines())
    assert rc == 2 and f"line {at}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text,line",
    [
        # a family's cover fault: at that family's first at-family line
        ("payoff maturity=1\nat u = 0\nat-family down poly=0,1 from=2\n", 3),
        ("payoff maturity=1\nat-family down poly=0,1 to=3\nat u = 0\n", 2),
        # a node fault: at the payoff header
        ("# no up value\npayoff maturity=1\nat-family down poly=0,1\n", 2),
        # an at line for a node already valued, unknown, or not at maturity
        ("payoff maturity=1\nat u = 0\nat u = 5\nat-family down poly=0,1\n", 3),
        ("payoff maturity=1\nat u = 0\nat-family down poly=0,1\nat zz = 7\n", 4),
        ("payoff maturity=1\nat r = 3\nat u = 0\nat-family down poly=0,1\n", 2),
    ],
)
def test_payoff_fault_line(capsys, tmp_path, tree_file, text, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    rc, _, err = run(capsys, "price", tree_file, str(bad), "--op", "sigma")
    assert rc == 2 and f"line {line}," in err and "Traceback" not in err


@pytest.mark.parametrize(
    "at,text,line",
    [
        # a gap in the time-2 block's down pieces: at that block's line
        (9, "at-family down poly=0,1 from=2", 9),
        # an entry fault (a -inf value): at the failing block's header
        (5, "at u = -inf", 4),
        # a block at the wrong time: at its header
        (2, "payoff maturity=1", 2),
        # an at line for a node already valued, unknown, or not at maturity
        (3, "at r = 0\nat r = 9", 4),
        (5, "at u = 0\nat zz = 7", 6),
        (3, "at u = 0\nat r = 0", 3),
    ],
)
def test_process_fault_line(capsys, tmp_path, tree_file, at, text, line):
    lines = corpus_text("process-6-2-b.txt").splitlines()
    lines[at - 1] = text
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    rc, _, err = run(
        capsys, "decompose", tree_file, str(bad), "--delta", "1/10,1/10"
    )
    assert rc == 2 and f"line {line}," in err and "Traceback" not in err


BINARY = ["tree s0=0 horizon=1", "node r t=0", "child r inc=1 -> a", "child r inc=-1 -> b"]


@pytest.mark.parametrize(
    "lines,line,fault",
    [
        (BINARY + ["child r inc=1 -> c"], 5, "duplicate increment at node 'r'"),
        (["tree s0=0 horizon=2"] + BINARY[1:] + ["child a inc=1 -> c"], 4,
         "node 'b' at time 1 has no children"),
        (BINARY + ["node z t=1"], 5, "declared node 'z' never attached"),
        (BINARY + ["family r poly=0,1 n0=1"], 5, "collides with member n=1"),
        (["tree s0=0 horizon=-1"] + BINARY[1:], 1, "horizon must be >= 0"),
    ],
    ids=["duplicate-increment", "early-leaf", "unattached-node", "family-collision",
         "negative-horizon"],
)
def test_tree_fault_line(capsys, tmp_path, lines, line, fault):
    # reported at the line that introduced the header, node or family at fault
    bad = tmp_path / "tree.txt"
    bad.write_text("\n".join(lines) + "\n")
    rc, _, err = run(capsys, "analyze", str(bad))
    assert rc == 2 and f"line {line}, col 1: " in err and fault in err, err


def test_price_tolerance_is_rejected(capsys, tree_file, payoff_file):
    # every price is exact: there is no tolerance to set
    with pytest.raises(SystemExit) as exit_:
        main(["price", tree_file, payoff_file, "--op", "sigma", "--tolerance", "1/100"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["ba", "ab"])
def test_family_collision_found_in_either_order(capsys, tmp_path, order):
    # member 100 of 1/n^2 equals member 10 of 1/(1000n): both are 1/10000
    line = {
        "a": "family r poly=0,0,1 n0=1 id=a",
        "b": "family r poly=0,1/1000 n0=1 id=b",
    }
    bad = tmp_path / "tree.txt"
    families = "".join(line[k] + "\n" for k in order)
    bad.write_text("tree s0=1 horizon=1\nnode r t=0\n" + families)
    rc, _, err = run(capsys, "classify", str(bad))
    assert rc == 2 and "share 1/10000" in err and "Traceback" not in err


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


# lines appended to the flagship decomposition: entries at unknown nodes, and
# entries at a node of another time
STRAY_ENTRIES = ["hedge t=1 at nosuch = 5", "alpha t=0 at ghost = -3", "hedge t=0 at u = 1",
                 "alpha t=1 at u = 5", "alpha t=0 at r = -3", "hedge t=0 at r = 1",
                 "alpha t=0 at u = 2", "exception node ghost", "exception family ghost 1-inf",
                 "exception family down 5-3"]

# odd tokens beside the documents' own: bad numbers, ranges and keywords
FUZZ_EXTRA_TOKENS = ["=", "->", "x", "-", "1/0", "0/0", "inf", "-inf", "1-", "2-1",
                     "from=", "to=", "t=", "n0=0", "poly=", "poly=,", "id=", "at", "#"]


def _mutate(rng, text, pool):
    """One edit: delete, insert or replace a token, truncate or duplicate a line."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    toks = lines[i].split()
    kind = rng.randrange(5)
    if kind == 3:
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    elif kind == 4:
        lines.insert(i, lines[i])
    elif kind == 0 and toks:
        del toks[rng.randrange(len(toks))]
        lines[i] = " ".join(toks)
    elif kind == 2 and toks:
        toks[rng.randrange(len(toks))] = rng.choice(pool)
        lines[i] = " ".join(toks)
    else:
        toks.insert(rng.randrange(len(toks) + 1), rng.choice(pool))
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def test_mutated_documents_never_escape(capsys, tmp_path, tree_file, payoff_file,
                                        process_file):
    # every edit of a corpus document ends in a verdict (0 or 1) or an input
    # error (2), never in an uncaught exception
    decomp_file = str(tmp_path / "decomp.txt")
    rc, _, _ = run(capsys, "decompose", tree_file, process_file, "--delta", "1/10,1/10",
                   "-o", decomp_file)
    assert rc == 0
    files = {"decomposition": decomp_file, "payoff": payoff_file, "process": process_file,
             "tree": tree_file}
    texts = {name: Path(path).read_text() for name, path in files.items()}
    pool = sorted({tok for text in texts.values() for tok in text.split()}) + FUZZ_EXTRA_TOKENS
    rng = random.Random(20)
    codes = []
    for k in range(400):
        name = sorted(files)[k % 4]
        paths = dict(files)
        paths[name] = str(tmp_path / f"mutated-{name}.txt")
        mutated = _mutate(rng, texts[name], pool)
        Path(paths[name]).write_text(mutated)
        tree, payoff, process = paths["tree"], paths["payoff"], paths["process"]
        verify = ["verify-decomp", tree, process, paths["decomposition"]]
        commands = {
            "tree": [["analyze", tree], ["price", tree, payoff, "--op", "ibar"],
                     ["decompose", tree, process, "--delta", "1/10,1/10"], verify],
            "payoff": [["price", tree, payoff, "--op", "sigma"],
                       ["price", tree, payoff, "--op", "ibar"]],
            "process": [["decompose", tree, process, "--delta", "1/10,1/10"], verify],
            "decomposition": [verify],
        }[name]
        for argv in commands:
            try:
                rc, _, _ = run(capsys, *argv)
            except Exception as exc:  # an escape: show the edit that caused it
                pytest.fail(f"{argv[0]} raised {exc!r} on edit {k} of {name}:\n{mutated}")
            assert rc in (0, 1, 2), (k, name, argv, mutated)
            codes.append(rc)
    # the edits reach past the parsers: some still run to a verdict
    assert {0, 1, 2} <= set(codes)
    lines = len(texts["decomposition"].splitlines())
    for entry in STRAY_ENTRIES:
        stray = tmp_path / "stray.txt"
        stray.write_text(texts["decomposition"] + entry + "\n")
        rc, _, err = run(capsys, "verify-decomp", tree_file, process_file, str(stray))
        assert rc == 2 and f"line {lines + 1}, col 1: " in err, (entry, rc, err)


# argument values: good, malformed, out of range, and paths that cannot be written
FUZZ_RATIONALS = ["1/10", "1/4", "1", "0", "-1/10", "abc", "1/0", "", "inf", "1e3",
                  " 2 ", "3/-4", "0x10"]


def test_mutated_arguments_never_escape(capsys, tmp_path, tree_file, payoff_file,
                                        process_file):
    # every command line ends in a verdict (0 or 1) or an input error (2), never
    # in an uncaught exception
    explicit = tmp_path / "bin.txt"
    explicit.write_text(
        "tree s0=0 horizon=1\nnode r t=0\nnode a t=1\nnode b t=1\n"
        "child r inc=1 -> a\nchild r inc=-1 -> b\n"
    )
    explicit_payoff = tmp_path / "f.txt"
    explicit_payoff.write_text("payoff maturity=1\nat a = 2\nat b = 0\n")
    outputs = [str(tmp_path / "out.txt"), str(tmp_path), str(tmp_path / "no" / "x.txt"), ""]
    rng = random.Random(21)
    codes = []
    for k in range(120):
        kind = k % 3
        if kind == 0:
            delta = ",".join(rng.choice(FUZZ_RATIONALS) for _ in range(rng.randint(1, 3)))
            argv = ["decompose", tree_file, process_file, "--delta", delta]
            argv += ["-o", rng.choice(outputs)] if rng.random() < 0.5 else []
        elif kind == 1:
            argv = ["oracle", str(explicit), str(explicit_payoff), "--check", "grid",
                    "--bound", rng.choice(FUZZ_RATIONALS),
                    "--step", rng.choice(FUZZ_RATIONALS)]
        else:
            argv = ["price", tree_file, payoff_file, "--op", rng.choice(["sigma", "ibar"]),
                    "--node", rng.choice(["r", "u", "nosuch", ""])]
        try:
            rc, _, err = run(capsys, *argv)
        except SystemExit as exc:  # argparse's own usage error
            rc, err = exc.code, capsys.readouterr().err
        except Exception as exc:  # an escape: show the command line that caused it
            pytest.fail(f"{argv} raised {exc!r}")
        assert rc in (0, 1, 2) and "Traceback" not in err, (argv, rc, err)
        codes.append(rc)
    assert {0, 2} <= set(codes)
