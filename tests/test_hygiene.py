import ast
import hashlib
import importlib
import inspect
import os
from pathlib import Path
import re
import string
import subprocess
import sys

import pytest

from besselcert import oracle
import path_share
import same_outputs
import src_lines

SRC = Path(__file__).resolve().parent.parent / "src" / "besselcert"
TREES = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _reads(tree) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_import_is_used():
    for name, tree in TREES.items():
        if name == "__init__.py":  # its imports are the public re-exports
            continue
        imported = {(a.asname or a.name).split(".")[0] for n in tree.body
                    if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
        assert imported <= _reads(tree), f"{name}: unused {sorted(imported - _reads(tree))}"


def test_every_top_level_name_is_referenced():
    refs = set().union(*map(_reads, TREES.values()))
    for tree in TREES.values():
        refs |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        refs |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    for name, tree in TREES.items():
        defined = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        defined |= {t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets
                    if isinstance(t, ast.Name) and not t.id.startswith("__")}
        assert defined <= refs, f"{name}: unreferenced {sorted(defined - refs)}"


def test_no_module_imports_decimal_or_names_its_contexts():
    # at most one decimal Context, and now none: the oracle runs on integers
    # alone, no module imports decimal, so no context exists whose precision
    # or rounding could move a result, and none reads or swaps the thread's
    # current one
    banned = {"getcontext", "setcontext", "localcontext"}
    for name, tree in TREES.items():
        imported = {a.name.split(".")[0] for n in ast.walk(tree) if isinstance(n, ast.Import)
                    for a in n.names}
        imported |= {(n.module or "").split(".")[0] for n in ast.walk(tree)
                     if isinstance(n, ast.ImportFrom)}
        assert "decimal" not in imported, name
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        used |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not used & banned, f"{name}: {sorted(used & banned)}"


def test_oracle_evaluations_are_integer_only():
    # the prefactor, Gamma, the ln/exp tables, the series and the Bernoulli
    # numbers run on integers: no oracle function names a Decimal, a decimal
    # context or a Fraction
    names = {f.name: _reads(f) for f in ast.walk(TREES["oracle.py"])
             if isinstance(f, ast.FunctionDef)}
    assert not {f for f, r in names.items() if r & {"Decimal", "Context", "_CTX", "Fraction"}}


def test_import_loads_neither_fractions_nor_decimal():
    # fractions imports decimal, and the pair costs every process a few ms
    # at start; the package needs neither
    out = subprocess.run(
        [sys.executable, "-c",
         "import besselcert, sys; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)}, capture_output=True, text=True,
        check=True)
    assert out.stdout.strip() == "[]"


def _domain_raises(tree) -> dict[str, int]:
    # function qualname -> number of `raise DomainError(...)` in its body
    counts: dict[str, int] = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}{child.name}.")
            elif (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                  and getattr(child.exc.func, "id", None) == "DomainError"):
                name = prefix.rstrip(".")
                counts[name] = counts.get(name, 0) + 1
            else:
                visit(child, prefix)

    visit(tree, "")
    return counts


def test_domain_errors_come_from_the_declared_tables():
    # every domain is a table of (predicate, message) rules read by
    # oracle.check_domain, an unknown name's refusal included; an inline
    # raise is only for a refusal that depends on a computed value
    allowed = {
        ("oracle.py", "check_domain"): 1,
        # computed values: J vanishing or non-finite J'/J, J <= 0 before the
        # first zero, a grid with no admissible point (for every caller of
        # scan_rows, the CLI and the verify_* reports among them)
        ("bounds.py", "bound_log_derivative"): 2,
        ("bounds.py", "bound_near_first_zero"): 1,
        ("scan.py", "scan_rows"): 1,
    }
    found = {(name, fn): n for name, tree in TREES.items()
             for fn, n in _domain_raises(tree).items()}
    assert found == allowed


def test_check_domain_is_the_only_reader_of_a_rule_list():
    # no module subscripts a _DOMAINS table: oracle.check_domain, handed the
    # table, walks an entry's rules, and no second walk can drift from it
    readers = [(name, ast.unparse(n)) for name, tree in TREES.items() for n in ast.walk(tree)
               if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)
               and n.value.id == "_DOMAINS"]
    assert readers == []


def test_no_domain_rule_runs_a_search():
    # a rule is a predicate on its arguments: no lambda in a _DOMAINS
    # literal, nor any function of its module that such a lambda reaches,
    # reads a root search
    searches = {"refine_root", "refine_airy_zero", "refine_bessel_zero"}
    found = set()
    for name, tree in TREES.items():
        functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        tables = [n.value for n in tree.body if isinstance(n, ast.Assign)
                  and any(getattr(t, "id", None) == "_DOMAINS" for t in n.targets)]
        todo = [n for table in tables for n in ast.walk(table) if isinstance(n, ast.Lambda)]
        named = set()
        while todo:
            reads = _reads(todo.pop())
            found |= {(name, search) for search in reads & searches}
            todo += [functions[f] for f in reads & functions.keys() - named]
            named |= reads & functions.keys()
    assert sorted(found) == []


def test_domain_messages_format_with_their_rules_arguments():
    # check_domain formats each message with the call's arguments: every
    # message must parse as a format string whose fields are positional
    # indices below the number of arguments its rule's predicate takes
    fields = 0
    for name in TREES.keys() - {"__init__.py"}:
        module = importlib.import_module(f"besselcert.{Path(name).stem}")
        for entry, rules in getattr(module, "_DOMAINS", {}).items():
            for ok, message in rules:
                arity = sum(p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
                            for p in inspect.signature(ok).parameters.values())
                for _, field, _, _ in string.Formatter().parse(message):
                    if field is not None:
                        index = field.split(".")[0].split("[")[0]
                        assert index.isdigit() and int(index) < arity, (name, entry, message)
                        fields += 1
    assert fields == 8  # the unknown-name rules quote the name they refuse


@pytest.mark.parametrize("module, table", [
    ("approx", "_AIRY_MODES"), ("scan", "_SPACINGS"), ("zeros", "_ZERO_MODES"),
    ("bounds", "_SONIN"), ("zeros", "_FAMILIES")],
    ids=["_AIRY_MODES", "_SPACINGS", "_ZERO_MODES", "_SONIN", "_FAMILIES"])
def test_no_variant_is_dispatched_on_by_name(module, table):
    # each variant family reads a variant's rules and form from its row of
    # the table: no src/ comparison names a variant, so a new one is one row
    keys = getattr(importlib.import_module(f"besselcert.{module}"), table)
    compares = [(name, ast.unparse(n)) for name, tree in TREES.items() for n in ast.walk(tree)
                if isinstance(n, ast.Compare)
                and any(isinstance(c, ast.Constant) and isinstance(c.value, str)
                        and c.value in keys for c in (n.left, *n.comparators))]
    assert compares == []


def test_every_reader_of_omega_is_pinned():
    # a public function that reads .omega, itself or through a private
    # helper (olenko_sup through _signed_gap), is called at Order(1e308),
    # where omega is inf, by test_domains.py: a new reader fails here until
    # it is pinned there
    functions = {f.name: f for tree in TREES.values() for f in tree.body
                 if isinstance(f, ast.FunctionDef)}
    attrs = {name: {n.attr for n in ast.walk(f) if isinstance(n, ast.Attribute)}
             for name, f in functions.items()}
    readers, found = set(), {name for name in functions if "omega" in attrs[name]}
    while found:  # the callers of each private reader found so far
        readers |= found
        helpers = {name for name in found if name.startswith("_")}
        found = {name for name, f in functions.items()
                 if name not in readers and helpers & (_reads(f) | attrs[name])}
    tree = ast.parse((SRC.parents[1] / "tests" / "test_domains.py").read_text())
    test = next(f for f in tree.body if isinstance(f, ast.FunctionDef)
                and f.name == "test_every_reader_of_omega_refuses_where_it_is_infinite")
    pinned = {c.value.split("(")[0] for d in test.decorator_list for c in ast.walk(d)
              if isinstance(c, ast.Constant) and "(Order(1e308)" in str(c.value)}
    public = {name for name in readers if not name.startswith("_")}
    assert {"classic_oscillatory", "olenko_sup"} <= public  # directly, through _signed_gap
    assert public <= pinned, sorted(public - pinned)


def test_no_index_bisection_loop():
    # every search refines on a bracket or a Sturm cell with refine_root:
    # no src/ function keeps a grid-index bisection loop (tests/full_walk.py
    # keeps the reference's own copy)
    loops = [(name, fn.name) for name, tree in TREES.items()
             for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for n in ast.walk(fn) if isinstance(n, ast.While)
             and ast.unparse(n.test) == "hi - lo > 1"]
    assert loops == []


def test_one_bisection_descent():
    # refine_root descends to the secant iterate's cell and to the final
    # cell through one function: bisection's stop rule "mid <= lo or
    # mid >= hi", under any names, is written in oracle._cell alone
    stops = [(name, fn.name) for name, tree in TREES.items()
             for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for n in ast.walk(fn) if isinstance(n, ast.BoolOp)
             and re.search(r"\bmid <= \w+ or mid >= \w+\b", ast.unparse(n))]
    assert stops == [("oracle.py", "_cell")]


def test_no_search_bisects_a_grid():
    # the Airy zeros and crests refine on certified brackets, the leftmost
    # maxima on [floor, hi] and the Bessel zeros on their Sturm cells: no
    # src/ module defines, imports, calls or names _bisect_grid
    assert not [name for name, tree in TREES.items() if "_bisect_grid" in ast.unparse(tree)]


def test_hankel_path_is_integer_only():
    # Hankel's expansion keeps the oracle's one arithmetic: its helpers name
    # no float function or constant of math and hold no float literal or
    # division; its one float step is _j_series_fixed's conversion of the
    # enclosure's midpoint and radius, integers over 2^_FB, to doubles
    functions = {f.name: f for f in ast.walk(TREES["oracle.py"]) if isinstance(f, ast.FunctionDef)}
    banned = {"sin", "cos", "sqrt", "pi", "log", "exp"}
    for name in ("_j_hankel", "_cos_sin", "_taylor"):
        tree = functions[name]
        named = _reads(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert not named & banned, f"{name}: {sorted(named & banned)}"
        assert not [n for n in ast.walk(tree) if isinstance(n, ast.Div)
                    or isinstance(n, ast.Constant) and isinstance(n.value, float)], name
    divisors = [ast.unparse(n.right) for n in ast.walk(functions["_j_series_fixed"])
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)]
    assert divisors.count("1 << _FB") == 2


def test_same_outputs_call_list_resolves():
    # tools/same_outputs.py is the same-outputs check: walk its call list,
    # calling nothing, so that a renamed function or CLI flag fails here
    # rather than turning the dump's lines into refusals
    from besselcert import cli, scan
    parser = cli._build_parser()
    argvs = 0
    for name, f, *args in same_outputs._calls():
        if name == "cli":
            parser.parse_args(args[0])  # argparse exits on an argv it cannot parse
            argvs += 1
        else:
            assert f.__name__ == name, (name, f)
    assert set(same_outputs.BOUNDS_ARGV) == {n for n in scan._BOUNDS if n not in scan._SONIN}
    assert argvs == 2 * len(same_outputs.BOUNDS_ARGV) + 1 + len(same_outputs.CLI_ARGV)
    # every subcommand runs, and every Sonin subject is scanned
    commands = next(a for a in parser._actions if a.dest == "cmd").choices
    assert {"bounds"} | {argv.split()[0] for argv in same_outputs.CLI_ARGV} == set(commands)
    assert set(scan._SONIN) <= {argv.split()[2] for argv in same_outputs.CLI_ARGV
                                if argv.startswith("scan ")}


def test_same_outputs_expect_gates_on_the_sha(monkeypatch, capsys):
    # --expect compares the dump's sha256 with a prefix: 0 on a match, and 1
    # with both hashes on stderr on a mismatch; one stubbed call keeps it fast
    monkeypatch.setattr(same_outputs, "_calls", lambda: iter([("abs", abs, -0.5)]))
    sha = hashlib.sha256(b"abs(-0.5,): 0x1.0000000000000p-1\n").hexdigest()
    assert same_outputs.main(["--expect", sha[:16].upper()]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"lines 1 sha256 {sha}"
    assert same_outputs.main(["--expect", "0123abcd"]) == 1
    assert capsys.readouterr().err == f"sha256 mismatch: expected 0123abcd..., got {sha}\n"
    assert same_outputs.main([]) == 0
    # an empty prefix would match every sha, and a non-hex one none
    for prefix in ("", "c5cec74g"):
        with pytest.raises(SystemExit) as refused:
            same_outputs.main(["--expect", prefix])
        assert refused.value.code == 2
        assert "not a hex prefix" in capsys.readouterr().err


def test_same_outputs_dump_is_pinned(capsys):
    # the dump of tools/same_outputs.py, in-process: moving any of its lines
    # fails here rather than waiting on a sha quoted by hand.  A change that
    # moves outputs on purpose re-pins the sha and lists the moved lines, as
    # the golden CLI digests do
    assert same_outputs.main(["--expect", "cea6236782a77649"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("lines 5166 sha256 cea6236782a77649")


def test_search_calls_calls_only_public_names():
    # tools/search_calls.py quotes counts before and after a change, so it
    # drives the searches through besselcert.__all__ alone; its counting
    # hooks, named here, rebind refine_root and olenko_sup's reads of R and
    # read the series cache
    import besselcert
    tree = ast.parse((SRC.parents[1] / "tools" / "search_calls.py").read_text())
    modules = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
               and n.module == "besselcert" for a in n.names}
    read = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            read.setdefault(n.value.id, set()).add(n.attr)
    assert read["bc"] <= set(besselcert.__all__), sorted(read["bc"] - set(besselcert.__all__))
    hooks = set().union(*(read.get(m, set()) for m in modules))
    assert hooks == {"_j_series_fixed", "refine_root", "_signed_gap"}
    assert all(hasattr(getattr(besselcert, m), h) for m in modules for h in read.get(m, ()))


def test_every_memo_is_named():
    # a memo decorates exactly these functions, each for the traffic it
    # carried on perfbench's seed-1 op lists; a new memo arrives with its own
    memos = {(name, fn.name) for name, tree in TREES.items() for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any("cache" in ast.unparse(d) for d in fn.decorator_list)}
    assert memos == {
        ("oracle.py", "_ln_small"),  # table fill: ln h, 316 to 505 entries per workload
        ("oracle.py", "_exp_table"),  # table fill: exp(i/256), 178 entries
        ("oracle.py", "_ln_gamma"),  # ln Gamma per order: 3056 hits, 110 misses on grid_certify
        # the series results: 14772 hits, 2574 misses on grid_certify
        ("oracle.py", "_j_series_fixed"),
        ("bounds.py", "_gauss_legendre"),  # table fill: one node set
    }


def test_the_airy_zeta_is_formed_once():
    # both Airy evaluators read zeta, its charges and their J from _airy_js
    tree = TREES["oracle.py"]
    zetas = [n for n in ast.walk(tree) if ast.unparse(n) == "2 * x ** 1.5 / 3"]
    assert len(zetas) == 1, f"zeta is formed {len(zetas)} times"
    helper = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_airy_js")
    assert zetas[0] in list(ast.walk(helper))


def test_src_lines_parts_sum_to_each_files_lines():
    # tools/src_lines.py counts each line once: its code, docstring,
    # comment and blank counts add up to the file's lines
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        assert sum(src_lines.line_kinds(source).values()) == len(source.splitlines()), path.name
    sample = ('"""Module doc.\n\nmore."""\n\n# a comment\nx = 1  # after code\n'
              'def f():\n    """Doc."""\n    s = """\n# in a string\n"""\n    return s\n')
    assert src_lines.line_kinds(sample) == {"code": 6, "docstring": 4, "comment": 1, "blank": 1}


def test_path_share_counts_each_miss_by_caller_band_and_exit():
    # tools/path_share.py on three calls: public J at an order whose Hankel
    # terms pass the growth cap, public J below x = 100, and Ai(-100), whose
    # two J at zeta = 666.7 pass Ziv's test; the wrapped oracle is restored
    hankel = oracle._j_hankel
    ops = [("j", 130.0, 150.0), ("j", 5.0, 50.0), ("ai", 100.0)]
    counts, failed = path_share.path_counts(ops)
    assert failed == 0
    assert counts == {("public", "(100, 200]", "series"): 1, ("public", "<= 100", "series"): 1,
                      ("airy", "> 200", "ziv"): 2}
    assert oracle._j_hankel is hankel
    assert path_share.path_counts(ops)[0] == counts  # the cache is cleared first
