"""The names and call signatures of sqglab that the benchmark harness in
perfbench/ relies on.  The tracer skips a name it cannot find without a word,
so a rename would silently drop a per-layer span; a probe whose call no
longer fits its function would fail only when the benchmark runs.  The
tracer also spans only the module-level names it rebinds, so a layer whose
callers reach its work through another function drops its metric although
every name still exists."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_by_path(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_spanned_names_exist():
    tracer = load_by_path("tracer")
    missing = [
        f"{modname}.{fname}"
        for modname, names in tracer.SPANNED.items()
        for fname in names
        if not callable(getattr(importlib.import_module(modname), fname, None))
    ]
    assert missing == []
    # the tracer counts the modulus omega(params, s) by name
    modulus = importlib.import_module("sqglab.modulus")
    inspect.signature(modulus.omega).bind("params", "s")


def sqglab_uses(tree):
    """(module, attribute, call or None) for each `module.attribute` of a
    sqglab module imported as `from sqglab import module`."""
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "sqglab"
        for alias in node.names
    }
    calls = {
        id(node.func): node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            yield node.value.id, node.attr, calls.get(id(node))


def test_probe_calls_fit_their_signatures():
    tree = ast.parse((PERFBENCH / "probes.py").read_text(encoding="utf-8"))
    uses = list(sqglab_uses(tree))
    assert {(m, a) for m, a, _ in uses} >= {
        ("modulus", "Omega_B_with_error"),
        ("modulus", "M_B_with_error"),
        ("modulus", "verify_inequality"),
        ("modulus", "empirical_modulus"),
        ("modulus", "choose_B"),
    }
    for modname, attr, call in uses:
        obj = getattr(importlib.import_module(f"sqglab.{modname}"), attr, None)
        assert obj is not None, f"{modname}.{attr} is gone"
        if call is None:
            continue
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(k.arg is not None for k in call.keywords)
        where = f"{modname}.{attr} at probes.py line {call.lineno}"
        try:
            inspect.signature(obj).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            raise AssertionError(f"{where}: {exc}") from None


def test_probe_fallbacks_report_every_metric(tmp_path, monkeypatch):
    # probes.py and run.py import their siblings by plain name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer, probes, run = (load_by_path(name) for name in ("tracer", "probes", "run"))
    case = probes.Case(24, 2, 10.0, 0, tmp_path)
    calls = [make(case) for make in dict.fromkeys(probes.FALLBACKS.values())]
    trace = tracer.Tracer()
    trace.install()
    try:
        for call in calls:
            call()
    finally:
        trace.uninstall()
    metrics = run.span_metrics(
        {"spans": trace.spans, "counts": trace.counts, "results": trace.results, "import_s": 0.0}
    )
    assert sorted(set(probes.FALLBACKS) - set(metrics)) == []
    # the dense rightmost_eigenpair(K=4) of the shear is the one assembly:
    # a span inside the eigensolve's span, of dimension M = 80
    names = [span[0] for span in trace.spans]
    assembly = [span for span in trace.spans if span[0] == "linop.assemble_dense"]
    assert len(assembly) == 1
    assert names[assembly[0][3]] == "linop.rightmost_eigenpair"
    assert trace.counts["linop.dense_dim"] == 80


def test_traced_verify_inequality_spans_one_M_B_call():
    # M_B takes the whole xi grid: one span, inside verify_inequality's
    tracer = load_by_path("tracer")
    modulus = importlib.import_module("sqglab.modulus")
    trace = tracer.Tracer()
    trace.install()
    try:
        modulus.verify_inequality(modulus.ModulusParams(B=86.73617379884035), (2e-4, 2e-4))
    finally:
        trace.uninstall()
    names = [span[0] for span in trace.spans]
    dissipation = [span for span in trace.spans if span[0] == "modulus.M_B_with_error"]
    assert len(dissipation) == 1
    assert names[dissipation[0][3]] == "modulus.verify_inequality"


def test_traced_instability_spans_every_run(tmp_path):
    # cli looks run_perturbation up when its loop starts, after the tracer
    # rebinds it: one span and one record per epsilon
    tracer = load_by_path("tracer")
    cli = importlib.import_module("sqglab.cli")
    config = tmp_path / "run.ini"
    config.write_text(
        "[grid]\nn = 16\n[steady]\nkind = shear\nm = 2\namplitude = 10.0\n"
        "[experiment]\nepsilons = 1e-2,1e-3,1e-4,1e-5\nthreshold = 0.1\n"
    )
    trace = tracer.Tracer()
    trace.install()
    try:
        code = cli.main(["instability", "--config", str(config), "--out", str(tmp_path / "o"),
                         "--jobs", "1"])
    finally:
        trace.uninstall()
    assert code == 0
    names = [span[0] for span in trace.spans]
    runs = [span for span in trace.spans if span[0] == "growth.run_perturbation"]
    assert len(runs) == 4
    assert all(names[span[3]] == "cli.cmd_instability" for span in runs)
    assert len(trace.results["records"]) == 4
