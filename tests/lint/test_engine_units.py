"""Engine/context behaviors the rules rely on, pinned against the repo's idioms."""

from __future__ import annotations

from repro.lint import lint_source
from repro.lint.context import ModuleContext


def test_nested_def_belongs_to_enclosing_function():
    """The run_in_executor pattern: a nested closure's calls count as part
    of the enclosing function's unit, which gets no unit of its own."""
    source = (
        "import os\n"
        "def publish(tmp, final):\n"
        "    def commit():\n"
        "        os.fsync(3)\n"
        "    commit()\n"
    )
    ctx = ModuleContext("repro/serving/x.py", source)
    units = {unit.qualname: unit for unit in ctx.function_units()}
    assert "publish.commit" not in units
    called = {ctx.qualified(call.func) for call in units["publish"].calls()}
    assert "os.fsync" in called


def test_blocking_call_inside_executor_closure_is_exempt():
    """REP-A401 analyses only the *direct* async body: a nested def shipped
    to an executor may block freely."""
    source = (
        "import asyncio\n"
        "import os\n"
        "async def handler(path):\n"
        "    loop = asyncio.get_running_loop()\n"
        "    def swap():\n"
        "        os.fsync(3)\n"
        "    await loop.run_in_executor(None, swap)\n"
    )
    assert lint_source(source, path="repro/serving/x.py", rules=["REP-A401"]) == []


def test_nested_async_def_gets_its_own_unit():
    source = (
        "import time\n"
        "def make_handler():\n"
        "    async def handler():\n"
        "        time.sleep(1)\n"
        "    return handler\n"
    )
    hits = lint_source(source, path="repro/serving/x.py", rules=["REP-A401"])
    assert [f.line for f in hits] == [4]
    assert hits[0].symbol.endswith("handler")


def test_shutdown_wait_false_not_flagged():
    source = (
        "async def close(pool):\n"
        "    pool.shutdown(wait=False)\n"
    )
    assert lint_source(source, path="repro/serving/x.py", rules=["REP-A401"]) == []
    blocking = source.replace("wait=False", "wait=True")
    assert len(lint_source(blocking, path="repro/serving/x.py", rules=["REP-A401"])) == 1


def test_cache_guard_resolves_setattr_with_module_constant():
    """hetero/sparse-style: setattr(m, _TOKEN, v) where _TOKEN is a module
    string constant naming a _repro_* attribute."""
    source = (
        "_TOKEN = '_repro_cache_token'\n"
        "def stamp(matrix, value):\n"
        "    setattr(matrix, _TOKEN, value)\n"
    )
    hits = lint_source(source, rules=["REP-C301"])
    assert [f.line for f in hits] == [3]
    guarded = (
        "from repro.hetero.sparse import validate_attribute_caches\n"
        "_TOKEN = '_repro_cache_token'\n"
        "def stamp(matrix, value):\n"
        "    validate_attribute_caches(matrix)\n"
        "    setattr(matrix, _TOKEN, value)\n"
    )
    assert lint_source(guarded, rules=["REP-C301"]) == []


def test_import_alias_resolution():
    """numpy aliased to anything still resolves for the determinism rules."""
    source = "import numpy.random as nr\nrng = nr.default_rng()\n"
    assert len(lint_source(source, rules=["REP-D101"])) == 1
    source = "from numpy.random import default_rng\nrng = default_rng()\n"
    assert len(lint_source(source, rules=["REP-D101"])) == 1


def test_broad_except_with_handling_not_flagged():
    source = (
        "def run(task):\n"
        "    try:\n"
        "        task()\n"
        "    except Exception as exc:\n"
        "        print(exc)\n"
        "        raise\n"
    )
    assert lint_source(source, rules=["REP-E601"]) == []
    bare = (
        "def run(task):\n"
        "    try:\n"
        "        task()\n"
        "    except:\n"
        "        pass\n"
    )
    assert len(lint_source(bare, rules=["REP-E601"])) == 1


def test_sorted_set_iteration_is_clean():
    source = "def order(xs):\n    return [x for x in sorted(set(xs))]\n"
    assert lint_source(source, path="repro/core/x.py", rules=["REP-D102"]) == []
    raw = "def order(xs):\n    return [x for x in set(xs)]\n"
    assert len(lint_source(raw, path="repro/core/x.py", rules=["REP-D102"])) == 1


def test_stable_hashlib_seed_is_clean():
    source = (
        "import hashlib\n"
        "import numpy as np\n"
        "def rng_for(name):\n"
        "    seed = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], 'big')\n"
        "    return np.random.default_rng(seed)\n"
    )
    assert lint_source(source, rules=["REP-D103"]) == []


def test_unstable_seed_via_keyword():
    source = (
        "from repro.utils.rng import ensure_rng\n"
        "import time\n"
        "rng = ensure_rng(seed=int(time.time()))\n"
    )
    hits = lint_source(source, rules=["REP-D103"])
    assert len(hits) == 1 and "time.time" in hits[0].message


def test_symbol_attribution_uses_qualnames():
    source = (
        "import numpy as np\n"
        "class Store:\n"
        "    def pick(self):\n"
        "        return np.random.default_rng()\n"
    )
    hits = lint_source(source, rules=["REP-D101"])
    assert hits[0].symbol == "Store.pick"


def test_module_level_findings_report_module_symbol():
    hits = lint_source("import numpy as np\nr = np.random.default_rng()\n", rules=["REP-D101"])
    assert hits[0].symbol == "<module>"


def test_module_context_helpers():
    ctx = ModuleContext(
        "pkg/mod.py",
        "import numpy as np\nNAME = 'value'\nx = np.zeros(3)\n",
    )
    import ast

    call = next(n for n in ast.walk(ctx.tree) if isinstance(n, ast.Call))
    assert ctx.qualified(call.func) == "numpy.zeros"
    assert ctx.constants["NAME"] == "value"
    assert ctx.line_text(2) == "NAME = 'value'"
    assert ctx.line_text(99) == ""


def test_process_pool_submission_shapes():
    bad = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def run(items):\n"
        "    def local(x):\n"
        "        return x\n"
        "    pool = ProcessPoolExecutor()\n"
        "    return pool.submit(local, items)\n"
    )
    hits = lint_source(bad, rules=["REP-P501"])
    assert len(hits) == 1 and "local" in hits[0].message
    # thread pools may take closures — only process pools are flagged
    threads = bad.replace("ProcessPoolExecutor", "ThreadPoolExecutor")
    assert lint_source(threads, rules=["REP-P501"]) == []
