"""FreeHGC reproduction: training-free heterogeneous graph condensation.

A pure-Python (NumPy/SciPy) reproduction of *"Training-free Heterogeneous
Graph Condensation via Data Selection"* (ICDE 2025), including the FreeHGC
algorithm, every baseline it is compared against, the heterogeneous-graph
and neural-network substrates it needs, and an evaluation pipeline that
regenerates the paper's tables and figures.

Typical usage — the one-call facade::

    import repro

    condensed = repro.condense("acm", ratio=0.024, max_hops=3)

or the explicit pipeline::

    from repro.datasets import load_acm
    from repro.core import FreeHGC
    from repro.models import SeHGNN

    graph = load_acm(scale=0.5, seed=0)
    condensed = FreeHGC(max_hops=3).condense(graph, ratio=0.024, seed=0)
    model = SeHGNN(hidden_dim=64)
    model.fit(condensed)
    print("accuracy on the full graph:", model.evaluate(graph))

Every pluggable component (condensers, stage strategies, models, datasets)
is resolvable by name through :mod:`repro.registry`, and the paper's tables
are reproduced with the parallel, resumable experiment runner::

    python -m repro sweep --dataset acm --ratios 0.01,0.05 --workers 4

(see :mod:`repro.runner` and ``docs/reproduce.md``).

Examples
--------
>>> import repro
>>> isinstance(repro.__version__, str)
True
>>> "freehgc" in repro.registry.condensers
True
"""

from repro import registry
from repro._lazy import lazy_exports
from repro.errors import (
    BudgetError,
    CondensationError,
    ConfigurationError,
    DatasetError,
    GraphConstructionError,
    ModelError,
    RegistryError,
    ReproError,
    SchemaError,
)

__version__ = "1.2.0"

# The facade, the condenser and the graph types load on first access
# (PEP 562), so importing any ``repro`` submodule stays cheap.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.api": ("condense",),
        "repro.core": ("FreeHGC", "CondensationContext"),
        "repro.hetero": ("HeteroGraph", "HeteroGraphBuilder", "HeteroSchema", "Relation"),
    },
)

__all__ = [
    "condense",
    "registry",
    "FreeHGC",
    "CondensationContext",
    "HeteroGraph",
    "HeteroGraphBuilder",
    "HeteroSchema",
    "Relation",
    "ReproError",
    "SchemaError",
    "GraphConstructionError",
    "BudgetError",
    "CondensationError",
    "ConfigurationError",
    "DatasetError",
    "ModelError",
    "RegistryError",
    "__version__",
]
