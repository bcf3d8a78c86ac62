"""The benchmark's span tracer binds quadlik names from outside the package.

A name it binds that the package no longer has fails here, not only in a
traced benchmark run.
"""

import sys

from conftest import load_tracing

import quadlik
import quadlik.cli  # noqa: F401  (the tracer patches the cli layer too)


def bindings() -> dict:
    """Every attribute of every quadlik module, and of every class defined in
    quadlik, keyed by where it is bound."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "quadlik" and not name.startswith("quadlik."):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__.startswith("quadlik"):
                for member, bound in vars(value).items():
                    out[name, attr, member] = bound
    return out


def test_install_wraps_every_traced_name_and_uninstall_restores_it():
    tracing = load_tracing()
    before = bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        installed = bindings()
    finally:
        tracer.uninstall()
    after = bindings()

    traced = [(layer, attr) for layer, attr, _ in tracing.FUNCTIONS]
    traced += [(layer, attr) for layer, attr, _ in tracing.FACTORIES]
    traced.append(("parallel", "parallel_map"))
    for layer, attr in traced:
        key = (f"quadlik.{layer}", attr)
        assert key in before, f"the tracer binds quadlik.{layer}.{attr}, which does not exist"
        assert installed[key] is not before[key], f"quadlik.{layer}.{attr} was not wrapped"
    assert installed[("quadlik.core", "LikModel", "objective")] is not before[("quadlik.core", "LikModel", "objective")]

    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
