"""The benchmark's traced run patches mevforge at fixed module attributes;
every one of them must still exist, or the traced run breaks silently."""

import importlib
import importlib.util
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


def load_traced_cli():
    spec = importlib.util.spec_from_file_location("perfbench_traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_cli_wraps_resolve():
    traced_cli = load_traced_cli()
    importlib.import_module("mevforge.cli")
    missing = [
        f"{module_name}.{attribute}"
        for module_name, attribute, _span, _kind in traced_cli.WRAPS
        if not callable(getattr(importlib.import_module(module_name), attribute, None))
    ]
    assert missing == []
