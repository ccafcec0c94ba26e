"""One traced ``repro sum`` request in a fresh interpreter.

Usage: ``python -X importtime perfbench/cli_child.py SPANS.json ARGV...``

The layer wrappers and an import hook go in before ``repro.cli`` is
imported: every import statement that loads a module becomes an
``import`` span (wherever it runs, so lazy imports inside a request are
counted too), and each target module is wrapped as soon as it is fully
loaded.  ``repro.cli.main(ARGV)`` then runs as usual; its spans are
written to ``SPANS.json`` when it returns.
"""

from __future__ import annotations

import builtins
import sys
import time

from layers import IMPORT_LAYER, Recorder


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.begin_request()
    name = rec.name_code("import")
    original = builtins.__import__
    clock = time.perf_counter

    def traced_import(*args, **kwargs):
        before = len(sys.modules)
        sid, parent = rec.open()
        t0 = clock()
        try:
            return original(*args, **kwargs)
        finally:
            t1 = clock()
            loaded = len(sys.modules) != before
            # A failed optional import is the importer's control flow,
            # not a layer error, so import spans never count errors.
            rec.close(sid, parent, IMPORT_LAYER, name, t0, t1, 0, 0, keep=loaded)
            if loaded:
                rec.patch_loaded()

    builtins.__import__ = traced_import
    try:
        import repro.cli

        rc = repro.cli.main(argv)
    finally:
        builtins.__import__ = original
        rec.save(spans_out)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
