"""Static analysis for the repro codebase: one registry, one CLI.

``python -m repro.staticcheck src/repro`` runs every registered checker
over every file, whole-program, against the committed baseline.
Syntactic rules (:mod:`repro.staticcheck.rules`) match single AST
nodes:

``typed-errors``
    Raise :class:`~repro.errors.ReproError` subclasses, never bare
    builtins, so callers can catch one base class.
``pm-direct-write``
    Only sanctioned modules may write the PM device directly; everything
    else must go through the cache hierarchy or an accessor, or PaxSan
    (and the paper's write-interposition argument) loses visibility.
``sim-determinism``
    No wall-clock or ambient randomness in simulation code; time comes
    from ``sim.clock`` and randomness from ``sim.rng``.
``mutable-default``
    No mutable default arguments.
``hot-path-stat-lookup`` / ``hot-path-counter-call``
    No by-name stat lookups or ``Counter.add`` frames in the methods
    that run once per simulated access.

Flow checkers (:mod:`repro.staticcheck.checkers`) build a per-function
CFG (:mod:`repro.staticcheck.cfg`), run forward dataflow over it
(:mod:`repro.staticcheck.dataflow`), and consult a module-level call
graph (:mod:`repro.staticcheck.callgraph`) and per-function summaries
(:mod:`repro.staticcheck.interproc`):

``persist-order``
    Accessor stores in ``structures/`` / ``baselines/`` must be
    dominated by an open tx/persist gate on **all** paths — the static
    counterpart of PaxSan's dynamic ``san-missing-undo``.
``det-taint``
    Wall-clock / entropy / iteration-order values must not *flow* into
    simulated state, however many assignments they pass through.
``pm-escape``
    Raw device objects must not escape their owning module without a
    ``repro.mem.accessor`` wrapper.

``persist-order`` findings can be *repaired*, not just reported:
``--fix`` / ``--fix-diff`` run the gate-placement pass
(:mod:`repro.staticcheck.placement` + :mod:`repro.staticcheck.fixer`)
that inserts ``begin``/``end``, ``with transaction:``, or
``wal.append`` gates as token-preserving line edits, idempotently.
The same pass generates the ``autopass`` baseline backend (see
``repro.staticcheck.autogen``).

Accepted legacy findings live in ``staticcheck-baseline.txt`` with a
justification each; CI fails only on findings beyond the baseline (and
on *dead* entries whose finding no longer exists). Findings can be
suppressed per line with ``# lint: ignore[checker-id]`` (or a bare
``# lint: ignore`` at the end of the line for every checker). Exit
codes: 0 clean, 1 findings, 2 usage error; ``--format json`` / ``sarif``
for machines.
"""

from repro.staticcheck.engine import (
    CheckContext,
    all_checkers,
    check_source,
    checker,
    main,
    run_paths,
)
from repro.staticcheck.baseline import Baseline, path_key, write_baseline
from repro.staticcheck.cfg import CFG, build_cfg
from repro.staticcheck.dataflow import (
    TOP,
    ForwardAnalysis,
    SetIntersectAnalysis,
    SetUnionAnalysis,
    dominators,
    postdominators,
)
from repro.staticcheck.callgraph import ProjectIndex, module_key
from repro.staticcheck import checkers as _checkers  # noqa: F401
from repro.staticcheck import rules as _rules  # noqa: F401

__all__ = [
    "Baseline",
    "CFG",
    "CheckContext",
    "ForwardAnalysis",
    "ProjectIndex",
    "SetIntersectAnalysis",
    "SetUnionAnalysis",
    "TOP",
    "all_checkers",
    "build_cfg",
    "check_source",
    "checker",
    "dominators",
    "fix_source",
    "main",
    "module_key",
    "path_key",
    "postdominators",
    "run_paths",
    "write_baseline",
]


def fix_source(path, source, style="auto"):
    """Auto-insert persist gates; see :func:`repro.staticcheck.fixer.
    fix_source`. Imported lazily to keep the checker import graph
    acyclic."""
    from repro.staticcheck.fixer import fix_source as _fix_source
    return _fix_source(path, source, style=style)
