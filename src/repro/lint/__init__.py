"""`reprolint` — project-specific static analysis for the estimation platform.

Usage::

    python -m repro.lint src/                      # lint a tree (exit 0/1/2)
    python -m repro.lint --list-rules              # what gets checked
    python -m repro.lint --select RL001,RL005 src/ # a subset of rules
    python -m repro.lint --write-metric-names src/repro   # regen registry
    python -m repro.lint --write-baseline .reprolint.json src/
    python -m repro.lint --baseline .reprolint.json src/

See :mod:`repro.lint.framework` for the engine (rules, suppressions,
baselines), :mod:`repro.lint.rules` for the RL001–RL007 rule set and
:mod:`repro.lint.cli` for the command line.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "BASELINE_SCHEMA": ".framework",
        "FileContext": ".framework",
        "Finding": ".framework",
        "LintReport": ".framework",
        "ProjectRule": ".framework",
        "Rule": ".framework",
        "Suppression": ".framework",
        "load_baseline": ".framework",
        "parse_file": ".framework",
        "register_rule": ".framework",
        "write_baseline": ".framework",
        # The engine's registry and linter, taken from the module whose
        # import registers RL001-RL007 in it.
        "RULE_REGISTRY": ".rules",
        "lint_paths": ".rules",
        "collect_metric_names": ".metric_registry",
        "render_metric_names_module": ".metric_registry",
        "write_metric_names": ".metric_registry",
        "METRIC_EMIT_METHODS": ".rules",
        "METRIC_NAME_RE": ".rules",
        "main": ".cli",
    },
)
