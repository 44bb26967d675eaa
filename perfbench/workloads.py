"""The benchmark's workloads and where the program under test lives.

An op is one session.  Op ``i`` of a run uses the session seed
``workload_seed + i``; the kind of session a seed gets is
``kinds[seed % len(kinds)]``, so a session is a function of the
workload name and its seed alone.  A workload with several kinds runs
them in a fixed rotation, and a run always completes whole rotations
("cycles").

This module does not import qkdsim: run.py checks the source
tree before anything imports it.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Each kind overrides the ``qkdsim run`` defaults (qkdsim.cli._RUN_DEFAULTS).
WORKLOADS = {
    "bb84-session": ({"protocol": "bb84", "n": 10000, "flip": 0.02},),
    "eve-detect": (
        {"protocol": "bb84", "n": 20000, "eve": "opaque", "eve_frac": 1.0},
        {"protocol": "b92", "n": 20000, "eve": "translucent"},
        {"protocol": "b92", "n": 20000, "eve": "entangle"},
    ),
    "b92-pns": (
        {"protocol": "b92", "n": 30000, "eve": "pns", "loss": 0.3, "multi": 0.05, "flip": 0.03},
    ),
}

# "<protocol>-<eavesdropper>" of every session kind, as the traced run labels them.
COMBOS = tuple(f"{k['protocol']}-{k.get('eve', 'none')}" for kinds in WORKLOADS.values() for k in kinds)

DEFAULT_SEED = 1


def source_ok() -> bool:
    """True when the checkout holds the qkdsim sources the benchmark measures."""
    return (SRC / "qkdsim" / "__init__.py").is_file()


def use_checkout_source() -> None:
    """Import qkdsim from this checkout's ``src`` and nowhere else."""
    if not source_ok():
        raise SystemExit(f"error: no qkdsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qkdsim

    if Path(qkdsim.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"error: qkdsim was imported from {qkdsim.__file__}, not {SRC}")


def cycle_length(workload: str) -> int:
    return len(WORKLOADS[workload])


def session_values(workload: str, seed: int, defaults: dict) -> dict:
    """``qkdsim run`` values for the op with this session seed."""
    kinds = WORKLOADS[workload]
    values = dict(defaults)
    values.update(kinds[seed % len(kinds)])
    values["seed"] = seed
    return values
