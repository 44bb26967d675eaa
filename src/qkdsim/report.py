"""Machine-readable run reports.

A report document is a single flat JSON object with a fixed key order,
so identical (config, seed) pairs produce byte-identical output and
goldens diff cleanly.  Wall-clock timings are deliberately left out of
the document (they live on the in-memory report and in ``--summary``
output) because they would break byte stability.

Key order: schema_version, the run results, a ``config_*`` echo of every
session parameter and of the fixed reconciliation settings, then the
SHA-256 digest of the serialized transcript.
"""

import json

from .distill import MAX_PASSES, N_CLEAN, default_block_policy
from .eve import OpaqueEve
from .protocol import RunReport, SessionConfig, session_transcript

SCHEMA_VERSION = 2


def strategy_label(strategy) -> str:
    """The eavesdropper's ``--eve`` name, as its strategy class declares it."""
    return strategy.label


def build_document(report: RunReport, cfg: SessionConfig) -> dict:
    """Flat report document in the canonical key order."""
    transcript = session_transcript(report)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "protocol": report.protocol,
        "n_pulses": report.n_pulses,
        "seed": report.seed,
        "sifted_count": report.sifted_count,
        "disclosed_count": report.disclosed_count,
        "error_rate": report.error_rate,
        "aborted": report.aborted,
        "abort_reason": report.abort_reason,
        "reconciled_length": report.reconciled_length,
        "leaked_bits": report.leaked_bits,
        "final_key_length": report.final_key_length,
        "final_key_alice": report.final_key_alice,
        "final_key_bob": report.final_key_bob,
        "eve_guess_accuracy": report.eve_guess_accuracy,
        "eve_final_key_info_estimate": report.eve_final_key_info_estimate,
        "config_protocol": cfg.protocol,
        "config_n_pulses": cfg.n_pulses,
        "config_theta": cfg.theta,
        "config_flip_p": cfg.noise.flip_p,
        "config_loss_p": cfg.noise.loss_p,
        "config_multi_p": cfg.noise.multi_p,
        "config_eve": strategy_label(cfg.eve),
        "config_eve_fraction": cfg.eve.fraction if isinstance(cfg.eve, OpaqueEve) else None,
        "config_sample_fraction": cfg.sample_fraction,
        "config_r_max": cfg.r_max,
        "config_block_policy": default_block_policy.__name__,
        "config_n_clean": N_CLEAN,
        "config_max_passes": MAX_PASSES,
        "config_sec_param": cfg.sec_param,
        "config_seed": cfg.seed,
        "transcript_digest": transcript.digest() if transcript is not None else None,
    }
    return doc


def render_json(doc: dict) -> str:
    """Compact single-line JSON; key order is the document's insertion order."""
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def summary_lines(report: RunReport, cfg: SessionConfig) -> list:
    """Human-oriented summary (includes timing, so not byte-stable)."""
    lines = [
        f"protocol        {report.protocol}",
        f"pulses          {report.n_pulses}",
        f"seed            {report.seed}",
        f"sifted bits     {report.sifted_count}",
        f"disclosed bits  {report.disclosed_count}",
        f"error rate      {report.error_rate if report.error_rate is not None else 'n/a'}",
        f"aborted         {report.aborted}{(' (' + report.abort_reason + ')') if report.abort_reason else ''}",
        f"reconciled len  {report.reconciled_length if report.reconciled_length is not None else 'n/a'}",
        f"leak bound k    {report.leaked_bits if report.leaked_bits is not None else 'n/a'}",
        f"final key bits  {report.final_key_length}",
        f"eve accuracy    {report.eve_guess_accuracy if report.eve_guess_accuracy is not None else 'n/a'}",
        f"eve strategy    {strategy_label(cfg.eve)}",
        f"elapsed seconds {report.timings.get('total_seconds', 0.0):.3f}",
    ]
    return lines
