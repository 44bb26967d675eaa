"""Command-line front end: run sessions, sweeps, worked examples, and the pad tool.

Exit codes: 0 for successful executions (an aborted protocol run is a
successful execution -- abort-and-restart is designed behavior), 1 for
data errors (length mismatch, failed worked example, I/O), 2 for usage
errors, 3 for a refused key reuse.
"""

import argparse
import dataclasses
import datetime
import hashlib
import sys

from .channel import NoiseModel
from .errors import LengthMismatch, QkdError
from .eve import NoEve, OpaqueEve, PhotonSplitEve, entangling_swap_attack, translucent_swap_attack
from .fixtures import fixture_names, run_fixture
from .otp import xor_bytes
from .protocol import SessionConfig, run_session, session_transcript
from .report import build_document, render_json, summary_lines

# Only protocol, n and eve are the command line's own; the rest are the dataclasses' defaults.
_RUN_DEFAULTS = {
    "protocol": "bb84",
    "n": 10000,
    "seed": SessionConfig.seed,
    "flip": NoiseModel.flip_p,
    "loss": NoiseModel.loss_p,
    "multi": NoiseModel.multi_p,
    "theta": SessionConfig.theta,
    "eve": "none",
    "eve_frac": OpaqueEve.fraction,
    "sample_frac": SessionConfig.sample_fraction,
    "rmax": SessionConfig.r_max,
    "sec_param": SessionConfig.sec_param,
}

# Config-file keys are the flag spellings; each default's type parses its value.
_CONFIG_TYPES = {k.replace("_", "-"): type(v) for k, v in _RUN_DEFAULTS.items()}

# The --eve choices, keyed by each strategy's label; each builder takes the run values.
_EVES = {
    "none": lambda values: NoEve(),
    "opaque": lambda values: OpaqueEve(values["eve_frac"]),
    "translucent": lambda values: translucent_swap_attack(values["theta"]),
    "entangle": lambda values: entangling_swap_attack(values["theta"]),
    "pns": lambda values: PhotonSplitEve(),
}


def _read_config_file(path: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key.replace("-", "_")] = _CONFIG_TYPES[key](value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: invalid value {value!r} for key {key!r}") from None
    return values


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--protocol", choices=["bb84", "b92"])
    parser.add_argument("--n", type=int, help="number of pulses")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--flip", type=float, help="per-pulse flip probability")
    parser.add_argument("--loss", type=float, help="per-pulse loss probability")
    parser.add_argument("--multi", type=float, help="per-pulse two-photon probability")
    parser.add_argument("--theta", type=float, help="B92 code-state angle (radians)")
    parser.add_argument("--eve", choices=list(_EVES))
    parser.add_argument("--eve-frac", type=float, help="opaque interception fraction")
    parser.add_argument("--sample-frac", type=float, help="error-estimation disclosure fraction")
    parser.add_argument("--rmax", type=float, help="abort threshold on the estimated error rate")
    parser.add_argument("--sec-param", type=int, help="privacy-amplification security parameter")
    parser.add_argument("--config", metavar="FILE", help="key = value defaults, overridden by flags")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qkdsim")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one seeded session and print a report")
    _add_run_flags(run)
    style = run.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true", help="machine-readable report (default)")
    style.add_argument("--summary", action="store_true", help="human-readable summary")
    run.add_argument("--dump-transcript", metavar="FILE", help="write the public transcript")

    fixture = sub.add_parser("fixture", help="replay a bundled worked example")
    fixture.add_argument("name", help=f"one of: {', '.join(fixture_names())}")

    otp = sub.add_parser("otp", help="one-time-pad tool with a key-reuse ledger")
    otp_sub = otp.add_subparsers(dest="otp_command", required=True)
    for name in ("encrypt", "decrypt"):
        cmd = otp_sub.add_parser(name)
        cmd.add_argument("--in", dest="infile", required=True)
        cmd.add_argument("--key", required=True)
        cmd.add_argument("--out", required=True)
        cmd.add_argument("--ledger", required=True)

    sweep = sub.add_parser("sweep", help="grid of runs; CSV on standard output")
    _add_run_flags(sweep)
    sweep.add_argument("--vary", choices=["eve-frac", "theta", "flip"], required=True)
    sweep.add_argument("--from", dest="sweep_from", type=float, required=True)
    sweep.add_argument("--to", dest="sweep_to", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--repeats", type=int, default=1)
    return parser


def _session_values(args) -> dict:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    values = dict(_RUN_DEFAULTS)
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for key in _RUN_DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _make_config(values: dict) -> SessionConfig:
    build_eve = _EVES.get(values["eve"])
    if build_eve is None:
        raise ValueError(f"unknown eve {values['eve']!r}; choose from {', '.join(_EVES)}")
    return SessionConfig(
        protocol=values["protocol"],
        n_pulses=values["n"],
        theta=values["theta"],
        noise=NoiseModel(flip_p=values["flip"], loss_p=values["loss"], multi_p=values["multi"]),
        eve=build_eve(values),
        sample_fraction=values["sample_frac"],
        r_max=values["rmax"],
        sec_param=values["sec_param"],
        seed=values["seed"],
    )


def _cmd_run(args) -> int:
    cfg = _make_config(_session_values(args))
    report = run_session(cfg)
    if args.dump_transcript:
        with open(args.dump_transcript, "w", encoding="utf-8") as handle:
            handle.writelines(msg.line() for msg in session_transcript(report))
    if args.summary:
        for line in summary_lines(report, cfg):
            print(line)
    else:
        print(render_json(build_document(report, cfg)))
    return 0


def _cmd_fixture(args) -> int:
    try:
        outcome = run_fixture(args.name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(f"fixture {outcome.name}:")
    for line in outcome.lines:
        print(f"  {line}")
    print("PASS" if outcome.passed else "FAIL")
    return 0 if outcome.passed else 1


def _ledger_fingerprints(path: str) -> set:
    fingerprints = set()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    fingerprints.add(line.split("\t", 1)[0])
    except FileNotFoundError:
        pass
    return fingerprints


def _cmd_otp(args) -> int:
    with open(args.infile, "rb") as handle:
        data = handle.read()
    with open(args.key, "rb") as handle:
        key = handle.read()
    try:
        out = xor_bytes(data, key)
    except LengthMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.otp_command == "encrypt":
        # The key is recorded before its ciphertext is written, so a key whose record fails is never used.
        fingerprint = hashlib.sha256(key).hexdigest()
        if fingerprint in _ledger_fingerprints(args.ledger):
            print(
                f"refusing to reuse key {fingerprint[:16]}...: a one-time pad is one-time",
                file=sys.stderr,
            )
            return 3
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        with open(args.ledger, "a", encoding="utf-8") as handle:
            handle.write(f"{fingerprint}\t{stamp}\n")
    with open(args.out, "wb") as handle:
        handle.write(out)
    return 0


def _cmd_sweep(args) -> int:
    if args.steps < 1:
        print("error: --steps must be at least 1", file=sys.stderr)
        return 2
    if args.repeats < 1:
        print("error: --repeats must be at least 1", file=sys.stderr)
        return 2
    values = _session_values(args)
    # A swept value that the session never reads would give rows that differ only by seed.
    if args.vary == "theta" and values["protocol"] != "b92":
        raise ValueError("--vary theta needs --protocol b92: bb84 never reads theta")
    if args.vary == "eve-frac" and values["eve"] != "opaque":
        raise ValueError("--vary eve-frac needs --eve opaque: only the opaque attack reads eve-frac")
    span = args.sweep_to - args.sweep_from
    # Every grid point's config is built, and so checked, before the first row is printed.
    points = []
    for i in range(args.steps):
        param = args.sweep_from if args.steps == 1 else args.sweep_from + span * i / (args.steps - 1)
        points.append((param, _make_config({**values, args.vary.replace("-", "_"): param})))
    print("param,mean_error_rate,mean_conclusive_rate,mean_final_len,aborted_frac")
    for i, (param, cfg) in enumerate(points):
        rates, usable, final_lens, aborted = [], [], [], 0
        for j in range(args.repeats):
            # Run seeds are derived as base seed + flat run index.
            report = run_session(dataclasses.replace(cfg, seed=cfg.seed + i * args.repeats + j))
            if report.error_rate is not None:
                rates.append(report.error_rate)
            usable.append(report.sifted_count / report.n_pulses)
            final_lens.append(report.final_key_length)
            aborted += 1 if report.aborted else 0
        mean_rate = sum(rates) / len(rates) if rates else float("nan")
        mean_usable = sum(usable) / len(usable)
        mean_final = sum(final_lens) / len(final_lens)
        print(
            f"{param!r},{mean_rate:.6f},{mean_usable:.6f},{mean_final:.6f},{aborted / args.repeats:.6f}"
        )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "fixture":
            return _cmd_fixture(args)
        if args.command == "otp":
            return _cmd_otp(args)
        return _cmd_sweep(args)
    except (QkdError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
