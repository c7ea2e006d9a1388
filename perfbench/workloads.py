"""The benchmark's workloads: inputs drawn from a seed, the op each input
drives, and the checks on every output.

Inputs come in passes.  A round, timed or traced, draws a workload's passes
at set-up and makes each once.  The package is driven only through its public
functions and its CLI entry point.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import dpseries as dp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

# Largest oracle window one op may enumerate.  At n=7 the oracle peaks near
# 740 bytes per window point, so this refuses any op that could pass ~1.1 GB.
MAX_WINDOW_POINTS = 1_500_000

CLI_TIMEOUT_S = 60


class Refused(Exception):
    """An op the memory guard would not run."""


@dataclass(frozen=True)
class Workload:
    make_pass: Callable[[int, bool, int], list]  # (seed, tiny, k) -> op inputs of pass k
    sweep: int  # passes a round draws at set-up and makes once
    op: Callable
    check: Callable[[str, int, list], list]  # (digest key, k, outputs) -> error or None per op
    traced_op: Callable | None = None  # for ops that leave this process


def point(n: int, alpha: int, sigma_tilde) -> dp.InducedRepParams:
    sigma = Fraction(sigma_tilde) - Fraction(n + 1 + alpha, 2)
    return dp.InducedRepParams(n=n, alpha=alpha, sigma=sigma)


def digest(rendered) -> str:
    return hashlib.sha256(json.dumps(rendered, sort_keys=True).encode()).hexdigest()


def digest_key(tiny: bool) -> str:
    return "tiny" if tiny else "full"


def recorded_digest(workload: str, key: str, k: int) -> str | None:
    """The digest recorded for pass k at the size ``digest_key`` names, if any.

    A pass's digest does not depend on the seed, which only orders the pass.
    """
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    per_pass = table.get(workload, {}).get(key, [])
    return per_pass[k] if k < len(per_pass) else None


def structure_errors(labels, edges, layers, generated) -> str | None:
    """Invariants of one point's structure, on labels of any hashable kind.

    The socle layers partition the labels, every diagram edge joins adjacent
    layers (upper one layer above lower), and each generated submodule holds
    its generator and is closed downward along the edges.
    """
    layer_of = {}
    for depth, layer in enumerate(layers, start=1):
        for lab in layer:
            if lab in layer_of:
                return f"{lab} lies in two socle layers"
            layer_of[lab] = depth
    if set(layer_of) != set(labels) or len(set(labels)) != len(labels):
        return "socle layers do not partition the constituents"
    for u, v in edges:
        if u not in layer_of or v not in layer_of or layer_of[u] != layer_of[v] + 1:
            return f"edge {u}->{v} does not join adjacent layers"
    for generator, members in generated:
        members = set(members)
        if generator not in members:
            return f"submodule generated by {generator} misses its generator"
        for u, v in edges:
            if u in members and v not in members:
                return f"submodule generated by {generator} is not closed below {u}"
    return None


def _failed(out) -> str | None:
    return f"{type(out).__name__}: {out}" if isinstance(out, Exception) else None


def _with_digest(workload: str, key: str, k: int, actual: str, errors: list) -> list:
    expected = recorded_digest(workload, key, k)
    if expected is not None and actual != expected:
        return [e or "output digest differs from the one recorded for this seed" for e in errors]
    return errors


# -- verify_grid and oracle_large: one oracle.compare per op ----------------


def oracle_op(params: dp.InducedRepParams) -> dp.OracleVerdict:
    lmax = dp.auto_lmax(params)
    estimate = comb(2 * lmax + params.n, params.n)
    if estimate > MAX_WINDOW_POINTS:
        raise Refused(f"{params} n={params.n}: window of ~{estimate} points exceeds {MAX_WINDOW_POINTS}")
    return dp.compare(params)


def check_verdicts(key: str, k: int, outputs: list) -> list:
    return [
        _failed(v) or (None if v.ok else f"FAIL at lmax={v.lmax}: {v.witness}") for v in outputs
    ]


def verify_grid_pass(seed: int, tiny: bool, k: int) -> list:
    # The 208 points of the default sweep.
    ns, sigma_tildes = (range(2, 4), range(-2, 3)) if tiny else (range(2, 6), range(-6, 7))
    points = [point(n, a, st) for n in ns for a in range(4) for st in sigma_tildes]
    random.Random(seed).shuffle(points)
    return points


def oracle_large_pass(seed: int, tiny: bool, k: int) -> list:
    # The order moves the time of a round by up to a fifth (ops that follow
    # the largest run faster), so every seed makes them in the sweep's order.
    return [point(4 if tiny else 7, a, -6) for a in range(4)]


# -- closed_form: every closed-form query at one point per op ---------------


QUARTERS = (range(-16, -8), range(-8, 0), range(0, 8), range(8, 17))  # of integer sigma_tilde
IRREDUCIBLE_PER_PASS = 4


def closed_form_pass(seed: int, tiny: bool, k: int) -> list:
    # An op's cost is set mostly by n, then by alpha and sigma_tilde, so every
    # pass holds, for each n, one point per alpha and per quarter of the
    # sigma_tilde range (a Latin square that turns with k).  Values within a
    # quarter, and the few irreducible points that ride along, step through a
    # fixed order, so no point recurs within 32 passes.  Pass k holds the same
    # points for every seed, so runs of any seed do the same work; the seed
    # orders the pass.
    ns = range(4, 6) if tiny else range(4, 17)
    points = []
    for n in ns:
        for q, values in enumerate(QUARTERS):
            alpha = (n + q + k) % 4
            order = random.Random(f"{n}:{q}:{alpha}").sample(values, len(values))
            points.append(point(n, alpha, order[(k // 4) % len(order)]))
    irreducible = [(n, a, st + Fraction(1, 2)) for n in ns for a in range(4) for st in range(-16, 16)]
    random.Random("irreducible").shuffle(irreducible)
    for i in range(k * IRREDUCIBLE_PER_PASS, (k + 1) * IRREDUCIBLE_PER_PASS):
        points.append(point(*irreducible[i % len(irreducible)]))
    random.Random(f"{seed}:{k}").shuffle(points)
    return points


def closed_form_op(params: dp.InducedRepParams) -> dict:
    case = dp.classify(params)
    if case is dp.CaseTag.IRREDUCIBLE:
        return {"params": params, "case": case, "complementary": dp.complementary_series(params)}
    labels = dp.enumerate_constituents(params).labels
    return {
        "params": params,
        "case": case,
        "labels": labels,
        "regions": [dp.region_for(params, lab) for lab in labels],
        "diagram": dp.module_diagram(params),
        "socle": dp.socle_series(params),
        "generated": [dp.generated_submodule(params, lab) for lab in labels],
        "verdicts": [dp.constituent_unitarizable(params, lab) for lab in labels],
        "images": [dp.omega_image(p, q, params.n) for p, q in dp.possible_embeddings(params)],
    }


def _render_closed_form(out: dict) -> dict:
    params = out["params"]
    rec = {"n": params.n, "alpha": params.alpha, "sigma": dp.format_rational(params.sigma)}
    rec["case"] = out["case"].value
    if "complementary" in out:
        rec["complementary"] = out["complementary"]
        return rec
    rec["labels"] = [str(x) for x in out["labels"]]
    rec["regions"] = [r.to_json() for r in out["regions"]]
    rec["edges"] = [[str(u), str(v)] for u, v in out["diagram"].edges]
    rec["layers"] = [[str(x) for x in layer] for layer in out["socle"].layers]
    rec["generated"] = [[str(x) for x in g.members] for g in out["generated"]]
    rec["verdicts"] = [[v.unitarizable, v.reason] for v in out["verdicts"]]
    rec["images"] = [
        [img.p, img.q, img.shape, str(img.generator), [str(x) for x in img.members]]
        for img in out["images"]
    ]
    return rec


def _closed_form_errors(out: dict) -> str | None:
    if "complementary" in out:
        return None
    labels = out["labels"]
    generated = [(g.generator, g.members) for g in out["generated"]]
    err = structure_errors(labels, out["diagram"].edges, out["socle"].layers, generated)
    if err:
        return err
    for img in out["images"]:
        if img.target != out["params"] or not set(img.members) <= set(labels):
            return f"omega image of ({img.p},{img.q}) does not sit in the point's constituents"
        if img.generator not in img.members:
            return f"omega image of ({img.p},{img.q}) misses its generator"
    return None


def closed_form_digest(outputs: list) -> str:
    """Digest of a pass's outputs, in point order."""
    rendered = [_failed(out) or _render_closed_form(out) for out in outputs]
    return digest(sorted(rendered, key=lambda rec: json.dumps(rec, sort_keys=True)))


def check_closed_form(key: str, k: int, outputs: list) -> list:
    errors = [_failed(out) or _closed_form_errors(out) for out in outputs]
    return _with_digest("closed_form", key, k, closed_form_digest(outputs), errors)


# -- cli_cold: one dpseries command in a fresh interpreter per op -----------

_POINT = ("--n", "6", "--alpha", "2", "--sigma", "-3/2")  # I^2(-3/2): 9 constituents, 2 embeddings
CLI_MIX = (
    ("classify", *_POINT, "--format", "json"),
    ("constituents", *_POINT, "--format", "json"),
    ("diagram", *_POINT, "--format", "dot"),
    ("socle", *_POINT, "--format", "json"),
    ("unitary", *_POINT, "--format", "json"),
    ("omega", "--p", "1", "--q", "3", "--n", "6", "--format", "json"),  # targets the same point
    ("embeddings", *_POINT, "--format", "json"),
    ("ktype", *_POINT, "--lambda", "2,1,0,0,-1,-3", "--format", "json"),
    ("verify", *_POINT),
)
CLI_TINY = ("constituents", "diagram", "verify")
_ENTRY = "import sys; from dpseries.cli import main; sys.argv[0] = 'dpseries'; main()"


def _cli_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def cli_cold_pass(seed: int, tiny: bool, k: int) -> list:
    mix = [argv for argv in CLI_MIX if not tiny or argv[0] in CLI_TINY]
    random.Random(seed).shuffle(mix)
    return mix


def cli_op(argv: tuple) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY, *argv],
        capture_output=True, text=True, env=_cli_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S,
    )
    return {"argv": argv, "code": proc.returncode, "stdout": proc.stdout}


def cli_traced_op(argv: tuple) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "cli_probe.py"), repr(time.monotonic()), *argv],
        capture_output=True, text=True, env=_cli_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cli probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return {"argv": argv, **json.loads(proc.stdout)}


def _parse_dot(text: str):
    ranks = [re.findall(r'"([^"]+)"', line) for line in text.splitlines() if "rank=same" in line]
    edges = re.findall(r'^\s*"([^"]+)" -> "([^"]+)";$', text, flags=re.M)
    return list(reversed(ranks)), edges  # DOT lists the top layer first


def _cli_errors(outputs: list) -> dict:
    """Invariants across the mix, each charged to the command whose output breaks it."""
    ran = {out["argv"][0]: out for out in outputs if not isinstance(out, Exception)}
    errors = {cmd: f"exit code {out['code']}" for cmd, out in ran.items() if out["code"] != 0}

    def payload(cmd: str):
        if cmd not in ran or cmd in errors or cmd == "diagram":
            return None
        try:
            return json.loads(ran[cmd]["stdout"])
        except json.JSONDecodeError:
            errors[cmd] = "output is not JSON"
            return None

    got = {argv[0]: payload(argv[0]) for argv in CLI_MIX}
    if got["verify"] is not None and not got["verify"]["ok"]:
        errors["verify"] = "oracle verdict FAIL"
    if got["constituents"] is None or "diagram" not in ran or "diagram" in errors:
        return errors
    labels = [c["label"] for c in got["constituents"]["constituents"]]
    layers, edges = _parse_dot(ran["diagram"]["stdout"])
    omega = got["omega"]
    problems = {
        "diagram": structure_errors(labels, edges, layers, []),
        "socle": got["socle"] not in (None, layers) and "socle layers differ from the diagram's ranks",
        "omega": omega and structure_errors(labels, edges, layers, [(omega["generator"], omega["members"])]),
        "unitary": got["unitary"] is not None
        and [r["label"] for r in got["unitary"]] != labels
        and "unitarity verdicts do not cover the constituents",
        "ktype": got["ktype"] and got["ktype"].get("constituent") not in labels
        and "K-type lies in no listed constituent",
        # 2*sigma + n + 1 = 4 at the mix's point
        "embeddings": got["embeddings"] and any(p + q != 4 for p, q in got["embeddings"])
        and "embedding signature with p+q != 2*sigma+n+1",
    }
    errors.update({cmd: problem for cmd, problem in problems.items() if problem})
    return errors


def cli_digest(outputs: list) -> str:
    """Digest of a pass's commands, exit codes and stdout, in command order."""
    return digest(sorted(
        [_failed(out), -1, ""] if isinstance(out, Exception)
        else [" ".join(out["argv"]), out["code"], out["stdout"]]
        for out in outputs
    ))


def check_cli(key: str, k: int, outputs: list) -> list:
    by_cmd = _cli_errors(outputs)
    errors = [_failed(out) or by_cmd.get(out["argv"][0]) for out in outputs]
    return _with_digest("cli_cold", key, 0, cli_digest(outputs), errors)


WORKLOADS = {
    "verify_grid": Workload(verify_grid_pass, 1, oracle_op, check_verdicts),
    "oracle_large": Workload(oracle_large_pass, 1, oracle_op, check_verdicts),
    "closed_form": Workload(closed_form_pass, 2, closed_form_op, check_closed_form),
    "cli_cold": Workload(cli_cold_pass, 1, cli_op, check_cli, traced_op=cli_traced_op),
}
