"""Command-line interface.

Exit codes: 0 success, 1 input error (message names the offending flag) or
standard output closed early, 2 verification FAIL from the ``verify``
subcommand.  Integer flags take ASCII digits with an optional sign, and
``--sigma`` takes ``a`` or ``a/b`` in the same digits.  Output is deterministic
for identical inputs; no color is ever emitted, so NO_COLOR needs no special
handling.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction

from .parameters import (
    CaseTag,
    InducedRepParams,
    classify,
    derived,
    format_rational,
    parse_integer,
    parse_rational,
)
from . import ktypes
from .constituents import _window_size, enumerate_constituents, label_of, region_for
from .structure import _diagram_payload, diagram_to_dot, module_diagram, socle_series
from .unitarity import (
    complementary_series,
    constituent_unitarizable,
    nonunitarity_witness,
)
from .howe import omega_image, possible_embeddings
from . import oracle

__all__ = ["main", "run"]

# Largest --n that omega accepts.  Its costliest image there, a submodule
# generated over a window of about n**2/8 labels, ran in 2.2 s and peaked at
# 140 MB (ru_maxrss, fresh process); the cost grows as n**2.
MAX_OMEGA_RANK = 2_000
# Largest p + q = 2*sigma + n + 1 whose (p+q)/4 signatures embeddings lists:
# 1.1 s and 94 MB at the cap (155 MB as JSON), growing linearly.
MAX_SIGNATURE_SIZE = 1_000_000
# Largest window, in labels, that diagram, socle, unitary and ktype read.  The
# costliest form there, diagram --format json, took 3.2-3.6 s and peaked at
# 131 MB at 99,681 labels (fresh process); the cost grows linearly.
MAX_WINDOW_LABELS = 100_000
# Largest window, in labels times n, whose bounds constituents writes.  Its
# costlier form, --format json, took 2.1-2.3 s at 299,756 bounds (0.4 s as
# text), growing linearly; it streams, so it peaks near 30 MB at any size.
MAX_WINDOW_BOUNDS = 300_000
# Most points one verify sweep accepts, counted from its ranges before any
# point is listed; each point's cells are then counted (oracle.MAX_CELLS)
# before any point runs.  A sweep streams its records, so its peak does not
# grow with it, and its time sets the budget: the 100,000 points of n 2..26,
# alpha 0..3, sigma_tilde -499..500 all passed, with the first record after
# 6.1 s of counting and the last after 122 s, at a 21 MB peak.
MAX_SWEEP_POINTS = 100_000


class CLIError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        raise CLIError(message)


def _add_params_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", required=True, help="rank (integer >= 2)")
    p.add_argument("--alpha", required=True, help="character exponent in {0,1,2,3}")
    p.add_argument("--sigma", required=True, help="rational parameter, e.g. -3/2")


def _add_format_flag(p: argparse.ArgumentParser, dot: bool = False) -> None:
    choices = ["text", "json", "dot"] if dot else ["text", "json"]
    p.add_argument("--format", choices=choices, default="text")


def _int_flag(args, name: str) -> int:
    raw = getattr(args, name)
    try:
        return parse_integer(raw)
    except ValueError:
        raise CLIError(f"--{name}: not an integer: {raw!r}") from None


def _params_from(args: argparse.Namespace) -> InducedRepParams:
    n = _int_flag(args, "n")
    alpha = _int_flag(args, "alpha")
    try:
        sigma = parse_rational(args.sigma)
    except ValueError as e:
        raise CLIError(f"--sigma: {e}") from None
    try:
        return InducedRepParams(n=n, alpha=alpha, sigma=sigma)
    except ValueError as e:  # n and alpha are ints here, and the rank is checked first
        raise CLIError(f"--{'n' if n < 2 else 'alpha'}: {e}") from None


def _require_reducible(params: InducedRepParams) -> None:
    if classify(params) is CaseTag.IRREDUCIBLE:
        raise CLIError(
            f"--sigma: {params} is irreducible (sigma_tilde="
            f"{format_rational(params.sigma_tilde)} is not an integer); "
            "no constituent structure to report"
        )


def _require_window(params: InducedRepParams, bounds: bool = False) -> None:
    """Refuse, before it is listed, a reducible point's window of more than
    MAX_WINDOW_LABELS labels, or with ``bounds`` of more than MAX_WINDOW_BOUNDS
    bounds, n per label."""
    labels = _window_size(params)
    if labels > MAX_WINDOW_LABELS:
        raise CLIError(f"--n/--sigma: {labels} constituents exceed the cap of {MAX_WINDOW_LABELS}")
    if bounds and labels * params.n > MAX_WINDOW_BOUNDS:
        raise CLIError(
            f"--n/--sigma: {labels} constituents of {params.n} bounds each exceed the cap of {MAX_WINDOW_BOUNDS}"
        )


class _Entries(list):
    """A JSON array whose entries are made only as the indented (pure Python)
    encoder reaches them: it holds the sources and yields ``make(source)``."""

    def __init__(self, sources, make) -> None:
        super().__init__(sources)
        self.make = make

    def __iter__(self):
        return map(self.make, super().__iter__())


def _print_json(payload, sort_keys: bool = True) -> None:
    """Print an indented JSON form in batches of encoder chunks, never as one
    whole string, and with one write per batch even on unbuffered stdout."""
    chunks = json.JSONEncoder(indent=2, sort_keys=sort_keys).iterencode(payload)
    while batch := "".join(itertools.islice(chunks, 8192)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _cmd_classify(args) -> int:
    params = _params_from(args)
    case = classify(params)
    d = derived(params)
    if args.format == "json":
        payload = {
            "case": case.value,
            "sigma_tilde": format_rational(d.sigma_tilde),
            "rho": format_rational(d.rho),
            "n0": d.n0,
            "n1": d.n1,
            "k": d.k if case is not CaseTag.IRREDUCIBLE else None,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{case.value}, sigma_tilde={format_rational(d.sigma_tilde)}")
    return 0


def _cmd_constituents(args) -> int:
    params = _params_from(args)
    _require_reducible(params)
    _require_window(params, bounds=True)
    cs = enumerate_constituents(params)
    if args.format == "json":
        payload = {
            "case": cs.case.value,
            "index_bound": None if cs.index_bound is None else list(cs.index_bound),
            "constituents": _Entries(
                cs.labels, lambda lab: {"label": str(lab), "region": region_for(params, lab).to_json()}
            ),
        }
        _print_json(payload)
    else:
        bound = "" if cs.index_bound is None else f", {cs.index_bound[0]}={cs.index_bound[1]}"
        print(f"{params}: {cs.case.value}{bound}, {len(cs.labels)} constituents")
        for lab in cs.labels:
            print(f"  {lab}: {region_for(params, lab).describe()}")
    return 0


def _cmd_diagram(args) -> int:
    params = _params_from(args)
    _require_reducible(params)
    _require_window(params)
    diagram = module_diagram(params)
    socle = socle_series(params)
    if args.format == "dot":
        sys.stdout.write(diagram_to_dot(diagram, socle))
    elif args.format == "json":
        _print_json(_diagram_payload(diagram, socle))
    else:
        print(f"{params}: nodes " + " ".join(str(x) for x in diagram.nodes))
        for u, v in diagram.edges:
            print(f"  {u} -> {v}")
    return 0


def _cmd_socle(args) -> int:
    params = _params_from(args)
    _require_reducible(params)
    _require_window(params)
    socle = socle_series(params)
    if args.format == "json":
        print(json.dumps([[str(x) for x in layer] for layer in socle.layers]))
    else:
        for depth, layer in enumerate(socle.layers, start=1):
            print(f"layer {depth}: " + " ".join(str(x) for x in layer))
    return 0


def _cmd_unitary(args) -> int:
    params = _params_from(args)
    if classify(params) is CaseTag.IRREDUCIBLE:
        ok = complementary_series(params)
        witness = None if ok else nonunitarity_witness(params)
        if args.format == "json":
            # sigma = 0 is irreducible only when n + alpha is even
            reason = "complementary-series" + ("" if ok else ": needs n+alpha even and |sigma|<1/2")
            payload = {
                "unitarizable": ok,
                "reason": reason,
                "witness": None if witness is None else {"lambda": list(witness[0]), "j": witness[1]},
            }
            _print_json(payload)
        elif ok:
            print(f"{params}: irreducible, unitarizable (complementary-series)")
        else:
            detail = ""
            if witness is not None:
                lam, j = witness
                detail = f"; witness lambda={ktypes.format_ktype(lam)}, j={j}"
            print(f"{params}: irreducible, not unitarizable{detail}")
        return 0
    _require_window(params)
    cs = enumerate_constituents(params)
    rows = []
    for lab in cs.labels:
        verdict = constituent_unitarizable(params, lab)
        rows.append((lab, verdict))
    if args.format == "json":
        payload = [
            {"label": str(lab), "unitarizable": v.unitarizable, "reason": v.reason}
            for lab, v in rows
        ]
        _print_json(payload, sort_keys=False)
    else:
        for lab, v in rows:
            word = "unitarizable" if v.unitarizable else "not unitarizable"
            print(f"{lab}: {word} ({v.reason})")
    return 0


def _cmd_omega(args) -> int:
    p = _int_flag(args, "p")
    q = _int_flag(args, "q")
    n = _int_flag(args, "n")
    if p < 0 or q < 0:
        raise CLIError("--p/--q: signature entries must be >= 0")
    if n < 2:
        raise CLIError("--n: rank below supported range (need n >= 2)")
    if n > MAX_OMEGA_RANK:
        raise CLIError(f"--n: rank {n} exceeds omega's cap of {MAX_OMEGA_RANK}")
    image = omega_image(p, q, n)
    region = region_for(image.target, image.generator)
    if args.format == "json":
        payload = {
            "p": p,
            "q": q,
            "target": {
                "n": n,
                "alpha": image.target.alpha,
                "sigma": format_rational(image.target.sigma),
            },
            "shape": image.shape,
            "generator": str(image.generator),
            "members": [str(x) for x in image.members],
            "generator_region": region.to_json(),
        }
        _print_json(payload)
        return 0
    trivial = " (trivial representation)" if region.single_point() == (0,) * n else ""
    if image.shape == "single":
        print(
            f"target {image.target}; Omega = {image.generator};"
            f" K-types: {region.describe()}{trivial}"
        )
    else:
        members = " + ".join(str(x) for x in image.members)
        print(
            f"target {image.target}; Omega = <{image.generator}> = {members};"
            f" generator K-types: {region.describe()}{trivial}"
        )
    return 0


def _cmd_embeddings(args) -> int:
    params = _params_from(args)
    _require_reducible(params)
    size = 2 * params.sigma + params.n + 1
    if size > MAX_SIGNATURE_SIZE:
        raise CLIError(f"--n/--sigma: signature size p+q = 2*sigma+n+1 = {size} exceeds {MAX_SIGNATURE_SIZE}")
    pairs = possible_embeddings(params)
    if args.format == "json":
        print(json.dumps([list(pq) for pq in pairs]))
    else:
        if not pairs:
            print("no possible embeddings")
        for p, q in pairs:
            print(f"({p},{q})")
    return 0


def _cmd_ktype(args) -> int:
    params = _params_from(args)
    try:
        lam = ktypes.parse_ktype(getattr(args, "lambda"))
    except ValueError as e:
        raise CLIError(f"--lambda: {e}") from None
    if len(lam) != params.n:
        raise CLIError(f"--lambda: expected {params.n} entries, got {len(lam)}")
    reducible = classify(params) is not CaseTag.IRREDUCIBLE
    if reducible:
        _require_window(params)
    rows = []
    for j, direction, coeff in ktypes.transitions(params, lam):
        value = "no such K-type" if coeff is None else format_rational(coeff) + (" (blocked)" if coeff == 0 else "")
        rows.append((j, direction, value))
    if args.format == "json":
        payload = {
            "lambda": list(lam),
            "transitions": [
                {"j": j, "direction": d, "coefficient": v} for j, d, v in rows
            ],
        }
        if reducible:
            payload["constituent"] = str(label_of(params, lam))
        _print_json(payload)
        return 0
    print(f"K-type lambda=({ktypes.format_ktype(lam)}) in {params}")
    if reducible:
        print(f"constituent: {label_of(params, lam)}")
    for j, direction, value in rows:
        print(f"  {direction:4s} j={j}: {value}")
    return 0


def _parse_range(raw: str | None, flag: str, default: str) -> tuple[range | list[int], int, int]:
    """The values of ``A:B`` (a lazy ``range``) or of a comma list (``default``
    when the flag is not given), with their min and max."""
    raw = default if raw is None else raw
    try:
        if ":" in raw:
            lo, hi = raw.split(":")
            values = range(parse_integer(lo), parse_integer(hi) + 1)
        else:
            values = [parse_integer(part) for part in raw.split(",")]
    except ValueError:
        raise CLIError(f"--{flag}: expected A:B or a comma list, got {raw!r}") from None
    if not values:
        raise CLIError(f"--{flag}: empty range {raw!r} (need A <= B)")
    if isinstance(values, range):
        return values, values[0], values[-1]
    return values, min(values), max(values)


def _cmd_verify(args) -> int:
    if args.n is not None or args.alpha is not None or args.sigma is not None:
        if None in (args.n, args.alpha, args.sigma):
            raise CLIError("--n/--alpha/--sigma must be given together")
        for name in ("n_range", "alpha_set", "sigma_tilde_range"):
            if getattr(args, name) is not None:
                raise CLIError(f"--{name.replace('_', '-')}: not used with --n/--alpha/--sigma")
        point = _params_from(args)
        points = lambda: [point]
        ns = (point.n,)
    else:
        ns, n_min, _ = _parse_range(args.n_range, "n-range", "2:5")
        if n_min < 2:
            raise CLIError("--n-range: rank below supported range (need n >= 2)")
        alphas, alpha_min, alpha_max = _parse_range(args.alpha_set, "alpha-set", "0,1,2,3")
        if alpha_min < 0 or alpha_max > 3:
            raise CLIError(f"--alpha-set: alpha must be one of 0, 1, 2, 3, got {args.alpha_set!r}")
        sigma_tildes, _, _ = _parse_range(args.sigma_tilde_range, "sigma-tilde-range", "-6:6")
        size = len(ns) * len(alphas) * len(sigma_tildes)  # a range's len lists nothing
        if size > MAX_SWEEP_POINTS:
            given = [name for name in ("n_range", "alpha_set", "sigma_tilde_range") if getattr(args, name)]
            flags = "/".join("--" + name.replace("_", "-") for name in given)
            raise CLIError(f"{flags}: sweep of {size} points exceeds verify's budget of {MAX_SWEEP_POINTS} points")
        points = lambda: (  # generated anew for the pre-check and for the run
            InducedRepParams(n=n, alpha=a, sigma=Fraction(st) - Fraction(n + 1 + a, 2))
            for n in ns for a in alphas for st in sigma_tildes
        )
    # refuse a point of too many cells before any point runs
    flag = "--n/--sigma" if args.n is not None else "--n-range/--sigma-tilde-range"
    for params in points():
        try:
            oracle.check_cells(params)
        except ValueError as e:
            raise CLIError(f"{flag}: {e}") from None

    all_ok = True
    for params in points():
        verdict = oracle.compare(params)
        all_ok &= verdict.ok
        record = {
            "n": params.n,
            "alpha": params.alpha,
            "sigma": format_rational(params.sigma),
            "sigma_tilde": format_rational(params.sigma_tilde),
            "case": verdict.case,
            "lmax": verdict.lmax,
            "ok": verdict.ok,
            "checks": dict(verdict.checks),
            "witness": verdict.witness,
        }
        print(json.dumps(record, sort_keys=True))
    return 0 if all_ok else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="dpseries", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("classify", _cmd_classify),
        ("constituents", _cmd_constituents),
        ("socle", _cmd_socle),
        ("unitary", _cmd_unitary),
        ("embeddings", _cmd_embeddings),
    ):
        p = sub.add_parser(name)
        _add_params_flags(p)
        _add_format_flag(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("diagram")
    _add_params_flags(p)
    _add_format_flag(p, dot=True)
    p.set_defaults(fn=_cmd_diagram)

    p = sub.add_parser("omega")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--n", required=True)
    _add_format_flag(p)
    p.set_defaults(fn=_cmd_omega)

    p = sub.add_parser("ktype")
    _add_params_flags(p)
    p.add_argument("--lambda", required=True, help="comma-separated K-type index, e.g. 1,0,-2")
    _add_format_flag(p)
    p.set_defaults(fn=_cmd_ktype)

    p = sub.add_parser("verify")
    p.add_argument("--n", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--sigma", default=None)
    p.add_argument("--n-range", dest="n_range", help="sweep ranks, A:B or a list (default 2:5)")
    p.add_argument("--alpha-set", dest="alpha_set", help="sweep alphas (default 0,1,2,3)")
    p.add_argument("--sigma-tilde-range", dest="sigma_tilde_range", help="sweep sigma_tilde (default -6:6)")
    p.set_defaults(fn=_cmd_verify)
    return parser


_VALUE_FLAGS = {"--sigma", "--lambda", "--sigma-tilde-range", "--alpha-set", "--n-range"}


def _normalize_argv(argv: list[str]) -> list[str]:
    # join flag/value pairs whose value starts with "-" (e.g. --sigma -3/2),
    # which argparse would otherwise read as another option
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_normalize_argv(argv))
        return args.fn(args)
    except CLIError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (e.g. ``dpseries verify | head -1``);
        # point stdout at devnull so the flush at interpreter exit cannot
        # raise again, and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
