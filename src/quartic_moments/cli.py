"""Command-line front end.

One binary, JSON-first reports (keys sorted, floats at full binary64
precision), CSV opt-in for the tabular outputs.  Exit codes:
0 success, 1 numerical-certification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cache import CacheCorruptError, _body, read_lvalue_cache, write_lvalue_cache
from .characters import QuarticCharacter, characters_upto
from .gauss_sums import gauss_average, gauss_sum, gauss_sum_twisted
from .gaussint import GaussInt
from .lfunctions import (
    AFEConfig,
    TruncationError,
    constants,
    lvalue_afe,
    lvalue_direct,
)
from .moments import (
    first_moment,
    moment_family,
    moment_records,
    nonvanishing_count,
    second_moment,
    sieve_ratio_quartic,
    sieve_ratio_quadratic,
)
from .symbols import quartic_symbol, quartic_symbol_fast
from .verification import SUITES, run_suite
from .weights import bump_weight

__all__ = ["dispatch", "main"]


def _emit(payload: dict, args: argparse.Namespace) -> None:
    payload = dict(payload)
    payload["config"] = _effective_config(args)
    print(json.dumps(payload, sort_keys=True))


def _effective_config(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _afe_config(args: argparse.Namespace) -> AFEConfig:
    kwargs = {k: getattr(args, k, None) for k in ("g_choice", "truncation_eps", "split_a")}
    return AFEConfig(**{k: v for k, v in kwargs.items() if v is not None})


def _cmd_symbol(args) -> int:
    num = GaussInt.parse(args.num)
    den = GaussInt.parse(args.den)
    val = quartic_symbol_fast(num, den) if args.fast else quartic_symbol(num, den)
    print(val)
    return 0


def _cmd_gauss_sum(args) -> int:
    n = GaussInt.parse(args.mod)
    if args.twist:
        val = gauss_sum_twisted(GaussInt.parse(args.twist), n)
    else:
        val = gauss_sum(n)
    _emit({"re": val.real, "im": val.imag, "mod": str(n)}, args)
    return 0


def _cmd_gauss_average(args) -> int:
    rep = gauss_average(GaussInt.parse(args.l), args.X, bump_weight(), args.restricted)
    _emit(
        {
            "re": rep.value.real,
            "im": rep.value.imag,
            "terms": rep.terms,
            "restricted": rep.restricted,
            "Q_three_quarters": args.X ** 0.75,
        },
        args,
    )
    return 0


def _cmd_enumerate(args) -> int:
    chars = characters_upto(args.max_q)
    if args.count_only:
        _emit({"count": len(chars), "max_q": args.max_q}, args)
        return 0
    print("q,a,b")
    for chi in chars:
        print(f"{chi.q},{chi.n.a},{chi.n.b}")
    return 0


def _cmd_lvalue(args) -> int:
    n = GaussInt(args.a, args.b)
    chi = QuarticCharacter.from_generator(n)
    if chi.q != args.q:
        raise ValueError(f"generator {n} has norm {chi.q}, not {args.q}")
    parts = (args.alpha or "0").split(",")
    if len(parts) > 2:
        raise ValueError(f"--alpha takes re or re,im, not {args.alpha!r}")
    alpha = complex(*(float(t) for t in parts))
    if args.method == "direct":
        rec = lvalue_direct(chi, 0.5 + alpha)
    else:
        rec = lvalue_afe(chi, alpha, _afe_config(args))
    payload = {
        "q": rec.q,
        "a": rec.a,
        "b": rec.b,
        "re": rec.value.real,
        "im": rec.value.imag,
        "method": rec.method,
        "err": rec.err_estimate,
    }
    if args.cache:
        existing = []
        try:
            existing = read_lvalue_cache(args.cache)
        except FileNotFoundError:
            pass
        keep = [r for r in existing if (r.q, r.a, r.b) != (rec.q, rec.a, rec.b)]
        write_lvalue_cache(args.cache, keep + [rec])
    _emit(payload, args)
    return 0


def _cmd_moment(args) -> int:
    method = "direct" if args.oracle else "afe"
    if args.csv:
        # per-character rows in the L-value cache schema
        chars = moment_family(args.Q, bump_weight())
        print(_body(moment_records(chars, _afe_config(args), args.workers, method)), end="")
        return 0
    rep = first_moment(
        args.Q,
        bump_weight(),
        _afe_config(args),
        workers=args.workers,
        with_per_q=True,
        method=method,
    )
    _emit(rep.to_dict(), args)
    return 0


def _cmd_nonvanish(args) -> int:
    rep = nonvanishing_count(args.Q, args.threshold, _afe_config(args), args.workers)
    _emit(rep.to_dict(), args)
    return 0


def _cmd_second_moment(args) -> int:
    rep = second_moment(args.Q, args.t, _afe_config(args), workers=args.workers)
    _emit(rep.to_dict(), args)
    return 0


def _cmd_sieve(args) -> int:
    if args.kind == "quartic":
        rep = sieve_ratio_quartic(args.Q, args.M, args.trials, args.seed)
    else:
        rep = sieve_ratio_quadratic(args.M, args.N, args.trials, args.seed)
    _emit(rep.to_dict(), args)
    return 0


def _cmd_constants(args) -> int:
    _emit(constants(args.prime_bound).as_dict(), args)
    return 0


def _cmd_verify(args) -> int:
    kwargs = {}
    if args.max_norm is not None:
        kwargs["max_norm"] = args.max_norm
    if args.max_q is not None:
        kwargs["max_q"] = args.max_q
    ok, detail = run_suite(args.suite, **kwargs)
    detail["suite"] = args.suite
    detail["ok"] = ok
    _emit(detail, args)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quartic-moments",
        description="Quartic Dirichlet characters over Z[i], Gauss sums, "
        "central L-values, and moment experiments.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("symbol", help="quartic residue symbol (num/den)_4")
    p.add_argument("--num", required=True)
    p.add_argument("--den", required=True)
    p.add_argument("--fast", action="store_true", help="reciprocity descent path")
    p.set_defaults(func=_cmd_symbol)

    p = sub.add_parser("gauss-sum", help="quartic Gauss sum g(n) or g(k, n)")
    p.add_argument("--mod", required=True)
    p.add_argument("--twist", default=None)
    p.set_defaults(func=_cmd_gauss_sum)

    p = sub.add_parser("gauss-average", help="weighted Gauss-sum average H(l, X)")
    p.add_argument("--l", required=True)
    p.add_argument("--X", type=float, required=True)
    p.add_argument("--restricted", action="store_true")
    p.set_defaults(func=_cmd_gauss_average)

    p = sub.add_parser("enumerate", help="enumerate conductors and generators")
    p.add_argument("--max-q", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("lvalue", help="central L-value for one character")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--method", choices=("afe", "direct"), default="afe")
    p.add_argument("--alpha", default=None, help="re,im shift")
    p.add_argument("--g-choice", choices=("constant_one", "gaussian"), default=None)
    p.add_argument("--truncation-eps", type=float, default=None)
    p.add_argument("--split-a", type=float, default=None)
    p.add_argument("--cache", default=None, help="L-value cache CSV path")
    p.set_defaults(func=_cmd_lvalue)

    p = sub.add_parser("moment", help="first moment M(Q) vs C*Q*w~(1)")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--weight", choices=("bump12",), default="bump12")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--oracle", action="store_true",
                   help="use the direct Hurwitz-zeta oracle for every L-value")
    p.add_argument("--csv", action="store_true",
                   help="dump the per-character L-values in the cache schema")
    p.add_argument("--g-choice", choices=("constant_one", "gaussian"), default=None)
    p.add_argument("--truncation-eps", type=float, default=None)
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("nonvanish", help="non-vanishing proportion at Q")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--threshold", type=float, default=1e-8)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_nonvanish)

    p = sub.add_parser("second-moment", help="second moment and growth fit")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_second_moment)

    p = sub.add_parser("sieve", help="empirical large-sieve ratio")
    p.add_argument("--kind", choices=("quartic", "quadratic"), default="quartic")
    p.add_argument("--Q", type=int, default=64)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, default=64)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("constants", help="the main-term constant C and its pieces")
    p.add_argument("--prime-bound", type=int, default=300_000)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--max-norm", type=int, default=None)
    p.add_argument("--max-q", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return ap


def dispatch(argv: list[str]) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (TruncationError, CacheCorruptError) as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}), file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
