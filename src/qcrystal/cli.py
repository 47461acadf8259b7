"""Command line front end.

Four subcommands: ``insert`` runs one of the insertion algorithms on a
word or factorization, ``graph`` exports the crystal component of a seed
as DOT or JSON, ``enumerate`` lists a finite family with its count, and
``verify`` runs the exhaustive check suites.  ``graph``, ``enumerate``
and ``verify`` each name in one table the options that each choice
reads; any other is rejected, and for ``graph`` and ``enumerate`` every
one read is required.  A ``graph`` seed is checked by its model's own
``validate``, alphabet included.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 vertex cap
exceeded (the cap honors the QCRYSTAL_MAX_VERTICES environment variable),
4 internal invariant failure (a bug, reported as one ``internal error:``
line).
Results go to stdout, diagnostics to stderr; output is deterministic for
a fixed command line.
"""

import argparse
import json
import sys

from . import engine
from . import kraskiewicz as kw
from . import mixed
from . import models
from . import ptops
from . import tableaux as tb
from . import typeb
from . import verify as verify_mod


def _shape(text: str) -> tuple[int, ...]:
    try:
        return tb.parse_shape(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _require(options: dict) -> None:
    for name, value in options.items():
        if value is None:
            raise ValueError(f"--{name} is required here")


def _at_least_one(args, names) -> None:
    for name in names:
        value = getattr(args, name.replace("-", "_"))
        if value is not None and value < 1:
            raise ValueError(f"--{name} must be at least 1, got {value}")


def cmd_insert(args) -> int:
    if args.algo == "hm":
        p, q = mixed.hm(typeb.parse_word(args.input))
        print("P:", tb.fmt_primed(p))
        print("Q:", tb.fmt_plain(q))
    elif args.algo == "kr":
        p, q = kw.kr(typeb.parse_word(args.input))
        print("P:", tb.fmt_plain(p))
        print("Q:", tb.fmt_plain(q))
    else:
        p, t = kw.pkr(typeb.parse_factorization(args.input))
        print("P:", tb.fmt_plain(p))
        print("T:", tb.fmt_primed(t))
    return 0


def _check_seed(seed, msg, shape=None) -> None:
    """Reject a seed outside its model's family, or a tableau seed of
    another shape; a word seed (no shape) keeps the bare message."""
    if msg is not None:
        raise ValueError(msg if shape is None else f"seed: {msg}")
    if shape is not None and tb.shape_of(seed) != shape:
        raise ValueError(f"seed has shape {tb.shape_of(seed)}, "
                         f"expected {shape}")


# word and tableau models: the builder's name on models (looked up at
# call time), the seed parser, the default seed (words have none, so
# --seed is required there), and the option bounding the alphabet
_TABLEAU_MODELS = {
    "words": ("model_words", typeb.parse_word, None, "n"),
    "pt": ("model_pt", tb.parse_primed, ptops.highest_pt, "n"),
    "ssdt": ("model_ssdt", tb.parse_plain, models.highest_ssdt, "n"),
    "spt": ("model_spt", tb.parse_primed, ptops.highest_pt, "m"),
}


def _graph_component(args) -> engine.CrystalGraph:
    if args.model in _TABLEAU_MODELS:
        builder, parse, highest, bound = _TABLEAU_MODELS[args.model]
        if highest is None:
            _require({"seed": args.seed})
        n = getattr(args, bound)
        model = getattr(models, builder)(n)
        seed = (parse(args.seed) if args.seed is not None
                else highest(n, args.shape))
        _check_seed(seed, model.validate(seed), args.shape)
        return engine.component(model, seed)
    # model_fact's lift rejects a seed with other than m factors
    perm = typeb.parse_perm(args.perm)
    seed = (typeb.parse_factorization(args.seed) if args.seed is not None
            else models.seed_factorization(perm, args.m))
    word = typeb.fact_word(seed)
    if (typeb.apply_word(word, len(perm)) != perm
            or len(word) != typeb.length(perm)):
        raise ValueError(f"seed word {typeb.fmt_word(word)} is not a reduced "
                         f"word of {typeb.fmt_perm(perm)}")
    return engine.component(models.model_fact(args.m), seed)


def _read_options(args, selector: str, table) -> dict:
    """The options that the chosen --<selector> reads, by name; table pairs
    each option with the choices that read it, and any other is an error."""
    choice = getattr(args, selector)
    read = {}
    for name, choices in table:
        value = getattr(args, name)
        if choice in choices:
            read[name] = value
        elif value is not None and value is not False:
            raise ValueError(f"--{name} only applies to --{selector} "
                             + " or ".join(choices))
    return read


# graph options with the models that read them: each is required there
# and rejected elsewhere
_MODEL_OPTIONS = (("n", ("words", "pt", "ssdt")), ("m", ("spt", "fact")),
                  ("shape", ("pt", "ssdt", "spt")), ("perm", ("fact",)))


def cmd_graph(args) -> int:
    _at_least_one(args, ["n", "m"])
    _require(_read_options(args, "model", _MODEL_OPTIONS))
    g = _graph_component(args)
    if args.format == "dot":
        sys.stdout.write(engine.to_dot(g))
    else:
        print(json.dumps(engine.to_json(g), indent=2, sort_keys=True))
    return 0


# enumerate options with the families that read them: each is required
# there and rejected elsewhere
_FAMILY_OPTIONS = (("n", ("pt", "ssdt")), ("m", ("factorizations",)),
                   ("shape", ("pt", "ssdt")),
                   ("perm", ("reduced", "factorizations")))


def cmd_enumerate(args) -> int:
    _at_least_one(args, ["n", "m"])
    _require(_read_options(args, "what", _FAMILY_OPTIONS))
    if args.what == "reduced":
        items = [typeb.fmt_word(w)
                 for w in typeb.enumerate_reduced(typeb.parse_perm(args.perm))]
    elif args.what == "factorizations":
        items = [typeb.fmt_factorization(f) for f in
                 typeb.enumerate_factorizations(
                     typeb.parse_perm(args.perm), args.m)]
    elif args.what == "pt":
        items = [tb.fmt_primed(t) for t in tb.enumerate_pt(args.n, args.shape)]
    else:
        items = [tb.fmt_plain(t)
                 for t in tb.enumerate_ssdt(args.n, args.shape)]
    for item in items:
        print(item)
    print(f"count {len(items)}")
    return 0


# verify options that only some suites read, with those suites
_SUITE_OPTIONS = (("corrupt", ("axioms",)), ("perm", ("equivalence", "all")),
                  ("m", ("equivalence", "all")))


def cmd_verify(args) -> int:
    _at_least_one(args, ["n", "max-size", "m"])
    kw = _read_options(args, "suite", _SUITE_OPTIONS)
    if "perm" in kw:
        kw["perm"] = (None if args.perm is None
                      else typeb.parse_perm(args.perm))
    report = verify_mod.SUITES[args.suite](args.n, args.max_size, **kw)
    print(json.dumps(report, sort_keys=True))
    return 0 if not report["failures"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcrystal",
        description="crystal combinatorics on words, shifted tableaux, "
                    "and signed unimodal factorizations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("insert", help="run an insertion algorithm")
    p.add_argument("--algo", choices=("hm", "kr", "pkr"), required=True)
    p.add_argument("input", help="word (hm, kr) or factorization (pkr)")
    p.set_defaults(func=cmd_insert)

    p = sub.add_parser("graph", help="export the crystal component of a seed")
    p.add_argument("--model", choices=("words", "ssdt", "pt", "spt", "fact"),
                   required=True)
    p.add_argument("--n", type=int, help="alphabet size / rank")
    p.add_argument("--m", type=int, help="number of factors or entry bound")
    p.add_argument("--shape", type=_shape, help="strict partition like 3,1")
    p.add_argument("--perm", help="signed permutation like 3,2,-1")
    p.add_argument("--seed", help="start element (default: highest weight)")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("enumerate", help="list a finite family and count it")
    p.add_argument("--what", choices=("reduced", "factorizations",
                                      "pt", "ssdt"), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--shape", type=_shape)
    p.add_argument("--perm")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=tuple(verify_mod.SUITES), required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--max-size", type=int, default=5)
    p.add_argument("--m", type=int)
    p.add_argument("--perm")
    p.add_argument("--corrupt", action="store_true",
                   help="negative control: break a model on purpose")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except engine.CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except tb.InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
