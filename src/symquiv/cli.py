"""Command line front end."""

from __future__ import annotations

import argparse
import functools
import sys

from . import io as sqio
from .errors import SymquivError, ValidationError
from .linalg import pfaffian
from .quiver import euler_form
from .reflection import PLUS, reflect_pair_dim, reflect_pair_rep
from .representation import act, random_group_element, random_structured
from .schur import lr_coefficient, weight_space_dim
from .semiinvariant import evaluate_all, generators_finite, generators_tame
from .symmetric import classify_symmetric, reflect_pair_quiver
from .tame import admissible_arcs, canonical_decomposition, generic_decomposition


QUIVER_CACHE_SIZE = 32        # parsed quivers kept per process, by file text


def _load_quiver(path: str):
    """The symmetric quiver in the file at ``path``.

    The last QUIVER_CACHE_SIZE quivers parsed are kept, keyed by the full
    text of their file, together with every invariant they have computed:
    commands in one process on the same text share one quiver object.  An
    edited file is parsed again; a file that fails to parse keeps nothing.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_quiver_text(fh.read())


@functools.lru_cache(maxsize=QUIVER_CACHE_SIZE)
def _parse_quiver_text(text: str):
    return sqio.parse_quiver(text)


def cmd_classify(args) -> int:
    sq = _load_quiver(args.quiver)
    print(str(classify_symmetric(sq)))
    return 0


def cmd_euler(args) -> int:
    sq = _load_quiver(args.quiver)
    alpha = sqio.parse_dim_vector(args.alpha, sq)
    beta = sqio.parse_dim_vector(args.beta, sq)
    print(euler_form(sq.base, alpha, beta))
    return 0


def cmd_reflect(args) -> int:
    sq = _load_quiver(args.quiver)
    x = args.at
    if args.rep is not None:
        with open(args.rep, "r", encoding="utf-8") as fh:
            sr = sqio.parse_representation(fh.read(), sq)
        sq2, full = reflect_pair_rep(sq, x, PLUS, sr.full())
        sys.stdout.write(sqio.serialize_quiver(sq2))
        print("dim " + sqio.format_dim_vector(full.dim, sq2))
        for name in sorted(m.name for m in sq2.base.arrows):
            m = full.matrices[name]
            print("mat %s %dx%d" % (name, m.rows, m.cols))
            for i in range(m.rows):
                print(" ".join(sqio.format_rational(v) for v in m.row(i)))
        return 0
    if args.dim is not None:
        alpha = sqio.parse_dim_vector(args.dim, sq)
        sq2, out = reflect_pair_dim(sq, x, alpha)
        sys.stdout.write(sqio.serialize_quiver(sq2))
        print("dim " + sqio.format_dim_vector(out, sq2))
        return 0
    sys.stdout.write(sqio.serialize_quiver(reflect_pair_quiver(sq, x)))
    return 0


def cmd_decompose(args) -> int:
    sq = _load_quiver(args.quiver)
    d = sqio.parse_dim_vector(args.dim, sq)
    pairs = generic_decomposition(sq, d, args.mode)
    pairs.sort(key=lambda it: (it[0].as_tuple(sq.base.vertices), it[1]))
    for dim, mult in pairs:
        print("%s x%d" % (sqio.format_dim_vector(dim, sq), mult))
    return 0


def cmd_arcs(args) -> int:
    sq = _load_quiver(args.quiver)
    d = sqio.parse_dim_vector(args.dim, sq)
    dec = canonical_decomposition(sq, d)
    print("p %d" % dec.p)
    for lp in dec.labelled:
        poly = lp.polygon
        print("polygon %s rank %d labels %s" %
              (poly.name, poly.rank, ",".join(str(x) for x in lp.labels)))
        for arc in admissible_arcs(lp):
            print("arc %s [%d,%d] len %d ind %d q %d%s%s" %
                  (poly.name, arc.start, arc.end, arc.length, arc.ind, arc.q,
                   " symmetric" if arc.symmetric else "",
                   " wrap" if arc.wrap else ""))
    return 0


def cmd_generators(args) -> int:
    if args.check_invariance < 0:
        raise ValidationError("--check-invariance needs a count k >= 0, not %d"
                              % args.check_invariance)
    sq = _load_quiver(args.quiver)
    d = sqio.parse_dim_vector(args.dim, sq)
    st = classify_symmetric(sq)
    if st.tag == "FiniteA":
        gens = generators_finite(sq, d, args.flavor)
    else:
        gens = generators_tame(sq, d, args.flavor)
    if args.check_invariance:
        w = random_structured(sq, args.flavor, d, seed=args.seed)
        base = evaluate_all(gens, w)
        moved = set()
        for k in range(args.check_invariance if gens else 0):
            elt = random_group_element(sq, args.flavor, d,
                                       seed=args.seed + 7919 * (k + 1))
            gw = act(elt, w)
            if (gw.matrices, gw.fixed_matrices) == (w.matrices, w.fixed_matrices):
                continue              # g fixes w, so no value can move
            moved.update(i for i, v in enumerate(evaluate_all(gens, gw))
                         if v != base[i])
        if moved:
            print("invariance FAILED for %s" % gens[min(moved)].provenance,
                  file=sys.stderr)
            return 4
    for g in gens:
        if args.json_lines:
            print(sqio.descriptor_to_json(g))
        else:
            wt = ",".join("%s:%s" % (k, sqio.format_rational(v))
                          for k, v in sorted(g.weight.values.items()) if v)
            idx = "" if g.index is None else " i=%d" % g.index
            print("%s %s%s weight %s" % (g.kind, g.provenance, idx, wt or "0"))
    return 0


def cmd_evaluate(args) -> int:
    sq = _load_quiver(args.quiver)
    with open(args.rep, "r", encoding="utf-8") as fh:
        sr = sqio.parse_representation(fh.read(), sq)
    with open(args.gen_file, "r", encoding="utf-8") as fh:
        lines = [l for l in fh.read().splitlines() if l.strip()]
    descs = [sqio.descriptor_from_json(line, sq) for line in lines]
    for desc, val in zip(descs, evaluate_all(descs, sr)):
        print("%s %s" % (desc.provenance, sqio.format_rational(val)))
    return 0


def cmd_lr(args) -> int:
    lam, mu, nu = ([sqio.parse_int(t) for t in text.split(",") if t]
                   for text in (args.lam, args.mu, args.nu))
    print(lr_coefficient(lam, mu, nu))
    return 0


def cmd_oracle_dim(args) -> int:
    sq = _load_quiver(args.quiver)
    d = sqio.parse_dim_vector(args.dim, sq)
    chi = sqio.parse_weight(args.weight, sq)
    print(weight_space_dim(sq, args.flavor, d, chi))
    return 0


def cmd_pfaffian(args) -> int:
    with open(args.matrix, "r", encoding="utf-8") as fh:
        m = sqio.parse_matrix(fh.read())
    print(sqio.format_rational(pfaffian(m)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="symquiv",
                                 description="symmetric quivers and their semi-invariants")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="symmetric type of a quiver file")
    p.add_argument("-q", "--quiver", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("euler", help="Euler form of two dimension vectors")
    p.add_argument("-q", "--quiver", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("reflect", help="reflection at an admissible sink pair")
    p.add_argument("-q", "--quiver", required=True)
    p.add_argument("--at", type=int, required=True)
    target = p.add_mutually_exclusive_group()
    target.add_argument("--dim")
    target.add_argument("--rep")
    p.set_defaults(func=cmd_reflect)

    p = sub.add_parser("decompose", help="generic decomposition of a regular vector")
    p.add_argument("-q", "--quiver", required=True)
    p.add_argument("--dim", required=True)
    p.add_argument("--mode", choices=["plain", "sp", "o"], default="plain")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("arcs", help="labelled polygons and admissible arcs")
    p.add_argument("-q", "--quiver", required=True)
    p.add_argument("--dim", required=True)
    p.set_defaults(func=cmd_arcs)

    p = sub.add_parser("generators", help="semi-invariant generators")
    p.add_argument("-q", "--quiver", required=True)
    p.add_argument("--dim", required=True)
    p.add_argument("--flavor", choices=["sp", "o"], required=True)
    p.add_argument("--json-lines", action="store_true")
    p.add_argument("--check-invariance", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("evaluate", help="evaluate generator records on a representation")
    p.add_argument("-q", "--quiver", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--gen-file", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("lr", help="Littlewood-Richardson coefficient")
    p.add_argument("--lambda", dest="lam", default="")
    p.add_argument("--mu", default="")
    p.add_argument("--nu", default="")
    p.set_defaults(func=cmd_lr)

    p = sub.add_parser("oracle-dim", help="weight space dimension oracle")
    p.add_argument("-q", "--quiver", required=True)
    p.add_argument("--dim", required=True)
    p.add_argument("--flavor", choices=["sp", "o"], required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_oracle_dim)

    p = sub.add_parser("pfaffian", help="exact pfaffian of a skew matrix file")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_pfaffian)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SymquivError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:   # unreadable input file
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
