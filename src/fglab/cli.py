"""Command-line surface: one subcommand per computation family, table
emission in text/csv/json, and a reproduce-paper mode that recomputes every
embedded golden table and diffs it cell by cell.

Exit codes: 0 success, 1 computation error, 2 usage error, 3 golden-diff
failure.  Output is deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import contextmanager
from fractions import Fraction

from .errors import FglabError, NotAUnit, NotInDomain, UnsupportedDimension, UsageError
from .rings import RAT, Padic2


def _emit(rows, headers, fmt, out):
    """rows: list of tuples; deterministic ordering supplied by callers."""
    if fmt == "csv":
        import csv
        w = csv.writer(out, lineterminator="\n")
        w.writerow(headers)
        for r in rows:
            w.writerow([str(c) for c in r])
    elif fmt == "json":
        import json
        payload = [dict(zip(headers, [str(c) for c in r])) for r in rows]
        json.dump(payload, out, indent=1, sort_keys=True)
        out.write("\n")
    else:
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
                  for i, h in enumerate(headers)]
        out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
        for r in rows:
            out.write("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def _at_least(flag, value, low):
    if value < low:
        raise UsageError(f"{flag} must be >= {low}, got {value}")


@contextmanager
def _domain(flag, error):
    """The library's out-of-domain ``error`` for the value of ``flag`` is a usage error."""
    try:
        yield
    except error as e:
        raise UsageError(f"{flag}: {e}") from None


# -- subcommand implementations ---------------------------------------------------


def cmd_series(args, out):
    from . import fgl
    _at_least("--order", args.order, 1)
    if args.action == "invert":
        n = args.order
        g = fgl.generic_strict_series(RAT, n + 1, n)
        inv = g.comp_inverse("t")
        rows = []
        for k in range(1, n + 1):
            rows.append((f"c{k}", str(inv.coeff_in_var("t", k + 1))))
        _emit(rows, ["coefficient", "value"], args.fmt, out)
    elif args.action == "residue":
        n = args.order
        g = fgl.generic_strict_series(RAT, n + 1, n)
        from .series import residue_inverse_coeff
        inv = g.comp_inverse("t")
        rows = []
        for k in range(1, n + 1):
            r = residue_inverse_coeff(g, "t", k)
            rows.append((f"c{k}", str(r), "agree" if r == inv.coeff_in_var("t", k + 1) else "DIFFER"))
        _emit(rows, ["coefficient", "residue_formula", "vs_recursive"], args.fmt, out)
    return 0


def cmd_fgl(args, out):
    from . import fgl
    if args.action == "twist":
        g = fgl.generic_strict_series(RAT, args.bound, args.nb)
        law = fgl.FGL(fgl.fgl_twist(fgl.multiplicative_law(RAT, args.bound), g))
        rows = []
        for (i, j), c in sorted(law.coeff_table().items()):
            if i <= j:
                rows.append((f"a{i}{j}", str(c)))
        _emit(rows, ["coefficient", "image"], args.fmt, out)
    elif args.action == "cpn":
        with _domain("--n", UnsupportedDimension):
            poly = fgl.cpn_in_a(args.n, args.mode)
        _emit([(f"CP{args.n}", str(poly))], ["class", "polynomial"], args.fmt, out)
    elif args.action == "box-diff":
        rows = []
        for n in range(1, 5):
            d = fgl.cpn_box_diff(n)
            rows.append((f"CP{n}", "match" if d.is_zero() else f"box - residue = {d}"))
        _emit(rows, ["class", "paper_box_vs_residue_exact"], args.fmt, out)
    elif args.action == "miscenko":
        expr = fgl.BordismExpr.parse(args.expr)
        nb = expr.dimension()
        tw = fgl.fgl_twist(fgl.multiplicative_law(RAT, nb + 2), fgl.generic_strict_series(RAT, nb + 2, nb))
        with _domain("--expr", UnsupportedDimension):
            img = fgl.miscenko_image(expr, tw, args.mode)
        _emit([(args.expr, args.mode, str(img))], ["expression", "mode", "image"], args.fmt, out)
    return 0


def cmd_chern(args, out):
    from . import chern
    if args.action == "total":
        try:
            dims = [int(d) for d in args.dims.split(",")]
        except ValueError:
            raise UsageError(f"--dims expects comma-separated integers, got {args.dims!r}") from None
        p = chern.ProjProduct(dims)
        tc = chern.total_chern(p)
        rows = [(tc.monomial_str(exp) or "1", c) for exp, c in tc.sorted_terms()]
        _emit(rows, ["monomial", "coefficient"], args.fmt, out)
    elif args.action == "system":
        basis = _dim_basis(args.dim)
        m = chern.su_constraint_system(basis, args.dim)
        monos = chern.chern_monomials_with_c1(args.dim)
        rows = []
        for mono, row in zip(monos, m.rows):
            rows.append((chern.monomial_label(mono), *row))
        _emit(rows, ["constraint"] + [b.label() for b in basis], args.fmt, out)
    elif args.action == "reduce":
        basis = _dim_basis(args.dim)
        m = chern.integer_reduce(chern.su_constraint_system(basis, args.dim))
        rows = [(f"row{i+1}", *r) for i, r in enumerate(m.rows)]
        _emit(rows, ["row"] + [b.label() for b in basis], args.fmt, out)
    elif args.action == "nullspace":
        basis = _dim_basis(args.dim)
        m = chern.su_constraint_system(basis, args.dim)
        ns = chern.nullspace_rational(m)
        rows = [(f"v{i+1}", *[str(x) for x in v]) for i, v in enumerate(ns)]
        _emit(rows, ["vector"] + [b.label() for b in basis], args.fmt, out)
    elif args.action == "todd":
        try:
            vals = [Fraction(v) for v in args.inputs.split(",")]
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--inputs expects comma-separated rationals, got {args.inputs!r}") from None
        if len(vals) != 5:
            raise UsageError("todd expects c1^4,c1c3,c1^2c2,c2^2,c4")
        t4 = chern.todd_t4(*vals)
        _emit([(args.inputs, str(t4))], ["chern_numbers", "T4"], args.fmt, out)
    return 0


def _dim_basis(dim):
    """The paper's basis in dimension 4, else every product of projective
    spaces of total complex dimension ``dim``."""
    from . import chern
    if dim == 4:
        return chern.paper_dim8_basis()
    return [chern.ProjProduct(p) for p in sorted(p[::-1] for p in chern.partitions(dim))]


def cmd_adams(args, out):
    from . import adams
    if args.action == "beta":
        elt = adams.psi_inv_beta(args.k, args.i)
        if args.mod2:
            elt = elt.mod2()
        _emit([(f"psi^(1/{args.k}) beta_{args.i}", str(elt))], ["operation", "value"], args.fmt, out)
    elif args.action == "beta-table":
        rows = []
        for i in range(1, args.imax + 1):
            elt = adams.psi_inv_beta(args.k, i)
            if args.mod2:
                elt = elt.mod2()
            rows.append((f"beta_{i}", str(elt)))
        _emit(rows, ["generator", "image"], args.fmt, out)
    elif args.action == "nki":
        _nki_reaches(args.nki, args.k, f"got --k {args.k}")
        table = adams.nki_coeffs(args.k, args.nki)
        rows = [(f"n_{args.k}^{i}", c) for i, c in sorted(table.items())]
        _emit(rows, ["coefficient", "value"], args.fmt, out)
    elif args.action == "relations":
        # a relation sits at x^a y^b z^c with a, b, c >= 1 and a != c; the first is x^2*y*z
        rows = []
        for (a, b, c), poly in adams.gen_2structure_relations(args.degree).items():
            rows.append((f"x^{a}*y^{b}*z^{c}", str(poly), str(poly.set_u().content_normalize())))
        _emit(rows, ["monomial", "relation", "relation_at_u_1"], args.fmt, out)
    elif args.action == "psi-dk":
        W = max(args.k, 7)
        red = _reducer(W, args.nki)
        if args.level == "base":
            p = adams.psi_on_dk(args.k, red)
        else:
            from . import cannibal
            p = cannibal.thom_psi_dk(args.k, cannibal.theta3_direct(W), red)
        if args.fmt == "json":
            import json
            json.dump(p.to_json_obj(), out, indent=1, sort_keys=True)
            out.write("\n")
        else:
            _emit([(f"d{args.k}", args.level, str(p))], ["generator", "level", "psi_image"], args.fmt, out)
    elif args.action == "spherical":
        W = args.max_weight // 2
        red = _reducer(W, args.nki)
        if args.level == "thom":
            from . import cannibal
            theta = cannibal.theta3_direct(W)
            table = {k: cannibal.thom_psi_dk(k, theta, red) for k in range(2, W + 1)}
        else:
            table = {k: adams.psi_on_dk(k, red) for k in range(2, W + 1)}
        kern, new = adams.spherical_search(args.max_weight, table)
        rows = []
        for w in range(2, args.max_weight + 1, 2):
            elts = new.get(w, [])
            if not elts:
                rows.append((w, "-"))
            for e in elts:
                rows.append((w, str(e)))
        _emit(rows, ["weight", "kernel_class_mod2"], args.fmt, out)
    return 0


def _nki_reaches(nki, k, context):
    """--nki paper has n_k^i only for k in the paper's table."""
    from .adams import NKI_PAPER
    if nki == "paper" and k > max(NKI_PAPER):
        raise UsageError(f"--nki paper covers k <= {max(NKI_PAPER)}, {context}")


def _reducer(W, nki):
    """The d_k reducer through halved weight W, which needs n_k^i for every
    k <= W; psi on the d_k reads that --nki choice from it."""
    from .adams import DReducer, gen_2structure_relations
    _nki_reaches(nki, W, f"but this command needs the reducer through weight {W}")
    return DReducer(W, gen_2structure_relations(W), nki_mode=nki)


def cmd_cannibal(args, out):
    from . import cannibal
    if args.action == "table":
        tab = cannibal.theta3_direct(args.bound)
        rows = []
        for m in range(args.bound + 1):
            rows.append((m, *[str(tab[m, n]) for n in range(args.bound + 1)]))
        _emit(rows, ["m\\n"] + [str(n) for n in range(args.bound + 1)], args.fmt, out)
    elif args.action == "closed":
        _emit([(args.m, args.n, str(cannibal.theta3_closed(args.m, args.n)))],
              ["m", "n", "c_mn"], args.fmt, out)
    elif args.action == "tseq":
        ts = cannibal.ThetaGenSeq(args.n)
        rows = [(k, str(ts[k]), str(cannibal.theta_gen_closed(k))) for k in range(args.n + 1)]
        _emit(rows, ["k", "recurrence", "closed_form"], args.fmt, out)
    return 0


def cmd_mahler(args, out):
    from . import mahler
    if args.action == "dilate":
        # --padic replaces the integer --k, and only it reads --precision
        unread, when = ("--k", "with") if args.padic is not None else ("--precision", "without")
        if unread in args.given:
            raise UsageError(f"{unread} is not read by dilate {when} --padic")
        k = Padic2(args.padic, args.precision) if args.padic is not None else args.k
        with _domain("--padic", NotAUnit):
            np_ = mahler.dilate(k, args.i)
        if args.fmt == "json" and args.padic is None:
            import json
            json.dump(np_.to_json_obj(), out, indent=1, sort_keys=True)
            out.write("\n")
        else:
            _emit([(f"C({args.k if args.padic is None else args.padic}T,{args.i})", str(np_))],
                  ["dilation", "expansion"], args.fmt, out)
    elif args.action == "matrix":
        rows_ = mahler.dilation_matrix(args.k, args.imax)
        rows = [(i, *row) for i, row in enumerate(rows_)]
        _emit(rows, ["i\\j"] + [str(j) for j in range(args.imax + 1)], args.fmt, out)
    elif args.action == "vs-adams":
        res = mahler.dilation_vs_adams(args.imax)
        _emit([("sign-conjugation identity", f"verified for i,j <= {args.imax}")],
              ["check", "result"], args.fmt, out)
    return 0


def cmd_artin_schreier(args, out):
    from .mahler import artin_schreier_check
    _at_least("--precision", args.precision, 16)
    with _domain("--u", NotInDomain):
        res = artin_schreier_check(args.u, args.precision)
    rows = [
        ("b = -log(u)/log(81)", f"{res['b'].value} mod 2^{res['b'].precision}"),
        ("-log(u/81)/log(81)", f"{res['lhs'].value} mod 2^{res['lhs'].precision}"),
        ("b + 1", f"{res['rhs'].value} mod 2^{res['rhs'].precision}"),
        ("verified", str(res["verified"]).lower()),
    ]
    _emit(rows, ["quantity", "value"], args.fmt, out)
    return 0 if res["verified"] else 1


def cmd_reproduce(args, out):
    from .golden_data import all_tables
    tables = all_tables()
    any_diff = False
    unexpected = False
    for tab in tables:
        diffs = tab.diff()
        status = "MATCH"
        if diffs:
            any_diff = True
            known = all(d.known for d in diffs)
            status = f"DIFF({len(diffs)} cells{', all documented transcription errors' if known else ''})"
            if not known:
                unexpected = True
        out.write(f"[{tab.table_id}] {tab.paper_ref}: {status}\n")
        if diffs and args.verbose:
            for d in diffs:
                note = f"  [{d.note}]" if d.note else ""
                out.write(f"    {d.key}: paper={d.expected} computed={d.computed}{note}\n")
    if not any_diff:
        out.write("all tables match\n")
        return 0
    out.write("golden diffs found"
              + (" (all are documented paper transcription errors)\n" if not unexpected else "\n"))
    return 3


# -- argument parsing --------------------------------------------------------------


# flags that more than one subcommand reads; each subcommand takes only its own
SHARED_FLAGS = {
    "--format": dict(dest="fmt", default="text", choices=["text", "csv", "json"]),
    "--out": dict(default=None, help="write output to FILE"),
    "--bound": dict(type=int, default=12, help="series truncation bound"),
    "--precision": dict(type=int, default=64, help="2-adic precision (bits)"),
}


# each subcommand's flags that only some of its actions read: flag -> (those
# actions, the least value or None, options); a flag given to any other action
# is a usage error
ACTION_FLAGS = {
    "fgl": {
        "--bound": ("twist", 2, SHARED_FLAGS["--bound"]),
        "--mode": ("cpn miscenko", None, dict(default="paper-box", choices=["paper-box", "residue-exact"])),
        "--nb": ("twist", 0, dict(type=int, default=5, help="number of b_i symbols")),
        "--n": ("cpn", 1, dict(type=int, default=4)),
        "--expr": ("miscenko", None, dict(default="1/4*K3SQ + 12*N")),
    },
    "chern": {
        "--dims": ("total", None, dict(default="1,3")),
        "--dim": ("system reduce nullspace", 1, dict(type=int, default=4)),
        "--inputs": ("todd", None, dict(default="625,50,250,100,5")),
    },
    "adams": {
        "--nki": ("nki psi-dk spherical", None,
                  dict(default="auto", choices=["paper", "extended-gcd", "auto"])),
        "--k": ("beta beta-table nki psi-dk", 1, dict(type=int, default=3)),
        "--i": ("beta", 0, dict(type=int, default=3)),
        "--imax": ("beta-table", 1, dict(type=int, default=10, help="beta-table only (default 10)")),
        "--mod2": ("beta beta-table", None, dict(action="store_true", default=False)),
        "--degree": ("relations", 4, dict(type=int, default=7)),
        "--level": ("psi-dk spherical", None, dict(default="base", choices=["base", "thom"])),
        "--max-weight": ("spherical", 2, dict(type=int, default=20)),
    },
    "cannibal": {
        "--bound": ("table", 2, SHARED_FLAGS["--bound"]),
        "--m": ("closed", 0, dict(type=int, default=2)),
        "--n": ("closed tseq", 0, dict(type=int, default=2)),
    },
    "mahler": {
        "--precision": ("dilate", 16, SHARED_FLAGS["--precision"]),
        "--k": ("dilate matrix", None, dict(type=int, default=3)),
        "--i": ("dilate", 0, dict(type=int, default=4)),
        "--imax": ("matrix vs-adams", 0, dict(type=int, default=6)),
        "--padic": ("dilate", None, dict(type=int, help="2-adic unit value instead of integer k")),
    },
}


def build_parser():
    p = argparse.ArgumentParser(prog="fglab", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def sub_add(name, *flags, actions=None, help):
        s = sub.add_parser(name, help=help)
        for flag in flags:
            s.add_argument(flag, **SHARED_FLAGS[flag])
        if actions:
            s.add_argument("action", choices=actions.split())
        for flag, (*_, opts) in ACTION_FLAGS.get(name, {}).items():
            s.add_argument(flag, **{**opts, "default": None})  # None: not given
        return s

    fmt_out = ("--format", "--out")
    s = sub_add("series", *fmt_out, actions="invert residue", help="inverse-series coefficients")
    s.add_argument("--order", type=int, default=4)
    sub_add("fgl", *fmt_out, actions="twist cpn box-diff miscenko", help="formal group law computations")
    sub_add("chern", *fmt_out, actions="total system reduce nullspace todd",
            help="Chern classes and the SU constraint system")
    sub_add("adams", *fmt_out, actions="beta beta-table nki relations psi-dk spherical",
            help="Adams operations on K-homology")
    sub_add("cannibal", *fmt_out, actions="table closed tseq", help="cannibalistic class tables")
    sub_add("mahler", *fmt_out, actions="dilate matrix vs-adams", help="binomial-basis dilation")
    s = sub_add("artin-schreier", *fmt_out, "--precision", help="2-adic Artin-Schreier verification")
    s.add_argument("--u", type=int, default=17)
    s = sub_add("reproduce-paper", "--out", help="recompute and diff all golden tables")
    s.add_argument("--verbose", action="store_true")
    return p


def _scope_action_flags(args):
    """Set the default of each action-specific flag that was not given, and
    record the given ones in ``args.given``.  A given one is a usage error if
    the chosen action does not read it or if it is below its least value."""
    args.given = set()
    for flag, (readers, low, opts) in ACTION_FLAGS.get(args.command, {}).items():
        dest, readers = flag[2:].replace("-", "_"), readers.split()
        if getattr(args, dest) is None:
            setattr(args, dest, opts.get("default"))
            continue
        args.given.add(flag)
        if args.action not in readers:
            names = " and ".join(filter(None, (", ".join(readers[:-1]), readers[-1])))
            raise UsageError(f"{flag} is read by {names} only, not by {args.action}")
        elif low is not None:
            _at_least(flag, getattr(args, dest), low)


DISPATCH = {
    "series": cmd_series,
    "fgl": cmd_fgl,
    "chern": cmd_chern,
    "adams": cmd_adams,
    "cannibal": cmd_cannibal,
    "mahler": cmd_mahler,
    "artin-schreier": cmd_artin_schreier,
    "reproduce-paper": cmd_reproduce,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    buf = io.StringIO()
    try:
        _scope_action_flags(args)
        code = DISPATCH[args.command](args, buf)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except FglabError as e:
        print(f"computation error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # the CLI contract: no traceback reaches the user
        print(f"computation error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            print(f"usage error: cannot write {args.out}: {e.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
