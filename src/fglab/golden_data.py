"""Golden tables: the source publication's printed values embedded as CSV
data files, each diffed against a fresh computation.

Schema: every ``golden/*.csv`` has columns ``key,value,note``; the value is
the *printed* value (so a reviewer can audit the file against the source),
and a non-empty note starting with ``paper misprint`` marks cells whose
printed value is a documented transcription/arithmetic error of the source;
for those the note records the computed value.  ``reproduce-paper`` reports
them as known diffs and anything else as an unexpected diff.
"""

from __future__ import annotations

import csv
from collections import namedtuple
from functools import cache, partial
from importlib import resources

from . import adams, bordism, cannibal, chern, fgl, mahler


CellDiff = namedtuple("CellDiff", "key expected computed known note")


class GoldenTable:
    def __init__(self, table_id, paper_ref, compute_fn):
        self.table_id = table_id
        self.paper_ref = paper_ref
        self.compute_fn = compute_fn
        self._rows = None

    def rows(self):
        if self._rows is None:
            path = resources.files("fglab").joinpath(f"golden/{self.table_id}.csv")
            with path.open() as fh:
                rdr = csv.DictReader(fh)
                self._rows = {r["key"]: (r["value"], r.get("note", "") or "") for r in rdr}
        return self._rows

    def diff(self):
        computed = self.compute_fn()
        stored = self.rows()
        out = []
        for key in sorted(set(stored) | set(computed)):
            exp, note = stored.get(key, ("<absent>", ""))
            got = computed.get(key, "<absent>")
            if exp != got:
                out.append(CellDiff(key, exp, got, note.startswith("paper misprint"), note))
        return out


# -- shared expensive state ---------------------------------------------------------

@cache
def _twisted_law():
    return fgl.fgl_twist(6, 5)


@cache
def _reducer(W):
    return adams.DReducer(W)


@cache
def _su_system():
    """The paper's dimension-4 SU constraint system, shared by the Chern tables."""
    return chern.su_constraint_system(chern.paper_dim8_basis(), 4)


@cache
def _thom_table():
    return cannibal.psi_dk_table("thom", _reducer(10), range(2, 11))


def _cells(prefix, poly):
    """One cell per term of a MultiSeries or DPoly, keyed by monomial."""
    return {f"{prefix}/{poly.monomial_str(m) or '1'}": str(c) for m, c in poly.sorted_terms()}


# -- compute functions ---------------------------------------------------------------


def compute_inverse_series():
    g = fgl.generic_strict_series(6, 4)
    inv = g.comp_inverse("t")
    return {f"c{n}": str(inv.coeff_in_var("t", n + 1)) for n in range(1, 5)}


def compute_twist_images():
    law = _twisted_law()
    out = {}
    for (i, j) in [(1, 1), (2, 1), (3, 1), (2, 2), (4, 1), (3, 2)]:
        out.update(_cells(f"a{i}{j}", law.a(i, j)))
    return out


def compute_cpn_box():
    out = {}
    for n in range(1, 5):
        out.update(_cells(f"CP{n}", bordism.cpn_in_a(n, "paper-box")))
    return out


def compute_miscenko():
    tw = _twisted_law()
    out = {}
    for name, text in [("N", "N"), ("K3SQ4", "1/4*K3SQ"), ("M", "1/4*K3SQ + 12*N")]:
        img = bordism.miscenko_image(bordism.BordismExpr.parse(text), tw, "paper-box")
        out.update(_cells(name, img))
    return out


def compute_chern_classes():
    out = {}
    for p in chern.paper_dim8_basis():
        out.update(_cells(p.label(), chern.total_chern(p)))
    return out


def compute_chern_numbers():
    out = {}
    labels = [p.label() for p in chern.paper_dim8_basis()]
    for mono, row in zip(chern.chern_monomials_with_c1(4), _su_system()):
        for label, value in zip(labels, row):
            out[f"{chern.monomial_label(mono)}/{label}"] = str(value)
    return out


def compute_chern_reduced():
    red = chern.integer_reduce(_su_system())
    paper_rows = [[25, 8, 0, 0, 0], [0, 4, 0, 16, 9], [0, 0, -27, 48, 15]]
    if chern.same_row_space(red, paper_rows):
        return {"rowspace": "25A+8B ; 4B+16D+9E ; -27C+48D+15E"}
    return {"rowspace": "; ".join(str(r) for r in red)}


def compute_chern_nullspace():
    ns = chern.nullspace_rational(_su_system())
    in_ns = chern.span_test(ns)
    # the nullspace's columns are the paper's basis; a built-in key outside it raises
    cols = [tuple(sorted(p.dims)) for p in chern.paper_dim8_basis()]
    out = {"dimension": str(len(ns))}
    for name, terms in bordism.BUILTINS.items():
        v = [0] * len(cols)
        for key, w in terms.items():
            v[cols.index(key)] = w
        out[f"contains_{name}"] = "yes" if in_ns(v) else "no"
    return out


def compute_todd():
    return {
        "su_c2sq_1": str(chern.todd_t4(0, 0, 0, 1, 0)),
        "cp4": str(chern.todd_t4(625, 50, 250, 100, 5)),
    }


def compute_psi_powers():
    """(3x - 3x^2 + x^3)^j = (1 - (1-x)^3)^j, whose x^e coefficient is <psi^3 x^j, beta_e>."""
    out = {}
    for j in range(2, 11):
        for e in range(j, 3 * j + 1):
            if c := adams.psi_power_coeff(3, j, e):
                out[f"j{j}/x^{e}"] = str(c)
    return out


def compute_psi_beta(mod2=False):
    out = {}
    for i in range(1, 11):
        elt = adams.psi_inv_beta(3, i)
        for j, c in sorted((elt.mod2() if mod2 else elt).coeffs.items()):
            out[f"beta{i}/b{j}"] = str(c)
    return out


def compute_nki():
    out = {}
    for k in range(2, 11):
        for i, c in sorted(adams.nki_coeffs(k, "paper").items()):
            out[f"k{k}/i{i}"] = str(c)
    return out


def _canon_relation(poly):
    return str(poly.set_u().content_normalize())


def compute_relations():
    rels = adams.gen_2structure_relations(7)
    out = {}
    for mono, name in [((2, 1, 1), "x2yz"), ((3, 1, 1), "x3yz"), ((2, 2, 1), "x2y2z"),
                       ((3, 1, 2), "x3yz2"), ((4, 1, 1), "x4yz")]:
        r = rels.get(mono)
        out[name] = _canon_relation(r) if r is not None else "<none>"
    return out


def compute_psi_dk_base():
    out = {}
    for k, p in cannibal.psi_dk_table("base", _reducer(10), range(2, 7)).items():
        out.update(_cells(f"d{k}", p))
    return out


def compute_psi_dk_thom():
    thom = _thom_table()
    out = {}
    for k in range(2, 6):
        out.update(_cells(f"d{k}", thom[k]))
    return out


def compute_spherical():
    thom = _thom_table()
    kernel, new = adams.spherical_search(20, thom)
    zs = {
        "z4": adams.DPoly({(2,): 1}),
        "z12": adams.DPoly({(2, 2): 1, (4,): 1, (5,): 1, (3, 3): 1}),
        "z16": adams.DPoly({(4,): 1, (4, 4): 1}),
        "z20": adams.DPoly({(2, 2, 5): 1, (5, 5): 1}),
    }
    out = {}
    for name, z in zs.items():
        ok = adams.in_gf2_span(kernel, z)
        out[name] = str(z) if ok else f"NOT in kernel: {z}"
    out["weight6"] = "none" if not new.get(6) else "; ".join(str(e) for e in new[6])
    return out


def compute_dilation():
    out = {}
    for i in range(1, 7):
        np_ = mahler.dilate(3, i)
        for j, c in sorted(np_.coeffs.items()):
            if j > 0:
                out[f"i{i}/j{j}"] = str(c)
    return out


TABLES = [
    ("inverse_series", "sec. 3.2 (inverse power series coefficients)", compute_inverse_series),
    ("twist_images", "sec. 3.2 (twisted multiplicative law coefficients)", compute_twist_images),
    ("cpn_box", "sec. 3.2 (boxed projective-space polynomials)", compute_cpn_box),
    ("miscenko", "sec. 3.2 (substituted bordism classes N, K3^2/4, M)", compute_miscenko),
    ("chern_classes", "sec. 3.1 (total Chern classes)", compute_chern_classes),
    ("chern_numbers", "sec. 3.1 (constraint-system Chern numbers)", compute_chern_numbers),
    ("chern_reduced", "sec. 3.1 (integrally reduced system)", compute_chern_reduced),
    ("chern_nullspace", "sec. 3.1 (solution space)", compute_chern_nullspace),
    ("todd", "sec. 3.3 (degree-8 Todd evaluations)", compute_todd),
    ("psi_powers", "sec. 4.2.1 (powers of 3x-3x^2+x^3)", compute_psi_powers),
    ("psi_beta", "sec. 4.2.1 (inverse Adams operation on beta)", compute_psi_beta),
    ("psi_beta_mod2", "sec. 4.2.2 (mod-2 coefficient table)", partial(compute_psi_beta, mod2=True)),
    ("nki_table", "sec. 4.2.3 (chosen n_k^i coefficients)", compute_nki),
    ("relations", "sec. 4.2.3 (2-structure relation table)", compute_relations),
    ("psi_dk_base", "sec. 4.2.3 (psi on d_k, base level)", compute_psi_dk_base),
    ("psi_dk_thom", "sec. 4.4 (psi on d_k, Thom level)", compute_psi_dk_thom),
    ("spherical", "sec. 4.4.1 (mod-2 spherical classes)", compute_spherical),
    ("dilation", "sec. 4.5.3 (binomial-basis dilation rows)", compute_dilation),
]


def all_tables():
    return [GoldenTable(tid, ref, fn) for tid, ref, fn in TABLES]
