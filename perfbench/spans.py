"""Spans around the calls into each mrdcodes module, recorded from outside.

Nothing inside src/mrdcodes is edited: `install` replaces functions on the
objects their callers look them up on (module attributes for `_batch.*`,
`verify.*`, `curves.*`, `moore.*`, `_linalg.*`, `cli.*`; class attributes
for methods of FieldTower, SupportBlockMatrix, LinPoly and the codes).
Functions bound by `from` imports (`make_tower`, `SupportCode` in verify and
curves) are reached through the class methods they end in, never by
patching the name.  `verify._scan_chunk` is left alone: with workers > 1 it
runs in forked pool workers, whose spans would be lost, so the traced run
uses workers=1.

Spans live in memory as [name, start, end, parent]; `layer_metrics` turns
them into the per-layer figures once the run is over.
"""

from __future__ import annotations

import functools
import time

# name -> the per-layer family it belongs to; nested spans of one family
# count once, in the outermost span
FAMILIES = {
    "fields.tower": ["FieldTower.__init__"],
    "fields.zech": ["FieldTower._build_tables"],
    "batch.block": ["SupportBlockMatrix.__init__"],
    "batch.coords": ["_batch.projective_coords", "_batch.element_coord_columns"],
    "batch.matmul": ["SupportBlockMatrix.matrices"],
    "batch.rank": ["_batch.batch_rank"],
    "batch.vec": ["_batch.vec_add", "_batch.vec_sub", "_batch.vec_mul",
                  "_batch.vec_pow", "_batch.vec_frob_q"],
    "verify.engine": ["verify.exhaustive_scan", "verify.trinomial_criterion",
                      "verify.n9_witness", "verify._gcd_certificate",
                      "curves.mrd_via_curve"],
    "verify.witness": ["verify._gcd_certificate", "verify.n9_witness",
                       "verify._trace_zero_kernel_pair",
                       "verify._codeword_from_h_point", "moore._codeword_killing",
                       "_batch.rep_to_coefficients", "LinPoly.kernel_dim"],
    "linpoly.kernel_dim": ["LinPoly.kernel_dim"],
    "linpoly.roots": ["LinPoly.roots"],
    "linalg.row_reduce": ["_linalg.row_reduce"],
    "codes.idealiser": ["SupportCode.idealiser", "GeneralCode.idealiser"],
    "moore.det": ["moore.moore_det"],
    "curves.count": ["curves.count_V_cap_W", "curves.count_V_cap_W_closure",
                     "curves.points_at_infinity"],
    "curves.engine": ["curves.mrd_via_curve"],
    "cli.emit": ["cli._emit", "cli._catalog_append"],
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.results = {}    # span index -> a summary of the return value
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, summarize=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if summarize is not None:
                self.results[idx] = summarize(args, out)
            return out
        return traced

    def patch(self, owner, attr, name, summarize=None):
        orig = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, orig, summarize))
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def _rank_summary(args, out):
    B, r, c = args[0].shape
    # computed, not measured: the int64 -> int32 copy (12 bytes per entry)
    # plus, per column pass, about five sweeps of the int32 array (read and
    # write of m, write and read of the update, the reduction)
    return {"matrices": B, "bytes": B * r * c * (12 + 5 * 4 * c)}


def _cert_summary(args, out):
    return {"method": out.method, "scanned": out.scanned}


def install(tracer: Tracer):
    from mrdcodes import _batch, _linalg, cli, codes, curves, fields, linpoly, moore, verify

    tracer.patch(fields.FieldTower, "__init__", "FieldTower.__init__")
    tracer.patch(fields.FieldTower, "_build_tables", "FieldTower._build_tables",
                 lambda a, out: {"bytes": sum(t.nbytes for t in out)})
    tracer.patch(_batch.SupportBlockMatrix, "__init__", "SupportBlockMatrix.__init__")
    tracer.patch(_batch.SupportBlockMatrix, "matrices", "SupportBlockMatrix.matrices")
    for fn in ("projective_coords", "element_coord_columns", "rep_to_coefficients"):
        tracer.patch(_batch, fn, f"_batch.{fn}")
    tracer.patch(_batch, "batch_rank", "_batch.batch_rank", _rank_summary)
    for fn in ("vec_add", "vec_sub", "vec_mul", "vec_pow", "vec_frob_q"):
        tracer.patch(_batch, fn, f"_batch.{fn}", lambda a, out: {"elems": int(out.size)})
    for fn in ("exhaustive_scan", "trinomial_criterion", "n9_witness", "_gcd_certificate"):
        tracer.patch(verify, fn, f"verify.{fn}", _cert_summary)
    for fn in ("_trace_zero_kernel_pair", "_codeword_from_h_point"):
        tracer.patch(verify, fn, f"verify.{fn}")
    tracer.patch(moore, "_codeword_killing", "moore._codeword_killing")
    tracer.patch(moore, "moore_det", "moore.moore_det")
    tracer.patch(linpoly.LinPoly, "kernel_dim", "LinPoly.kernel_dim")
    tracer.patch(linpoly.LinPoly, "roots", "LinPoly.roots")
    tracer.patch(_linalg, "row_reduce", "_linalg.row_reduce")
    tracer.patch(codes.SupportCode, "idealiser", "SupportCode.idealiser")
    tracer.patch(codes.GeneralCode, "idealiser", "GeneralCode.idealiser")
    for fn in ("count_V_cap_W", "count_V_cap_W_closure", "points_at_infinity",
               "curve_report"):
        tracer.patch(curves, fn, f"curves.{fn}")
    tracer.patch(curves, "mrd_via_curve", "curves.mrd_via_curve", _cert_summary)
    tracer.patch(cli, "_emit", "cli._emit")
    tracer.patch(cli, "_catalog_append", "cli._catalog_append")


def layer_metrics(tracer: Tracer) -> dict:
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]] += dur[i]

    def outermost(names):
        """Indices of spans named in `names` with no ancestor also named."""
        names = set(names)
        out = []
        for i, s in enumerate(spans):
            if s[0] not in names:
                continue
            j = s[3]
            while j >= 0 and spans[j][0] not in names:
                j = spans[j][3]
            if j < 0:
                out.append(i)
        return out

    def total(family):
        return sum(dur[i] for i in outermost(FAMILIES[family]))

    def self_time(name):
        return sum(dur[i] - children[i] for i, s in enumerate(spans) if s[0] == name)

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    def summed(name, key):
        return sum(r[key] for i, r in tracer.results.items() if spans[i][0] == name)

    ranked = summed("_batch.batch_rank", "matrices")
    rank_s = total("batch.rank")
    engines = outermost(FAMILIES["verify.engine"])
    certs = [tracer.results[i] for i in engines]
    # curve scans count affine points and rank no matrices
    scanned = sum(c["scanned"] for c in certs if c["method"] in ("scan", "trinomial"))
    vec_idx = outermost(FAMILIES["batch.vec"])
    engine_set = set(engines)

    def under_engine(i):
        j = spans[i][3]
        while j >= 0:
            if j in engine_set:
                return True
            j = spans[j][3]
        return False

    m = {
        "fields.tower_s": total("fields.tower"),
        "fields.zech_s": total("fields.zech"),
        "fields.zech_mb": summed("FieldTower._build_tables", "bytes") / 1e6,
        "batch.block_s": total("batch.block"),
        "batch.coords_s": total("batch.coords"),
        "batch.matmul_s": total("batch.matmul"),
        "batch.rank_s": rank_s,
        "batch.matrices_ranked": ranked,
        "batch.rank_us_per_matrix": rank_s / ranked * 1e6 if ranked else 0.0,
        "batch.rank_mb_moved": summed("_batch.batch_rank", "bytes") / 1e6,
        "batch.vec_s": total("batch.vec"),
        "batch.vec_elems": sum(tracer.results[i]["elems"] for i in vec_idx),
        "verify.scan_self_s": self_time("verify.exhaustive_scan"),
        "verify.trinomial_self_s": self_time("verify.trinomial_criterion"),
        "verify.witness_s": total("verify.witness"),
        "verify.useful_ratio": scanned / ranked if ranked else 0.0,
        "verify.chunks": sum(1 for i, s in enumerate(spans)
                             if s[0] == "_batch.batch_rank" and under_engine(i)),
        "linpoly.kernel_dim_s": total("linpoly.kernel_dim"),
        "linpoly.kernel_dim_calls": count("LinPoly.kernel_dim"),
        "linpoly.roots_s": total("linpoly.roots"),
        "linalg.row_reduce_s": total("linalg.row_reduce"),
        "linalg.calls": count("_linalg.row_reduce"),
        "codes.idealiser_s": total("codes.idealiser"),
        "moore.det_s": total("moore.det"),
        "moore.det_calls": count("moore.moore_det"),
        "curves.count_s": total("curves.count"),
        "curves.report_self_s": self_time("curves.curve_report"),
        "curves.engine_s": total("curves.engine"),
        "cli.emit_s": total("cli.emit"),
    }
    for method in ("scan", "trinomial", "witness", "curve"):
        m[f"verify.certificates.{method}"] = sum(1 for c in certs if c["method"] == method)
    return m
