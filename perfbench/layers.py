"""Per-layer metrics and baseline tables from a traced pass."""

from __future__ import annotations

from collections import defaultdict

from workloads import WORKLOADS

# every box case of every workload has its own iteration count; a workload
# reports 0 for the cases it does not run
ITERATION_METRICS = tuple(dict.fromkeys(
    f"eigensolve.iterations.{case}"
    for w in WORKLOADS.values() for case in w.box_case_ids()))

# name -> unit, in the order the traced run prints them
LAYER_UNITS = {
    "assembly.assemble_s": "s",
    "eigensolve.K_apply_s": "s",
    "eigensolve.K_apply_cols": "count",
    "eigensolve.K_apply_ns_per_dof_col": "ns",
    "eigensolve.M_apply_s": "s",
    "eigensolve.M_apply_cols": "count",
    "eigensolve.M_apply_ns_per_dof_col": "ns",
    "dst.precond_build_s": "s",
    "dst.precond_apply_s": "s",
    "dst.precond_apply_cols": "count",
    "eigensolve.lobpcg_s": "s",
    "eigensolve.lobpcg_self_s": "s",
    "eigensolve.lobpcg_iterations": "count",
    **{name: "count" for name in ITERATION_METRICS},
    "eigensolve.cols_per_eigenpair": "cols/pair",
    "eigensolve.max_rel_residual": "ratio",
    "eigensolve.banded_smallest_s": "s",
    "eigensolve.banded_calls": "count",
    "eigensolve.banded_iterations": "count",
    "eigensolve.cholesky_banded_s": "s",
    "eigensolve.banded_solve_s": "s",
    "eigensolve.banded_solve_cols": "count",
    "eigensolve.banded_retries": "count",
    "cap1d.build_mode_operator_s": "s",
    "cap1d.build_mode_operator_calls": "count",
    "sparse.from_dense_s": "s",
    "bounds.evaluate_all_s": "s",
    "bounds.records": "count",
    "bounds.skip_records": "count",
    "bounds.marginal_records": "count",
    "report.save_s": "s",
    "report.bytes_written": "B",
    "harness.ref_err_max": "ratio",
    "trace_overhead_s": "s",
}


def _by_name(tracer):
    groups = defaultdict(list)
    for s in tracer.spans:
        groups[s.name].append(s)
    return groups


def layer_metrics(tracer, workload, traced, untraced_wall_s):
    """Per-layer metrics of one traced pass (``traced`` is its PassResult)."""
    spans = _by_name(tracer)
    own = tracer.self_times()

    def total(name):
        return sum(s.duration for s in spans[name])

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in spans[name])

    out = {}
    for op in ("K_apply", "M_apply"):
        name = f"eigensolve.{op}"
        dof_cols = sum(s.info["order"] * s.info["cols"] for s in spans[name])
        out[f"{name}_s"] = total(name)
        out[f"{name}_cols"] = info_sum(name, "cols")
        out[f"{name}_ns_per_dof_col"] = \
            1e9 * total(name) / dof_cols if dof_cols else 0.0
    out["assembly.assemble_s"] = total("assembly.assemble")
    out["dst.precond_build_s"] = total("dst.laplacian_inverse")
    out["dst.precond_apply_s"] = total("dst.precond_apply")
    out["dst.precond_apply_cols"] = info_sum("dst.precond_apply", "cols")

    solves = spans["eigensolve.smallest_eigenpairs"]
    out["eigensolve.lobpcg_s"] = total("eigensolve.smallest_eigenpairs")
    out["eigensolve.lobpcg_self_s"] = sum(
        t for s, t in zip(tracer.spans, own)
        if s.name == "eigensolve.smallest_eigenpairs")
    out["eigensolve.lobpcg_iterations"] = info_sum(
        "eigensolve.smallest_eigenpairs", "iterations")
    for name in ITERATION_METRICS:
        out[name] = 0
    for s in solves:
        if "iterations" in s.info:
            out[f"eigensolve.iterations.{s.case}"] = s.info["iterations"]
    pairs = info_sum("eigensolve.smallest_eigenpairs", "pairs")
    out["eigensolve.cols_per_eigenpair"] = \
        out["eigensolve.K_apply_cols"] / pairs if pairs else 0.0
    out["eigensolve.max_rel_residual"] = max(
        (s.info["max_residual"] for s in solves if "max_residual" in s.info),
        default=0.0)

    banded = spans["eigensolve.banded_smallest"]
    out["eigensolve.banded_smallest_s"] = total("eigensolve.banded_smallest")
    out["eigensolve.banded_calls"] = len(banded)
    out["eigensolve.banded_iterations"] = info_sum(
        "eigensolve.banded_smallest", "iterations")
    out["eigensolve.cholesky_banded_s"] = total("eigensolve.cholesky_banded")
    out["eigensolve.banded_solve_s"] = total("eigensolve.banded_solve")
    out["eigensolve.banded_solve_cols"] = info_sum("eigensolve.banded_solve",
                                                   "cols")
    out["eigensolve.banded_retries"] = sum(
        1 for s in banded if s.info.get("factorization_error"))
    out["cap1d.build_mode_operator_s"] = total("cap1d.build_mode_operator")
    out["cap1d.build_mode_operator_calls"] = \
        len(spans["cap1d.build_mode_operator"])
    out["sparse.from_dense_s"] = total("sparse.from_dense")

    reports = [o.report for o in traced.outcomes if o.report is not None]
    out["bounds.evaluate_all_s"] = total("bounds.evaluate_all")
    out["bounds.records"] = sum(len(r.records) for r in reports)
    out["bounds.skip_records"] = sum(r.summary["skip"] for r in reports)
    out["bounds.marginal_records"] = traced.marginal
    out["report.save_s"] = total("report.save_report")
    out["report.bytes_written"] = info_sum("report.save_report", "bytes")
    errors = [workload.reference_error(o.config, o.report)
              for o in traced.outcomes if o.report is not None]
    out["harness.ref_err_max"] = max(
        (e for e in errors if e is not None), default=0.0)
    out["trace_overhead_s"] = traced.wall_s - untraced_wall_s
    return out


def box_table(tracer):
    """ROADMAP baseline table, one row per box solve."""
    own = tracer.self_times()
    rows = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(tracer.spans):
        if s.case is None or s.case.startswith("cap."):
            continue
        row = rows[s.case]
        if s.name == "eigensolve.smallest_eigenpairs":
            row["iterations"] = s.info.get("iterations", 0)
            row["solve"] += s.duration
            row["rr"] += own[i]
        elif s.name == "assembly.assemble":
            row["assemble"] += s.duration
        elif s.name == "eigensolve.K_apply":
            row["K"] += s.duration
        elif s.name == "eigensolve.M_apply":
            row["M"] += s.duration
        elif s.name == "dst.precond_apply":
            row["P"] += s.duration
    lines = ["| case | iterations | assemble | solve | K-apply | M-apply "
             "| preconditioner | Rayleigh-Ritz etc. | parts - solve |",
             "|---|---|---|---|---|---|---|---|---|"]
    for case, r in rows.items():
        gap = r["K"] + r["M"] + r["P"] + r["rr"] - r["solve"]
        lines.append(
            f"| {case} | {int(r['iterations'])} | {r['assemble']:.3f} s "
            f"| {r['solve']:.3f} s | {r['K']:.3f} s | {r['M']:.3f} s "
            f"| {r['P']:.3f} s | {r['rr']:.3f} s | {gap:.1e} s |")
    return lines


def cap_table(tracer):
    """Cap split per kind and resolution, summed over azimuthal modes."""
    own = tracer.self_times()
    rows = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(tracer.spans):
        if s.case is None or not s.case.startswith("cap."):
            continue
        row = rows[s.case[len("cap."):]]
        if s.name == "cap1d.build_mode_operator":
            row["assembly"] += own[i]
        elif s.name == "sparse.from_dense":
            row["from_dense"] += s.duration
        elif s.name == "eigensolve.cholesky_banded":
            row["factor"] += s.duration
        elif s.name == "eigensolve.banded_solve":
            row["solve"] += s.duration
        elif s.name == "eigensolve.banded_smallest":
            row["other"] += own[i]
    lines = ["| kind.cells | mode assembly | from_dense | factorisation "
             "| banded solve | other banded |",
             "|---|---|---|---|---|---|"]
    for case, r in rows.items():
        lines.append(
            f"| {case} | {r['assembly']:.3f} s | {r['from_dense']:.3f} s "
            f"| {r['factor']:.3f} s | {r['solve']:.3f} s "
            f"| {r['other']:.3f} s |")
    return lines
