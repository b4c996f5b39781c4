"""Report files from long rows: cell CSVs, performance tables, inferential
statistics tables (CSV plus aligned text), and boxplot data.

A long row is ``(scheme, extractor, model, replication, accuracy,
sensitivity, specificity)``, in ``LONG_HEADER`` order: one replication of
one cell, as ``run_cell`` returns it, ``write_long_csv`` writes it and
``read_long_csv`` reads it back. The writers keep the order of the rows
they are given within each table, so rows joined from the sorted cell
keys give the same bytes at every ``jobs``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .inference import omega_squared, tukey_hsd, two_way_anova

LONG_HEADER = ["scheme", "extractor", "model", "replication",
               "accuracy", "sensitivity", "specificity"]


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value))


def _group(rows, key):
    """{key(row): rows}, groups and the rows in each in first-seen order."""
    groups = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    return groups


def write_long_csv(rows, path):
    """Long rows as CSV, nan as an empty field; the input schema of the stats stage."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LONG_HEADER)
        for row in rows:
            writer.writerow(list(row[:4]) + [_fmt(v) for v in row[4:]])


def read_long_csv(path):
    """The long rows of a cells CSV; a repeated (scheme, extractor, model,
    replication) is a ``ValueError``."""
    out, seen = [], set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in LONG_HEADER if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        for row in reader:
            key = (row["scheme"], row["extractor"], row["model"], int(row["replication"]))
            if key in seen:
                raise ValueError(f"{path}: duplicate row for scheme={key[0]} "
                                 f"extractor={key[1]} model={key[2]} replication={key[3]}")
            seen.add(key)
            out.append(key + tuple(float(row[c]) if row[c] else float("nan")
                                   for c in LONG_HEADER[4:]))
    return out


def write_performance_tables(rows, out_dir: Path, plan_name: str):
    """Per (scheme, extractor): model rows with ACC/SPE/SEN mean and std (%)."""
    text_lines = []
    for (scheme, extractor), table_rows in sorted(_group(rows, lambda r: r[:2]).items()):
        path = out_dir / f"performance_{plan_name}_{scheme}_{extractor}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "acc_mean", "acc_std", "spe_mean", "spe_std",
                             "sen_mean", "sen_std"])
            text_lines.append(f"\n[{plan_name}] scheme={scheme} extractor={extractor}")
            text_lines.append(f"{'model':<6} {'ACC(%)':>10} {'SPE(%)':>10} {'SEN(%)':>10}")
            for model, model_rows in _group(table_rows, lambda r: r[2]).items():
                # acc, spe, sen: each mean then std, in points
                stats = [f(100 * np.asarray([r[col] for r in model_rows]))
                         for col in (4, 6, 5) for f in (np.nanmean, np.nanstd)]
                writer.writerow([model] + [f"{v:.4f}" for v in stats])
                text_lines.append(f"{model:<6} " + " ".join(
                    f"{mean:7.2f}+-{std:5.2f}" for mean, std in zip(stats[::2], stats[1::2])))
    (out_dir / f"performance_{plan_name}.txt").write_text("\n".join(text_lines) + "\n")


def five_number_summary(values):
    """(min, q1, median, q3, max, whisker_low, whisker_high, n_outliers)."""
    v = np.asarray(sorted(values), dtype=float)
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = v[(v >= lo_fence) & (v <= hi_fence)]
    outliers = int(v.size - inside.size)
    return (float(v[0]), float(q1), float(med), float(q3), float(v[-1]),
            float(inside[0]), float(inside[-1]), outliers)


def write_boxplot_data(rows, out_dir: Path):
    """Per scheme: raw accuracy observations plus five-number summaries."""
    for scheme, scheme_rows in sorted(_group(rows, lambda r: r[0]).items()):
        with open(out_dir / f"boxplot_{scheme}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["extractor", "model", "replication", "accuracy"])
            for _, extractor, model, rep, acc, _sen, _spe in scheme_rows:
                writer.writerow([extractor, model, rep, _fmt(acc)])
        with open(out_dir / f"boxplot_summary_{scheme}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["extractor", "model", "min", "q1", "median", "q3",
                             "max", "whisker_low", "whisker_high", "n_outliers"])
            for (extractor, model), cell_rows in _group(scheme_rows, lambda r: r[1:3]).items():
                summary = five_number_summary([r[4] for r in cell_rows])
                writer.writerow([extractor, model]
                                + [_fmt(v) for v in summary[:7]] + [summary[7]])


def run_inference(rows, scheme: str):
    """ANOVA table, effect sizes, and both HSD factor tables for one scheme,
    all read from the one two-way ANOVA of its accuracies (in points)."""
    obs = [(model, extractor, 100.0 * acc) for s, extractor, model, _, acc, _, _ in rows
           if s == scheme and not math.isnan(acc)]
    table = two_way_anova(obs, factor_a="Models", factor_b="feat_extr")
    return (table, omega_squared(table), tukey_hsd(obs, table, "feat_extr"),
            tukey_hsd(obs, table, "Models"))


def write_inference_reports(rows, scheme: str, out_dir: Path):
    table, effects, hsd_extr, hsd_models = run_inference(rows, scheme)
    with open(out_dir / f"anova_{scheme}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["term", "df", "sum_sq", "mean_sq", "f_value", "p_value"])
        for r in table.rows:
            writer.writerow([r.term, r.df, _fmt(r.sum_sq), _fmt(r.mean_sq),
                             _fmt(r.f_value), _fmt(r.p_value)])
    with open(out_dir / f"omega_squared_{scheme}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["term", "omega_squared", "raw_omega_squared", "band"])
        for e in effects:
            writer.writerow([e.term, _fmt(e.omega_sq), _fmt(e.raw_omega_sq), e.band])
    for name, comparisons in (("feat_extr", hsd_extr), ("models", hsd_models)):
        with open(out_dir / f"hsd_{scheme}_{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["term", "comparison", "estimate", "conf.low",
                             "conf.high", "adj.p.value"])
            for c in comparisons:
                writer.writerow([c.factor, c.comparison, _fmt(c.estimate),
                                 _fmt(c.conf_low), _fmt(c.conf_high), _fmt(c.adj_p)])

    lines = [f"Two-way ANOVA on accuracy (%), scheme={scheme}",
             f"{'term':<18} {'Df':>5} {'Sum Sq':>12} {'Mean Sq':>11} {'F value':>9} {'Pr(>F)':>9}"]
    for r in table.rows:
        f_txt = "" if math.isnan(r.f_value) else f"{r.f_value:9.2f}"
        p_txt = "" if math.isnan(r.p_value) else f"{r.p_value:9.4f}"
        lines.append(f"{r.term:<18} {r.df:>5} {r.sum_sq:>12.2f} {r.mean_sq:>11.2f} "
                     f"{f_txt:>9} {p_txt:>9}")
    lines.append("")
    lines.append(f"{'term':<18} {'omega^2':>8}  band")
    for e in effects:
        lines.append(f"{e.term:<18} {e.omega_sq:8.3f}  {e.band}")
    for name, comparisons in (("feat_extr", hsd_extr), ("Models", hsd_models)):
        lines.append("")
        lines.append(f"Tukey HSD for {name} (accuracy points)")
        lines.append(f"{'comparison':<14} {'estimate':>9} {'conf.low':>9} "
                     f"{'conf.high':>10} {'adj.p':>7}")
        for c in comparisons:
            lines.append(f"{c.comparison:<14} {c.estimate:9.2f} {c.conf_low:9.2f} "
                         f"{c.conf_high:10.2f} {c.adj_p:7.3f}")
    (out_dir / f"inference_{scheme}.txt").write_text("\n".join(lines) + "\n")
    return table, effects, hsd_extr, hsd_models
