"""Output checks for one xlmimo CSV: the rules that feed ``fail_frac``.

A CSV fails when it carries the truncation marker, when its rows differ from
the rows its config implies, when a value is non-finite or out of range, or
when a per-method statistic lies outside the statistical tolerance of the
reference values in ``perfbench/reference.json``.  Tolerances, not byte
hashes, so that a change of seed scheme is not read as a failure.

Each statistic is checked as it stands and paired, i.e. minus the value of
the first method at the same M, SNR or iteration, and that paired value is
also checked as a mean over the grid (see ``statistics``).  All methods of a
run see the same channels, bits and noise, so the paired values scatter far
less from seed to seed; they catch one method quietly behaving like another.
"""

import csv
import math

TRUNCATION_MARKER = "__truncated__"

HEADERS = {
    "convergence": ["method", "t", "median_ls_error", "trials"],
    "se_vs_m": ["M", "method", "mean_sum_se", "sem", "trials"],
    "ber": ["snr_db", "method", "ber", "bit_errors", "bits"],
}

# Column compared with the reference, and whether it is compared as log10
# (LS errors span many decades).
REFERENCE_STAT = {
    "se_vs_m": ("mean_sum_se", False),
    "ber": ("ber", False),
    "convergence": ("median_ls_error", True),
}


def expected_keys(cfg: dict) -> list:
    run = cfg["run"]
    experiment = run["experiment"]
    if experiment == "se_vs_m":
        return [f"{M}/{m}" for M in run["m_grid"] for m in run["methods"]]
    if experiment == "ber":
        return [f"{float(s):g}/{m}" for s in run["snr_grid_db"] for m in run["methods"]]
    if experiment == "convergence":
        return [f"{m}/{t}" for m in run["methods"] if m != "direct"
                for t in range(run["t_max"] + 1)]
    raise ValueError(f"no output check for experiment {experiment!r}")


def row_key(experiment: str, row: dict) -> str:
    if experiment == "se_vs_m":
        return f"{int(row['M'])}/{row['method']}"
    if experiment == "ber":
        return f"{float(row['snr_db']):g}/{row['method']}"
    return f"{row['method']}/{int(row['t'])}"


def _group(experiment: str, row: dict) -> str:
    """The rows of one group share channels: one M, SNR or iteration."""
    if experiment == "se_vs_m":
        return f"M={int(row['M'])}"
    if experiment == "ber":
        return f"snr_db={float(row['snr_db']):g}"
    return f"t={int(row['t'])}"


def statistics(experiment: str, rows: list) -> dict:
    """The checked statistics of a CSV's rows, by kind and key.

    ``absolute``: the compared column (log10 for LS errors), keyed by row.
    ``paired``: that value minus the value of the group's first method, for
    every other method, keyed ``<group>/<method>-<first method>``; and its
    mean over the groups, keyed ``all/<method>-<first method>``.  On se_vs_m
    and ber each group draws its own channels, so the mean scatters least:
    it tells apart methods whose per-group values overlap.
    """
    column, log = REFERENCE_STAT[experiment]
    absolute, paired, first, by_pair = {}, {}, {}, {}
    for row in rows:
        value = float(row[column])
        if log:
            value = math.log10(max(value, 1e-300))
        absolute[row_key(experiment, row)] = value
        group = _group(experiment, row)
        base_method, base = first.setdefault(group, (row["method"], value))
        if row["method"] != base_method:
            pair = f"{row['method']}-{base_method}"
            paired[f"{group}/{pair}"] = value - base
            by_pair.setdefault(pair, []).append(value - base)
    for pair, diffs in by_pair.items():
        paired[f"all/{pair}"] = sum(diffs) / len(diffs)
    return {"absolute": absolute, "paired": paired}


def reference_problems(experiment: str, rows: list, ref: dict) -> list:
    """Statistics outside ``z`` reference SDs plus ``floor`` of the mean."""
    column, log = REFERENCE_STAT[experiment]
    unit = column + (" (log10)" if log else "")
    problems = []
    for kind, values in statistics(experiment, rows).items():
        for key, value in values.items():
            mean, sd = ref[kind][key]
            tol = ref["z"] * sd + ref["floor"]
            if abs(value - mean) > tol:
                problems.append(f"{key}: {kind} {unit} {value:.6g} outside "
                                f"reference {mean:.6g} +- {tol:.3g}")
    return problems


def _range_problems(experiment: str, row: dict, cfg: dict) -> list:
    run = cfg["run"]
    num = {k: float(v) for k, v in row.items() if k != "method"}
    bad = [k for k, v in num.items() if not math.isfinite(v)]
    if bad:
        return [f"non-finite {', '.join(bad)}"]
    out = []
    if experiment == "se_vs_m":
        if num["mean_sum_se"] < 0 or num["sem"] < 0:
            out.append("negative SE or SEM")
        if num["trials"] != run["trials"]:
            out.append(f"trials {num['trials']:g} != {run['trials']}")
    elif experiment == "ber":
        bits_per_draw = 2 * cfg["users"]["K"] * run["symbols_per_channel"]
        bits = -(-run["bits_per_point"] // bits_per_draw) * bits_per_draw
        if not 0.0 <= num["ber"] <= 1.0:
            out.append(f"BER {num['ber']:g} outside [0, 1]")
        if num["bits"] != bits or not 0 <= num["bit_errors"] <= bits:
            out.append(f"bit counts {num['bit_errors']:g}/{num['bits']:g}, "
                       f"expected bits {bits}")
        elif not math.isclose(num["ber"], num["bit_errors"] / bits, rel_tol=1e-9):
            out.append("BER != bit_errors / bits")
    else:
        if num["median_ls_error"] < 0:
            out.append("negative LS error")
        if num["trials"] != run["trials"]:
            out.append(f"trials {num['trials']:g} != {run['trials']}")
    return out


def check_csv(path: str, cfg: dict, reference: dict) -> list:
    """Problems found in the CSV at ``path``; empty when it passes."""
    experiment = cfg["run"]["experiment"]
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        return [f"cannot read CSV: {exc}"]
    if TRUNCATION_MARKER in text:
        return ["CSV carries the truncation marker"]
    lines = list(csv.reader(text.splitlines()))
    if not lines or lines[0] != HEADERS[experiment]:
        return [f"header {lines[0] if lines else None} != {HEADERS[experiment]}"]
    rows = [dict(zip(lines[0], line)) for line in lines[1:]]
    if any(len(line) != len(lines[0]) for line in lines[1:]):
        return ["row with the wrong number of fields"]
    try:
        keys = [row_key(experiment, row) for row in rows]
        problems = [f"{k}: {p}" for k, row in zip(keys, rows)
                    for p in _range_problems(experiment, row, cfg)]
    except ValueError as exc:
        return [f"unparsable value: {exc}"]
    if keys != expected_keys(cfg):
        return [f"row set {keys} differs from the config's "
                f"{expected_keys(cfg)}"] + problems
    if problems:
        return problems
    return reference_problems(experiment, rows, reference[experiment])
