"""Output checks: every command's stdout against the captured references.

A command execution ends in one of three states: ``ok`` (exit 0 and the
output matches), ``failed`` (non-zero exit with matching or no output)
or ``wrong`` (the output does not match).  ``failed`` and ``wrong`` both
count as failed ops; only ``wrong`` makes the run incorrect.
"""

import json
import math
import statistics

import numpy as np

from common import ROOT
from workloads import ITEM2_REPRO, WORKLOADS

REFS = ROOT / "bench" / "refs"
_VALIDATE_CHECKS = ("expected_error", "bl_throughput", "service_mean",
                    "service_variance")
_VALIDATE_KINDS = {"point": "text", "r": "drawn", "m": "text", "g1": "drawn",
                   "g2": "drawn", "g3": "drawn", "check": "text",
                   "mc_mean": "mc", "mc_std_err": "mc", "z": "skip"}
_OPTIMIZE_KINDS = {"objective": "text", "eta_star": "eta_star",
                   "value": "opt_value", "flag": "text", "iterations": "text"}


class Mismatch(Exception):
    """An output line or value differs from its reference."""


def _column_kind(cell):
    """Tolerance kind of a sweep/compare column from its header cell."""
    scheme, _, metric = cell.partition(".")
    if not metric:
        return "axis"
    if scheme in ("relay_perfect", "shannon_ergodic"):
        return "mc"
    if scheme == "outage":
        return "outage"
    metric = metric.split("[")[0]
    return {"coding_rate": "rate", "expected_error": "error"}.get(
        metric, "throughput")


def _summary_fields(line):
    """'# summary,name,k=v,...' -> (name, [(key, kind, value), ...])."""
    _, name, *pairs = line.split(",")
    mc = name.startswith("perfect_")
    fields = []
    for pair in pairs:
        key, _, value = pair.partition("=")
        numeric = key not in ("both_zero_points", "first_m_below_2pct")
        kind = ("mc" if mc else "derived") if numeric else (
            "mc_text" if mc else "text")
        fields.append((key, kind, value))
    return name, fields


def _cells(command, stdout):
    """Flatten stdout into ((line, field), kind, text) triples."""
    lines = stdout.splitlines()
    out = []
    if not lines:
        return out
    header = lines[0].split(",")
    out.extend(((0, j), "text", h) for j, h in enumerate(header))
    if command[0] == "optimize":
        kinds = [_OPTIMIZE_KINDS[h] for h in header]
    elif command[0] == "validate":
        kinds = [_VALIDATE_KINDS.get(h) for h in header]
    else:
        kinds = [_column_kind(h) for h in header]
    for i, line in enumerate(lines[1:], start=1):
        if line.startswith("# summary,"):
            name, fields = _summary_fields(line)
            out.append(((i, "name"), "text", name))
            out.extend(((i, key), kind, value) for key, kind, value in fields)
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise Mismatch(f"line {i}: {len(cells)} fields, header has "
                           f"{len(header)}")
        row_kinds = kinds
        if command[0] == "optimize" and cells[0] == "difference":
            row_kinds = ["text", "opt_difference", "opt_difference",
                         "text", "text"]
        if command[0] == "validate":
            row_kinds = list(kinds)
            check = cells[header.index("check")]
            row_kinds[header.index("analytic")] = (
                "error" if check == "expected_error" else "throughput")
        out.extend(((i, j), kind, cell)
                   for j, (kind, cell) in enumerate(zip(row_kinds, cells)))
    return out


def _close(new, ref, tol):
    return abs(new - ref) <= max(tol["rel"] * abs(ref), tol["abs"])


class Checker:
    """Checks one workload's outputs at one seed against bench/refs."""

    def __init__(self, workload, seed):
        self.tol = json.loads((REFS / "tolerances.json").read_text())["kinds"]
        refs = json.loads((REFS / f"{workload}.json").read_text())["commands"]
        self.seed = str(seed)
        self.refs = []
        for command, ref in zip(WORKLOADS[workload]["commands"], refs):
            if tuple(ref["command"]) != command:
                raise ValueError(f"{workload}: references are for another "
                                 f"command list; recapture them")
            self.refs.append(ref["runs"])
        self._bands = {}

    def check(self, index, command, code, stdout):
        """(status, detail) of one execution of command number ``index``."""
        try:
            if stdout:
                self._match(index, command, code, stdout)
            elif code == 0:
                raise Mismatch("exit 0 with empty stdout")
        except Mismatch as exc:
            return "wrong", str(exc)
        if code != 0:
            return "failed", f"exit {code}"
        return "ok", ""

    def _match(self, index, command, code, stdout):
        runs = self.refs[index]
        ref = runs.get("any") or runs.get(self.seed)
        if command == ITEM2_REPRO and ref["exit"] != 0:
            self._item2_in_range(stdout)
            return
        if command[0] == "validate":
            self._validate_consistent(code, stdout)
            if ref is None:
                return
        if ref is not None:
            self._compare(command, stdout, ref["stdout"], self.tol)
        else:
            self._compare_band(index, command, stdout)

    def _compare(self, command, stdout, ref_stdout, tol, skip=()):
        new = _cells(command, stdout)
        old = _cells(command, ref_stdout)
        if [c[0] for c in new] != [c[0] for c in old]:
            raise Mismatch("output shape differs from the reference")
        for (where, kind, text), (_, _, ref_text) in zip(new, old):
            if kind == "skip" or kind in skip:
                continue
            if kind in ("text", "mc_text"):
                if text != ref_text:
                    raise Mismatch(f"{where}: {text!r} != {ref_text!r}")
            elif not _close(float(text), float(ref_text), tol[kind]):
                raise Mismatch(f"{where} ({kind}): {text} vs reference "
                               f"{ref_text}")

    def _compare_band(self, index, command, stdout):
        """Seed without a stored reference: seed-free cells against any
        stored seed, Monte Carlo cells against the spread over all of them."""
        runs = self.refs[index]
        self._compare(command, stdout, runs["42"]["stdout"], self.tol,
                      skip=("mc", "mc_text"))
        if index not in self._bands:
            per_seed = [_cells(command, run["stdout"]) for run in runs.values()]
            bands = {}
            for k, (where, kind, _) in enumerate(per_seed[0]):
                values = [cells[k][2] for cells in per_seed]
                if kind == "mc":
                    x = [float(v) for v in values]
                    bands[where] = (statistics.fmean(x), statistics.stdev(x),
                                    len(x))
                elif kind == "mc_text":
                    bands[where] = set(values)
            self._bands[index] = bands
        sigmas = self.tol["mc_other_seed"]["sigmas"]
        for where, kind, text in _cells(command, stdout):
            band = self._bands[index].get(where)
            if kind == "mc_text" and text not in band:
                raise Mismatch(f"{where}: {text!r} not among {sorted(band)}")
            if kind == "mc":
                mean, sd, n = band
                if abs(float(text) - mean) > sigmas * sd * math.sqrt(1 + 1 / n):
                    raise Mismatch(f"{where}: {text} outside {mean:.6g} +- "
                                   f"{sigmas:g} sd ({sd:.3g})")

    @staticmethod
    def _validate_consistent(code, stdout):
        """Shape of the validate table, its z column, and the exit code it implies."""
        lines = stdout.splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if len(rows) % len(_VALIDATE_CHECKS):
            raise Mismatch(f"validate printed {len(rows)} rows")
        worst = 0.0
        for i, row in enumerate(rows):
            point, check = divmod(i, len(_VALIDATE_CHECKS))
            if int(row["point"]) != point or row["check"] != _VALIDATE_CHECKS[check]:
                raise Mismatch(f"validate row {i}: unexpected point/check")
            ana, mean, se = (float(row[k]) for k in
                             ("analytic", "mc_mean", "mc_std_err"))
            z = (mean - ana) / se if se > 0.0 else 0.0
            if not (math.isfinite(ana) and se >= 0.0 and float(row["z"]) == z):
                raise Mismatch(f"validate row {i}: z or inputs inconsistent")
            worst = max(worst, abs(z))
        if (code == 3) != (worst > 3.0):
            raise Mismatch(f"validate exit {code} but worst |z| = {worst:.2f}")

    @staticmethod
    def _item2_in_range(stdout):
        """Once ROADMAP item 2 is fixed: finite throughputs in range.

        At g = 1e-13, 1e-12, 1e-12 the mean SNRs are 0.1, 1 and 1, so
        r <= log2(1 + ln 2) < 0.8 and r (1 - e) / 2 < 0.5 bits/use.
        """
        lines = stdout.splitlines()
        if lines[0] != "eta[1],relay_avg.bl_throughput[bits/use]":
            raise Mismatch(f"unexpected header {lines[0]!r}")
        grid = [repr(float(x)) for x in np.linspace(0.01, 0.6931, 5)]
        rows = [line.split(",") for line in lines[1:]]
        if [row[0] for row in rows] != grid:
            raise Mismatch("unexpected eta grid")
        for row in rows:
            value = float(row[1])
            if not (math.isfinite(value) and 0.0 <= value < 0.5):
                raise Mismatch(f"throughput {value} out of range")


def worst_z(stdout):
    """Largest |z| in a validate table (0 when there is none)."""
    lines = stdout.splitlines()[1:]
    return max((abs(float(line.rsplit(",", 1)[1])) for line in lines),
               default=0.0)
