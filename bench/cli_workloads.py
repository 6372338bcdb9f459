"""The two CLI workloads: every operation is a fresh ``weil`` process.

A workload is a deck of cards.  Each card is one ``weil`` command line on
generated input files, with a check of its output.  The deck is fixed for
a run (made from the seed); every round plays the whole deck in a new
seeded order, so every run has the same mix of commands and every card's
repeated ``--json`` output can be compared byte for byte.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks
import gen

Check = Callable[[int, str, str], "str | None"]


@dataclass
class Card:
    key: str
    argv: list
    check: Check


class Deck:
    """Writes input files into ``workdir`` and collects cards."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.cards: list[Card] = []
        self.files: set[str] = set()

    def write(self, name: str, data) -> str:
        if name not in self.files:
            with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as handle:
                json.dump(data, handle)
            self.files.add(name)
        return name

    def add(self, key: str, argv: list, check: Check) -> None:
        self.cards.append(Card(f"{len(self.cards):02d}:{key}", argv, check))


def _report(stdout: str):
    try:
        return checks.parse_report(stdout), None
    except ValueError as exc:
        return None, f"stdout is not strict JSON: {exc}"


def _ok_report(code: int, stdout: str, expected: dict | None):
    if code != 0:
        return None, f"exit {code}, expected 0"
    report, why = _report(stdout)
    if why:
        return None, why
    if report.get("status") != 0:
        return None, f"status {report.get('status')}"
    if expected is not None:
        why = checks.expect_summary(report, expected)
        if why:
            return None, why
    return report, None


# ------------------------------------------------------------------- checks


def check_valid(expected: dict) -> Check:
    def check(code, stdout, stderr):
        report, why = _ok_report(code, stdout, expected)
        if why:
            return why
        return None if report.get("weil") is True else "weil verdict is not true"

    return check


def check_rejected(axiom: str, as_json: bool) -> Check:
    """Invalid tables must exit 1 and name the failed axiom."""

    def check(code, stdout, stderr):
        if code != 1:
            return f"exit {code}, expected 1 ({axiom})"
        if as_json:
            report, why = _report(stdout)
            if why:
                return why
            if report.get("weil") is not False or report.get("axiom") != axiom:
                return f"verdict {report.get('weil')}/{report.get('axiom')}, expected {axiom}"
            return None
        if stdout.strip():
            return "rejected spec produced stdout"
        return None if stderr.startswith(f"{axiom}:") else f"stderr does not name {axiom}"

    return check


def check_derivations(expected: dict) -> Check:
    def check(code, stdout, stderr):
        report, why = _ok_report(code, stdout, expected)
        if why:
            return why
        s = expected["dim"]
        if report.get("r") != expected["r"] or len(report.get("basis", ())) != expected["r"]:
            return f"r {report.get('r')} != expected {expected['r']}"
        if any(len(m) != s or any(len(row) != s for row in m) for m in report["basis"]):
            return "basis matrix is not s x s"
        return None

    return check


def check_field(expected: dict, table, n: int, index: int) -> Check:
    def check(code, stdout, stderr):
        report, why = _ok_report(code, stdout, expected)
        if why:
            return why
        s = expected["dim"]
        if report.get("derivation") != index or len(report.get("chart", ())) != n * s:
            return "field report has the wrong index or chart size"
        if len(report.get("values", ())) != n or any(len(row) != s for row in report["values"]):
            return "field values are not n x s"
        matrix = [[Fraction(x) for x in row] for row in report["matrix"]]
        return None if checks.leibniz_ok(table, matrix) else "field matrix is not a derivation"

    return check


def check_foliation(expected: dict, n: int, zero_section: bool) -> Check:
    def check(code, stdout, stderr):
        report, why = _ok_report(code, stdout, expected)
        if why:
            return why
        r, s = expected["r"], expected["dim"]
        generators = report.get("generators", [])
        if report.get("r") != r or len(generators) != r or any(len(g) != n * s for g in generators):
            return "generator count or length is wrong"
        rank = report["rank_samples"][0]["rank"]
        want = 0 if zero_section else checks.float_rank(
            [[Fraction(x) for x in g] for g in generators]
        )
        if rank != want:
            return f"rank {rank} != float-elimination rank {want}"
        if report.get("tolerance") != 0.0:
            return "rational point was not ranked exactly"
        if not all(pair["pass"] for pair in report.get("bracket_law", [])):
            return "involutivity check failed"
        return None

    return check


def check_flow(expected: dict, base) -> Check:
    def check(code, stdout, stderr):
        report, why = _ok_report(code, stdout, expected)
        if why:
            return why
        if not checks.finite_json(report):
            return "non-finite value in flow output"
        if report.get("base_drift") != 0:
            return f"base drift {report.get('base_drift')}"
        moved = [float(Fraction(x)) if isinstance(x, str) else x for x in report["flowed"]["base"]]
        if moved != [float(b) for b in base]:
            return "flow moved the base point"
        return None

    return check


def check_liouville(n: int) -> Check:
    def check(code, stdout, stderr):
        report, why = _ok_report(code, stdout, None)
        if why:
            return why
        if report.get("pass") is not True or report.get("r") != 1 or report.get("n") != n:
            return "Liouville assertions failed"
        return None

    return check


# -------------------------------------------------------------------- decks


def _scalar_json(x):
    return x if isinstance(x, float) else gen.fraction_text(Fraction(x))


def _point_json(base, nil) -> dict:
    return {
        "base": [_scalar_json(b) for b in base],
        "nilparts": [[_scalar_json(x) for x in row] for row in nil],
    }


def sparse_deck(rng: random.Random, workdir: str) -> list[Card]:
    """The sparse ladder: truncated polynomial and monomial quotient specs,
    s = 4..15, under all six commands.  Heavy commands (derivations and
    foliation build the Lie structure) stop at s = 10; check, field and
    flow go to s = 15."""
    deck = Deck(workdir)
    entries = {name: gen.sparse_entry(name) for name in gen.SPARSE_LADDER}

    def spec(name):
        return deck.write(f"{name}.json", entries[name]["spec"])

    def expected(name):
        return entries[name]["expected"]

    for name in ("t1k3", "t3k1", "t2k2", "q_x2y3", "q_x2y2z2", "t2k3", "t2k4", "t1k14"):
        deck.add(f"check {name}", ["check", "--json", spec(name)], check_valid(expected(name)))
    for name in ("t1k3", "t4k1", "q_x2y3", "q_x3y3_xy2", "t2k3"):
        deck.add(f"derivations {name}", ["derivations", "--json", spec(name)],
                 check_derivations(expected(name)))
    for name, n in (("t2k2", 2), ("q_x4y2", 1), ("t1k9", 2), ("t2k4", 1)):
        index = rng.randrange(expected(name)["r"])
        deck.add(f"field {name}",
                 ["field", "--json", spec(name), "--n", str(n), "--derivation", str(index)],
                 check_field(expected(name), entries[name]["table"], n, index))
    # The four cards near 1 s (field t2k4, flow t1k14, derivations and
    # foliation t2k3) are the top 15 % of a round and hold the 90th
    # percentile inside one group of similar cost.
    for name, n, kind in (("t1k3", 2, "rational"), ("t3k1", 2, "zero"),
                          ("t2k2", 3, "rational"), ("q_x2y3", 2, "rational"),
                          ("t2k3", 1, "rational")):
        base, nil = gen.near_point_coords(rng, n, expected(name)["dim"], kind)
        point = deck.write(f"point-{len(deck.cards):02d}.json", _point_json(base, nil))
        deck.add(f"foliation {name}",
                 ["foliation", "--json", spec(name), "--n", str(n), "--point", point],
                 check_foliation(expected(name), n, kind == "zero"))
    for name, n, kind in (("t1k5", 2, "float"), ("t3k2", 1, "rational"), ("t1k14", 1, "rational")):
        base, nil = gen.near_point_coords(rng, n, expected(name)["dim"], kind)
        point = deck.write(f"point-{len(deck.cards):02d}.json", _point_json(base, nil))
        index = rng.randrange(expected(name)["r"])
        t = gen.flow_time(rng)
        deck.add(f"flow {name}",
                 ["flow", "--json", spec(name), "--n", str(n), "--derivation", str(index),
                  "--t", repr(t), "--point", point],
                 check_flow(expected(name), base))
    for n in (1, 3):
        deck.add(f"liouville {n}", ["liouville", "--json", "--n", str(n)], check_liouville(n))
    return deck.cards


def dense_deck(rng: random.Random, workdir: str) -> list[Card]:
    """Scrambled structure-constant tables, s = 4..8: one per dense base
    (16) plus one invalid table per axiom (4), each under check and
    derivations: 40 cards, so three rounds make 120 operations.  The three
    s = 7 derivations cost about the same, and they hold the 90th
    percentile, below the two s = 8 ones."""
    deck = Deck(workdir)
    for number, entry in enumerate(gen.dense_specs(rng)):
        path = deck.write(f"dense-{number:02d}.json", entry["spec"])
        if "axiom" in entry:
            deck.add(f"check {entry['name']}", ["check", "--json", path],
                     check_rejected(entry["axiom"], as_json=True))
            deck.add(f"derivations {entry['name']}", ["derivations", "--json", path],
                     check_rejected(entry["axiom"], as_json=False))
        else:
            deck.add(f"check {entry['name']}", ["check", "--json", path],
                     check_valid(entry["expected"]))
            deck.add(f"derivations {entry['name']}", ["derivations", "--json", path],
                     check_derivations(entry["expected"]))
    return deck.cards
