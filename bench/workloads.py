"""Seeded inputs for the three workloads, and the oracle checks of their outputs.

Inputs are made from ``random.Random(f"{workload}/{seed}")`` only; the
program sees the generated inputs, never the seed. Every workload is a
sequence of rounds with the same op mix, so a round is the unit the timing
loop stops on and seeds change the inputs but not the load.

The checks run in the benchmark process after the timed loop, against a
route the op itself did not use:

- ``cli_oneshot``: exit code, empty stdout for bad input, and the printed
  value against the Weyl sum, the brute-force enumerators or Tarski;
- ``deep_points``: g2 at q = 1 against Tarski's closed form, sp4 at q = 1
  against the corrected closed form, and no negative coefficient;
- ``grid_sweep``: ``verify`` reports 0 mismatches; the ``table`` CSV has
  the SHA-256 recorded below.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import cache
from random import Random


@dataclass(frozen=True)
class Sizes:
    """How much work one run does; FULL for measuring, SMOKE for a quick check."""

    cli_trace_rounds: int
    deep_g2: tuple[int, int]  # range of each fundamental coordinate of lambda
    deep_c2: tuple[int, int]
    deep_jitter: tuple[int, int, int, int]  # g2 lambda, g2 mu, c2 lambda, c2 mu
    deep_max_rounds: int
    deep_trace_rounds: int
    grid_max: int
    grid_trace_rounds: int
    # Rounds every timed run completes, per workload; latency percentiles are
    # taken over their ops only, so each run ranks the same number of samples.
    min_rounds: dict
    floor_probes: int
    setup_probes: int


FULL = Sizes(
    cli_trace_rounds=10,
    deep_g2=(20, 80),
    deep_c2=(1000, 2500),
    deep_jitter=(2, 2, 30, 20),
    deep_max_rounds=64,
    deep_trace_rounds=2,
    grid_max=10,
    grid_trace_rounds=1,
    min_rounds={"cli_oneshot": 12, "deep_points": 8, "grid_sweep": 6},
    floor_probes=6,
    setup_probes=16,
)

SMOKE = Sizes(
    cli_trace_rounds=1,
    deep_g2=(4, 12),
    deep_c2=(20, 60),
    deep_jitter=(1, 1, 2, 2),
    deep_max_rounds=2,
    deep_trace_rounds=1,
    grid_max=2,
    grid_trace_rounds=1,
    min_rounds={"cli_oneshot": 1, "deep_points": 1, "grid_sweep": 1},
    floor_probes=2,
    setup_probes=2,
)

# SHA-256 of `table --max N --output FILE`, recorded from the reference
# implementation; keyed by (algebra, N).
TABLE_SHA256 = {
    ("g2", 10): "00b0a4baa51beca9b2c0353d16a48d1e2e3c0822bd5461da255f13da710e8e3d",
    ("c2", 10): "a34d7d02e44588ad936907cb1076df2053fdfef81323904848b71dc7050be107",
    ("g2", 2): "72b6c410ee623786a5091da53a20413759e9e5c5e9db496a37bbc0a277b5d575",
    ("c2", 2): "5db9753815c693671458675eeb51c3d3756dc8d807ba2101ad4e254718a82735",
}

VERIFY_CHECKS = {
    "g2": ("qpartition_vs_bruteforce", "tarski_vs_qpartition_at_one",
           "qmult_closed_vs_weyl_sum", "multiplicity_qpoly_vs_tarski", "case_audit"),
    "c2": ("qpartition_vs_bruteforce", "partition_closed_vs_qpartition_at_one",
           "mult_closed_vs_weyl_sum_at_one", "odd_parity_vanishing"),
}


def rng_for(workload: str, seed: int) -> Random:
    return Random(f"{workload}/{seed}")


# -- cli_oneshot ---------------------------------------------------------------

# One round: (command, algebra). 4 of 22 ops are bad input that must exit 1.
CLI_MIX = (
    ("qmult", "g2"), ("qmult", "g2"), ("qmult", "g2"), ("qmult", "c2"), ("qmult", "c2"),
    ("mult", "g2"), ("mult", "g2"), ("mult", "c2"), ("mult", "c2"),
    ("case", "g2"), ("case", "g2"), ("case", "c2"), ("case", "c2"),
    ("qpartition", "g2"), ("qpartition", "g2"), ("qpartition", "c2"),
    ("partition", "g2"), ("partition", "c2"),
    ("malformed", "g2"), ("malformed", "c2"),
    ("nondominant", "g2"), ("nondominant", "c2"),
)
CLI_MAX_COORD = 10
FORMATS = ("text", "json", "latex")
_MALFORMED = ("3;4", "1,2,3", "a,b", "7", "2,x", "")


def cli_round(rng: Random) -> list[dict]:
    """One shuffled round of CLI_MIX with seeded weights and formats."""
    kinds = list(CLI_MIX)
    rng.shuffle(kinds)
    return [_cli_op(rng, cmd, algebra) for cmd, algebra in kinds]


def _cli_op(rng: Random, cmd: str, algebra: str) -> dict:
    fmt = rng.choice(FORMATS)
    tail = ["--algebra", algebra, "--format", fmt]
    m, n = rng.randint(0, CLI_MAX_COORD), rng.randint(0, CLI_MAX_COORD)
    if cmd in ("qpartition", "partition"):
        return {"cmd": cmd, "algebra": algebra, "fmt": fmt, "coords": [m, n],
                "argv": [cmd, f"{m},{n}", *tail]}
    if cmd == "malformed":
        sub = rng.choice(("qmult", "mult", "case", "qpartition", "partition"))
        bad = rng.choice(_MALFORMED)
        if sub in ("qpartition", "partition"):
            argv = [sub, bad, *tail]
        else:
            argv = [sub, "--lambda", bad, "--mu", "0,0", *tail]
        return {"cmd": cmd, "argv": argv}
    x, y = rng.randint(0, m), rng.randint(0, n)
    if cmd == "nondominant":
        sub = rng.choice(("qmult", "mult", "case"))
        if rng.random() < 0.5:
            argv = [sub, f"--lambda=-{m + 1},{n}", "--mu", f"{x},{y}", *tail]
        else:
            argv = [sub, "--lambda", f"{m},{n}", f"--mu={x},-{y + 1}", *tail]
        return {"cmd": cmd, "argv": argv}
    argv = [cmd, "--lambda", f"{m},{n}", "--mu", f"{x},{y}", *tail]
    op = {"cmd": cmd, "algebra": algebra, "fmt": fmt, "lam": [m, n], "mu": [x, y]}
    if cmd == "mult" and algebra == "g2":
        op["method"] = rng.choice(("qpoly", "tarski"))
        argv += ["--method", op["method"]]
    op["argv"] = argv
    return op


_POLY_TERM = re.compile(r"(\d*)(q(?:\^(\d+))?)?")


def parse_poly(text: str, fmt: str) -> tuple[int, ...]:
    """Coefficients (ascending) of a polynomial as the CLI prints it."""
    if fmt == "json":
        return tuple(json.loads(text)["coeffs"])
    text = text.replace("^{", "^").replace("}", "")
    if text == "0":
        return ()
    coeffs: dict[int, int] = {}
    sign = 1
    for token in text.split(" "):
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -1, token[1:]
        match = _POLY_TERM.fullmatch(token)
        if not token or match is None:
            raise ValueError(f"bad polynomial term {token!r}")
        digits, power, exponent = match.groups()
        degree = (int(exponent) if exponent else 1) if power else 0
        if degree in coeffs:
            raise ValueError(f"repeated degree {degree}")
        coeffs[degree] = sign * (int(digits) if digits else 1)
        sign = 1
    out = [0] * (max(coeffs) + 1)
    for degree, coeff in coeffs.items():
        out[degree] = coeff
    return tuple(out)


def _parse_value(text: str, fmt: str) -> int:
    return json.loads(text)["value"] if fmt == "json" else int(text)


def _parse_case(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    label, _, rest = text.partition(": ")
    if not label.startswith("case "):
        raise ValueError(f"bad case line {text!r}")
    fields = dict(item.split("=") for item in rest.split(" "))
    return {"case": label[5:], **{key: int(value) for key, value in fields.items()}}


# Terms of the g2 closed form: sign and the case integers giving the root
# coordinates of the partition argument.
_G2_TERMS = {"P": (1, "a", "b"), "Q": (-1, "c", "b"), "R": (-1, "a", "d"),
             "S": (1, "c", "e"), "T": (1, "f", "d")}


@cache
def _g2_brute(c1: int, c2: int) -> tuple[int, ...]:
    from qkostant import RootCoord, qpartition_bruteforce

    return qpartition_bruteforce(RootCoord(c1, c2)).coeffs


@cache
def _c2_brute(c1: int, c2: int) -> tuple[int, ...]:
    from qkostant import RootCoord, qpartition_c2_bruteforce

    return qpartition_c2_bruteforce(RootCoord(c1, c2)).coeffs


def _signed_sum(terms: list[tuple[int, tuple[int, ...]]]) -> tuple[int, ...]:
    out = [0] * max((len(coeffs) for _, coeffs in terms), default=0)
    for sign, coeffs in terms:
        for i, c in enumerate(coeffs):
            out[i] += sign * c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def check_cli(op: dict, rc: int | None, out: str, err: str) -> bool:
    """True when one CLI call's exit code and output are right (rc None: it raised).

    Bad input must be rejected cleanly: exit 1, nothing on stdout, and an
    error message rather than a traceback (a crash also exits 1).
    """
    if op["cmd"] in ("malformed", "nondominant"):
        return rc == 1 and out == "" and err != "" and "Traceback" not in err
    if rc != 0 or not out.endswith("\n"):
        return False
    try:
        return _CLI_CHECKS[op["cmd"]](op, out[:-1])
    except (ValueError, KeyError, TypeError, IndexError, AttributeError):
        return False


def _check_qmult(op: dict, text: str) -> bool:
    from qkostant import FundCoord, multiplicity_c2_closed, qmultiplicity_weyl_sum

    got = parse_poly(text, op["fmt"])
    lam, mu = FundCoord(*op["lam"]), FundCoord(*op["mu"])
    if op["algebra"] == "g2":
        return got == qmultiplicity_weyl_sum(lam, mu).coeffs
    return sum(got) == multiplicity_c2_closed(lam, mu).value and min(got, default=0) >= 0


def _check_mult(op: dict, text: str) -> bool:
    from qkostant import FundCoord, multiplicity, multiplicity_c2_weyl_sum, qmultiplicity_weyl_sum

    got = _parse_value(text, op["fmt"])
    lam, mu = FundCoord(*op["lam"]), FundCoord(*op["mu"])
    if op["algebra"] == "c2":
        return got == sum(multiplicity_c2_weyl_sum(lam, mu).coeffs)
    if op["method"] == "qpoly":
        return got == multiplicity(lam, mu, method="tarski")
    return got == sum(qmultiplicity_weyl_sum(lam, mu).coeffs)


def _check_case(op: dict, text: str) -> bool:
    """The printed case integers, combined as their label says, give the Weyl sum."""
    from qkostant import FundCoord, multiplicity_c2_weyl_sum, qmultiplicity_weyl_sum

    case = _parse_case(text, op["fmt"])
    label = case["case"]
    if op["fmt"] == "json" and (case["lambda"] != op["lam"] or case["mu"] != op["mu"]):
        return False
    lam, mu = FundCoord(*op["lam"]), FundCoord(*op["mu"])
    letters = "" if label == "ZERO" else label
    if op["algebra"] == "g2":
        terms = []
        for letter in letters:
            sign, k1, k2 = _G2_TERMS[letter]
            c1, c2 = case[k1], case[k2]
            terms.append((sign, _g2_brute(c1, c2) if c1 >= 0 and c2 >= 0 else ()))
        return _signed_sum(terms) == qmultiplicity_weyl_sum(lam, mu).coeffs
    value = 0
    if letters:
        b = case["two_b"] // 2
        value = sum(_c2_brute(case["a"], b))
        if "Q" in letters:
            value -= sum(_c2_brute(case["c"], b))
        if "R" in letters:
            value -= sum(_c2_brute(case["a"], case["two_d"] // 2))
    return value == sum(multiplicity_c2_weyl_sum(lam, mu).coeffs)


def _check_qpartition(op: dict, text: str) -> bool:
    brute = _g2_brute if op["algebra"] == "g2" else _c2_brute
    return parse_poly(text, op["fmt"]) == brute(*op["coords"])


def _check_partition(op: dict, text: str) -> bool:
    brute = _g2_brute if op["algebra"] == "g2" else _c2_brute
    return _parse_value(text, op["fmt"]) == sum(brute(*op["coords"]))


_CLI_CHECKS = {
    "qmult": _check_qmult,
    "mult": _check_mult,
    "case": _check_case,
    "qpartition": _check_qpartition,
    "partition": _check_partition,
}


# -- deep_points ---------------------------------------------------------------

# Each round has one query per slot and algebra: lambda at fractions (tm, tn)
# of the coordinate range, mu at fractions (fx, fy) of lambda/4, each then
# jittered by the seed. Fixed slots keep the cost of a round nearly the same
# for every seed, so seeds vary the inputs and not the load.
DEEP_SLOTS = (
    (0.0, 1.0, 0.2, 0.8),
    (1.0, 0.0, 0.8, 0.2),
    (0.25, 0.25, 0.5, 0.5),
    (0.5, 0.75, 0.0, 0.4),
    (0.75, 0.5, 0.4, 0.0),
    (0.6, 1.0, 0.6, 0.3),
    (1.0, 0.6, 0.3, 0.6),
    (0.9, 0.9, 0.1, 0.1),
)


def deep_rounds(rng: Random, sizes: Sizes) -> list[list[list]]:
    """Distinct dominant (lambda, mu) queries, alternating g2 and sp4."""
    seen: set[tuple] = set()
    rounds = []
    jg_lam, jg_mu, jc_lam, jc_mu = sizes.deep_jitter
    for _ in range(sizes.deep_max_rounds):
        queries = []
        for slot in DEEP_SLOTS:
            queries.append(_deep_query(rng, seen, "g2", slot, sizes.deep_g2, jg_lam, jg_mu))
            queries.append(_deep_query(rng, seen, "c2", slot, sizes.deep_c2, jc_lam, jc_mu))
        rounds.append(queries)
    return rounds


def _deep_query(rng, seen, algebra, slot, bounds, j_lam, j_mu) -> list:
    lo, hi = bounds
    tm, tn, fx, fy = slot
    for _ in range(1000):
        m = min(hi, max(lo, round(lo + tm * (hi - lo)) + rng.randint(-j_lam, j_lam)))
        n = min(hi, max(lo, round(lo + tn * (hi - lo)) + rng.randint(-j_lam, j_lam)))
        x = min(m // 4, max(0, round(fx * m / 4) + rng.randint(-j_mu, j_mu)))
        y = min(n // 4, max(0, round(fy * n / 4) + rng.randint(-j_mu, j_mu)))
        if algebra == "c2" and (m - x) % 2:
            x += 1 if x == 0 else -1  # stay in lambda's root-lattice coset
        query = (algebra, m, n, x, y)
        if query not in seen:
            seen.add(query)
            return list(query)
    raise RuntimeError(f"cannot draw a new {algebra} query for slot {slot}")


def check_deep(query: list, at_one: int, min_coeff: int) -> bool:
    from qkostant import FundCoord, multiplicity, multiplicity_c2_closed

    algebra, m, n, x, y = query
    lam, mu = FundCoord(m, n), FundCoord(x, y)
    if algebra == "g2":
        expected = multiplicity(lam, mu, method="tarski")
    else:
        expected = multiplicity_c2_closed(lam, mu).value
    return at_one == expected and min_coeff >= 0


# -- grid_sweep ----------------------------------------------------------------

GRID_COMMANDS = (("verify", "g2"), ("verify", "c2"), ("table", "g2"), ("table", "c2"))


def grid_round(rng: Random) -> list[tuple[str, str]]:
    """The four grid commands in seeded order."""
    commands = list(GRID_COMMANDS)
    rng.shuffle(commands)
    return commands


def grid_argv(command: str, algebra: str, grid_max: int, table_path: str) -> list[str]:
    argv = [command, "--algebra", algebra, "--max", str(grid_max)]
    return argv + ["--output", table_path] if command == "table" else argv


def grid_failures(command: str, algebra: str, grid_max: int, rc: int, out: str,
                  table_bytes: bytes | None) -> int:
    """Grid tuples counted as failed for one command (0 when it is right)."""
    tuples = (grid_max + 1) ** 4
    if command == "table":
        digest = hashlib.sha256(table_bytes or b"").hexdigest()
        return 0 if rc == 0 and digest == TABLE_SHA256.get((algebra, grid_max)) else tuples
    try:
        report = json.loads(out)
        checks = {check["name"]: check for check in report["checks"]}
        wanted = VERIFY_CHECKS[algebra]
        if (rc != 0 or report["algebra"] != algebra or report["grid_max"] != grid_max
                or sorted(checks) != sorted(wanted)):
            return tuples
        return min(tuples, sum(check["mismatches"] for check in checks.values()))
    except (ValueError, KeyError, TypeError):
        return tuples
